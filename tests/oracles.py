"""Reference implementations the tests check the library against.

Each is the plain, slow form of something the library computes faster or no
longer computes at all; none of them is used by the closed loop.
"""

from __future__ import annotations

import heapq
from math import comb

import numpy as np

from aerotrack.errors import NoPath, SeedOccupied, StartOccupied
from aerotrack.kino_search import KinoPath, _controls, _obvp_batch, reaches

_SCAN_T = np.arange(1e-3, 20.0 + 1e-3, 1e-3)


def scan_minimum(alpha, beta, gamma, rho):
    """(J, T) minimizing ``rho*T + alpha/T^3 + beta/T^2 + gamma/T`` on a 1 ms grid to 20 s."""
    J = rho * _SCAN_T + alpha / _SCAN_T**3 + beta / _SCAN_T**2 + gamma / _SCAN_T
    i = int(np.argmin(J))
    return float(J[i]), float(_SCAN_T[i])


def sample_quintic(traj, t: float):
    """(position, velocity, acceleration) of a piecewise quintic, one scalar time at a time.

    A frozen copy of the per-sample formula the library evaluated trajectories
    with before it sampled them in batches.
    """
    t = float(np.clip(t, 0.0, traj.duration))
    cum = np.concatenate([[0.0], np.cumsum(traj.durations)])
    piece = min(int(np.searchsorted(cum, t, side="right")) - 1, len(traj.durations) - 1)
    piece = max(piece, 0)
    tau = t - cum[piece]
    c = traj.coeffs[piece]
    powers = tau ** np.arange(6)
    k = np.arange(6)
    dp = np.concatenate([[0.0], k[1:] * tau ** (k[1:] - 1)])
    ddp = np.array([0.0, 0.0, 2.0, 6.0 * tau, 12.0 * tau**2, 20.0 * tau**3])
    return c @ powers, c @ dp, c @ ddp


def rollout_positions(path, spacing: float) -> np.ndarray:
    """Dense positions of a search path, one primitive ``p + t v + t^2 u / 2`` at a time."""
    if not len(path.controls):
        return path.p[-1][None, :]
    chunks = [path.p[0][None, :]]
    for p, v, v_end, u in zip(path.p, path.v, path.v[1:], path.controls):
        speed = max(np.linalg.norm(v), np.linalg.norm(v_end), 0.1)
        n = max(int(np.ceil(speed * path.tau / spacing)), 2)
        ts = np.linspace(0.0, path.tau, n + 1)[1:]
        chunks.append(p + np.outer(ts, v) + 0.5 * np.outer(ts**2, u))
    return np.vstack(chunks)


def junction_mismatch(traj) -> float:
    """Largest position/velocity/acceleration gap across a trajectory's junctions."""
    worst = 0.0
    for i, T in enumerate(traj.durations[:-1]):
        for order in range(3):
            gap = traj.eval_local(i, T, order) - traj.eval_local(i + 1, 0.0, order)
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def jerk_cost(traj) -> float:
    """Integrated squared jerk of a piecewise quintic, from its coefficients."""
    total = 0.0
    for T, c in zip(traj.durations, traj.coeffs):
        tail = c[:, 3:]  # (3 axes, c3..c5)
        total += float(np.einsum("ai,ij,aj->", tail, gram_jerk(T), tail))
    return total


def solve_inner_per_slot(waypoints, T, boundary):
    """(d_all, jerk cost) of the inner minimum-jerk solve, one scalar slot at a time.

    A frozen copy of the per-slot assembly the library used before it solved
    on one junction-derivative array.
    """
    M = len(T)
    Qs = [jerk_quadratic(float(t)) for t in T]
    nz = 2 * (M - 1)

    def slot(piece, local):
        junction = piece + (1 if local >= 3 else 0)
        kind = local % 3
        if kind == 0 or junction == 0 or junction == M:
            return False, None
        return True, 2 * (junction - 1) + (kind - 1)

    def fixed_value(piece, local, axis):
        junction = piece + (1 if local >= 3 else 0)
        kind = local % 3
        if kind == 0:
            return waypoints[junction, axis]
        return boundary[0 if junction == 0 else 1][kind][axis]

    z = np.zeros((0, 3))
    if nz > 0:
        A = np.zeros((nz, nz))
        B = np.zeros((nz, 3))
        for i in range(M):
            for l1 in range(6):
                free1, g1 = slot(i, l1)
                for l2 in range(6):
                    free2, g2 = slot(i, l2)
                    if free1 and free2:
                        A[g1, g2] += Qs[i][l1, l2]
                    elif free1:
                        for axis in range(3):
                            B[g1, axis] += Qs[i][l1, l2] * fixed_value(i, l2, axis)
        z = np.linalg.solve(A, -B)
    d_all = np.zeros((M, 6, 3))
    for i in range(M):
        for l in range(6):
            free, g = slot(i, l)
            for axis in range(3):
                d_all[i, l, axis] = z[g, axis] if free else fixed_value(i, l, axis)
    j_cost = float(sum(np.einsum("la,lm,ma->", d_all[i], Qs[i], d_all[i]) for i in range(M)))
    return d_all, j_cost


# Frozen per-piece quintic Hermite forms, as the optimizer built them one
# piece at a time before it scaled one unit-piece form.

def tail_maps(T: float):
    """(W, Dmap) with tail coefficients (c3, c4, c5) = W @ Dmap @ d."""
    W = 0.5 * np.array([
        [20.0 / T**3, -8.0 / T**2, 1.0 / T],
        [-30.0 / T**4, 14.0 / T**3, -2.0 / T**2],
        [12.0 / T**5, -6.0 / T**4, 1.0 / T**3],
    ])
    Dmap = np.array([
        [-1.0, -T, -0.5 * T * T, 1.0, 0.0, 0.0],
        [0.0, -1.0, -T, 0.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 1.0],
    ])
    return W, Dmap


def tail_maps_dT(T: float):
    dW = 0.5 * np.array([
        [-60.0 / T**4, 16.0 / T**3, -1.0 / T**2],
        [120.0 / T**5, -42.0 / T**4, 4.0 / T**3],
        [-60.0 / T**6, 24.0 / T**5, -3.0 / T**4],
    ])
    dDmap = np.array([
        [0.0, -1.0, -T, 0.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    return dW, dDmap


def gram_jerk(T: float) -> np.ndarray:
    """Gram matrix of (6, 24t, 60t^2) on [0, T]: jerk integral of the tail."""
    return np.array([
        [36.0 * T, 72.0 * T**2, 120.0 * T**3],
        [72.0 * T**2, 192.0 * T**3, 360.0 * T**4],
        [120.0 * T**3, 360.0 * T**4, 720.0 * T**5],
    ])


def gram_jerk_dT(T: float) -> np.ndarray:
    return np.array([
        [36.0, 144.0 * T, 360.0 * T**2],
        [144.0 * T, 576.0 * T**2, 1440.0 * T**3],
        [360.0 * T**2, 1440.0 * T**3, 3600.0 * T**4],
    ])


def jerk_quadratic(T: float) -> np.ndarray:
    """Q(T) with piece jerk cost = d' Q d."""
    W, Dmap = tail_maps(T)
    H3 = W @ Dmap
    return H3.T @ gram_jerk(T) @ H3


def jerk_quadratic_dT(T: float) -> np.ndarray:
    W, Dmap = tail_maps(T)
    dW, dDmap = tail_maps_dT(T)
    H3 = W @ Dmap
    dH3 = dW @ Dmap + W @ dDmap
    G = gram_jerk(T)
    dG = gram_jerk_dT(T)
    return dH3.T @ G @ H3 + H3.T @ dG @ H3 + H3.T @ G @ dH3


# Frozen Bezier evaluation, as the prediction evaluated its curve before it
# converted the control points to a power-basis ``PiecewisePoly``.

def bernstein(n: int, i: int, t: float) -> float:
    """Bernstein basis polynomial b_{n,i}(t) = C(n,i) t^i (1-t)^(n-i)."""
    return comb(n, i) * t**i * (1.0 - t) ** (n - i)


def hodograph(control_points, n: int, scale: float) -> np.ndarray:
    """Control points of the derivative curve: d_i = n (c_{i+1} - c_i) / scale."""
    return n * np.diff(np.asarray(control_points, dtype=float), axis=0) / scale


def de_casteljau(control_points, s: float) -> np.ndarray:
    pts = np.asarray(control_points, dtype=float).copy()
    while len(pts) > 1:
        pts = (1.0 - s) * pts[:-1] + s * pts[1:]
    return pts[0]


def cube_is_free(grid, cube) -> bool:
    """Exhaustively scan all voxels overlapping ``cube`` (interior overlap)."""
    lo = np.floor((cube[0] - grid.origin) / grid.resolution + 1e-9).astype(int)
    hi = np.ceil((cube[1] - grid.origin) / grid.resolution - 1e-9).astype(int)
    if np.any(lo < 0) or np.any(hi > grid.dims):
        return False
    return not bool(grid.occupied[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].any())


def free_goal(world, goal_p):
    """The goal ``tracker._free_goal`` picks, testing one candidate point at a time.

    A frozen copy of the loop the tracker ran before it looked up every
    candidate's occupancy in one call.
    """
    if not world.grid.is_occupied(goal_p):
        return goal_p
    direction = world.quad[0] - goal_p
    dist = float(np.linalg.norm(direction))
    if dist < 1e-6:
        return world.quad[0].copy()
    n = max(int(dist / (world.grid.resolution / 2.0)), 1)
    for frac in np.linspace(0.0, 1.0, n + 1)[1:]:
        candidate = goal_p + frac * direction
        if not world.grid.is_occupied(candidate):
            return candidate
    return world.quad[0].copy()


def inflate_box(grid, seed, max_extent: float) -> np.ndarray:
    """The free cube ``OccupancyGrid.inflate_box`` grows, one mirrored block per side.

    A frozen copy of the method before the two directions of an axis shared
    one body.
    """
    seed = np.asarray(seed, dtype=float)
    if grid.is_occupied(seed):
        raise SeedOccupied(f"inflation seed {seed.tolist()} is occupied")
    lo = grid.world_to_voxel(seed)
    hi = lo.copy()

    def layer_free(ax: int, index: int) -> bool:
        if index < 0 or index >= grid.dims[ax]:
            return False
        sl = [slice(lo[0], hi[0] + 1), slice(lo[1], hi[1] + 1), slice(lo[2], hi[2] + 1)]
        sl[ax] = slice(index, index + 1)
        return not bool(grid.occupied[tuple(sl)].any())

    growing = [True] * 6
    while any(growing):
        for side in range(6):
            if not growing[side]:
                continue
            ax, positive = divmod(side, 2)[0], side % 2 == 0
            if positive:
                nxt = hi[ax] + 1
                face = grid.origin[ax] + (nxt + 1) * grid.resolution
                ok = face <= seed[ax] + max_extent + 1e-9 and layer_free(ax, nxt)
                if ok:
                    hi[ax] = nxt
                else:
                    growing[side] = False
            else:
                nxt = lo[ax] - 1
                face = grid.origin[ax] + nxt * grid.resolution
                ok = face >= seed[ax] - max_extent - 1e-9 and layer_free(ax, nxt)
                if ok:
                    lo[ax] = nxt
                else:
                    growing[side] = False
    return np.array([grid.origin + lo * grid.resolution,
                     grid.origin + (hi + 1) * grid.resolution])


def forest(raw_map: dict, seed: int, density: float, radius: float, keep_clear=()) -> list:
    """Cylinder obstacles of a random forest over the x-y extent of ``raw_map``.

    ``round(density * area)`` trees of ``radius`` are drawn uniformly from
    ``np.random.default_rng(seed)``, and a tree closer than ``r + radius`` to
    the centre of a keep-clear disc ``[x, y, r]`` is dropped. Each tree spans
    the map's height. A frozen copy of the map spec's former ``forest``
    obstacle type, so the same arguments list the same trees.
    """
    extent = np.asarray(raw_map["dims"][:2]) * raw_map["resolution"]
    count = int(round(density * float(extent[0] * extent[1])))
    uniform = np.random.default_rng(seed).uniform(0.0, 1.0, size=(count, 2))
    xy = np.asarray(raw_map["origin"], dtype=float)[:2] + uniform * extent
    return [{"type": "cylinder", "center": [float(x), float(y)], "radius": radius}
            for x, y in xy
            if all(np.hypot(x - cx, y - cy) >= r + radius for cx, cy, r in keep_clear)]


def eager_search(start, grid, w, goal, occlusion_target):
    """``kino_search.search`` as it was when every pushed node got its
    occlusion penalty at once: a frozen copy of the eager evaluation the
    search replaced by adding the penalty when a node is popped.

    The line of sight of a voxel is taken at the first position pushed into
    it, the start's first, and a child's key is g + (heuristic + penalty).
    """
    start, goal = np.asarray(start, dtype=float), np.asarray(goal, dtype=float)
    (p0, v0), (goal_p, goal_v) = start, goal
    if grid.is_occupied(p0):
        raise StartOccupied(f"search start {p0.tolist()} is occupied")
    x_tp = np.asarray(occlusion_target, dtype=float)

    res = grid.resolution
    inv_res = 1.0 / res
    inv_bin = 1.0 / w.vel_bin

    def node_keys(p: np.ndarray, v: np.ndarray) -> list[tuple]:
        """Voxel and velocity-bin identity of each row of ``p`` and ``v``."""
        cells = np.concatenate(((p - grid.origin) * inv_res // 1, v * inv_bin // 1), axis=1)
        return list(map(tuple, cells.astype(np.int64).tolist()))

    occ_memo: dict[tuple, float] = {}

    def occ_pen(p: np.ndarray, vox_key: tuple) -> float:
        if w.p_occ == 0.0:
            return 0.0
        pen = occ_memo.get(vox_key)
        if pen is None:
            pen = 0.0 if grid.line_of_sight(p, x_tp) else w.p_occ
            occ_memo[vox_key] = pen
        return pen

    controls = _controls(w)
    tau = w.tau
    control_costs = (np.sum(controls**2, axis=1) + w.rho) * tau
    # collision sampling times, quarter-voxel spacing at the speed bound
    n_samp = max(int(np.ceil(np.sqrt(3) * w.v_max * tau / (0.25 * res))), 4)
    ts = np.linspace(0.0, tau, n_samp + 1)[1:]

    node_p, node_v = np.empty((256, 3)), np.empty((256, 3))
    node_g = np.empty(256)
    parent, ctrl = np.empty(256, dtype=np.intp), np.empty(256, dtype=np.intp)
    rows, open_heap = {}, []  # key -> row; (f, -g, key) entries

    def admit(p, v, g, keys, from_row, via):
        """Push rows ``p``, ``v``, ``g`` with keys ``keys``, reached from row
        ``from_row`` by the controls ``via``, and store each at its key's row;
        a key given twice keeps its last row."""
        D, T_star = _obvp_batch(goal_p - p, v, goal_v, w.rho)
        pen = [occ_pen(p_j, key[:3]) for p_j, key in zip(p, keys)]
        f = g + (D + w.c_time * T_star + np.array(pen))
        last = {}
        for j, (key, f_j, g_j) in enumerate(zip(keys, f.tolist(), g.tolist())):
            last[rows.setdefault(key, len(rows))] = j
            heapq.heappush(open_heap, (f_j, -g_j, key))
        dst = np.fromiter(last.keys(), np.intp, len(last))
        src = np.fromiter(last.values(), np.intp, len(last))
        node_p[dst], node_v[dst], node_g[dst] = p[src], v[src], g[src]
        parent[dst], ctrl[dst] = from_row, via[src]

    admit(start[:1], start[1:], np.zeros(1), node_keys(start[:1], start[1:]), -1, np.array([-1]))
    expansions = 0
    best_fb = (float(np.linalg.norm(p0 - goal_p)), 0.0, 0)
    goal_row = None

    while open_heap and expansions < w.node_budget:
        f, neg_g, key = heapq.heappop(open_heap)
        row = rows[key]
        g, p, v = node_g[row], node_p[row], node_v[row]
        if -neg_g < g - 1e-12:  # stale heap entry
            continue
        if reaches(p, v, goal, w):
            goal_row = row
            break
        expansions += 1
        dist = float(np.linalg.norm(p - goal_p))
        if (dist, f) < (best_fb[0], best_fb[1]):
            best_fb = (dist, f, row)

        end_v = v[None, :] + controls * tau
        feasible = np.all(np.abs(end_v) <= w.v_max + 1e-9, axis=1)
        # sample all primitives at once: (n_ctrl, n_samp, 3)
        pos = (p[None, None, :]
               + v[None, None, :] * ts[None, :, None]
               + 0.5 * controls[:, None, :] * (ts[None, :, None] ** 2))
        kept = np.nonzero(feasible & ~grid.occupied_at(pos).any(axis=1))[0]
        if not len(kept):
            continue
        # rows of the kept children; fancy indexing copies them out of pos
        child_p, child_v = pos[kept, -1, :], end_v[kept]
        child_g = g + control_costs[kept]
        keys = node_keys(child_p, child_v)
        # dominance check first; the heuristic is only solved for survivors
        surv = [j for j, (ckey, g_child) in enumerate(zip(keys, child_g.tolist()))
                if (r := rows.get(ckey)) is None or node_g[r] > g_child + 1e-12]
        if not surv:
            continue
        while len(rows) + len(surv) > len(node_g):
            node_p, node_v, node_g, parent, ctrl = (np.concatenate([a, np.empty_like(a)])
                                                    for a in (node_p, node_v, node_g, parent, ctrl))
        admit(child_p[surv], child_v[surv], child_g[surv], [keys[i] for i in surv], row, kept[surv])

    if goal_row is None and len(rows) == 1:
        raise NoPath("no primitive could be expanded from the start state")
    final = goal_row if goal_row is not None else best_fb[2]

    # reconstruct
    chain = [final]
    while parent[chain[-1]] >= 0:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    return KinoPath(node_p[chain], node_v[chain], controls[ctrl[chain[1:]]], tau,
                    float(node_g[final]),
                    info={"expansions": expansions, "reached_goal": goal_row is not None})

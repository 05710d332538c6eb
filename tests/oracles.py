"""Reference implementations the tests check the library against.

Each is the plain, slow form of something the library computes faster or no
longer computes at all; none of them is used by the closed loop.
"""

from __future__ import annotations

from math import comb

import numpy as np

from aerotrack.errors import SeedOccupied

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

"""Occlusion-aware kinodynamic path search over acceleration motion primitives.

Best-first search in (position, velocity) space toward a goal state that the
caller gives. The search is planar: each edge applies a constant horizontal
acceleration ``(ux, uy, 0)``, both components taken from ``u_grid``, for a
fixed duration; accumulated cost trades control effort against time. The
heuristic combines the closed-form energy-time cost of the double-integrator
boundary value problem toward the goal, a time penalty on the remaining
optimal duration, and a visibility penalty on nodes that cannot see the given
occlusion target, added when a node is popped, as in Lazy Weighted A*.

The boundary value problem's optimal duration is a positive root of a quartic
in T. Its stationary points are taken from the eigenvalues of the quartic's
companion matrix and polished by Newton steps; the quartic is negative at
T = 0 and grows without bound, so every row has a positive root.

A kinematic state is a float array indexed ``[order, axis]``: the search's
start and goal are (2, 3) arrays ``[p, v]``, position then velocity.

A search returns a ``KinoPath``: the N node positions and velocities as two
(N, 3) arrays, start first, the (N - 1, 3) constant control of each edge and
the edge duration. Its dense samples come from a ``PiecewisePoly`` of degree-2
pieces ``(p, v, u / 2)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import Config, NoPath, NonNegative, Positive, PositiveCount, StartOccupied
from .grid import OccupancyGrid
from .poly import PiecewisePoly


@dataclass
class SearchWeights(Config):
    """Weights, control set, bounds, and budgets for the search; without a time
    weight the heuristic's energy-time cost has no minimum, a zero primitive
    duration never moves, a zero bin divides by zero, and a goal tolerance of 0
    or less is never met, so every search would spend its whole node budget."""

    rho: Positive = 1.0                   # time weight inside the energy-time cost
    w_goal: float = 0.7                   # blend toward the predicted target state
    c_time: float = 1.0                   # multiplier on the heuristic's optimal duration
    p_occ: float = 60.0                   # penalty for nodes without line of sight
    tau: Positive = 0.3                   # primitive duration [s]
    u_grid: tuple = (-3.0, 0.0, 3.0)      # x and y acceleration choices [m/s^2]
    v_max: Positive = 3.0                 # per-axis speed bound [m/s]
    t_lookahead: NonNegative = 1.0        # how far into the prediction the goal looks [s]
    r_goal: Positive = 0.5                # goal position tolerance [m]
    v_goal_tol: Positive = 1.5            # goal velocity tolerance [m/s]
    vel_bin: Positive = 0.5               # velocity quantization for node identity [m/s]
    node_budget: PositiveCount = 30000


@dataclass
class KinoPath:
    """Node positions and velocities, the constant control of each edge, and the edge duration."""

    p: np.ndarray           # (N, 3) node positions [m], start first
    v: np.ndarray           # (N, 3) node velocities [m/s]
    controls: np.ndarray    # (N - 1, 3) acceleration of each edge
    tau: float              # duration of every edge [s]
    total_cost: float
    info: dict = field(default_factory=dict)

    def sample_positions(self, spacing: float) -> np.ndarray:
        """Dense positions along the path at roughly ``spacing`` metres."""
        if not len(self.controls):
            return self.p[-1:]
        curve = PiecewisePoly(np.stack([self.p[:-1], self.v[:-1], 0.5 * self.controls], axis=-1),
                              np.full(len(self.controls), self.tau))
        speed = [np.linalg.norm(v) for v in self.v]
        pieces, taus = [], []
        for i in range(len(self.controls)):
            n = max(int(np.ceil(max(speed[i], speed[i + 1], 0.1) * self.tau / spacing)), 2)
            pieces.append(np.full(n, i))
            taus.append(np.linspace(0.0, self.tau, n + 1)[1:])
        samples = curve.eval_local(np.concatenate(pieces), np.concatenate(taus))
        return np.vstack([self.p[:1], samples])


# ----------------------------------------------------------------------
# Optimal boundary value problem (heuristic distance)
# ----------------------------------------------------------------------

def _obvp_coeffs(dp, v0, vf):
    """J(T) = rho*T + alpha/T^3 + beta/T^2 + gamma/T for the two-point problem."""
    alpha = 12.0 * np.sum(dp * dp, axis=-1)
    beta = -12.0 * np.sum(dp * (v0 + vf), axis=-1)
    gamma = 4.0 * np.sum(v0 * v0 + v0 * vf + vf * vf, axis=-1)
    return alpha, beta, gamma


def _cheapest_stationary(roots, a, b, g, rho):
    """Newton-polished positive real roots per row and the cheapest one.

    Returns (J, T) per row; J is inf where no root is positive and real.
    """
    T_re = roots.real
    ok = (np.abs(roots.imag) <= 1e-4 * np.maximum(1.0, np.abs(T_re))) & (T_re > 1e-9)
    T_c = np.where(ok, T_re, 1.0)
    for _ in range(3):  # Newton polish of dJ/dT roots
        f = rho * T_c**4 - g[:, None] * T_c**2 - 2.0 * b[:, None] * T_c - 3.0 * a[:, None]
        df = 4.0 * rho * T_c**3 - 2.0 * g[:, None] * T_c - 2.0 * b[:, None]
        T_c = np.where(ok & (np.abs(df) > 1e-12), T_c - f / np.where(df == 0, 1, df), T_c)
    ok &= T_c > 1e-9
    T_safe = np.where(ok, T_c, 1.0)
    J = rho * T_safe + a[:, None] / T_safe**3 + b[:, None] / T_safe**2 + g[:, None] / T_safe
    J = np.where(ok, J, np.inf)
    pick = np.argmin(J, axis=1)
    return J[np.arange(len(pick)), pick], T_safe[np.arange(len(pick)), pick]


def _obvp_batch(dp, v0, vf, rho):
    """Minimal energy-time cost per row for ``rho > 0``; returns (J, T*) arrays.

    The stationary points are the positive real eigenvalues of the companion
    matrix of dJ/dT's quartic, polished by Newton steps.
    """
    alpha, beta, gamma = _obvp_coeffs(dp, v0, vf)
    B = alpha.shape[0]
    J_out = np.zeros(B)
    T_out = np.zeros(B)
    live = ~((alpha < 1e-14) & (gamma < 1e-14))
    if not live.any():
        return J_out, T_out
    a, b, g = alpha[live], beta[live], gamma[live]
    # dJ/dT = 0  <=>  T^4 - (g/rho) T^2 - (2b/rho) T - (3a/rho) = 0
    companion = np.zeros((len(a), 4, 4))
    companion[:, 0, 1:] = np.stack([g, 2.0 * b, 3.0 * a], axis=1) / rho
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    J_out[live], T_out[live] = _cheapest_stationary(np.linalg.eigvals(companion), a, b, g, rho)
    return J_out, T_out


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------

def _controls(w: SearchWeights) -> np.ndarray:
    """The planar control set: ``(ux, uy, 0)`` for each pair of ``w.u_grid`` values."""
    return np.array([(ux, uy, 0.0) for ux, uy in product(w.u_grid, repeat=2)], dtype=float)


def reaches(p: np.ndarray, v: np.ndarray, goal: np.ndarray, w: SearchWeights) -> bool:
    """The search's goal test: position ``p`` within ``w.r_goal`` and velocity ``v``
    within ``w.v_goal_tol`` of the (2, 3) goal state ``[p, v]``."""
    return (np.linalg.norm(p - goal[0]) <= w.r_goal
            and np.linalg.norm(v - goal[1]) <= w.v_goal_tol)


def search(start, grid: OccupancyGrid, w: SearchWeights, goal, occlusion_target) -> KinoPath:
    """Best-first kinodynamic search from state ``start`` toward state ``goal``.

    Both states are (2, 3) ``[p, v]``. Nodes without line of sight to
    ``occlusion_target`` cost ``w.p_occ`` extra in the heuristic.

    A node is identified by its key, its voxel and velocity bin, and stored
    as row r of five arrays: position, velocity, cost-to-come, parent row (-1
    for the start) and the index of the control that reached it; no time,
    since node k of a path is k * tau into the search. Row r is the r-th key
    reached, so the ``rows`` dict that maps keys to rows also counts the
    nodes. A key reached twice in one expansion keeps its last child. The
    arrays double in length, as often as needed, when an expansion's new keys
    would overflow them.

    Every node, the start included, enters the open set through ``admit``,
    which ranks a batch by cost-to-come and OBVP heuristic, pushes it and
    stores its rows. The start is a batch of one; if it already meets the
    goal, the first pop returns it as a one-node path. The pop adds the
    visibility penalty before the goal test: an entry whose voxel is occluded
    goes back with it, and a voxel's line of sight is taken once, from the
    first node popped in it. An occluded key is thus (g + h) + p_occ.
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

    controls = _controls(w)
    tau = w.tau
    control_costs = (np.sum(controls**2, axis=1) + w.rho) * tau
    # collision sampling times, quarter-voxel spacing at the speed bound
    n_samp = max(int(np.ceil(np.sqrt(3) * w.v_max * tau / (0.25 * res))), 4)
    ts = np.linspace(0.0, tau, n_samp + 1)[1:]

    node_p, node_v = np.empty((256, 3)), np.empty((256, 3))
    node_g = np.empty(256)
    parent, ctrl = np.empty(256, dtype=np.intp), np.empty(256, dtype=np.intp)
    rows, open_heap = {}, []  # key -> row; (f, -g, key, penalty added) entries
    occ_memo: dict[tuple, float] = {}  # voxel -> occlusion penalty

    def admit(p, v, g, keys, from_row, via):
        """Push rows ``p``, ``v``, ``g`` with keys ``keys``, reached from row
        ``from_row`` by the controls ``via``, and store each at its key's row;
        a key given twice keeps its last row."""
        D, T_star = _obvp_batch(goal_p - p, v, goal_v, w.rho)
        f = g + (D + w.c_time * T_star)
        last = {}
        for j, (key, f_j, g_j) in enumerate(zip(keys, f.tolist(), g.tolist())):
            last[rows.setdefault(key, len(rows))] = j
            heapq.heappush(open_heap, (f_j, -g_j, key, w.p_occ == 0.0))
        dst = np.fromiter(last.keys(), np.intp, len(last))
        src = np.fromiter(last.values(), np.intp, len(last))
        node_p[dst], node_v[dst], node_g[dst] = p[src], v[src], g[src]
        parent[dst], ctrl[dst] = from_row, via[src]

    admit(start[:1], start[1:], np.zeros(1), node_keys(start[:1], start[1:]), -1, np.array([-1]))
    expansions = 0
    best_fb = (float(np.linalg.norm(p0 - goal_p)), 0.0, 0)
    goal_row = None

    while open_heap and expansions < w.node_budget:
        f, neg_g, key, has_pen = heapq.heappop(open_heap)
        row = rows[key]
        g, p, v = node_g[row], node_p[row], node_v[row]
        if -neg_g < g - 1e-12:  # stale heap entry
            continue
        if not has_pen:
            if (pen := occ_memo.get(key[:3])) is None:
                pen = occ_memo[key[:3]] = 0.0 if grid.line_of_sight(p, x_tp) else w.p_occ
            if pen:
                heapq.heappush(open_heap, (f + pen, neg_g, key, True))
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

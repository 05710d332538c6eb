"""Reference implementations the tests check the library against.

Each is the plain, slow form of something the library computes faster or no
longer computes at all; none of them is used by the closed loop.
"""

from __future__ import annotations

import numpy as np

from aerotrack.traj_opt import BoundaryConditions, _gram_jerk

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
        return path.end_state.p[None, :]
    chunks = [path.states[0].p[None, :]]
    for a, b, u in zip(path.states, path.states[1:], path.controls):
        speed = max(np.linalg.norm(a.v), np.linalg.norm(b.v), 0.1)
        n = max(int(np.ceil(speed * path.tau / spacing)), 2)
        ts = np.linspace(0.0, path.tau, n + 1)[1:]
        chunks.append(a.p + np.outer(ts, a.v) + 0.5 * np.outer(ts**2, u))
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
        total += float(np.einsum("ai,ij,aj->", tail, _gram_jerk(T), tail))
    return total


def rest_to_rest(p0, p1) -> BoundaryConditions:
    z = np.zeros(3)
    return BoundaryConditions(p0, z, z, p1, z, z)


def cube_is_free(grid, cube) -> bool:
    """Exhaustively scan all voxels overlapping ``cube`` (interior overlap)."""
    lo = np.floor((cube.min_corner - grid.origin) / grid.resolution + 1e-9).astype(int)
    hi = np.ceil((cube.max_corner - grid.origin) / grid.resolution - 1e-9).astype(int)
    if np.any(lo < 0) or np.any(hi > grid.dims):
        return False
    return not bool(grid.occupied[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]].any())

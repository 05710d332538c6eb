"""Spatial-temporal trajectory optimization inside a flight corridor.

The trajectory has one degree-5 polynomial piece per corridor cube. For fixed
waypoints and piece durations, the inner problem (minimum integrated jerk with
C2 junctions and given boundary derivatives) is an unconstrained quadratic
solved by a small linear system; because the inner solution is stationary in
the free junction derivatives, the outer gradients with respect to waypoints
and durations follow from the per-piece quadratic forms alone. The outer cost
adds a logarithmic barrier keeping each intermediate waypoint inside its cube
intersection and a soft aggressiveness penalty on total time and on waypoint
finite-difference speed and acceleration surrogates.

A kinematic state is a float array indexed ``[order, axis]``: a (3, 3)
array ``[p, v, a]``. The boundary is the (2, 3, 3) stack of the start and end
states, ``[[p0, v0, a0], [p1, v1, a1]]``.

The inner solve works on one array ``D`` of junction derivatives, shape
``(M + 1, 3, 3)`` and indexed ``[junction, order, axis]``: the end junctions
hold the boundary states, order 0 holds the waypoints, and the 2(M - 1)
interior velocities and accelerations are the unknowns. Piece
i reads ``D[i:i + 2]`` as its six endpoint derivatives, so the pieces' jerk
forms add into one matrix over the flattened ``D``, and the unknowns come from
its free/fixed partition. Each jerk form is the unit piece's, scaled:
Q(T) = S Q(1) S / T^5 with S = diag(1, T, T^2, 1, T, T^2) (Wang et al.,
"Geometrically Constrained Trajectory Optimization for Multicopters", T-RO
2022). The outer gradients cover all M + 1 waypoints and drop the two fixed
ends on return.

The corridor is the (M, 2, 3) stack of ``build_corridor``, one box
``[min corner, max corner]`` per piece. Waypoint i starts at the midpoint of
row i - 1 of ``overlap(corridor[:-1], corridor[1:])``, and its barrier reads
the corners of boxes i - 1 and i. Trajectories are ``PiecewisePoly`` curves
with coefficients of shape ``(M, 3, 6)``; the containment check is
``contains_all`` of the stack over a batch of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corridor import contains_all, overlap
from .errors import (
    BarrierDomainViolated, Config, DescentFailed, Positive, SingularSystem,
    TrajectoryLeftCorridor)
from .poly import PiecewisePoly
from .solvers import lbfgs_minimize


@dataclass
class OptWeights(Config):
    kappa: float = 1e-2     # barrier coefficient
    rho_t: float = 20.0     # total-time weight
    rho_v: float = 100.0    # soft speed penalty weight
    rho_a: float = 100.0    # soft acceleration penalty weight
    v_max: Positive = 3.0
    a_max: Positive = 4.0
    grad_tol: float = 1e-4
    max_iter: int = 200
    t_min: float = 1e-3


# ----------------------------------------------------------------------
# Quintic Hermite pieces and their jerk quadratic forms
# ----------------------------------------------------------------------

# tail coefficients (c3, c4, c5) of the unit-duration quintic with endpoint
# derivatives d = (p0, v0, a0, p1, v1, a1); c0 = p0, c1 = v0, c2 = a0 / 2
_H3_UNIT = np.array([
    [-10.0, -6.0, -1.5, 10.0, -4.0, 0.5],
    [15.0, 8.0, 1.5, -15.0, 7.0, -1.0],
    [-6.0, -3.0, -0.5, 6.0, -3.0, 0.5],
])
# jerk form of the unit piece: H3' G H3, G the Gram matrix of (6, 24t, 60t^2) on [0, 1]
_Q_UNIT = _H3_UNIT.T @ np.array([
    [36.0, 72.0, 120.0],
    [72.0, 192.0, 360.0],
    [120.0, 360.0, 720.0],
]) @ _H3_UNIT


def _scales(T: np.ndarray):
    """Diagonals of S = diag(1, T, T^2, 1, T, T^2) and of dS/dT, each (M, 6)."""
    one, zero = np.ones_like(T), np.zeros_like(T)
    s = np.stack([one, T, T * T], axis=1)
    ds = np.stack([zero, one, 2.0 * T], axis=1)
    return np.tile(s, 2), np.tile(ds, 2)


def _jerk_forms(T: np.ndarray):
    """Jerk forms Q (M, 6, 6), with piece jerk cost d' Q d, and dQ/dT.

    A piece of duration T with derivatives d is the unit piece with
    derivatives S d, run T times slower, so Q(T) = S Q(1) S / T^5.
    """
    if np.any(T <= 0.0):
        raise SingularSystem("piece durations must be positive")
    S, dS = _scales(T)
    T5 = T[:, None, None] ** 5
    Q = S[:, :, None] * _Q_UNIT * S[:, None, :] / T5
    dQ = ((dS[:, :, None] * _Q_UNIT * S[:, None, :] + S[:, :, None] * _Q_UNIT * dS[:, None, :])
          / T5 - 5.0 * Q / T[:, None, None])
    return Q, dQ


# ----------------------------------------------------------------------
# Inner minimum-jerk solve
# ----------------------------------------------------------------------

def _solve_inner(waypoints: np.ndarray, Q: np.ndarray, boundary: np.ndarray):
    """Optimal per-piece endpoint derivatives ``d`` (M, 6, 3) and the jerk cost."""
    M = len(Q)
    # D[junction, order, axis]; the interior velocities and accelerations are free
    D = np.zeros((M + 1, 3, 3))
    D[[0, M]] = boundary
    D[:, 0] = waypoints
    free = np.zeros((M + 1, 3), dtype=bool)
    free[1:M, 1:] = True
    free = free.ravel()

    K = np.zeros((3 * (M + 1), 3 * (M + 1)))
    for i in range(M):
        K[3 * i:3 * i + 6, 3 * i:3 * i + 6] += Q[i]
    x = D.reshape(3 * (M + 1), 3)  # a view: filling x[free] fills D
    try:
        x[free] = np.linalg.solve(K[np.ix_(free, free)], -K[np.ix_(free, ~free)] @ x[~free])
    except np.linalg.LinAlgError:
        raise SingularSystem("inner jerk system is singular")

    d_all = np.concatenate([D[:-1], D[1:]], axis=1)
    return d_all, float(np.einsum("ila,ilm,ima->", d_all, Q, d_all))


def inner_trajectory(waypoints, T, boundary: np.ndarray) -> PiecewisePoly:
    """Minimum-jerk C2 piecewise quintic through the waypoints."""
    waypoints = np.asarray(waypoints, dtype=float)
    T = np.asarray(T, dtype=float)
    Q, _ = _jerk_forms(T)
    d_all, _ = _solve_inner(waypoints, Q, boundary)
    coeffs = np.zeros((len(T), 3, 6))
    coeffs[:, :, 0] = d_all[:, 0]
    coeffs[:, :, 1] = d_all[:, 1]
    coeffs[:, :, 2] = 0.5 * d_all[:, 2]
    # c_k = (H3(1) S d)_k / T^k: the unit piece's tail, slowed to duration T
    S, _ = _scales(T)
    coeffs[:, :, 3:] = (np.einsum("kl,il,ila->iak", _H3_UNIT, S, d_all)
                        / T[:, None, None] ** np.arange(3, 6))
    return PiecewisePoly(coeffs, T)


# ----------------------------------------------------------------------
# Outer cost and gradients
# ----------------------------------------------------------------------

def cost_and_gradient(q_interior, T, corridor: np.ndarray, boundary: np.ndarray,
                      w: OptWeights):
    """Total cost and analytic gradients w.r.t. interior waypoints and durations.

    ``q_interior`` has shape (M-1, 3); waypoint i sits in the intersection of
    boxes i and i+1 of the (M, 2, 3) corridor and must be strictly inside it
    (barrier domain).
    """
    M = len(corridor)
    q_interior = np.asarray(q_interior, dtype=float).reshape(M - 1, 3)
    T = np.asarray(T, dtype=float)
    waypoints = np.vstack([boundary[0, 0], q_interior, boundary[1, 0]])

    # smoothness term and its envelope gradients; dq covers all M + 1
    # waypoints, and the fixed ends are dropped on return
    Q, dQ = _jerk_forms(T)
    d_all, J_S = _solve_inner(waypoints, Q, boundary)
    grad_d = 2.0 * np.einsum("ilm,ima->ila", Q, d_all)  # (M, 6, 3)
    dq = np.zeros((M + 1, 3))
    dq[:M] += grad_d[:, 0]      # waypoint i is piece i's start position
    dq[1:] += grad_d[:, 3]      # and piece i - 1's end position
    dT = np.einsum("ila,ilm,ima->i", d_all, dQ, d_all)

    # corridor barrier
    J_F = 0.0
    for j in range(1, M):
        q = waypoints[j]
        for box in corridor[j - 1:j + 1]:
            slacks = np.concatenate([box[1] - q, q - box[0]])
            if np.any(slacks <= 0.0):
                raise BarrierDomainViolated(
                    f"waypoint {j} at {q.tolist()} left its intersection")
            J_F -= w.kappa * float(np.sum(np.log(slacks)))
            dq[j] += w.kappa * (1.0 / slacks[:3] - 1.0 / slacks[3:])

    # aggressiveness penalty
    J_D = w.rho_t * float(np.sum(T))
    dT += w.rho_t

    def dl(x):
        return 3.0 * max(x, 0.0) ** 2

    def l(x):
        return max(x, 0.0) ** 3

    for j in range(1, M):
        t_sum = T[j - 1] + T[j]
        V = (waypoints[j + 1] - waypoints[j - 1]) / t_sum
        arg = float(V @ V) - w.v_max**2
        J_D += w.rho_v * l(arg)
        coef = w.rho_v * dl(arg)
        if coef != 0.0:
            gV = coef * 2.0 * V
            dq[j + 1] += gV / t_sum
            dq[j - 1] -= gV / t_sum
            dT[j - 1] += float(gV @ (-V / t_sum))
            dT[j] += float(gV @ (-V / t_sum))

        m = 0.5 * t_sum
        W1 = (waypoints[j + 1] - waypoints[j]) / T[j]
        W0 = (waypoints[j] - waypoints[j - 1]) / T[j - 1]
        Acc = (W1 - W0) / m
        arg_a = float(Acc @ Acc) - w.a_max**2
        J_D += w.rho_a * l(arg_a)
        coef_a = w.rho_a * dl(arg_a)
        if coef_a != 0.0:
            gA = coef_a * 2.0 * Acc
            dq[j + 1] += gA / (T[j] * m)
            dq[j] += gA * (-1.0 / T[j] - 1.0 / T[j - 1]) / m
            dq[j - 1] += gA / (T[j - 1] * m)
            dT[j] += float(gA @ (-W1 / (T[j] * m) - Acc / (2.0 * m)))
            dT[j - 1] += float(gA @ (W0 / (T[j - 1] * m) - Acc / (2.0 * m)))

    return J_S + J_F + J_D, dq[1:M], dT


# ----------------------------------------------------------------------
# Outer optimization
# ----------------------------------------------------------------------

def _trapezoid_time(dist: float, v_cruise: float, a: float) -> float:
    if dist <= v_cruise**2 / a:
        return 2.0 * np.sqrt(max(dist, 1e-6) / a)
    return dist / v_cruise + v_cruise / a


def optimize(corridor: np.ndarray, boundary: np.ndarray,
             w: OptWeights | None = None) -> PiecewisePoly:
    """Descend the joint waypoint/duration cost and return the trajectory.

    ``corridor`` is an (M, 2, 3) stack of boxes. Waypoints start at the
    centers of consecutive boxes' overlaps and durations from a trapezoidal
    profile at half the speed limit; durations are kept positive through a
    log reparameterization. The barrier only constrains waypoints, so the
    trajectory is sampled every 0.01 s and checked with ``contains_all``
    over the stack, and one that leaves raises ``TrajectoryLeftCorridor``.
    ``info["contained"]`` is always True, and ``info["kappa"]`` is ``w.kappa``.
    """
    if w is None:
        w = OptWeights()
    M = len(corridor)
    lo, hi = overlap(corridor[:-1], corridor[1:]).swapaxes(0, 1)
    if np.any(lo >= hi):
        raise BarrierDomainViolated("corridor has empty consecutive intersections")
    q0 = 0.5 * (lo + hi)
    waypoints0 = np.vstack([boundary[0, 0], q0, boundary[1, 0]])
    T0 = np.array([
        max(_trapezoid_time(float(np.linalg.norm(waypoints0[i + 1] - waypoints0[i])),
                            w.v_max / 2.0, w.a_max), 10.0 * w.t_min)
        for i in range(M)
    ])

    def objective(x):
        q_int = x[: 3 * (M - 1)].reshape(M - 1, 3)
        theta = x[3 * (M - 1):]
        if np.any(theta > 8.0):  # absurd durations; keep exp() sane
            return np.inf, np.zeros_like(x)
        T = w.t_min + np.exp(theta)
        try:
            J, dq, dT = cost_and_gradient(q_int, T, corridor, boundary, w)
        except (BarrierDomainViolated, OverflowError):
            return np.inf, np.zeros_like(x)
        return J, np.concatenate([dq.ravel(), dT * np.exp(theta)])

    x0 = np.concatenate([q0.ravel(), np.log(T0 - w.t_min)])
    x_opt, J_opt, history = lbfgs_minimize(
        objective, x0, grad_tol=w.grad_tol, max_iter=w.max_iter)
    if history[-1] > history[0] + 1e-12:
        raise DescentFailed(
            f"descent raised the cost from {history[0]!r} to {history[-1]!r}")
    q_int = x_opt[: 3 * (M - 1)].reshape(M - 1, 3)
    T = w.t_min + np.exp(x_opt[3 * (M - 1):])
    traj = inner_trajectory(np.vstack([boundary[0, 0], q_int, boundary[1, 0]]), T, boundary)
    ts = np.arange(0.0, traj.duration + 1e-9, 0.01)
    if not contains_all(corridor, traj.eval(ts), margin=1e-9):
        raise TrajectoryLeftCorridor(
            f"the trajectory left its corridor at barrier weight {w.kappa!r}")
    traj.info.update({
        "objective": J_opt, "history": history, "contained": True,
        "kappa": w.kappa, "iterations": len(history) - 1,
    })
    return traj

"""Spatial-temporal trajectory optimization inside a flight corridor.

The trajectory has one degree-5 polynomial piece per corridor cube. For fixed
waypoints and piece durations, the inner problem (minimum integrated jerk with
C2 junctions and given boundary derivatives) is an unconstrained quadratic
solved by a small linear system. The outer cost is that jerk, a weight on total
time and one penalty, integrated over each piece by the trapezoid rule on
``SAMPLES`` intervals: the cubed excess of each sample beyond its own piece's
box shrunk by ``MARGIN``, of its squared speed beyond ``v_max`` squared and of
its squared acceleration beyond ``a_max`` squared (Wang et al., "Geometrically
Constrained Trajectory Optimization for Multicopters", T-RO 2022). The penalty
reads the solved junction derivatives, so its waypoint and duration gradients
go through the adjoint of the inner solve.

A kinematic state is a float array indexed ``[order, axis]``: a (3, 3)
array ``[p, v, a]``. The boundary is the (2, 3, 3) stack of the start and end
states, ``[[p0, v0, a0], [p1, v1, a1]]``.

The inner solve works on one array ``D`` of junction derivatives, shape
``(M + 1, 3, 3)`` and indexed ``[junction, order, axis]``: the end junctions
hold the boundary states, order 0 holds the waypoints, and the 2(M - 1)
interior velocities and accelerations are the unknowns. Piece
i reads ``D[i:i + 2]`` as its six endpoint derivatives ``d``, so the pieces'
jerk forms add into one matrix over the flattened ``D``, and the unknowns come
from its free/fixed partition. A piece of duration T with derivatives d is the
unit piece with derivatives S d, S = diag(1, T, T^2, 1, T, T^2), run T times
slower: its jerk form is Q(T) = S Q(1) S / T^5, and its r-th derivative is the
unit piece's divided by T^r. The outer gradients cover all M + 1 waypoints and
drop the two fixed ends on return.

The corridor is the (M, 2, 3) stack of ``build_corridor``, one box
``[min corner, max corner]`` per piece. Waypoint i starts at the midpoint of
row i - 1 of ``overlap(corridor[:-1], corridor[1:])``. Trajectories are
``PiecewisePoly`` curves with coefficients of shape ``(M, 3, 6)``; the
containment check is ``contains_all`` of the stack over a batch of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm

import numpy as np

from .corridor import contains_all, overlap
from .errors import (
    BarrierDomainViolated, Config, DescentFailed, NonNegative, Positive, SingularSystem,
    TrajectoryLeftCorridor)
from .poly import PiecewisePoly
from .solvers import lbfgs_minimize


@dataclass
class OptWeights(Config):
    kappa: float = 1e6      # corridor penalty weight
    rho_t: float = 20.0     # total-time weight
    rho_v: float = 100.0    # speed penalty weight
    rho_a: float = 100.0    # acceleration penalty weight
    v_max: Positive = 3.0
    a_max: Positive = 4.0
    grad_tol: float = 1e-4
    max_iter: int = 200
    t_min: NonNegative = 1e-3


# trapezoid intervals per piece, and how far inside its box the penalty keeps a sample [m]
SAMPLES = 16
MARGIN = 0.05

# ----------------------------------------------------------------------
# Quintic Hermite pieces and their jerk quadratic forms
# ----------------------------------------------------------------------

# power coefficients c0..c5 of the unit-duration quintic with endpoint
# derivatives (p0, v0, a0, p1, v1, a1)
_UNIT = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
    [-10.0, -6.0, -1.5, 10.0, -4.0, 0.5],
    [15.0, 8.0, 1.5, -15.0, 7.0, -1.0],
    [-6.0, -3.0, -0.5, 6.0, -3.0, 0.5],
])
# jerk form of the unit piece: H' G H, H its tail rows and G the Gram matrix
# of (6, 24t, 60t^2) on [0, 1]
_Q_UNIT = _UNIT[3:].T @ np.array([
    [36.0, 72.0, 120.0],
    [72.0, 192.0, 360.0],
    [120.0, 360.0, 720.0],
]) @ _UNIT[3:]
# the derivative order of each endpoint derivative, the power of T in S
_ORDER = np.array([0, 1, 2, 0, 1, 2])
# trapezoid nodes and weights on the unit piece; _BASIS[r] maps S d to the
# unit piece's r-th derivative at the nodes
_NODES = np.linspace(0.0, 1.0, SAMPLES + 1)
_TRAPEZOID = np.r_[0.5, np.ones(SAMPLES - 1), 0.5] / SAMPLES
_BASIS = np.stack([
    [perm(k, r) for k in range(6)] * _NODES[:, None] ** np.maximum(np.arange(6) - r, 0)
    for r in range(3)]) @ _UNIT


def _jerk_forms(T: np.ndarray):
    """Jerk forms Q (M, 6, 6), with piece jerk cost d' Q d, and dQ/dT, then
    the diagonals of S and of dS/dT, each (M, 6)."""
    if np.any(T <= 0.0):
        raise SingularSystem("piece durations must be positive")
    S = T[:, None] ** _ORDER
    dS = _ORDER * S / T[:, None]
    T5 = T[:, None, None] ** 5
    Q = S[:, :, None] * _Q_UNIT * S[:, None, :] / T5
    dQ = ((dS[:, :, None] * _Q_UNIT * S[:, None, :] + S[:, :, None] * _Q_UNIT * dS[:, None, :])
          / T5 - 5.0 * Q / T[:, None, None])
    return Q, dQ, S, dS


# ----------------------------------------------------------------------
# Inner minimum-jerk solve
# ----------------------------------------------------------------------

def _pieces(D: np.ndarray) -> np.ndarray:
    """Each piece's six endpoint derivatives (M, 6, 3) from the junctions' (M + 1, 3, 3)."""
    return np.concatenate([D[:-1], D[1:]], axis=1)


def _solve_inner(waypoints: np.ndarray, Q: np.ndarray, boundary: np.ndarray):
    """Optimal per-piece endpoint derivatives ``d`` (M, 6, 3), the jerk cost and the adjoint.

    ``adjoint(g)`` takes a cost's gradient over ``d`` (M, 6, 3) with the solve held
    fixed and returns the solve's multipliers per piece (M, 6, 3), zero on the
    fixed entries: ``lam`` with K_ff lam = g on the free junction entries.
    """
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
    K_ff = K[np.ix_(free, free)]
    x = D.reshape(3 * (M + 1), 3)  # a view: filling x[free] fills D
    try:
        x[free] = np.linalg.solve(K_ff, -K[np.ix_(free, ~free)] @ x[~free])
    except np.linalg.LinAlgError:
        raise SingularSystem("inner jerk system is singular")

    def adjoint(g: np.ndarray) -> np.ndarray:
        G = np.zeros_like(D)
        G[:-1] += g[:, :3]
        G[1:] += g[:, 3:]
        lam = np.zeros_like(D)
        lam.reshape(3 * (M + 1), 3)[free] = np.linalg.solve(K_ff, G.reshape(3 * (M + 1), 3)[free])
        return _pieces(lam)

    d = _pieces(D)
    return d, float((d * (Q @ d)).sum()), adjoint


def inner_trajectory(waypoints, T, boundary: np.ndarray) -> PiecewisePoly:
    """Minimum-jerk C2 piecewise quintic through the waypoints."""
    waypoints = np.asarray(waypoints, dtype=float)
    T = np.asarray(T, dtype=float)
    Q, _, S, _ = _jerk_forms(T)
    d, _, _ = _solve_inner(waypoints, Q, boundary)
    # c_k = (U S d)_k / T^k: the unit piece's coefficients, slowed to duration T
    coeffs = np.einsum("kl,il,ila->iak", _UNIT, S, d) / T[:, None, None] ** np.arange(6)
    return PiecewisePoly(coeffs, T)


# ----------------------------------------------------------------------
# Outer cost and gradients
# ----------------------------------------------------------------------

def cost_and_gradient(q_interior, T, corridor: np.ndarray, boundary: np.ndarray,
                      w: OptWeights):
    """Total cost and analytic gradients w.r.t. interior waypoints and durations.

    ``q_interior`` has shape (M-1, 3) and ``T`` (M,), for the (M, 2, 3)
    corridor. The cost is the jerk, ``w.rho_t`` times the total time and the
    sampled penalty, weighted by ``w.kappa`` on the boxes, ``w.rho_v`` on speed
    and ``w.rho_a`` on acceleration; it is defined for any waypoints.
    """
    M = len(corridor)
    q_interior = np.asarray(q_interior, dtype=float).reshape(M - 1, 3)
    T = np.asarray(T, dtype=float)
    waypoints = np.vstack([boundary[0, 0], q_interior, boundary[1, 0]])
    Q, dQ, S, dS = _jerk_forms(T)
    d, J_S, adjoint = _solve_inner(waypoints, Q, boundary)

    # samples X[r, piece, node] of p, v and a, and the penalty's gradient over them
    Tr = (T ** np.arange(3.0)[:, None])[:, :, None, None]
    X = _BASIS[:, None] @ (S[:, :, None] * d) / Tr
    p, v, a = X
    below = np.maximum(corridor[:, None, 0] + MARGIN - p, 0.0)
    above = np.maximum(p - corridor[:, None, 1] + MARGIN, 0.0)
    v_excess = np.maximum((v * v).sum(axis=-1) - w.v_max**2, 0.0)
    a_excess = np.maximum((a * a).sum(axis=-1) - w.a_max**2, 0.0)
    dt = T[:, None] * _TRAPEZOID
    phi = dt * (w.kappa * (below**3 + above**3).sum(axis=-1)
                + w.rho_v * v_excess**3 + w.rho_a * a_excess**3)
    G = dt[..., None] * np.stack([3.0 * w.kappa * (above**2 - below**2),
                                  6.0 * w.rho_v * v_excess[..., None]**2 * v,
                                  6.0 * w.rho_a * a_excess[..., None]**2 * a])

    # the gradient over S d and over d with the solve held fixed, then the solve's response
    grad_Sd = (_BASIS.swapaxes(1, 2)[:, None] @ (G / Tr)).sum(axis=0)
    grad_d = 2.0 * (Q @ d) + S[:, :, None] * grad_Sd
    lam = adjoint(grad_d)
    grad_d -= Q @ lam
    dq = np.zeros((M + 1, 3))
    dq[:M] += grad_d[:, 0]      # waypoint i is piece i's start position
    dq[1:] += grad_d[:, 3]      # and piece i - 1's end position
    # the jerk form's change and the solve's response to it, then the penalty's
    # through S, through the 1 / T^r of each derivative and through the weights
    dT = (((d - lam) * (dQ @ d)).sum(axis=(1, 2))
          + (grad_Sd * dS[:, :, None] * d).sum(axis=(1, 2))
          + (phi.sum(axis=1) - (np.arange(3.0)[:, None, None, None] * G * X).sum(axis=(0, 2, 3)))
          / T + w.rho_t)
    return J_S + w.rho_t * float(T.sum()) + float(phi.sum()), dq[1:M], dT


# ----------------------------------------------------------------------
# Outer optimization
# ----------------------------------------------------------------------

def _trapezoid_time(dist: float, v_cruise: float, a: float) -> float:
    if dist <= v_cruise**2 / a:
        return 2.0 * np.sqrt(max(dist, 1e-6) / a)
    return dist / v_cruise + v_cruise / a


def optimize(corridor: np.ndarray, boundary: np.ndarray, w: OptWeights) -> PiecewisePoly:
    """Descend the joint waypoint/duration cost and return the trajectory.

    ``corridor`` is an (M, 2, 3) stack of boxes; consecutive boxes must
    overlap with positive volume, or ``BarrierDomainViolated`` is raised.
    ``build_corridor`` promises only that each overlap holds a path sample,
    and not even that where a cube grew from one point, so an overlap can be
    thin or empty. Waypoints start at the centers of consecutive boxes'
    overlaps and durations from a trapezoidal profile at half the speed
    limit; durations are kept positive through a log reparameterization.
    The penalty is soft and reads each piece at its nodes only, so the
    trajectory is sampled every 0.01 s and checked with ``contains_all`` over
    the stack, and one that leaves raises ``TrajectoryLeftCorridor``.
    ``info["contained"]`` is always True, and ``info["kappa"]`` is ``w.kappa``.
    """
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
        q_int = x[: 3 * (M - 1)]
        theta = x[3 * (M - 1):]
        if np.any(theta > 8.0):  # absurd durations; keep exp() sane
            return np.inf, np.zeros_like(x)
        T = w.t_min + np.exp(theta)
        J, dq, dT = cost_and_gradient(q_int, T, corridor, boundary, w)
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
            f"the trajectory left its corridor at corridor penalty weight {w.kappa!r}")
    traj.info.update({
        "objective": J_opt, "history": history, "contained": True,
        "kappa": w.kappa, "iterations": len(history) - 1,
    })
    return traj

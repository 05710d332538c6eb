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

Trajectories are ``PiecewisePoly`` curves with coefficients of shape
``(M, 3, 6)``; the containment check samples them in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corridor import Corridor
from .errors import BarrierDomainViolated, DescentFailed, SingularSystem
from .poly import PiecewisePoly
from .solvers import lbfgs_minimize


@dataclass
class BoundaryConditions:
    """Full start and goal derivatives for the trajectory."""

    p0: np.ndarray
    v0: np.ndarray
    a0: np.ndarray
    p1: np.ndarray
    v1: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        for name in ("p0", "v0", "a0", "p1", "v1", "a1"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass
class OptWeights:
    kappa: float = 1e-2     # barrier coefficient
    rho_t: float = 20.0     # total-time weight
    rho_v: float = 100.0    # soft speed penalty weight
    rho_a: float = 100.0    # soft acceleration penalty weight
    v_max: float = 3.0
    a_max: float = 4.0
    grad_tol: float = 1e-4
    max_iter: int = 200
    t_min: float = 1e-3


# ----------------------------------------------------------------------
# Quintic Hermite pieces and their jerk quadratic forms
# ----------------------------------------------------------------------

def _tail_maps(T: float):
    """(W, Dmap) with tail coefficients (c3, c4, c5) = W @ Dmap @ d.

    d = (p0, v0, a0, p1, v1, a1) are the piece's endpoint derivatives; the
    leading coefficients are c0 = p0, c1 = v0, c2 = a0 / 2.
    """
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


def _tail_maps_dT(T: float):
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


def _gram_jerk(T: float) -> np.ndarray:
    """Gram matrix of (6, 24t, 60t^2) on [0, T]: jerk integral of the tail."""
    return np.array([
        [36.0 * T, 72.0 * T**2, 120.0 * T**3],
        [72.0 * T**2, 192.0 * T**3, 360.0 * T**4],
        [120.0 * T**3, 360.0 * T**4, 720.0 * T**5],
    ])


def _gram_jerk_dT(T: float) -> np.ndarray:
    return np.array([
        [36.0, 144.0 * T, 360.0 * T**2],
        [144.0 * T, 576.0 * T**2, 1440.0 * T**3],
        [360.0 * T**2, 1440.0 * T**3, 3600.0 * T**4],
    ])


def _jerk_quadratic(T: float) -> np.ndarray:
    """Q(T) with piece jerk cost = d' Q d."""
    W, Dmap = _tail_maps(T)
    H3 = W @ Dmap
    return H3.T @ _gram_jerk(T) @ H3


def _jerk_quadratic_dT(T: float) -> np.ndarray:
    W, Dmap = _tail_maps(T)
    dW, dDmap = _tail_maps_dT(T)
    H3 = W @ Dmap
    dH3 = dW @ Dmap + W @ dDmap
    G = _gram_jerk(T)
    dG = _gram_jerk_dT(T)
    return dH3.T @ G @ H3 + H3.T @ dG @ H3 + H3.T @ G @ dH3


# ----------------------------------------------------------------------
# Inner minimum-jerk solve
# ----------------------------------------------------------------------

def _solve_inner(waypoints: np.ndarray, T: np.ndarray, boundary: BoundaryConditions):
    """Optimal per-piece endpoint derivatives ``d`` (M, 6, 3) and jerk cost."""
    M = len(T)
    if np.any(T <= 0.0):
        raise SingularSystem("piece durations must be positive")
    Qs = [_jerk_quadratic(float(t)) for t in T]
    nz = 2 * (M - 1)

    def slot(piece: int, local: int):
        """(is_free, index), with fixed slots resolved to values later."""
        junction = piece + (1 if local >= 3 else 0)  # junction index 0..M
        kind = local % 3  # 0: position, 1: velocity, 2: acceleration
        if kind == 0:
            return False, None
        if junction == 0 or junction == M:
            return False, None
        return True, 2 * (junction - 1) + (kind - 1)

    def fixed_value(piece, local, axis):
        junction = piece + (1 if local >= 3 else 0)
        kind = local % 3
        if kind == 0:
            return waypoints[junction, axis]
        if junction == 0:
            return (boundary.v0 if kind == 1 else boundary.a0)[axis]
        return (boundary.v1 if kind == 1 else boundary.a1)[axis]

    d_all = np.zeros((M, 6, 3))
    if nz > 0:
        A = np.zeros((nz, nz))
        B = np.zeros((nz, 3))
        for i in range(M):
            Q = Qs[i]
            for l1 in range(6):
                free1, g1 = slot(i, l1)
                for l2 in range(6):
                    free2, g2 = slot(i, l2)
                    if free1 and free2:
                        A[g1, g2] += Q[l1, l2]
                    elif free1 and not free2:
                        for axis in range(3):
                            B[g1, axis] += Q[l1, l2] * fixed_value(i, l2, axis)
        try:
            z = np.linalg.solve(A, -B)
        except np.linalg.LinAlgError:
            raise SingularSystem("inner jerk system is singular")
    else:
        z = np.zeros((0, 3))

    for i in range(M):
        for l in range(6):
            free, g = slot(i, l)
            for axis in range(3):
                d_all[i, l, axis] = z[g, axis] if free else fixed_value(i, l, axis)
    j_cost = float(sum(np.einsum("la,lm,ma->", d_all[i], Qs[i], d_all[i]) for i in range(M)))
    return d_all, Qs, j_cost


def inner_trajectory(waypoints, T, boundary: BoundaryConditions) -> PiecewisePoly:
    """Minimum-jerk C2 piecewise quintic through the waypoints."""
    waypoints = np.asarray(waypoints, dtype=float)
    T = np.asarray(T, dtype=float)
    d_all, _, j_cost = _solve_inner(waypoints, T, boundary)
    M = len(T)
    coeffs = np.zeros((M, 3, 6))
    for i in range(M):
        W, Dmap = _tail_maps(float(T[i]))
        H3 = W @ Dmap
        for axis in range(3):
            d = d_all[i, :, axis]
            coeffs[i, axis, 0] = d[0]
            coeffs[i, axis, 1] = d[1]
            coeffs[i, axis, 2] = 0.5 * d[2]
            coeffs[i, axis, 3:] = H3 @ d
    return PiecewisePoly(coeffs, T, info={"jerk_cost": j_cost})


# ----------------------------------------------------------------------
# Outer cost and gradients
# ----------------------------------------------------------------------

def _cube_slacks(cube, q):
    return np.concatenate([cube.max_corner - q, q - cube.min_corner])


def cost_and_gradient(q_interior, T, corridor: Corridor, boundary: BoundaryConditions,
                      w: OptWeights):
    """Total cost and analytic gradients w.r.t. interior waypoints and durations.

    ``q_interior`` has shape (M-1, 3); waypoint i sits in the intersection of
    cubes i and i+1 and must be strictly inside it (barrier domain).
    """
    cubes = corridor.cubes
    M = len(cubes)
    q_interior = np.asarray(q_interior, dtype=float).reshape(M - 1, 3)
    T = np.asarray(T, dtype=float)
    waypoints = np.vstack([boundary.p0, q_interior, boundary.p1])

    # smoothness term and its envelope gradients
    d_all, Qs, J_S = _solve_inner(waypoints, T, boundary)
    dq = np.zeros((max(M - 1, 0), 3))
    dT = np.zeros(M)
    for i in range(M):
        grad_d = 2.0 * np.einsum("lm,ma->la", Qs[i], d_all[i])  # (6, 3)
        if 1 <= i <= M - 1:
            dq[i - 1] += grad_d[0]      # waypoint i is piece i's start position
        if 1 <= i + 1 <= M - 1:
            dq[i] += grad_d[3]          # and piece i's end position
        dQ = _jerk_quadratic_dT(float(T[i]))
        dT[i] += float(np.einsum("la,lm,ma->", d_all[i], dQ, d_all[i]))

    # corridor barrier
    J_F = 0.0
    for i in range(M - 1):
        q = q_interior[i]
        for cube in (cubes[i], cubes[i + 1]):
            slacks = _cube_slacks(cube, q)
            if np.any(slacks <= 0.0):
                raise BarrierDomainViolated(
                    f"waypoint {i + 1} at {q.tolist()} left its intersection")
            J_F -= w.kappa * float(np.sum(np.log(slacks)))
            dq[i] += w.kappa * (1.0 / slacks[:3] - 1.0 / slacks[3:])

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
            if 1 <= j + 1 <= M - 1:
                dq[j] += gV / t_sum
            if 1 <= j - 1 <= M - 1:
                dq[j - 2] -= gV / t_sum
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
            if 1 <= j + 1 <= M - 1:
                dq[j] += gA / (T[j] * m)
            if 1 <= j <= M - 1:
                dq[j - 1] += gA * (-1.0 / T[j] - 1.0 / T[j - 1]) / m
            if 1 <= j - 1 <= M - 1:
                dq[j - 2] += gA / (T[j - 1] * m)
            dT[j] += float(gA @ (-W1 / (T[j] * m) - Acc / (2.0 * m)))
            dT[j - 1] += float(gA @ (W0 / (T[j - 1] * m) - Acc / (2.0 * m)))

    return J_S + J_F + J_D, dq, dT


# ----------------------------------------------------------------------
# Outer optimization
# ----------------------------------------------------------------------

def _trapezoid_time(dist: float, v_cruise: float, a: float) -> float:
    if dist <= v_cruise**2 / a:
        return 2.0 * np.sqrt(max(dist, 1e-6) / a)
    return dist / v_cruise + v_cruise / a


def optimize(corridor: Corridor, boundary: BoundaryConditions,
             w: OptWeights | None = None) -> PiecewisePoly:
    """Descend the joint waypoint/duration cost and return the trajectory.

    Waypoints start at the intersection centers and durations from a
    trapezoidal profile at half the speed limit; durations are kept positive
    through a log reparameterization. If the final trajectory leaves the
    corridor (possible since the barrier only constrains waypoints), the
    descent is retried with a stronger barrier.
    """
    if w is None:
        w = OptWeights()
    cubes = corridor.cubes
    M = len(cubes)
    inters = corridor.intersections()
    if any(i is None for i in inters):
        raise BarrierDomainViolated("corridor has empty consecutive intersections")
    q0 = np.array([c.center for c in inters]).reshape(M - 1, 3)
    waypoints0 = np.vstack([boundary.p0, q0, boundary.p1])
    T0 = np.array([
        max(_trapezoid_time(float(np.linalg.norm(waypoints0[i + 1] - waypoints0[i])),
                            w.v_max / 2.0, w.a_max), 10.0 * w.t_min)
        for i in range(M)
    ])

    kappa0 = w.kappa
    best = None
    for attempt in range(3):
        kappa = kappa0 * (10.0 ** attempt)
        w_try = OptWeights(**{**w.__dict__, "kappa": kappa})

        def objective(x):
            q_int = x[: 3 * (M - 1)].reshape(M - 1, 3)
            theta = x[3 * (M - 1):]
            if np.any(theta > 8.0):  # absurd durations; keep exp() sane
                return np.inf, np.zeros_like(x)
            T = w.t_min + np.exp(theta)
            try:
                J, dq, dT = cost_and_gradient(q_int, T, corridor, boundary, w_try)
            except (BarrierDomainViolated, OverflowError):
                return np.inf, np.zeros_like(x)
            grad = np.concatenate([dq.ravel(), dT * np.exp(theta)])
            return J, grad

        x0 = np.concatenate([q0.ravel(), np.log(T0 - w.t_min)])
        x_opt, J_opt, history = lbfgs_minimize(
            objective, x0, grad_tol=w.grad_tol, max_iter=w.max_iter)
        if history[-1] > history[0] + 1e-12:
            raise DescentFailed(
                f"descent raised the cost from {history[0]!r} to {history[-1]!r}")
        q_int = x_opt[: 3 * (M - 1)].reshape(M - 1, 3)
        T = w.t_min + np.exp(x_opt[3 * (M - 1):])
        traj = inner_trajectory(np.vstack([boundary.p0, q_int, boundary.p1]), T, boundary)
        ts = np.arange(0.0, traj.duration + 1e-9, 0.01)
        contained = corridor.contains_all(traj.eval(ts), margin=1e-9)
        traj.info.update({
            "objective": J_opt, "history": history, "contained": bool(contained),
            "kappa": kappa, "iterations": len(history) - 1,
        })
        if best is None:
            best = traj
        if contained:
            return traj
    return best

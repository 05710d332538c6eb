"""Target motion prediction: constrained Bezier fitting over recent observations.

A degree-n Bezier curve is fit to the observations inside a sliding
window and read out over an extended horizon, so evaluating past the newest
observation time is the motion prediction. The fit is a small convex QP per
axis: a time-weighted residual term plus an integrated-acceleration
regularizer, with box bounds on the hodograph (derivative) control points so
the curve respects speed and acceleration limits everywhere. The fitted
control points are converted once to the power basis and read out through a
one-piece ``PiecewisePoly``, the planner's one curve sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, perm

import numpy as np

from .errors import Config, InsufficientData, NonNegative, Positive, PositiveCount
from .poly import PiecewisePoly
from .solvers import active_set_qp, qp_kkt_residual


@lru_cache(maxsize=8)
def _bernstein_to_power(n: int) -> np.ndarray:
    """Read-only (n+1, n+1) matrix taking Bezier control points to power coefficients in s.

    b_{n,i}(s) = C(n,i) s^i (1-s)^(n-i) = sum_k C(n,k) C(k,i) (-1)^(k-i) s^k.
    """
    B = np.array([[comb(n, k) * comb(k, i) * (-1) ** (k - i) for i in range(n + 1)]
                  for k in range(n + 1)], dtype=float)
    B.flags.writeable = False
    return B


def _bezier_l2_matrix(m: int) -> np.ndarray:
    """Gram matrix of the degree-m Bernstein basis on [0, 1]."""
    M = np.empty((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(m + 1):
            M[i, j] = comb(m, i) * comb(m, j) / (comb(2 * m, i + j) * (2 * m + 1))
    return M


@dataclass
class PredictionWeights(Config):
    """Weights and limits for the prediction QP; a zero decay constant or
    acceleration bound, or a negative horizon, would leave it infeasible."""

    smooth_weight: float = 0.05   # multiplier on the integrated-acceleration term
    tau_w: Positive = 1.0         # time-decay constant of observation confidence [s]
    v_max: float = 3.0            # predicted speed bound per axis [m/s]
    a_max: Positive = 3.0         # predicted acceleration bound per axis [m/s^2]
    horizon: NonNegative = 2.0    # prediction span past the newest fit time [s]
    window: Positive = 2.0        # observation window length [s]
    degree: PositiveCount = 5


@dataclass
class PredictedTrajectory:
    """Bezier curve over [t0, t_p]; (t_c, t_p] is the extrapolated part."""

    control_points: np.ndarray   # (degree+1, 3)
    degree: int
    t0: float
    t_c: float
    t_p: float
    fit_info: dict = field(default_factory=dict)

    def __post_init__(self):
        # power coefficients in t - t0: the s^k coefficient divided by scale^k
        k = np.arange(self.degree + 1)
        coeffs = (_bernstein_to_power(self.degree) @ self.control_points).T / self.scale**k
        self._curve = PiecewisePoly(coeffs[None], [self.scale])

    @property
    def scale(self) -> float:
        return self.t_p - self.t0

    def evaluate(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Position and velocity at time ``t``; ``OutOfDomain`` outside [t0, t_p]."""
        return self._curve.eval(t - self.t0), self._curve.eval(t - self.t0, 1)


def _hodograph(n: int, k: int) -> np.ndarray:
    """(n-k+1, n+1) map from degree-n control points to those of the k-th derivative in s.

    Row i is n!/(n-k)! times the k-th forward difference starting at c_i.
    """
    return perm(n, k) * np.diff(np.eye(n + 1), k, axis=0)


def _fit_matrices(times_s: np.ndarray, weights: np.ndarray, w: PredictionWeights, scale: float):
    """Weighted basis rows and Hessian of the fit, shared by all three axes."""
    n = w.degree
    k = np.arange(n + 1)
    s = np.asarray(times_s, dtype=float)[:, None]
    Phi = np.array([comb(n, i) for i in k], dtype=float) * s**k * (1.0 - s) ** (n - k)
    PhiW = Phi * weights[:, None]
    D2 = _hodograph(n, 2)
    M = _bezier_l2_matrix(n - 2)
    R = (w.smooth_weight / scale**3) * (D2.T @ M @ D2)
    H = 2.0 * (PhiW.T @ Phi + R)
    return PhiW, H


def _constraint_rows(n: int, scale: float):
    """Stacked inequality rows: |velocity cp| and |acceleration cp| bounds."""
    V = _hodograph(n, 1) / scale
    A = _hodograph(n, 2) / scale**2
    return np.vstack([V, -V, A, -A]), V.shape[0], A.shape[0]


def fit_predicted_trajectory(observations, t_c: float,
                             w: PredictionWeights) -> PredictedTrajectory:
    """Fit the prediction curve to the observations inside the window.

    Solves, per axis, min over control points c of
    ``sum_j w_j (Phi_j c - p_j)^2 + w_r * integral |curve''|^2`` subject to the
    hodograph box bounds, with w_j = exp(-(t_c - t_j)/tau_w). The curve's time
    parameterization spans [t_c - window, t_c + horizon] so evaluation past
    t_c is the extrapolation.
    """
    n = w.degree
    t0 = t_c - w.window
    t_p = t_c + w.horizon
    scale = t_p - t0
    usable = [o for o in observations if t0 - 1e-9 <= o.timestamp <= t_c + 1e-9]
    if len(usable) < n + 1:
        raise InsufficientData(
            f"need at least {n + 1} observations in window, got {len(usable)}")
    times = np.array([o.timestamp for o in usable])
    if np.any(np.diff(times) <= 0):
        raise InsufficientData("observation timestamps must strictly increase")
    pts = np.array([o.position_world for o in usable])
    conf = np.exp(-(t_c - times) / w.tau_w)
    s_vals = (times - t0) / scale

    PhiW, H = _fit_matrices(s_vals, conf, w, scale)
    G, n_v, n_a = _constraint_rows(n, scale)
    h = np.concatenate([np.full(2 * n_v, w.v_max), np.full(2 * n_a, w.a_max)])

    cp = np.empty((n + 1, 3))
    kkt = 0.0
    for axis in range(3):
        f = -2.0 * (PhiW.T @ pts[:, axis])
        x0 = np.full(n + 1, np.average(pts[:, axis], weights=conf))  # constant curve: feasible
        x, lam = active_set_qp(H, f, G, h, x0)
        cp[:, axis] = x
        kkt = max(kkt, qp_kkt_residual(H, f, G, h, x, lam))
    return PredictedTrajectory(
        control_points=cp, degree=n, t0=t0, t_c=t_c, t_p=t_p,
        fit_info={"kkt_residual": kkt, "n_obs": len(usable)},
    )


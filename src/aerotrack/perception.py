"""Synthetic gimbal-camera perception: projection, location regression, control.

The real detector is replaced by a pinhole projection of the scripted target
with optional pixel noise. Localization inverts two fitted exponential maps:
depth from the apparent upper-body length, lateral offset from the horizontal
image coordinate scaled by an affine function of depth. Height is held
constant in the camera frame since target motion is assumed horizontal.
``fit_regression`` fits the maps once per camera, body length and noise
sigmas to a fixed calibration draw. Image features carry no time;
``localize`` stamps the observation it returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import Config, FieldOfView, FitDiverged, NonNegative, Positive


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a 1-DOF (yaw) gimbal mount."""

    focal_px: float
    image_width_px: int = 640
    mount_height: float = 0.1

    @property
    def horizontal_fov(self) -> float:
        return 2.0 * np.arctan(self.image_width_px / (2.0 * self.focal_px))

    @staticmethod
    def from_fov(horizontal_fov_rad: float) -> "CameraModel":
        return CameraModel(CameraModel.image_width_px / (2.0 * np.tan(horizontal_fov_rad / 2.0)))


@dataclass
class PerceptionConfig(Config):
    """Camera field of view, target size, detection noise and the gimbal's
    gains and rates; a yaw rate limit of 0 or less would invert its clip, and
    a negative noise sigma would draw noise of its magnitude."""

    horizontal_fov_deg: FieldOfView = 87.0
    body_len: Positive = 0.45
    sigma_u: NonNegative = 2.0
    sigma_len: NonNegative = 2.0
    kp: float = 0.004
    ki: float = 0.0005
    yaw_rate_limit: Positive = 3.0
    omega_search: float = 1.5

    @functools.cached_property  # read every cycle; a config is not edited once built
    def camera(self) -> CameraModel:
        return CameraModel.from_fov(np.deg2rad(self.horizontal_fov_deg))


@dataclass(frozen=True)
class Pose:
    """Camera pose: world position of the optical center plus yaw [rad]."""

    position: np.ndarray
    yaw: float

    def world_to_camera(self, p_world) -> np.ndarray:
        rel = np.asarray(p_world, dtype=float) - np.asarray(self.position, dtype=float)
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        return np.array([c * rel[0] + s * rel[1], -s * rel[0] + c * rel[1], rel[2]])

    def camera_to_world(self, p_cam) -> np.ndarray:
        p = np.asarray(p_cam, dtype=float)
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rotated = np.array([c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]])
        return np.asarray(self.position, dtype=float) + rotated


@dataclass(frozen=True)
class ImageFeatures:
    """Detected target features in the image plane."""

    body_len_px: float    # apparent upper-body length L_t
    u_px: float           # horizontal image coordinate of the target center


@dataclass(frozen=True)
class TargetObservation:
    """A localized target's world position at ``timestamp``; an unseen target has none."""

    position_world: np.ndarray
    timestamp: float


@dataclass(frozen=True)
class RegressionParams:
    """Fitted localization parameters.

    Depth map:    x_cam = lam1*exp(k1*L) + lam2*exp(k2*L)
    Lateral map:  y_cam = (lam3*exp(k3*u) + lam4*exp(k4*u)) * (a*x_cam + b)
    """

    lam1: float
    lam2: float
    k1: float
    k2: float
    lam3: float
    lam4: float
    k3: float
    k4: float
    a: float
    b: float
    z_const: float

    def depth(self, body_len_px):
        L = np.asarray(body_len_px, dtype=float)
        return self.lam1 * np.exp(self.k1 * L) + self.lam2 * np.exp(self.k2 * L)

    def lateral(self, u_px, depth):
        u = np.asarray(u_px, dtype=float)
        g = self.lam3 * np.exp(self.k3 * u) + self.lam4 * np.exp(self.k4 * u)
        return g * (self.a * np.asarray(depth, dtype=float) + self.b)


# ----------------------------------------------------------------------
# Projection (synthetic measurements)
# ----------------------------------------------------------------------

def project_target(target_world, target_body_len: float, cam: CameraModel, cam_pose: Pose,
                   grid=None, sigma_u: float = 0.0, sigma_len: float = 0.0,
                   rng: np.random.Generator | None = None) -> ImageFeatures | None:
    """Pinhole projection of the target, or None when it cannot be detected.

    Detection fails when the target is behind the camera, outside the
    horizontal field of view, or (when ``grid`` is given) occluded.
    """
    if target_body_len <= 0:
        raise ValueError("target_body_len must be > 0")
    p_cam = cam_pose.world_to_camera(target_world)
    depth, lateral = p_cam[0], p_cam[1]
    if depth <= 1e-6:
        return None
    if abs(lateral / depth) > np.tan(cam.horizontal_fov / 2.0):
        return None
    if grid is not None and not grid.line_of_sight(cam_pose.position, target_world):
        return None
    u = cam.image_width_px / 2.0 - cam.focal_px * lateral / depth
    body_len = cam.focal_px * target_body_len / depth
    if rng is not None and (sigma_u > 0 or sigma_len > 0):
        u += sigma_u * rng.standard_normal()
        body_len += sigma_len * rng.standard_normal()
    u = float(np.clip(u, 0.0, cam.image_width_px))
    body_len = max(float(body_len), 1e-3)
    return ImageFeatures(body_len_px=body_len, u_px=u)


def localize(features: ImageFeatures, params: RegressionParams, cam_pose: Pose,
             t: float) -> TargetObservation:
    """Map image features seen at time ``t`` through the fitted regression into
    a world position, stamped ``t``."""
    x_c = float(params.depth(features.body_len_px))
    y_c = float(params.lateral(features.u_px, x_c))
    p_world = cam_pose.camera_to_world((x_c, y_c, params.z_const))
    return TargetObservation(position_world=p_world, timestamp=t)


# ----------------------------------------------------------------------
# Regression fitting
# ----------------------------------------------------------------------

def _lockstep_gauss_newton(resid_jac, starts):
    """Levenberg-damped Gauss-Newton run on every start at once.

    ``starts`` is ``(S, K)``; ``resid_jac(P) -> (residuals, jacobian)`` maps
    ``(S', K)`` parameters to ``(S', N)`` residuals and ``(S', N, K)``
    jacobians. Each row keeps its own damping, accept/reject decision and
    stopping test, and a stopped row leaves the batch, so every row follows
    the same iterates as a one-row run from its start. Returns the final
    ``(P, cost, J)`` of all rows.
    """
    P = np.array(starts, dtype=float)
    R, J = resid_jac(P)
    cost = np.einsum("sn,sn->s", R, R)
    mu = np.full(len(P), 1e-4)
    diag = np.arange(P.shape[1])
    active = np.ones(len(P), dtype=bool)
    for _ in range(_FIT_MAX_ITER):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        Jr = J[rows]
        A = Jr.transpose(0, 2, 1) @ Jr
        g = Jr.transpose(0, 2, 1) @ R[rows][:, :, None]
        damping = np.zeros_like(A)
        damping[:, diag, diag] = np.maximum(A[:, diag, diag], 1e-12)
        M = A + mu[rows, None, None] * damping
        try:
            step = np.linalg.solve(M, -g)
        except np.linalg.LinAlgError:
            # find the singular rows; they raise their damping and sit out
            step = np.empty_like(g)
            solved = np.ones(rows.size, dtype=bool)
            for i in range(rows.size):
                try:
                    step[i] = np.linalg.solve(M[i], -g[i])
                except np.linalg.LinAlgError:
                    solved[i] = False
            mu[rows[~solved]] *= 10.0
            rows, step = rows[solved], step[solved]
            if rows.size == 0:
                continue
        P_new = P[rows] + step[:, :, 0]
        R_new, J_new = resid_jac(P_new)
        cost_new = np.einsum("sn,sn->s", R_new, R_new)
        better = np.isfinite(cost_new) & (cost_new < cost[rows])
        acc, rej = rows[better], rows[~better]
        rel_drop = (cost[acc] - cost_new[better]) / np.maximum(cost[acc], 1e-300)
        P[acc], R[acc], J[acc], cost[acc] = (
            P_new[better], R_new[better], J_new[better], cost_new[better])
        mu[acc] = np.maximum(mu[acc] * 0.3, 1e-12)
        mu[rej] *= 10.0
        active[acc[rel_drop < _FIT_TOL]] = False
        active[rej[mu[rej] > 1e12]] = False
    return P, cost, J


def _best_start(resid_jac, starts):
    """Lowest-cost finite result of the lockstep solve, ties to the lowest norm."""
    P, cost, J = _lockstep_gauss_newton(resid_jac, starts)
    finite = [i for i in range(len(P)) if np.all(np.isfinite(P[i])) and np.isfinite(cost[i])]
    if not finite:
        raise FitDiverged("no regression start converged")
    i = min(finite, key=lambda i: (cost[i], float(np.linalg.norm(P[i]))))
    return P[i], J[i]


def _depth_resid_jac(L, x_gt):
    def fn(P):
        l1, l2, k1, k2 = P.T[:, :, None]
        e1 = np.exp(np.clip(k1 * L, -60, 60))
        e2 = np.exp(np.clip(k2 * L, -60, 60))
        r = l1 * e1 + l2 * e2 - x_gt
        J = np.stack([e1, e2, l1 * L * e1, l2 * L * e2], axis=-1)
        return r, J
    return fn


def _lateral_resid_jac(u, x_hat, y_gt):
    def fn(P):
        l3, l4, k3, k4, a, b = P.T[:, :, None]
        e3 = np.exp(np.clip(k3 * u, -60, 60))
        e4 = np.exp(np.clip(k4 * u, -60, 60))
        g = l3 * e3 + l4 * e4
        s = a * x_hat + b
        r = g * s - y_gt
        J = np.stack([e3 * s, e4 * s, l3 * u * e3 * s, l4 * u * e4 * s,
                      g * x_hat, g], axis=-1)
        return r, J
    return fn


# Random starts per map of the regression fit, drawn from a fixed seed.
_FIT_STARTS = 16
_FIT_SEED = 0
_FIT_MAX_ITER = 200  # damped Gauss-Newton iterations per start
_FIT_TOL = 1e-10     # relative cost drop that stops a start

# The calibration draw: samples, range band [m] and seed.
_CALIBRATION_N = 320
_CALIBRATION_BAND = (1.0, 5.0)
_CALIBRATION_SEED = 0

# Fits kept per process, one per (camera, body length, noise sigmas).
_FIT_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE)
def fit_regression(cam: CameraModel, body_len: float, sigma_u: float,
                   sigma_len: float) -> RegressionParams:
    """The localization regression fitted to :func:`calibration_samples` of
    these arguments. An LRU cache keeps ``_FIT_CACHE_SIZE`` fits per process,
    and a hit returns the frozen fit itself. Failures are not kept, so they
    are raised on every call."""
    return fit_samples(*calibration_samples(cam, body_len, sigma_u, sigma_len))


def calibration_samples(cam: CameraModel, body_len: float, sigma_u: float,
                        sigma_len: float) -> tuple:
    """Mocap-style calibration samples: ranges concentrated around the working standoff.

    ``_CALIBRATION_N`` ranges are drawn in ``_CALIBRATION_BAND`` from a
    truncated normal centered mid-band (the tracker operates near its standoff
    distance) plus a thin uniform sweep so the full band stays covered, and
    projected with pixel noise of ``sigma_u`` and ``sigma_len``. Returns the
    detected samples' ``(body_len_px, u_px, truth)`` arrays for
    :func:`fit_samples`, ``truth`` holding their (M, 3) camera-frame positions.
    """
    rng = np.random.default_rng(_CALIBRATION_SEED)
    n, (lo, hi) = _CALIBRATION_N, _CALIBRATION_BAND
    center, spread = 0.5 * (lo + hi) - 0.5, 0.25 * (hi - lo)
    ranges = rng.normal(center, spread, size=4 * n)
    ranges = ranges[(ranges > lo) & (ranges < hi)][: n - n // 8]
    ranges = np.concatenate([ranges, np.linspace(lo, hi, n - len(ranges))])
    pose = Pose(position=np.zeros(3), yaw=0.0)
    half_fov = np.tan(np.deg2rad(0.45 * np.rad2deg(cam.horizontal_fov)))
    L, u, truth = [], [], []
    for depth in ranges:
        lateral = depth * rng.uniform(-half_fov, half_fov)
        target = np.array([depth, lateral, rng.uniform(0.6, 1.2)])
        feats = project_target(target, body_len, cam, pose, sigma_u=sigma_u,
                               sigma_len=sigma_len, rng=rng)
        if feats is not None:
            L.append(feats.body_len_px)
            u.append(feats.u_px)
            truth.append(target)
    return np.array(L), np.array(u), np.array(truth)


def fit_samples(L, u, truth) -> RegressionParams:
    """Fit the localization regression to the arrays of samples' apparent body
    lengths ``L``, horizontal image coordinates ``u`` and (M, 3) camera-frame
    ``truth``.

    Multi-start damped Gauss-Newton on each of the two maps; the depth map is
    fitted first because the lateral map consumes its estimate. All starts of
    a map advance in lockstep through one batched solve per iteration, each
    with its own damping and stopping test. The lowest residual wins, ties
    broken by the lowest parameter norm, then by start order.
    Raises FitDiverged when there are fewer than 8 samples, no start
    converges or the samples are rank deficient (for example, all at a
    single range).
    """
    if len(L) < 8:
        raise FitDiverged(f"dataset of {len(L)} samples is too small to fit")
    x_gt, y_gt, z_gt = truth[:, 0], truth[:, 1], truth[:, 2]
    rng = np.random.default_rng(_FIT_SEED)

    # depth map starts: exponent pairs log-uniform, amplitudes by linear solve
    depth_starts = []
    for _ in range(_FIT_STARTS):
        k = -np.exp(rng.uniform(np.log(1e-3), np.log(0.2), 2))
        A = np.column_stack([np.exp(k[0] * L), np.exp(k[1] * L)])
        lam, *_ = np.linalg.lstsq(A, x_gt, rcond=None)
        depth_starts.append(np.array([lam[0], lam[1], k[0], k[1]]))
    p_x, J_x = _best_start(_depth_resid_jac(L, x_gt), depth_starts)

    sv = np.linalg.svd(J_x, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise FitDiverged("depth regression is rank deficient "
                          "(dataset does not span a range band)")

    x_hat = p_x[0] * np.exp(p_x[2] * L) + p_x[1] * np.exp(p_x[3] * L)

    # lateral map starts: fit y/x_hat as a difference of exponentials in u
    ratio = y_gt / np.maximum(x_hat, 1e-6)
    lateral_starts = []
    for _ in range(_FIT_STARTS):
        k = rng.uniform(-5e-3, 5e-3, 2)
        A = np.column_stack([np.exp(k[0] * u), np.exp(k[1] * u)])
        lam, *_ = np.linalg.lstsq(A, ratio, rcond=None)
        lateral_starts.append(np.array([lam[0], lam[1], k[0], k[1], 1.0, 0.0]))
    p_y, _ = _best_start(_lateral_resid_jac(u, x_hat, y_gt), lateral_starts)
    return RegressionParams(
        lam1=p_x[0], lam2=p_x[1], k1=p_x[2], k2=p_x[3],
        lam3=p_y[0], lam4=p_y[1], k3=p_y[2], k4=p_y[3], a=p_y[4], b=p_y[5],
        z_const=float(np.mean(z_gt)),
    )


# ----------------------------------------------------------------------
# Gimbal control
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GimbalState:
    """1-DOF gimbal state: unbounded yaw (slip-ring mount) [rad] and PI integrator [px s]."""

    yaw: float
    integrator: float = 0.0


def gimbal_track_step(g: GimbalState, u_px: float, cfg: PerceptionConfig,
                      dt: float) -> GimbalState:
    """PI step at ``cfg``'s gains driving the target's pixel error toward the frame center.

    ``cfg.yaw_rate_limit`` bounds the yaw rate and, through ``ki``, the integrator.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    error = u_px - cfg.camera.image_width_px / 2.0
    integ = g.integrator + error * dt
    windup_cap = cfg.yaw_rate_limit / max(cfg.ki, 1e-12)
    integ = float(np.clip(integ, -windup_cap, windup_cap))
    rate = -(cfg.kp * error + cfg.ki * integ)
    rate = float(np.clip(rate, -cfg.yaw_rate_limit, cfg.yaw_rate_limit))
    return replace(g, yaw=g.yaw + rate * dt, integrator=integ)


def gimbal_search_step(g: GimbalState, cfg: PerceptionConfig, dt: float) -> GimbalState:
    """Sweep toward positive yaw at ``cfg.omega_search`` (0 holds it); reset the integrator."""
    return replace(g, yaw=g.yaw + cfg.omega_search * dt, integrator=0.0)

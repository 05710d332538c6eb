"""Synthetic gimbal-camera perception: projection, location regression, control.

The real detector is replaced by a pinhole projection of the scripted target
with optional pixel noise. Localization inverts two fitted exponential maps:
depth from the apparent upper-body length, lateral offset from the horizontal
image coordinate scaled by an affine function of depth. Height is held
constant in the camera frame since target motion is assumed horizontal.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import FitDiverged


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a 1-DOF (yaw) gimbal mount."""

    focal_px: float
    image_width_px: int = 640
    image_height_px: int = 480
    mount_height: float = 0.1

    @property
    def horizontal_fov(self) -> float:
        return 2.0 * np.arctan(self.image_width_px / (2.0 * self.focal_px))

    @staticmethod
    def from_fov(horizontal_fov_rad: float, width: int = 640, height: int = 480,
                 mount_height: float = 0.1) -> "CameraModel":
        focal = width / (2.0 * np.tan(horizontal_fov_rad / 2.0))
        return CameraModel(focal, width, height, mount_height)


DEFAULT_CAMERA = CameraModel.from_fov(np.deg2rad(87.0))


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
    timestamp: float


@dataclass(frozen=True)
class TargetObservation:
    position_world: np.ndarray | None
    timestamp: float
    valid: bool

    @staticmethod
    def invalid(timestamp: float) -> "TargetObservation":
        return TargetObservation(position_world=None, timestamp=timestamp, valid=False)


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
    rms_residual: float = float("nan")

    def depth(self, body_len_px):
        L = np.asarray(body_len_px, dtype=float)
        return self.lam1 * np.exp(self.k1 * L) + self.lam2 * np.exp(self.k2 * L)

    def lateral(self, u_px, depth):
        u = np.asarray(u_px, dtype=float)
        g = self.lam3 * np.exp(self.k3 * u) + self.lam4 * np.exp(self.k4 * u)
        return g * (self.a * np.asarray(depth, dtype=float) + self.b)

    def to_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in (
            "lam1", "lam2", "k1", "k2", "lam3", "lam4", "k3", "k4", "a", "b",
            "z_const", "rms_residual")}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


# ----------------------------------------------------------------------
# Projection (synthetic measurements)
# ----------------------------------------------------------------------

def project_target(target_world, target_body_len: float, cam: CameraModel, cam_pose: Pose,
                   timestamp: float = 0.0, grid=None, sigma_u: float = 0.0,
                   sigma_len: float = 0.0, rng: np.random.Generator | None = None
                   ) -> ImageFeatures | None:
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
    return ImageFeatures(body_len_px=body_len, u_px=u, timestamp=timestamp)


def localize(features: ImageFeatures, params: RegressionParams, cam_pose: Pose
             ) -> TargetObservation:
    """Map image features through the fitted regression into a world position."""
    x_c = float(params.depth(features.body_len_px))
    y_c = float(params.lateral(features.u_px, x_c))
    p_world = cam_pose.camera_to_world((x_c, y_c, params.z_const))
    return TargetObservation(position_world=p_world, timestamp=features.timestamp, valid=True)


# ----------------------------------------------------------------------
# Regression fitting
# ----------------------------------------------------------------------

def _lockstep_gauss_newton(resid_jac, starts, max_iter: int = 200, tol: float = 1e-10):
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
    for _ in range(max_iter):
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
        active[acc[rel_drop < tol]] = False
        active[rej[mu[rej] > 1e12]] = False
    return P, cost, J


def _best_start(resid_jac, starts):
    """Lowest-cost finite result of the lockstep solve, ties to the lowest norm."""
    P, cost, J = _lockstep_gauss_newton(resid_jac, starts)
    finite = [i for i in range(len(P)) if np.all(np.isfinite(P[i])) and np.isfinite(cost[i])]
    if not finite:
        raise FitDiverged("no regression start converged")
    i = min(finite, key=lambda i: (cost[i], float(np.linalg.norm(P[i]))))
    return float(cost[i]), P[i], J[i]


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


def fit_regression(dataset) -> RegressionParams:
    """Fit the localization regression from (ImageFeatures, camera-frame truth) pairs.

    Multi-start damped Gauss-Newton on each of the two maps; the depth map is
    fitted first because the lateral map consumes its estimate. All starts of
    a map advance in lockstep through one batched solve per iteration, each
    with its own damping and stopping test. The lowest residual wins, ties
    broken by the lowest parameter norm, then by start order.
    Raises FitDiverged when the dataset has fewer than 8 samples, no start
    converges or the dataset is rank deficient (for example, all samples at a
    single range).

    The fit is :attr:`CalibrationDataset.params`, computed once per dataset;
    any other sequence of samples is wrapped in a new ``CalibrationDataset``
    and fitted afresh. Failures are not kept, so they are raised on every
    call.
    """
    if not isinstance(dataset, CalibrationDataset):
        dataset = CalibrationDataset(dataset)
    return dataset.params


class CalibrationDataset(tuple):
    """An immutable tuple of calibration samples that keeps its own fit.

    ``params`` is the :func:`fit_regression` result of these samples,
    computed on first use and kept on the dataset; a tuple cannot be edited,
    so it stays true.
    """

    @functools.cached_property
    def params(self) -> RegressionParams:
        """The regression fit of these samples, described at :func:`fit_regression`."""
        if len(self) < 8:
            raise FitDiverged(f"dataset of {len(self)} samples is too small to fit")
        L = np.array([f.body_len_px for f, _ in self], dtype=float)
        u = np.array([f.u_px for f, _ in self], dtype=float)
        truth = np.array([np.asarray(p, dtype=float) for _, p in self])
        x_gt, y_gt, z_gt = truth[:, 0], truth[:, 1], truth[:, 2]
        rng = np.random.default_rng(_FIT_SEED)

        # depth map starts: exponent pairs log-uniform, amplitudes by linear solve
        depth_starts = []
        for _ in range(_FIT_STARTS):
            k = -np.exp(rng.uniform(np.log(1e-3), np.log(0.2), 2))
            A = np.column_stack([np.exp(k[0] * L), np.exp(k[1] * L)])
            lam, *_ = np.linalg.lstsq(A, x_gt, rcond=None)
            depth_starts.append(np.array([lam[0], lam[1], k[0], k[1]]))
        cost_x, p_x, J_x = _best_start(_depth_resid_jac(L, x_gt), depth_starts)

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
        cost_y, p_y, _ = _best_start(_lateral_resid_jac(u, x_hat, y_gt), lateral_starts)

        rms = float(np.sqrt((cost_x + cost_y) / len(L)))
        return RegressionParams(
            lam1=p_x[0], lam2=p_x[1], k1=p_x[2], k2=p_x[3],
            lam3=p_y[0], lam4=p_y[1], k3=p_y[2], k4=p_y[3], a=p_y[4], b=p_y[5],
            z_const=float(np.mean(z_gt)), rms_residual=rms,
        )


# Calibration datasets kept per process; each holds a few hundred samples.
_DATASET_CACHE_SIZE = 8


def make_calibration_dataset(cam: CameraModel, body_len: float, n: int = 320,
                             range_band=(1.0, 5.0), seed: int = 0,
                             sigma_u: float = 0.0, sigma_len: float = 0.0
                             ) -> CalibrationDataset:
    """Mocap-style dataset: ranges concentrated around the working standoff.

    Ranges are drawn from a truncated normal centered mid-band (the tracker
    operates near its standoff distance) plus a thin uniform sweep so the
    full band stays covered. Returns (ImageFeatures, camera-frame truth)
    pairs suitable for :func:`fit_regression`.

    Datasets are memoized per process in ``_calibration_samples``, an LRU
    cache of ``_DATASET_CACHE_SIZE`` datasets keyed on every argument, with
    ``range_band`` as a tuple. The dataset is a pure function of those
    arguments, so a hit equals a fresh build. A hit returns the memoized
    :class:`CalibrationDataset` itself: a tuple of frozen ``ImageFeatures``
    and read-only truth arrays that keeps its fit once made, so no caller
    can change what a later call returns, and :func:`fit_regression` on it
    costs O(1) after the first. Make a list of it to edit a dataset.
    """
    return _calibration_samples(cam, body_len, n, tuple(range_band), seed,
                                sigma_u, sigma_len)


@functools.lru_cache(maxsize=_DATASET_CACHE_SIZE)
def _calibration_samples(cam: CameraModel, body_len: float, n: int, range_band: tuple,
                         seed: int, sigma_u: float, sigma_len: float) -> CalibrationDataset:
    """The dataset of :func:`make_calibration_dataset`."""
    rng = np.random.default_rng(seed)
    lo, hi = range_band
    center, spread = 0.5 * (lo + hi) - 0.5, 0.25 * (hi - lo)
    ranges = rng.normal(center, spread, size=4 * n)
    ranges = ranges[(ranges > lo) & (ranges < hi)][: n - n // 8]
    ranges = np.concatenate([ranges, np.linspace(lo, hi, n - len(ranges))])
    pose = Pose(position=np.zeros(3), yaw=0.0)
    half_fov = np.tan(np.deg2rad(0.45 * np.rad2deg(cam.horizontal_fov)))
    samples = []
    for i, depth in enumerate(ranges):
        lateral = depth * rng.uniform(-half_fov, half_fov)
        target = np.array([depth, lateral, rng.uniform(0.6, 1.2)])
        feats = project_target(target, body_len, cam, pose, timestamp=float(i),
                               sigma_u=sigma_u, sigma_len=sigma_len,
                               rng=rng if (sigma_u or sigma_len) else None)
        if feats is not None:
            target.flags.writeable = False
            samples.append((feats, target))
    return CalibrationDataset(samples)


# ----------------------------------------------------------------------
# Gimbal control
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GimbalState:
    """1-DOF gimbal: unbounded yaw (slip-ring mount), rate-limited steps."""

    yaw: float
    yaw_rate_limit: float = 3.0
    integrator: float = 0.0


def gimbal_track_step(g: GimbalState, u_px: float, cam: CameraModel, dt: float,
                      kp: float = 0.004, ki: float = 0.0005) -> GimbalState:
    """PI step driving the target's pixel error toward the frame center."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    error = u_px - cam.image_width_px / 2.0
    integ = g.integrator + error * dt
    windup_cap = g.yaw_rate_limit / max(ki, 1e-12)
    integ = float(np.clip(integ, -windup_cap, windup_cap))
    rate = -(kp * error + ki * integ)
    rate = float(np.clip(rate, -g.yaw_rate_limit, g.yaw_rate_limit))
    return replace(g, yaw=g.yaw + rate * dt, integrator=integ)


def gimbal_search_step(g: GimbalState, dt: float, omega_search: float = 1.5) -> GimbalState:
    """Constant-rate sweep in the positive yaw direction; yaw wraps freely."""
    return replace(g, yaw=g.yaw + omega_search * dt, integrator=0.0)

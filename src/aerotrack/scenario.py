"""Scenario definition: map, scripted target, quadrotor start, module configs.

The target follows timed waypoints at a commanded speed; corners are rounded
by a moving-average smoother whose window bounds the turn acceleration, so
scripted motion stays within the prediction module's dynamic assumptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import InvalidScenario, require_positive
from .grid import MapSpec
from .kino_search import SearchWeights
from .perception import DEFAULT_CAMERA, CameraModel
from .prediction import PredictionWeights
from .traj_opt import OptWeights


@dataclass
class TargetScript:
    """Piecewise-linear waypoint route traversed at constant speed."""

    waypoints: np.ndarray          # (K, 3)
    speed: float                   # [m/s]
    smoothing: float = 1.2         # moving-average window [s]; 0 disables

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3:
            raise InvalidScenario("target waypoints must be (K, 3)")
        if not np.all(np.isfinite(self.waypoints)):
            raise InvalidScenario("target waypoints must be finite")
        if not 0 < self.speed < np.inf:
            raise InvalidScenario("target speed must be finite and > 0")
        if not np.isfinite(self.smoothing):
            raise InvalidScenario("target smoothing must be finite")
        legs = np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)
        self._knot_times = np.concatenate([[0.0], np.cumsum(legs / self.speed)])

    @property
    def end_time(self) -> float:
        return float(self._knot_times[-1])

    def _linear(self, t: float) -> np.ndarray:
        t = float(np.clip(t, 0.0, self.end_time))
        i = min(int(np.searchsorted(self._knot_times, t, side="right")) - 1,
                len(self._knot_times) - 2)
        i = max(i, 0)
        t0, t1 = self._knot_times[i], self._knot_times[i + 1]
        frac = 0.0 if t1 <= t0 else (t - t0) / (t1 - t0)
        return self.waypoints[i] + frac * (self.waypoints[i + 1] - self.waypoints[i])

    def _linear_integral(self, a: float, b: float) -> np.ndarray:
        """Exact integral of the piecewise-linear position between two times."""
        if b <= a:
            return np.zeros(3)
        knots = self._knot_times
        cuts = [a] + [float(k) for k in knots if a < k < b] + [b]
        total = np.zeros(3)
        for lo, hi in zip(cuts, cuts[1:]):
            total += 0.5 * (self._linear(lo) + self._linear(hi)) * (hi - lo)
        return total

    def state(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Smoothed position and velocity at time ``t``."""
        if self.smoothing <= 0:
            eps = 1e-4
            pos = self._linear(t)
            vel = (self._linear(t + eps) - self._linear(t - eps)) / (2 * eps)
            return pos, vel
        w = self.smoothing
        pos = self._linear_integral(t - w, t) / w
        vel = (self._linear(t) - self._linear(t - w)) / w
        return pos, vel


@dataclass
class PerceptionConfig:
    camera: CameraModel = DEFAULT_CAMERA
    body_len: float = 0.45
    sigma_u: float = 2.0
    sigma_len: float = 2.0
    kp: float = 0.004
    ki: float = 0.0005
    yaw_rate_limit: float = 3.0
    omega_search: float = 1.5

    def __post_init__(self):
        require_positive("body_len", self.body_len)


@dataclass
class TrackerParams:
    d_track: float = 2.0          # desired standoff distance [m]
    d_fail: float = 6.0           # losing distance threshold [m]
    t_fail: float = 3.0           # continuous seconds beyond d_fail to fail
    loss_timeout: float = 0.5     # invalid-observation streak entering relocation [s]
    replan_hz: float = 13.0
    quad_z: float | None = None   # planar altitude hold; None follows the planner

    def __post_init__(self):
        require_positive("replan_hz", self.replan_hz)


@dataclass
class Scenario:
    name: str
    map_spec: MapSpec
    target: TargetScript
    quad_start: np.ndarray
    duration: float
    seed: int = 0
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    prediction: PredictionWeights = field(default_factory=PredictionWeights)
    search: SearchWeights = field(default_factory=lambda: SearchWeights(freeze_z=True))
    opt: OptWeights = field(default_factory=OptWeights)
    tracker: TrackerParams = field(default_factory=TrackerParams)

    def __post_init__(self):
        self.quad_start = np.asarray(self.quad_start, dtype=float)
        if self.quad_start.shape != (3,) or not np.all(np.isfinite(self.quad_start)):
            raise InvalidScenario("quad_start must be 3 finite numbers")
        lo = self.map_spec.origin
        hi = self.map_spec.origin + self.map_spec.dims * self.map_spec.resolution
        for i, p in enumerate(self.target.waypoints):
            if np.any(p < lo) or np.any(p > hi):
                raise InvalidScenario(f"target waypoint {i} {p.tolist()} outside map bounds")
        if self.target.speed > self.prediction.v_max:
            raise InvalidScenario(
                f"target speed {self.target.speed} exceeds prediction bound "
                f"{self.prediction.v_max}")
        if not 0 < self.duration < np.inf:
            raise InvalidScenario("duration must be finite and > 0")
        if self.duration < 1.0 / self.tracker.replan_hz:
            raise InvalidScenario(
                f"duration {self.duration} is shorter than one replanning cycle "
                f"(1 / replan_hz = {1.0 / self.tracker.replan_hz})")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise InvalidScenario(f"seed must be a non-negative integer, got {self.seed!r}")

    @staticmethod
    def from_dict(raw: dict) -> "Scenario":
        if not isinstance(raw, dict):
            raise InvalidScenario("scenario must be a JSON object")
        problems = []
        for req in ("name", "map", "target", "quad_start", "duration"):
            if req not in raw:
                problems.append(f"{req}: missing required field")
        if problems:
            raise InvalidScenario("invalid scenario:\n  " + "\n  ".join(problems))
        target_raw = raw["target"]
        try:
            target = TargetScript(
                waypoints=np.asarray(target_raw["waypoints"], dtype=float),
                speed=float(target_raw.get("speed", 1.0)),
                smoothing=float(target_raw.get("smoothing", 1.2)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidScenario(f"target: {exc}")

        def section(key):
            cfg = raw.get(key, {})
            if not isinstance(cfg, dict):
                raise InvalidScenario(f"{key}: expected an object")
            return dict(cfg)

        def build(cls, key, cfg=None, **fixed):
            try:
                return cls(**fixed, **(section(key) if cfg is None else cfg))
            except (TypeError, ValueError) as exc:
                raise InvalidScenario(f"{key}: {exc}")

        def convert(key, fn, value):
            try:
                return fn(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidScenario(f"{key}: {exc}")

        perception_raw = section("perception")
        fov = perception_raw.pop("horizontal_fov_deg", None)
        if fov is None:
            camera = DEFAULT_CAMERA
        elif isinstance(fov, (int, float)) and 0 < fov < 180:
            camera = CameraModel.from_fov(np.deg2rad(fov))
        else:
            raise InvalidScenario(
                f"perception: horizontal_fov_deg must be a number in (0, 180), got {fov!r}")
        search_raw = section("search")
        if "u_grid" in search_raw:
            search_raw["u_grid"] = convert("search", tuple, search_raw["u_grid"])
        search_raw.setdefault("freeze_z", True)
        return Scenario(
            name=str(raw["name"]),
            map_spec=MapSpec.from_dict(raw["map"]),
            target=target,
            quad_start=convert("quad_start", lambda v: np.asarray(v, dtype=float),
                               raw["quad_start"]),
            duration=convert("duration", float, raw["duration"]),
            seed=raw.get("seed", 0),
            perception=build(PerceptionConfig, "perception", perception_raw, camera=camera),
            prediction=build(PredictionWeights, "prediction"),
            search=build(SearchWeights, "search", search_raw),
            opt=build(OptWeights, "opt"),
            tracker=build(TrackerParams, "tracker"),
        )

    @staticmethod
    def from_json(path) -> "Scenario":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidScenario(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
        return Scenario.from_dict(raw)

"""Scenario definition: map, scripted target, quadrotor start, module configs.

The target follows timed waypoints at a commanded speed; corners are rounded
by a moving-average smoother whose window bounds the turn acceleration, so
scripted motion stays within the prediction module's dynamic assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Config, InvalidScenario, Positive, is_count, is_number, is_numbers, is_positive, read_json)
from .grid import MapSpec
from .kino_search import SearchWeights
from .perception import DEFAULT_CAMERA, CameraModel, PerceptionConfig
from .prediction import PredictionWeights
from .traj_opt import OptWeights


@dataclass
class TargetScript:
    """Piecewise-linear waypoint route traversed at constant speed."""

    waypoints: np.ndarray          # (K, 3)
    speed: float = 1.0             # [m/s]
    smoothing: float = 1.2         # moving-average window [s]; 0 disables

    def __post_init__(self):
        wp = self.waypoints
        if not (isinstance(wp, (list, tuple, np.ndarray)) and len(wp) >= 2
                and all(is_numbers(p, 3) for p in wp)):
            raise InvalidScenario("target waypoints must be finite, at least 2 rows of 3 numbers")
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if not is_positive(self.speed):
            raise InvalidScenario("target speed must be finite and > 0")
        if not (is_number(self.smoothing) and self.smoothing >= 0):
            raise InvalidScenario("target smoothing must be finite and >= 0")
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
class TrackerParams(Config):
    d_track: float = 2.0          # desired standoff distance [m]
    d_fail: float = 6.0           # losing distance threshold [m]
    t_fail: float = 3.0           # continuous seconds beyond d_fail to fail
    loss_timeout: Positive = 0.5  # unseen time that starts relocation [s]
    replan_hz: Positive = 13.0


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
    search: SearchWeights = field(default_factory=SearchWeights)
    opt: OptWeights = field(default_factory=OptWeights)
    tracker: TrackerParams = field(default_factory=TrackerParams)

    def __post_init__(self):
        if not is_numbers(self.quad_start, 3):
            raise InvalidScenario("quad_start must be 3 finite numbers")
        self.quad_start = np.asarray(self.quad_start, dtype=float)
        lo = self.map_spec.origin
        hi = self.map_spec.origin + self.map_spec.dims * self.map_spec.resolution
        points = [("quad_start", self.quad_start)]
        points += [(f"target waypoint {i}", p) for i, p in enumerate(self.target.waypoints)]
        for name, p in points:
            if np.any(p < lo) or np.any(p > hi):
                raise InvalidScenario(f"{name} {p.tolist()} outside map bounds")
        if self.target.speed > self.prediction.v_max:
            raise InvalidScenario(
                f"target speed {self.target.speed} exceeds prediction bound "
                f"{self.prediction.v_max}")
        if not is_positive(self.duration):
            raise InvalidScenario("duration must be finite and > 0")
        if self.duration < 1.0 / self.tracker.replan_hz:
            raise InvalidScenario(
                f"duration {self.duration} is shorter than one replanning cycle "
                f"(1 / replan_hz = {1.0 / self.tracker.replan_hz})")
        if not is_count(self.seed):
            raise InvalidScenario(f"seed must be a non-negative integer, got {self.seed!r}")

    @staticmethod
    def from_dict(raw: dict) -> "Scenario":
        """Build a scenario from its JSON object, or raise one ``InvalidScenario``.

        Values pass through to the dataclasses, which check them.
        """
        if not isinstance(raw, dict):
            raise InvalidScenario("scenario must be a JSON object")
        problems = [f"{key}: missing required field" for key in
                    ("name", "map", "target", "quad_start", "duration") if key not in raw]
        if problems:
            raise InvalidScenario("invalid scenario: " + "; ".join(problems))

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

        perception_raw = section("perception")
        fov = perception_raw.pop("horizontal_fov_deg", None)
        if not (fov is None or is_number(fov) and 0 < fov < 180):
            raise InvalidScenario(
                f"perception: horizontal_fov_deg must be a number in (0, 180), got {fov!r}")
        camera = DEFAULT_CAMERA if fov is None else CameraModel.from_fov(np.deg2rad(fov))
        return Scenario(
            name=str(raw["name"]),
            map_spec=MapSpec.from_dict(raw["map"]),
            target=build(TargetScript, "target"),
            quad_start=raw["quad_start"],
            duration=raw["duration"],
            seed=raw.get("seed", 0),
            perception=build(PerceptionConfig, "perception", perception_raw, camera=camera),
            prediction=build(PredictionWeights, "prediction"),
            search=build(SearchWeights, "search"),
            opt=build(OptWeights, "opt"),
            tracker=build(TrackerParams, "tracker"),
        )

    @staticmethod
    def from_json(path) -> "Scenario":
        return Scenario.from_dict(read_json(path, InvalidScenario))

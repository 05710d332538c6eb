"""Scenario definition: map, scripted target, quadrotor start, module configs.

A :class:`Scenario` is the schema of a scenario file, whose keys are its field
names; ``from_dict`` checks every key, map and sections included, before it
builds anything. Only the checks that relate two fields are written here.

The target follows timed waypoints at a commanded speed; corners are rounded
by a moving-average smoother whose window bounds the turn acceleration, so
scripted motion stays within the prediction module's dynamic assumptions. The
loop reads only the target's position, ``TargetScript.position(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Config, NonNegative, Point, Positive, Route, read_json, refuse
from .grid import MapSpec
from .kino_search import SearchWeights
from .perception import PerceptionConfig
from .prediction import PredictionWeights
from .traj_opt import OptWeights


@dataclass
class TargetScript(Config):
    """Piecewise-linear waypoint route traversed at constant speed."""

    waypoints: Route               # (K, 3)
    speed: Positive = 1.0          # [m/s]
    smoothing: NonNegative = 1.2   # moving-average window [s]; 0 disables

    def __post_init__(self):
        super().__post_init__()
        self.waypoints = np.asarray(self.waypoints, dtype=float)
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

    def position(self, t: float) -> np.ndarray:
        """Position at time ``t``: the route's mean over the last ``smoothing``
        seconds, or the route itself when ``smoothing`` is 0."""
        if self.smoothing == 0:
            return self._linear(t)
        return self._linear_integral(t - self.smoothing, t) / self.smoothing


@dataclass
class TrackerParams(Config):
    d_track: float = 2.0          # desired standoff distance [m]
    d_fail: Positive = 6.0        # losing distance threshold [m]
    t_fail: NonNegative = 3.0     # continuous seconds beyond d_fail to fail
    loss_timeout: Positive = 0.5  # unseen time that starts relocation [s]
    replan_hz: Positive = 13.0


@dataclass
class Scenario(Config):
    name: str
    map: MapSpec
    target: TargetScript
    quad_start: Point
    duration: Positive
    seed: int = 0
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    prediction: PredictionWeights = field(default_factory=PredictionWeights)
    search: SearchWeights = field(default_factory=SearchWeights)
    opt: OptWeights = field(default_factory=OptWeights)
    tracker: TrackerParams = field(default_factory=TrackerParams)

    def __post_init__(self):
        super().__post_init__()
        self.quad_start = np.asarray(self.quad_start, dtype=float)
        points = [("quad_start", self.quad_start)]
        points += [(f"target waypoint {i}", p) for i, p in enumerate(self.target.waypoints)]
        # the grid's voxel rule, so a point on the map's upper face is outside
        vox = [np.floor((p - self.map.origin) / self.map.resolution) for _, p in points]
        problems = [f"{name} {p.tolist()} outside map bounds" for (name, p), v in zip(points, vox)
                    if np.any(v < 0) or np.any(v >= self.map.dims)]
        speed, pred, hz = self.target.speed, self.prediction, self.tracker.replan_hz
        if speed > pred.v_max:
            problems.append(f"target speed {speed} exceeds prediction bound {pred.v_max}")
        if self.duration < 1.0 / hz:
            problems.append(f"duration {self.duration} is shorter than one replanning cycle "
                            f"(1 / replan_hz = {1.0 / hz})")
        if pred.degree + 1 > pred.window * hz:
            problems.append(f"prediction degree {pred.degree} needs {pred.degree + 1} "
                            f"observations, more than the {pred.window * hz:g} cycles in its "
                            f"{pred.window} s window at replan_hz {hz}")
        refuse(problems)

    @staticmethod
    def from_json(path) -> "Scenario":
        return Scenario.from_dict(read_json(path))

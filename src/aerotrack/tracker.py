"""Closed-loop tracking simulator: perceive, predict, plan, execute, repeat.

Each cycle moves the scripted target and runs four stages. ``perceive`` steps
the gimbal, observes the target and times how long it has been unseen.
``predict`` refits the prediction. ``plan`` searches an occlusion-aware path
toward a standoff goal, wraps it in a corridor and optimizes the tracking
trajectory. ``execute`` flies the quadrotor along it as a perfect follower.
The standoff goal backs off from ``blend_goal``, the one blend of the target's
current and look-ahead predicted states. Stage failures keep the previous trajectory; the
optimizer raises on a trajectory that leaves its corridor of free cubes, so
every trajectory flown has passed that one safety check. Losing the target long
enough switches to relocation: the quadrotor flies toward the last prediction's
endpoint while the gimbal sweeps all bearings until the target is reacquired.
Both modes replan by one rule: a cycle flies on along its trajectory while the
last attempt succeeded, at least ``MIN_REMAINING_S`` of it is left, the state it
ends in passes the search's own goal test for the new goal, and the target is
seen, unseen or lost as it was when the trajectory was planned. For a path
that ran out of the search's node budget, the goal it was searched for takes
the end state's place in that test. Otherwise the cycle searches, builds a
corridor and optimizes a new trajectory.
Every stage reads its settings from the world's scenario; a variant is a set
of config values (``VARIANTS``) applied to it once, so no stage branches on it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import corridor as corridor_mod
from . import kino_search, traj_opt
from .errors import InsufficientData, QPInfeasible, UnknownVariant
from .grid import build_map
from .kino_search import SearchWeights
from .perception import (
    GimbalState,
    Pose,
    fit_regression,
    gimbal_search_step,
    gimbal_track_step,
    localize,
    make_calibration_dataset,
    project_target,
    TargetObservation,
)
from .prediction import fit_predicted_trajectory
from .scenario import Scenario

TRACKING = "TRACKING"
RELOCATING = "RELOCATING"

# A trajectory is replanned once less than this much of it is left [s].
MIN_REMAINING_S = 1.0

# Seed states kept per process; each holds four uint64 words (32 bytes).
_SEED_CACHE_SIZE = 8

# Each variant's scenario config values, {section: {field: value}}: no_gimbal_search
# holds the relocating gimbal's yaw, as a sweep at rate 0.
VARIANTS = {
    "full": {},
    "no_occlusion_penalty": {"search": {"p_occ": 0.0}},
    "no_gimbal_search": {"perception": {"omega_search": 0.0}},
}

TRACE_COLUMNS = [
    "cycle", "t", "tgt_x", "tgt_y", "tgt_z", "obs_valid", "obs_x", "obs_y", "obs_z",
    "pred_t0_x", "pred_t0_y", "pred_t0_z", "pred_tp_x", "pred_tp_y", "pred_tp_z",
    "mode", "path_cost", "corridor_m", "j_sigma", "quad_x", "quad_y", "quad_z",
    "quad_yaw", "los", "path_los", "plan_ok",
]
_MODE = TRACE_COLUMNS.index("mode")
_LOS = TRACE_COLUMNS.index("los")
_PLAN_OK = TRACE_COLUMNS.index("plan_ok")
_PRED_T0_X = TRACE_COLUMNS.index("pred_t0_x")
_TGT_X = TRACE_COLUMNS.index("tgt_x")
_QUAD_X = TRACE_COLUMNS.index("quad_x")
_NO_PATH = (float("nan"), 0, float("nan"), "")  # path_cost .. path_los, no new path


def resolve_variant(variant: str) -> str:
    """``variant`` if it names one of ``VARIANTS``; UnknownVariant if not."""
    if variant not in VARIANTS:
        raise UnknownVariant(f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}")
    return variant


@dataclass
class Metrics:
    success: bool = True
    fail_reason: str = ""
    mean_target_distance: float = 0.0
    max_target_distance: float = 0.0
    los_fraction: float = 0.0
    loss_episodes: int = 0
    mean_relocation_time: float | None = None  # None when no relocation ended
    relocation_times: list = field(default_factory=list)
    cycles: int = 0
    plan_failures: int = 0  # failed attempts; a warm-up cycle has no prediction and no attempt
    stage_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["stage_ms"] = {k: round(v, 3) for k, v in self.stage_ms.items()}
        return out


class TrackerWorld:
    """Mutable simulation state for one run of ``scenario`` under the variant's values."""

    def __init__(self, scenario: Scenario, variant: str = "full"):
        for section, values in VARIANTS[resolve_variant(variant)].items():
            scenario = replace(scenario, **{section: replace(getattr(scenario, section), **values)})
        self.scenario = scenario
        self.grid = build_map(scenario.map)
        self.dt = 1.0 / scenario.tracker.replan_hz
        self.rng = np.random.Generator(np.random.PCG64(_seed_state(scenario.seed)))
        # The map spec keeps its read-only grid, make_calibration_dataset
        # memoizes one immutable dataset per calibration config (camera, body
        # length, noise sigmas) and that dataset keeps its fit, so a later
        # world of the same scenario rebuilds none of them. Both calls stay
        # one per world because perfbench times each world's build_map and
        # fit_regression spans.
        cfg = scenario.perception
        self.params = fit_regression(make_calibration_dataset(
            cfg.camera, cfg.body_len, sigma_u=cfg.sigma_u, sigma_len=cfg.sigma_len))

        self.quad = np.zeros((3, 3))  # kinematic state [p, v, a], at rest at the start
        self.quad[0] = scenario.quad_start
        self.quad_yaw = 0.0
        self.gimbal = GimbalState(yaw=0.0)
        self.unseen_s = 0.0  # seconds since the target was last seen, 0 on a cycle that sees it
        self.observations: list[TargetObservation] = []
        self.prediction = None
        self.trajectory = None
        self.traj_clock = 0.0
        # the state [p, v] the trajectory ends in (a budget path's searched goal),
        # and the target state it was planned under
        self.planned: tuple[np.ndarray, tuple] | None = None
        self.last_u: float | None = None
        self.cycle = 0
        self.trace_rows: list[list] = []
        self.stage_totals: dict[str, float] = {}
        self.collided = False
        self.fail_streak = 0.0
        self.last_plan_error = ""

    @property
    def mode(self) -> str:
        """``RELOCATING`` once the target has been unseen for ``loss_timeout``, else ``TRACKING``.

        The unseen time only grows until the target is seen again, so relocation
        lasts from the timeout to the next observation.
        """
        return RELOCATING if self.unseen_s >= self.scenario.tracker.loss_timeout else TRACKING

    @property
    def los_flags(self) -> list[bool]:
        """Whether the quadrotor saw the target at the end of each cycle: the trace's ``los``."""
        return [bool(row[_LOS]) for row in self.trace_rows]

    @property
    def distances(self) -> list[float]:
        """Quadrotor-to-target distance at the end of each cycle, from the trace's positions."""
        return [float(np.linalg.norm(np.array(row[_QUAD_X:_QUAD_X + 3])
                                     - np.array(row[_TGT_X:_TGT_X + 3])))
                for row in self.trace_rows]

    @contextlib.contextmanager
    def _stage(self, name: str):
        """Add the wall time of the block to stage ``name``, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_totals[name] = self.stage_totals.get(name, 0.0) + (
                time.perf_counter() - t0) * 1000.0


class _SeedState(ISeedSequence):
    """The four ``uint64`` words ``np.random.SeedSequence(seed)`` gives ``PCG64``.

    ``PCG64`` seeds itself from ``generate_state(4, np.uint64)``, so a
    generator built on this state draws the stream of
    ``np.random.default_rng(seed)`` without hashing the seed again. The words
    are read-only, and any other request raises ``ValueError``. The state
    cannot spawn, so ``Generator.spawn`` raises ``TypeError`` rather than
    advance a child counter that every later world of the seed would share.
    """

    def __init__(self, seed: int):
        self.words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        self.words.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"seed state holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.words


# One state per seed, hashed once per process; every world still builds its
# own PCG64 and Generator from it.
_seed_state = functools.lru_cache(maxsize=_SEED_CACHE_SIZE)(_SeedState)


def blend_goal(traj, t: float, w: SearchWeights) -> tuple[np.ndarray, np.ndarray]:
    """Search goal ``[p, v]`` blended from the prediction now and at the look-ahead time.

    The goal state is ``1 - w.w_goal`` parts the predicted state at ``t`` and
    ``w.w_goal`` parts the predicted state at ``min(t + w.t_lookahead, t_p)``.
    Also returns the predicted position at that look-ahead time.
    """
    p_now, v_now = traj.evaluate(t)
    p_pred, v_pred = traj.evaluate(min(t + w.t_lookahead, traj.t_p))
    p = (1.0 - w.w_goal) * p_now + w.w_goal * p_pred
    v = (1.0 - w.w_goal) * v_now + w.w_goal * v_pred
    return np.array([p, v]), p_pred


def _free_goal(world: TrackerWorld, goal_p: np.ndarray) -> np.ndarray:
    """Pull an occupied or out-of-bounds goal back toward the quadrotor.

    Predictions extrapolate freely, so goal points regularly land inside
    obstacles; searching toward them would burn the whole node budget.
    """
    if not world.grid.is_occupied(goal_p):
        return goal_p
    direction = world.quad[0] - goal_p
    dist = float(np.linalg.norm(direction))
    if dist < 1e-6:
        return world.quad[0].copy()
    n = max(int(dist / (world.grid.resolution / 2.0)), 1)
    candidates = goal_p + np.linspace(0.0, 1.0, n + 1)[1:, None] * direction
    free = np.flatnonzero(~world.grid.occupied_at(candidates))
    return candidates[free[0]] if free.size else world.quad[0].copy()


def _plan_goal(world: TrackerWorld, t: float):
    """Goal state ``[p, v]`` and occlusion target at time ``t`` from the current prediction."""
    sc = world.scenario
    traj = world.prediction
    if world.mode == RELOCATING:
        p_end, _ = traj.evaluate(traj.t_p)
        goal_p = _free_goal(world, np.array([p_end[0], p_end[1], sc.quad_start[2]]))
        return np.array([goal_p, np.zeros(3)]), goal_p

    (x_g_p, x_g_v), p_pred = blend_goal(traj, float(np.clip(t, traj.t0, traj.t_p)), sc.search)
    # standoff: back off along the goal velocity, or toward the quadrotor
    # for a near-stationary target
    speed = float(np.linalg.norm(x_g_v[:2]))
    if speed > 0.3:
        back = x_g_v / max(np.linalg.norm(x_g_v), 1e-9)
    else:
        to_quad = world.quad[0] - x_g_p
        to_quad[2] = 0.0
        norm = float(np.linalg.norm(to_quad))
        back = -(to_quad / norm) if norm > 1e-6 else np.array([1.0, 0.0, 0.0])
    goal_p = x_g_p - sc.tracker.d_track * back
    goal_p[2] = sc.quad_start[2]
    goal_p = _free_goal(world, goal_p)
    goal_v = x_g_v.copy()
    goal_v[2] = 0.0
    return np.array([goal_p, goal_v]), p_pred


def _target_state(world: TrackerWorld) -> tuple[bool, str]:
    """Seen this cycle, unseen while tracking, or lost: whether it is seen, and the mode."""
    return world.unseen_s == 0.0, world.mode


def _keeps_trajectory(world: TrackerWorld, goal: np.ndarray) -> bool:
    """Whether the cycle flies on along its trajectory without replanning.

    It does while the last attempt succeeded, at least ``MIN_REMAINING_S`` of
    the trajectory is left, the state it ends in passes the search's goal test
    for ``goal``, so a new search could end there too, and the target state is
    the one it was planned under. A path that used up the node budget ends
    short of the goal set, so the goal it searched for stands in for its end:
    a new search toward a goal that passes would likely run out the same way.
    The map is static and the trajectory passed the corridor check, so it
    stays safe.
    """
    if world.planned is None or world.last_plan_error:
        return False
    end, planned_state = world.planned
    return (planned_state == _target_state(world)
            and world.trajectory.duration - world.traj_clock >= MIN_REMAINING_S
            and kino_search.reaches(end[0], end[1], goal, world.scenario.search))


def perceive(world: TrackerWorld, t: float, target_p: np.ndarray) -> TargetObservation | None:
    """Step the gimbal, sweeping while relocating and otherwise PI on the last pixel seen.

    Returns the observation at ``t``, ``None`` if unseen.
    """
    cfg = world.scenario.perception
    dt = world.dt
    with world._stage("perception"):
        if world.mode == RELOCATING:
            world.gimbal = gimbal_search_step(world.gimbal, cfg, dt)
        elif world.last_u is not None:
            world.gimbal = gimbal_track_step(world.gimbal, world.last_u, cfg, dt)

        cam_pose = Pose(
            position=world.quad[0] + np.array([0.0, 0.0, cfg.camera.mount_height]),
            yaw=world.gimbal.yaw)
        feats = project_target(
            target_p, cfg.body_len, cfg.camera, cam_pose, grid=world.grid,
            sigma_u=cfg.sigma_u, sigma_len=cfg.sigma_len, rng=world.rng)
        obs = None if feats is None else localize(feats, world.params, cam_pose, t)
        world.last_u = None if feats is None else feats.u_px

    world.unseen_s = 0.0 if obs is not None else world.unseen_s + dt
    return obs


def predict(world: TrackerWorld, t: float, obs: TargetObservation | None) -> None:
    """Slide the observation window to ``t`` and refit the prediction while tracking."""
    cfg = world.scenario.prediction
    with world._stage("prediction"):
        if obs is not None:
            world.observations.append(obs)
        horizon_cut = t - cfg.window
        world.observations = [o for o in world.observations if o.timestamp >= horizon_cut - 1e-9]
        if obs is not None:  # a cycle that sees the target tracks
            try:
                world.prediction = fit_predicted_trajectory(world.observations, t, cfg)
            except (InsufficientData, QPInfeasible):  # keep the previous prediction
                pass


def plan(world: TrackerWorld, t: float) -> tuple:
    """Keep the trajectory, or search, build a corridor and optimize a new one.

    Returns the trace's ``path_cost, corridor_m, j_sigma, path_los, plan_ok``. A failed
    attempt keeps the previous trajectory and names its cause in ``world.last_plan_error``.
    """
    error = "no_prediction_yet"
    if world.prediction is not None:
        goal, occl_target = _plan_goal(world, t)
        if _keeps_trajectory(world, goal):
            return (*_NO_PATH, 1)
        try:
            with world._stage("search"):
                path = kino_search.search(world.quad[:2], world.grid, world.scenario.search,
                                          goal, occl_target)

            with world._stage("corridor"):
                cor = corridor_mod.build_corridor(path, world.grid)

            with world._stage("optimize"):
                boundary = np.stack([world.quad, [path.p[-1], path.v[-1], np.zeros(3)]])
                traj = traj_opt.optimize(cor, boundary, world.scenario.opt)
            j_sigma = traj.info["objective"]
            path_los = int(all(world.grid.line_of_sight(p, occl_target) for p in path.p))
        except Exception as exc:  # stage failure: keep the previous trajectory
            error = f"{type(exc).__name__}: {exc}"
        else:
            world.trajectory = traj
            world.traj_clock = 0.0
            world.planned = (boundary[1, :2] if path.info["reached_goal"] else goal,
                             _target_state(world))
            world.last_plan_error = ""
            return path.total_cost, len(cor), j_sigma, path_los, 1
    world.last_plan_error = error
    return (*_NO_PATH, 0)


def execute(world: TrackerWorld) -> None:
    """Fly one cycle along the current trajectory as a perfect follower."""
    if world.trajectory is not None:
        world.traj_clock += world.dt
        if world.traj_clock >= world.trajectory.duration:
            world.traj_clock = world.trajectory.duration
            # hover once the trajectory is exhausted
            world.quad = np.vstack([world.trajectory.eval(world.traj_clock), np.zeros((2, 3))])
        else:
            world.quad = world.trajectory.sample(world.traj_clock)
        v = world.quad[1]
        if np.linalg.norm(v[:2]) > 0.1:
            world.quad_yaw = float(np.arctan2(v[1], v[0]))


def _record(world: TrackerWorld, t: float, target_p: np.ndarray,
            obs: TargetObservation | None, planned: tuple) -> None:
    """Score the cycle against the target and append its trace row."""
    p = world.quad[0]
    dist = float(np.linalg.norm(p - target_p))
    los = world.grid.line_of_sight(p, target_p)
    if world.grid.is_occupied(p):
        world.collided = True
    if dist > world.scenario.tracker.d_fail:
        world.fail_streak += world.dt
    else:
        world.fail_streak = 0.0

    pred = world.prediction
    if pred is not None:
        pred_t0 = pred.evaluate(pred.t0)[0]
        pred_tp = pred.evaluate(pred.t_p)[0]
    else:
        pred_t0 = pred_tp = (float("nan"),) * 3
    obs_p = (float("nan"),) * 3 if obs is None else obs.position_world
    path_cost, corridor_m, j_sigma, path_los, plan_ok = planned
    world.trace_rows.append([
        world.cycle, t, *target_p, int(obs is not None), *obs_p,
        *pred_t0, *pred_tp, world.mode, path_cost, corridor_m, j_sigma,
        *p, world.quad_yaw, int(los), path_los, plan_ok,
    ])
    world.cycle += 1


def step(world: TrackerWorld) -> TrackerWorld:
    """Advance the closed loop by one replanning cycle of ``world.dt`` seconds."""
    t = world.cycle * world.dt
    target_p = world.scenario.target.position(t)
    obs = perceive(world, t, target_p)
    predict(world, t, obs)
    planned = plan(world, t)
    execute(world)
    _record(world, t, target_p, obs, planned)
    return world


def run_scenario(scenario: Scenario, variant: str = "full") -> tuple[Metrics, list]:
    """Run a scenario to completion and score it.

    Success requires never entering an occupied voxel and never exceeding the
    losing distance for longer than the configured grace time. Each run of
    relocating rows in the trace is one loss episode and, if it ended, one
    relocation time.
    """
    world = TrackerWorld(scenario, variant)
    n_cycles = int(round(scenario.duration * scenario.tracker.replan_hz))
    failed_at = None
    for _ in range(n_cycles):
        step(world)
        if failed_at is None and world.fail_streak > scenario.tracker.t_fail:
            failed_at = world.cycle * world.dt
    # (mode, rows) of each run of one mode; every run but the last has ended
    runs = [(mode, sum(1 for _ in rows))
            for mode, rows in itertools.groupby(row[_MODE] for row in world.trace_rows)]
    relocation_times = [sum([world.dt] * n) for mode, n in runs[:-1] if mode == RELOCATING]
    distances = world.distances
    metrics = Metrics(
        mean_target_distance=float(np.mean(distances)),
        max_target_distance=float(np.max(distances)),
        los_fraction=float(np.mean(world.los_flags)),
        loss_episodes=sum(mode == RELOCATING for mode, _ in runs),
        relocation_times=relocation_times,
        mean_relocation_time=float(np.mean(relocation_times)) if relocation_times else None,
        cycles=world.cycle,
        plan_failures=sum(row[_PLAN_OK] == 0 and not np.isnan(row[_PRED_T0_X])
                          for row in world.trace_rows),
        stage_ms={k: v / max(world.cycle, 1) for k, v in world.stage_totals.items()},
    )
    planning = sum(metrics.stage_ms.get(k, 0.0) for k in ("search", "corridor", "optimize"))
    metrics.stage_ms["planning"] = planning
    if world.collided:
        metrics.success = False
        metrics.fail_reason = "collision"
    elif failed_at is not None:
        metrics.success = False
        metrics.fail_reason = f"lost target at t={failed_at:.2f}s"
    return metrics, world.trace_rows


def format_trace_csv(rows: list) -> str:
    """Deterministic CSV text for a trace (no wall-clock content)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in rows:  # np.float64 subclasses float
        writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_trace(rows: list, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_trace_csv(rows))

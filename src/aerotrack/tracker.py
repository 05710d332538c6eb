"""Closed-loop tracking simulator: perceive, predict, search, optimize, repeat.

Each cycle advances the scripted target, steps the gimbal, synthesizes an
observation, refits the prediction, plans an occlusion-aware path toward a
standoff goal, wraps it in a corridor, optimizes the tracking trajectory, and
advances the quadrotor along it as a perfect follower. The standoff goal backs
off from ``blend_goal``, the one blend of the target's current and look-ahead
predicted states. Stage failures keep the previous trajectory; the optimizer
raises on a trajectory that leaves its corridor of free cubes, so every
trajectory flown has passed that one safety check. Losing the target long
enough switches to relocation: the quadrotor flies toward the last
prediction's endpoint while the gimbal sweeps all bearings until the target
is reacquired. Tracking replans every cycle; relocation plans once and flies
that trajectory until an event calls for a new one: the goal moves by more
than the search's goal tolerance, the last attempt failed, or less than
``RELOCATION_MIN_REMAINING_S`` of the trajectory is left.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import corridor as corridor_mod
from . import kino_search, traj_opt
from .errors import InsufficientData, UnknownVariant
from .grid import build_map
from .kino_search import KinoState, SearchWeights
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

# Relocation replans once less than this much of its trajectory is left [s].
RELOCATION_MIN_REMAINING_S = 1.0

# Seed sequences kept per process; each holds one small entropy pool.
_SEED_CACHE_SIZE = 8

VARIANTS = ("full", "no_occlusion_penalty", "no_gimbal_search")
_VARIANT_ALIASES = {
    "full": "full",
    "no_occ": "no_occlusion_penalty",
    "no_occlusion_penalty": "no_occlusion_penalty",
    "no_search": "no_gimbal_search",
    "no_gimbal_search": "no_gimbal_search",
}

TRACE_COLUMNS = [
    "cycle", "t", "tgt_x", "tgt_y", "tgt_z", "obs_valid", "obs_x", "obs_y", "obs_z",
    "pred_t0_x", "pred_t0_y", "pred_t0_z", "pred_tp_x", "pred_tp_y", "pred_tp_z",
    "mode", "path_cost", "corridor_m", "j_sigma", "quad_x", "quad_y", "quad_z",
    "quad_yaw", "los", "path_los", "plan_ok",
]


def resolve_variant(variant: str) -> str:
    """Canonical name of a variant given by name or alias; UnknownVariant if unknown."""
    name = _VARIANT_ALIASES.get(variant, variant)
    if name not in VARIANTS:
        raise UnknownVariant(f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}")
    return name


@dataclass
class ModeState:
    """Tracking/relocating machine with the memory relocation needs."""

    mode: str = TRACKING
    time_since_loss: float = 0.0
    invalid_streak: float = 0.0


def relocation_update(state: ModeState, obs: TargetObservation, dt: float,
                      loss_timeout: float = 0.5) -> ModeState:
    """Advance the mode machine on one observation.

    ``time_since_loss`` keeps the final relocation duration after rediscovery
    so the caller can record it; it resets when relocation is entered again.
    """
    if obs.valid:
        state.mode = TRACKING
        state.invalid_streak = 0.0
        return state
    state.invalid_streak += dt
    if state.mode == TRACKING and state.invalid_streak >= loss_timeout:
        state.mode = RELOCATING
        state.time_since_loss = 0.0
    elif state.mode == RELOCATING:
        state.time_since_loss += dt
    return state


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
    plan_failures: int = 0
    stage_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["stage_ms"] = {k: round(v, 3) for k, v in self.stage_ms.items()}
        return out


class TrackerWorld:
    """Mutable simulation state for one scenario run."""

    def __init__(self, scenario: Scenario, variant: str = "full"):
        self.scenario = scenario
        self.variant = resolve_variant(variant)
        self.grid = build_map(scenario.map_spec)
        self.dt = 1.0 / scenario.tracker.replan_hz
        self.rng = np.random.Generator(np.random.PCG64(_seed_sequence(scenario.seed)))
        # The map spec keeps its read-only grid, make_calibration_dataset
        # memoizes one immutable dataset per calibration config (camera, body
        # length, noise sigmas) and that dataset keeps its fit, so a later
        # world of the same scenario rebuilds none of them. Both calls stay
        # one per world because perfbench times each world's build_map and
        # fit_regression spans.
        cfg = scenario.perception
        self.params = fit_regression(make_calibration_dataset(
            cfg.camera, cfg.body_len, n=320, seed=0,
            sigma_u=cfg.sigma_u, sigma_len=cfg.sigma_len))
        self.search_w = scenario.search
        if self.variant == "no_occlusion_penalty":
            self.search_w = replace(scenario.search, p_occ=0.0)

        self.quad_p = np.array(scenario.quad_start, dtype=float)
        self.quad_v = np.zeros(3)
        self.quad_a = np.zeros(3)
        self.quad_yaw = 0.0
        self.quad_z = (scenario.tracker.quad_z
                       if scenario.tracker.quad_z is not None
                       else float(self.quad_p[2]))
        self.gimbal = GimbalState(yaw=0.0, yaw_rate_limit=scenario.perception.yaw_rate_limit)
        self.mode = ModeState()
        self.observations: list[TargetObservation] = []
        self.prediction = None
        self.trajectory = None
        self.traj_clock = 0.0
        self.plan_goal: np.ndarray | None = None  # goal the trajectory was planned for
        self.last_plan_failed = False
        self.last_u: float | None = None
        self.cycle = 0
        self.trace_rows: list[list] = []
        self.stage_totals: dict[str, float] = {}
        self.collided = False
        self.fail_streak = 0.0
        self.distances: list[float] = []
        self.los_flags: list[bool] = []
        self.loss_episodes = 0
        self.relocation_times: list[float] = []
        self.plan_failures = 0
        self.last_plan_error = ""

    # -- helpers ---------------------------------------------------------

    def _time(self) -> float:
        return self.cycle * self.dt

    @contextlib.contextmanager
    def _stage(self, name: str):
        """Add the wall time of the block to stage ``name``, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_totals[name] = self.stage_totals.get(name, 0.0) + (
                time.perf_counter() - t0) * 1000.0


@functools.lru_cache(maxsize=_SEED_CACHE_SIZE)
def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """The ``SeedSequence`` of ``seed``, built once per process.

    ``PCG64`` seeds itself from the sequence's ``generate_state(4)``, which
    leaves the sequence as it was, so every world that shares it still gets
    its own ``PCG64`` and ``Generator``, drawing the same stream as
    ``np.random.default_rng(seed)``. Nothing here spawns from the shared
    sequence; a spawn would advance its child counter for every later world.
    """
    return np.random.SeedSequence(seed)


def blend_goal(traj, t: float, w: SearchWeights) -> tuple[KinoState, np.ndarray]:
    """Search goal blended from the prediction now and at the look-ahead time.

    The goal state is ``1 - w.w_goal`` parts the predicted state at ``t`` and
    ``w.w_goal`` parts the predicted state at ``min(t + w.t_lookahead, t_p)``.
    Also returns the predicted position at that look-ahead time.
    """
    p_now, v_now = traj.evaluate(t)
    p_pred, v_pred = traj.evaluate(min(t + w.t_lookahead, traj.t_p))
    p = (1.0 - w.w_goal) * p_now + w.w_goal * p_pred
    v = (1.0 - w.w_goal) * v_now + w.w_goal * v_pred
    return KinoState(p=p, v=v, t=t), p_pred


def _free_goal(world: TrackerWorld, goal_p: np.ndarray) -> np.ndarray:
    """Pull an occupied or out-of-bounds goal back toward the quadrotor.

    Predictions extrapolate freely, so goal points regularly land inside
    obstacles; searching toward them would burn the whole node budget.
    """
    if not world.grid.is_occupied(goal_p):
        return goal_p
    direction = world.quad_p - goal_p
    dist = float(np.linalg.norm(direction))
    if dist < 1e-6:
        return world.quad_p.copy()
    n = max(int(dist / (world.grid.resolution / 2.0)), 1)
    candidates = goal_p + np.linspace(0.0, 1.0, n + 1)[1:, None] * direction
    free = np.flatnonzero(~world.grid.occupied_at(candidates))
    return candidates[free[0]] if free.size else world.quad_p.copy()


def _plan_goal(world: TrackerWorld):
    """Goal state and occlusion target for this cycle, or ``(None, None)``."""
    sc = world.scenario
    t_now = world._time()
    traj = world.prediction
    if traj is None:
        return None, None
    if world.mode.mode == RELOCATING:
        p_end, _ = traj.evaluate(traj.t_p)
        goal_p = _free_goal(world, np.array([p_end[0], p_end[1], world.quad_z]))
        return KinoState(p=goal_p, v=np.zeros(3)), goal_p

    blend, p_pred = blend_goal(traj, float(np.clip(t_now, traj.t0, traj.t_p)), world.search_w)
    x_g_p, x_g_v = blend.p, blend.v
    # standoff: back off along the goal velocity, or toward the quadrotor
    # for a near-stationary target
    speed = float(np.linalg.norm(x_g_v[:2]))
    if speed > 0.3:
        back = x_g_v / max(np.linalg.norm(x_g_v), 1e-9)
    else:
        to_quad = world.quad_p - x_g_p
        to_quad[2] = 0.0
        norm = float(np.linalg.norm(to_quad))
        back = -(to_quad / norm) if norm > 1e-6 else np.array([1.0, 0.0, 0.0])
    goal_p = x_g_p - sc.tracker.d_track * back
    goal_p[2] = world.quad_z
    goal_p = _free_goal(world, goal_p)
    goal_v = x_g_v.copy()
    goal_v[2] = 0.0
    return KinoState(p=goal_p, v=goal_v), p_pred


def _keeps_trajectory(world: TrackerWorld, goal: KinoState, entered: bool) -> bool:
    """Whether a relocation cycle flies on along its trajectory without replanning.

    It does while the goal stays within ``r_goal`` of the goal the trajectory
    was planned for, the last attempt succeeded and at least
    ``RELOCATION_MIN_REMAINING_S`` of the trajectory is left. The map is
    static and the trajectory passed the corridor check, so it stays safe.
    """
    return (world.mode.mode == RELOCATING and not entered
            and world.trajectory is not None and not world.last_plan_failed
            and world.trajectory.duration - world.traj_clock >= RELOCATION_MIN_REMAINING_S
            and float(np.linalg.norm(goal.p - world.plan_goal)) <= world.search_w.r_goal)


def step(world: TrackerWorld) -> TrackerWorld:
    """Advance the closed loop by one replanning cycle of ``world.dt`` seconds."""
    sc = world.scenario
    dt = world.dt
    t_now = world._time()

    # target motion
    target_p, target_v = sc.target.state(t_now)

    # gimbal step using the previous frame's pixel coordinate
    with world._stage("perception"):
        allow_search = world.variant != "no_gimbal_search"
        if world.mode.mode == RELOCATING and allow_search:
            world.gimbal = gimbal_search_step(world.gimbal, dt, sc.perception.omega_search)
        elif world.last_u is not None and world.mode.mode == TRACKING:
            world.gimbal = gimbal_track_step(
                world.gimbal, world.last_u, sc.perception.camera, dt,
                kp=sc.perception.kp, ki=sc.perception.ki)

        # synthetic perception
        cam_pose = Pose(
            position=world.quad_p + np.array([0.0, 0.0, sc.perception.camera.mount_height]),
            yaw=world.gimbal.yaw)
        feats = project_target(
            target_p, sc.perception.body_len, sc.perception.camera, cam_pose,
            timestamp=t_now, grid=world.grid,
            sigma_u=sc.perception.sigma_u, sigma_len=sc.perception.sigma_len,
            rng=world.rng)
        if feats is not None:
            obs = localize(feats, world.params, cam_pose)
            world.last_u = feats.u_px
        else:
            obs = TargetObservation.invalid(t_now)
            world.last_u = None

    # mode machine
    was_relocating = world.mode.mode == RELOCATING
    world.mode = relocation_update(world.mode, obs, dt, sc.tracker.loss_timeout)
    entered_relocation = world.mode.mode == RELOCATING and not was_relocating
    if entered_relocation:
        world.loss_episodes += 1
    if world.mode.mode == TRACKING and was_relocating:
        world.relocation_times.append(world.mode.time_since_loss + dt)

    # prediction update
    with world._stage("prediction"):
        if obs.valid:
            world.observations.append(obs)
        horizon_cut = t_now - sc.prediction.window
        world.observations = [o for o in world.observations if o.timestamp >= horizon_cut - 1e-9]
        if world.mode.mode == TRACKING and obs.valid:
            try:
                world.prediction = fit_predicted_trajectory(
                    world.observations, t_now, sc.prediction)
            except InsufficientData:
                pass

    # plan: search, corridor, optimize
    plan_ok = False
    path_cost = float("nan")
    corridor_m = 0
    j_sigma = float("nan")
    path_los = ""
    goal, occl_target = _plan_goal(world)
    if goal is not None and _keeps_trajectory(world, goal, entered_relocation):
        plan_ok = True
    elif goal is not None:
        start = KinoState(p=world.quad_p.copy(), v=world.quad_v.copy())
        try:
            with world._stage("search"):
                path = kino_search.search(start, world.grid, world.search_w, goal, occl_target)

            with world._stage("corridor"):
                cor = corridor_mod.build_corridor(path, world.grid)

            with world._stage("optimize"):
                bc = traj_opt.BoundaryConditions(
                    p0=world.quad_p, v0=world.quad_v, a0=world.quad_a,
                    p1=path.end_state.p, v1=path.end_state.v, a1=np.zeros(3))
                traj = traj_opt.optimize(cor, bc, sc.opt)
            world.trajectory = traj
            world.traj_clock = 0.0
            world.plan_goal = goal.p
            plan_ok = True
            path_cost = path.total_cost
            corridor_m = len(cor)
            j_sigma = traj.info.get("objective", float("nan"))
            path_los = int(all(
                world.grid.line_of_sight(s.p, occl_target) for s in path.states))
        except Exception as exc:  # stage failure: keep the previous trajectory
            world.plan_failures += 1
            world.last_plan_error = f"{type(exc).__name__}: {exc}"
        world.last_plan_failed = not plan_ok
    else:
        world.plan_failures += 1
        world.last_plan_failed = True

    # execute along the current trajectory (perfect follower)
    if world.trajectory is not None:
        world.traj_clock += dt
        if world.traj_clock >= world.trajectory.duration:
            p = world.trajectory.eval(world.trajectory.duration)
            v = np.zeros(3)  # hover once the trajectory is exhausted
            a = np.zeros(3)
            world.traj_clock = world.trajectory.duration
        else:
            p, v, a = world.trajectory.sample(world.traj_clock)
        world.quad_p, world.quad_v, world.quad_a = p, v, a
        if np.linalg.norm(v[:2]) > 0.1:
            world.quad_yaw = float(np.arctan2(v[1], v[0]))

    # bookkeeping
    dist = float(np.linalg.norm(world.quad_p - target_p))
    world.distances.append(dist)
    los = world.grid.line_of_sight(world.quad_p, target_p)
    world.los_flags.append(los)
    if world.grid.is_occupied(world.quad_p):
        world.collided = True
    if dist > sc.tracker.d_fail:
        world.fail_streak += dt
    else:
        world.fail_streak = 0.0

    pred = world.prediction
    if pred is not None:
        pred_t0 = pred.evaluate(pred.t0)[0]
        pred_tp = pred.evaluate(pred.t_p)[0]
    else:
        pred_t0 = pred_tp = (float("nan"),) * 3
    obs_p = obs.position_world if obs.valid else (float("nan"),) * 3
    world.trace_rows.append([
        world.cycle, t_now, *target_p, int(obs.valid), *obs_p,
        *pred_t0, *pred_tp, world.mode.mode, path_cost, corridor_m, j_sigma,
        *world.quad_p, world.quad_yaw, int(los), path_los, int(plan_ok),
    ])
    world.cycle += 1
    return world


def run_scenario(scenario: Scenario, variant: str = "full") -> tuple[Metrics, list]:
    """Run a scenario to completion and score it.

    Success requires never entering an occupied voxel and never exceeding the
    losing distance for longer than the configured grace time.
    """
    world = TrackerWorld(scenario, variant)
    n_cycles = int(round(scenario.duration * scenario.tracker.replan_hz))
    failed_at = None
    for _ in range(n_cycles):
        step(world)
        if failed_at is None and world.fail_streak > scenario.tracker.t_fail:
            failed_at = world._time()
    metrics = Metrics(
        mean_target_distance=float(np.mean(world.distances)),
        max_target_distance=float(np.max(world.distances)),
        los_fraction=float(np.mean(world.los_flags)),
        loss_episodes=world.loss_episodes,
        relocation_times=list(world.relocation_times),
        mean_relocation_time=(float(np.mean(world.relocation_times))
                              if world.relocation_times else None),
        cycles=world.cycle,
        plan_failures=world.plan_failures,
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

import copy
import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aerotrack import benchmarks, kino_search, perception, tracker, traj_opt
from aerotrack.errors import NoPath, QPInfeasible, TrajectoryLeftCorridor
from aerotrack.scenario import Scenario
from aerotrack.tracker import (
    MIN_REMAINING_S,
    RELOCATING,
    TRACE_COLUMNS,
    TRACKING,
    TrackerWorld,
    format_trace_csv,
    step,
)
from oracles import free_goal

SRC = Path(__file__).resolve().parents[1] / "src"


def use_up_trajectory(world):
    """Fly the world's trajectory to its end, so that its next step replans."""
    world.traj_clock = world.trajectory.duration


class TestFreeGoal:
    """``_free_goal`` picks the goal the one-point-at-a-time loop picks, to the bit."""

    @pytest.fixture
    def world(self):
        return TrackerWorld(Scenario.from_dict(benchmarks.ALL["occlusion_turn"]()))

    @staticmethod
    def assert_same_goal(world, goal_p):
        picked = tracker._free_goal(world, goal_p)
        assert picked.tobytes() == free_goal(world, goal_p).tobytes()
        return picked

    def test_occupied_goals_match_the_loop(self, world):
        rng = np.random.default_rng(17)
        wall_lo, wall_hi = np.array([10.0, 4.0, 1.3]), np.array([10.4, 10.0, 1.3])
        outside_lo, outside_hi = np.array([24.5, -3.0, 1.3]), np.array([30.0, 19.0, 1.3])
        for _ in range(20):
            world.quad[0] = rng.uniform(1.0, 9.5), rng.uniform(1.0, 15.0), 1.3
            for lo, hi in ((wall_lo, wall_hi), (outside_lo, outside_hi)):
                goal_p = rng.uniform(lo, hi)
                assert world.grid.is_occupied(goal_p)
                picked = self.assert_same_goal(world, goal_p)
                assert not world.grid.is_occupied(picked)

    def test_blocked_segment_falls_back_to_the_quadrotor(self, world):
        world.quad[0] = 10.2, 4.5, 1.3  # inside the wall, like the goal
        picked = self.assert_same_goal(world, np.array([10.2, 9.5, 1.3]))
        assert np.array_equal(picked, world.quad[0]) and not np.shares_memory(picked, world.quad)

    def test_free_goal_is_kept(self, world):
        goal_p = np.array([5.0, 5.0, 1.3])
        assert self.assert_same_goal(world, goal_p) is goal_p


class TestRelocationUpdate:
    """Relocation starts and ends as the seconds since the target was last seen say."""

    @pytest.fixture
    def world(self):
        """A sharp_turn_low world at 8 Hz: dt = 0.125 s is exact in binary, so the
        unseen time hits the 0.5 s timeout exactly."""
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["tracker"] = dict(raw.get("tracker", {}), replan_hz=8.0)
        world = TrackerWorld(Scenario.from_dict(raw))
        assert world.dt == 0.125 and world.scenario.tracker.loss_timeout == 0.5
        return world

    @staticmethod
    def perceive(world, seen):
        """Perceive once, the target 3 m ahead of the camera or behind it; returns the mode."""
        yaw = world.gimbal.yaw + (0.0 if seen else np.pi)
        target = world.quad[0] + 3.0 * np.array([np.cos(yaw), np.sin(yaw), 0.0])
        obs = tracker.perceive(world, 0.0, target)
        assert (obs is not None) == seen
        return world.mode

    def test_enters_relocation_exactly_at_timeout(self, world):
        assert [self.perceive(world, False) for _ in range(4)] == [TRACKING] * 3 + [RELOCATING]
        assert world.unseen_s == 0.5

    def test_reacquisition_keeps_time_since_loss(self, world):
        assert [self.perceive(world, False) for _ in range(7)][-1] == RELOCATING
        assert self.perceive(world, True) == TRACKING
        assert world.unseen_s == 0.0
        # the next loss relocates again once the timeout passes again
        assert [self.perceive(world, False) for _ in range(4)] == [TRACKING] * 3 + [RELOCATING]

    def test_short_dropout_stays_tracking(self, world):
        modes = [self.perceive(world, seen) for seen in [False] * 3 + [True] + [False] * 3]
        assert modes == [TRACKING] * 7


class TestStep:
    def test_time_and_motion_share_one_clock(self):
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        with pytest.raises(TypeError):
            step(world, 2 * world.dt)  # the cycle length is the world's, not the caller's
        for _ in range(7):
            step(world)
        use_up_trajectory(world)
        step(world)
        t_col, ok_col = TRACE_COLUMNS.index("t"), TRACE_COLUMNS.index("plan_ok")
        assert [row[t_col] for row in world.trace_rows] == [k * world.dt for k in range(8)]
        assert world.trace_rows[-1][ok_col] == 1
        assert world.traj_clock == world.dt  # a new trajectory, flown for one cycle

    def test_warm_up_failure_is_named(self):
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        step(world)
        assert world.prediction is None
        assert world.trace_rows[-1][TRACE_COLUMNS.index("plan_ok")] == 0
        assert world.last_plan_error == "no_prediction_yet"

    def test_stages_run_once_in_order_at_the_cycle_time(self, monkeypatch):
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        for _ in range(8):
            step(world)
        calls = []

        def record(name):
            real = getattr(tracker, name)

            def wrapped(world, *args):
                calls.append((name, args))
                return real(world, *args)

            monkeypatch.setattr(tracker, name, wrapped)

        stages = ["perceive", "predict", "plan", "execute"]
        for name in stages:
            record(name)
        step(world)
        assert [name for name, _ in calls] == stages
        assert [args[0] for _, args in calls[:3]] == [8 * world.dt] * 3  # execute takes no time

    def test_unconverged_prediction_fit_keeps_the_previous_prediction(self, monkeypatch):
        # a degree-20 fit's active-set QP does not converge at some of these cycles
        real, unconverged = tracker.fit_predicted_trajectory, []

        def counted(*args):
            try:
                return real(*args)
            except QPInfeasible:
                unconverged.append(world.cycle)
                raise

        monkeypatch.setattr(tracker, "fit_predicted_trajectory", counted)
        raw = benchmarks.ALL["sharp_turn_low"]()
        raw["prediction"] = dict(raw.get("prediction", {}), degree=20)
        world = TrackerWorld(Scenario.from_dict(raw))
        for _ in range(130):
            kept = world.prediction
            step(world)
            if unconverged and unconverged[-1] == world.cycle - 1:
                assert world.prediction is kept
        assert unconverged and world.prediction is not None

    def test_run_counts_the_failed_cycles_of_its_trace(self, monkeypatch):
        # every second optimize call fails, and the cycle after a failure
        # replans; a warm-up cycle has no prediction, so it fails without a
        # plan attempt and is not counted
        real, calls = traj_opt.optimize, []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise TrajectoryLeftCorridor("scripted failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(traj_opt, "optimize", flaky)
        scenario = Scenario.from_dict(dict(benchmarks.ALL["sharp_turn_low"](), duration=1.0))
        metrics, rows = tracker.run_scenario(scenario)
        failed = [row for row in rows if row[TRACE_COLUMNS.index("plan_ok")] == 0]
        warmup = [row for row in failed if np.isnan(row[TRACE_COLUMNS.index("pred_t0_x")])]
        assert warmup and len(failed) > len(warmup)
        assert metrics.plan_failures == len(failed) - len(warmup) == len(calls) // 2

    def test_run_counts_the_relocations_of_its_trace(self):
        # relocation runs from cycle 66 through 127 and ends at 128
        raw = dict(benchmarks.ALL["occlusion_turn"](), duration=140 / 13)
        metrics, rows = tracker.run_scenario(Scenario.from_dict(raw))
        assert len(rows) == 140
        assert metrics.loss_episodes == 1
        assert metrics.relocation_times == [sum([1 / 13] * 62)]


class TestStageFailures:
    @staticmethod
    def planning_world():
        """A sharp_turn_low world stepped past its warm-up, its trajectory used up,
        so the next step plans."""
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        for _ in range(8):
            step(world)
        use_up_trajectory(world)
        return world

    planning_failures = pytest.mark.parametrize("module, stage, error", [
        (kino_search, "search", NoPath("start is enclosed")),
        (traj_opt, "optimize", TrajectoryLeftCorridor("left at every barrier weight")),
    ], ids=["search", "optimize"])

    @planning_failures
    def test_planning_failure_is_named(self, monkeypatch, module, stage, error):
        world = self.planning_world()
        ok_col = TRACE_COLUMNS.index("plan_ok")
        failures = sum(row[ok_col] == 0 for row in world.trace_rows)
        held = world.trajectory
        assert held is not None

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, stage, failing)
        step(world)
        assert world.last_plan_error == f"{type(error).__name__}: {error}"
        assert sum(row[ok_col] == 0 for row in world.trace_rows) == failures + 1
        assert world.trace_rows[-1][ok_col] == 0
        assert world.trajectory is held  # the previous trajectory is flown on

    @planning_failures
    def test_failed_stage_time_is_counted(self, monkeypatch, module, stage, error):
        world = self.planning_world()
        before = world.stage_totals.get(stage, 0.0)

        def failing(*args, **kwargs):
            time.sleep(0.02)
            raise error

        monkeypatch.setattr(module, stage, failing)
        step(world)
        assert world.stage_totals[stage] - before >= 20.0  # ms


class TestVariants:
    """What each variant changes: the search weights or the relocating gimbal."""

    @staticmethod
    def relocating(variant):
        """A fresh occlusion_turn world of ``variant`` in relocation, its gimbal at yaw 0.7."""
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["occlusion_turn"]()), variant)
        world.unseen_s = world.scenario.tracker.loss_timeout
        world.gimbal = dataclasses.replace(world.gimbal, yaw=0.7)
        return world

    @staticmethod
    def perceive_unseen(world, calls):
        """Perceive ``calls`` times with the target behind the camera; returns the yaws."""
        yaws = []
        for k in range(calls):
            yaw = world.gimbal.yaw + np.pi
            behind = world.quad[0] + 3.0 * np.array([np.cos(yaw), np.sin(yaw), 0.0])
            tracker.perceive(world, k * world.dt, behind)
            assert world.mode == RELOCATING
            yaws.append(world.gimbal.yaw)
        return yaws

    def test_no_occ_searches_without_the_occlusion_penalty(self, monkeypatch):
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        weights = []
        real = kino_search.search

        def captured(start, grid, w, *args):
            weights.append(w)
            return real(start, grid, w, *args)

        monkeypatch.setattr(kino_search, "search", captured)
        world = TrackerWorld(scenario, "no_occlusion_penalty")
        for _ in range(8):
            step(world)
        assert scenario.search.p_occ > 0.0
        assert weights and all(
            w == dataclasses.replace(scenario.search, p_occ=0.0) for w in weights)

    def test_no_search_holds_the_gimbal_while_relocating(self):
        assert self.perceive_unseen(self.relocating("no_gimbal_search"), 4) == [0.7] * 4

    def test_full_sweeps_the_gimbal_while_relocating(self):
        world = self.relocating("full")
        turn = world.scenario.perception.omega_search * world.dt
        assert turn > 0.0
        expected, yaw = [], 0.7
        for _ in range(4):
            yaw += turn
            expected.append(yaw)
        assert self.perceive_unseen(world, 4) == expected

    def test_los_flags_are_the_trace_los_column(self):
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["occlusion_turn"]()))
        for _ in range(8):
            step(world)
        los = TRACE_COLUMNS.index("los")
        assert len(world.los_flags) == 8
        assert world.los_flags == [bool(row[los]) for row in world.trace_rows]


@pytest.fixture(scope="module")
def tracking_world():
    """The builtin sharp_turn_low world right after its first plan, the target in view."""
    world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
    while world.planned is None:
        step(world)
    return world


@pytest.fixture(scope="module")
def relocating_world():
    """The builtin occlusion_turn world at its first relocating cycle that kept its trajectory."""
    world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["occlusion_turn"]()))
    path_cost, plan_ok = TRACE_COLUMNS.index("path_cost"), TRACE_COLUMNS.index("plan_ok")
    while not (world.mode == RELOCATING and world.trace_rows[-1][plan_ok] == 1
               and np.isnan(world.trace_rows[-1][path_cost])):
        step(world)
    return world


class TestReplan:
    """Both modes fly their trajectory on until an event calls for a replan."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the searches of the test's own steps."""
        self.searches = 0
        real = kino_search.search

        def counted(*args):
            self.searches += 1
            return real(*args)

        monkeypatch.setattr(kino_search, "search", counted)

    @pytest.fixture
    def tracking(self, tracking_world, counted):
        world = copy.deepcopy(tracking_world)
        assert world.mode == TRACKING and world.unseen_s == 0.0 and world.last_plan_error == ""
        assert world.trajectory.duration - world.traj_clock > MIN_REMAINING_S + 0.1
        return world

    @pytest.fixture
    def relocating(self, relocating_world, counted):
        world = copy.deepcopy(relocating_world)
        assert world.mode == RELOCATING and world.last_plan_error == ""
        assert world.trajectory.duration - world.traj_clock > MIN_REMAINING_S + 0.1
        return world

    @staticmethod
    def plan_ok(world):
        return world.trace_rows[-1][TRACE_COLUMNS.index("plan_ok")]

    @pytest.mark.parametrize("kind", ["tracking", "relocating"])
    def test_end_within_the_goal_test_keeps_the_trajectory(self, request, kind):
        world = request.getfixturevalue(kind)
        mode, held, clock = world.mode, world.trajectory, world.traj_clock
        step(world)
        assert self.searches == 0
        assert world.trajectory is held and world.traj_clock == clock + world.dt
        assert world.mode == mode and self.plan_ok(world) == 1

    @pytest.mark.parametrize("order, tolerance, moved, searches", [
        (0, "r_goal", 0.99, 0), (0, "r_goal", 1.01, 1),
        (1, "v_goal_tol", 0.99, 0), (1, "v_goal_tol", 1.01, 1),
    ])
    def test_end_beyond_the_goal_test_replans(self, relocating, order, tolerance, moved,
                                              searches):
        # the goal the step computes, since a relocating world refits no prediction
        goal, _ = tracker._plan_goal(relocating, relocating.cycle * relocating.dt)
        end = goal.copy()
        end[order, 0] += moved * getattr(relocating.scenario.search, tolerance)
        relocating.planned = end, relocating.planned[1]
        held = relocating.trajectory
        step(relocating)
        assert self.searches == searches
        assert (relocating.trajectory is not held) == bool(searches)
        assert self.plan_ok(relocating) == 1

    @pytest.mark.parametrize("moved, searches", [(0.0, 0), (1.01, 1)])
    def test_budget_path_is_kept_while_its_searched_goal_holds(self, relocating, moved,
                                                               searches):
        # the fixture flies a path that used up the node budget: its end fails the
        # goal test, and the goal it was searched for stands in for the end state
        goal, _ = tracker._plan_goal(relocating, relocating.cycle * relocating.dt)
        p_end, v_end, _ = relocating.trajectory.sample(relocating.trajectory.duration)
        assert not kino_search.reaches(p_end, v_end, goal, relocating.scenario.search)
        assert np.array_equal(relocating.planned[0], goal)
        searched = goal.copy()
        searched[0, 0] += moved * relocating.scenario.search.r_goal
        relocating.planned = searched, relocating.planned[1]
        step(relocating)
        assert self.searches == searches

    def test_target_lost_from_view_replans(self, tracking, monkeypatch):
        monkeypatch.setattr(tracker, "project_target", lambda *args, **kwargs: None)
        step(tracking)
        assert tracking.unseen_s == tracking.dt and tracking.mode == TRACKING
        assert self.searches == 1

    @pytest.mark.parametrize("kind, planned_under", [
        ("relocating", (False, TRACKING)), ("tracking", (False, RELOCATING)),
    ], ids=["entering-relocation", "reacquiring"])
    def test_changed_target_state_replans(self, request, kind, planned_under):
        # a trajectory planned while the target was unseen but tracked, or lost
        world = request.getfixturevalue(kind)
        world.planned = world.planned[0], planned_under
        step(world)
        assert self.searches == 1
        assert world.planned[1] == tracker._target_state(world) != planned_under

    def test_failed_attempt_replans_on_the_next_cycle(self, relocating, monkeypatch):
        world = relocating
        (end, state), held = world.planned, world.trajectory
        far = end.copy()
        far[0, 0] += 2.0 * world.scenario.search.r_goal
        world.planned = far, state
        counted = kino_search.search

        def failing(*args):
            counted(*args)
            raise NoPath("start is enclosed")

        monkeypatch.setattr(kino_search, "search", failing)
        step(world)
        assert world.last_plan_error == "NoPath: start is enclosed"
        assert world.trajectory is held and self.plan_ok(world) == 0
        monkeypatch.setattr(kino_search, "search", counted)
        world.planned = end, state  # the end state alone would keep the trajectory
        step(world)
        assert self.searches == 2
        assert world.last_plan_error == "" and world.trajectory is not held

    @pytest.mark.parametrize("left, searches", [(1.01, 0), (0.99, 1)])
    def test_less_than_the_minimum_left_replans(self, relocating, left, searches):
        relocating.traj_clock = relocating.trajectory.duration - left * MIN_REMAINING_S
        step(relocating)
        assert self.searches == searches


class TestBenchmark:
    def test_import_leaves_process_pool_unloaded(self):
        code = ("import sys, aerotrack.tracker, aerotrack.benchmarks, aerotrack.cli; "
                "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_workers_give_the_same_rows(self):
        scenario = dict(benchmarks.ALL["sharp_turn_low"](), duration=1.0)
        serial = benchmarks.benchmark([scenario], ["full"], 2, workers=1)
        pooled = benchmarks.benchmark([scenario], ["full"], 2, workers=2)

        def outcome(rows):  # plan_ms is wall-clock time
            return [{k: v for k, v in r.items() if k != "plan_ms"} for r in rows]

        assert [r["run"] for r in serial] == [0, 1]
        assert outcome(pooled) == outcome(serial)


def clear_calibration_caches():
    """Forget every memoized regression fit."""
    perception.fit_regression.cache_clear()


class TestRegressionSetup:
    def test_second_world_reuses_the_fit(self, monkeypatch):
        clear_calibration_caches()
        tracker._seed_state.cache_clear()
        calls = dict.fromkeys(("solve", "project", "fit", "map"), 0)

        def count(module, name, key):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(perception, "_lockstep_gauss_newton", "solve")
        count(perception, "project_target", "project")
        count(tracker, "fit_regression", "fit")
        count(tracker, "build_map", "map")
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        first = TrackerWorld(scenario)
        # depth map, then lateral
        assert calls == {"solve": 2, "project": 320, "fit": 1, "map": 1}
        assert tracker._seed_state.cache_info()[:2] == (0, 1)  # (hits, misses)
        calls.update(solve=0, project=0, fit=0, map=0)
        second = TrackerWorld(scenario)
        # no calibration draw, no solve and no rasterizing, but still one
        # fit_regression and one build_map call per world: perfbench reads
        # one fit span and one map span from each world it traces
        assert calls == {"solve": 0, "project": 0, "fit": 1, "map": 1}
        assert second.params is first.params
        assert second.grid is first.grid
        assert tracker._seed_state.cache_info()[:2] == (1, 1)

    @pytest.mark.parametrize("seed", [0, 1, 300, 2**32 + 5])
    def test_world_draws_the_default_rng_stream(self, seed):
        scenario = Scenario.from_dict(dict(benchmarks.ALL["sharp_turn_low"](), seed=seed))
        drawn = TrackerWorld(scenario).rng.standard_normal(1000)
        assert drawn.tobytes() == np.random.default_rng(seed).standard_normal(1000).tobytes()

    def test_worlds_draw_from_their_own_generators(self):
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        first, second = TrackerWorld(scenario), TrackerWorld(scenario)
        assert first.rng is not second.rng
        first.rng.standard_normal(100)
        assert second.rng.standard_normal() == np.random.default_rng(scenario.seed).standard_normal()

    @pytest.mark.parametrize("seed", [0, 300, 2**32 + 5])
    def test_seed_state_holds_the_seed_sequence_words(self, seed):
        words = tracker._seed_state(seed).words
        assert words.tobytes() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tobytes()
        assert not words.flags.writeable

    def test_second_world_of_a_seed_hashes_no_seed(self, monkeypatch):
        tracker._seed_state.cache_clear()
        built = []
        real = np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        first = TrackerWorld(scenario)
        assert built == [(scenario.seed,)]
        second = TrackerWorld(scenario)
        assert built == [(scenario.seed,)]
        assert second.rng.bit_generator.seed_seq is first.rng.bit_generator.seed_seq

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_seed_state_refuses_other_requests(self, n_words, dtype):
        with pytest.raises(ValueError):
            tracker._seed_state(0).generate_state(n_words, dtype)

    def test_world_generator_cannot_spawn(self):
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        with pytest.raises(TypeError):
            TrackerWorld(scenario).rng.spawn(1)


# sha256 of the 65-cycle trace CSV at the builtin seed, recorded when each
# corridor cube came to grow from the path segment it must hold; the optimizer's
# one penalty samples every piece, a path that used up the search's node budget
# is kept while its goal holds, the jerk forms come from one scaled unit form,
# the inner solve from one partitioned matrix, the regression cost from an
# einsum and the prediction from a power-basis PiecewisePoly, and perf changes
# must keep these byte-identical
GOLDEN_TRACE_SHA256 = {
    "sharp_turn_low": "3f47c0dd25189e067344640bd5c2c660ef7099b08bf348ab469bb3cfce81d3f1",
    "sharp_turn_high": "1a8f477c41b0181473c322d2ce835ea04fdf9b64335d9680de2bc4557819af8f",
    "occlusion_turn": "78f4dada15ac8936f61a53f79f56044ebccf9fa6d312f150023b2daa5b4a9d5f",
}
# sha256 of the 140-cycle occlusion_turn trace at the builtin seed: it enters
# relocation at cycle 66, searches to the node budget without reaching the
# goal, keeps that path while its goal holds until less than MIN_REMAINING_S of
# it is left, reaches the goal at cycle 79, keeps that plan through cycle 127
# and reacquires the target at cycle 128
RELOCATION_TRACE_SHA256 = "484bee015e307d7e65be6144a1df7bd97ea53c0799e63d6323dd22c637d5f0f4"
# sha256 of the 222-cycle sharp_turn_low trace at the builtin seed: it takes
# block A's corners, replanning on 13 of the 20 cycles from 136 to 155
CORNER_TRACE_SHA256 = "c6a4d063d82dc25ad68469919c73687fdf0c6145b1ddd2c53c16845d0f8955af"


def trace_digest(world, cycles):
    for _ in range(cycles):
        step(world)
    return hashlib.sha256(format_trace_csv(world.trace_rows).encode()).hexdigest()


class TestGoldenTrace:
    @pytest.mark.parametrize("fit", ["cold", "cached"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
    def test_trace_digest(self, name, fit):
        scenario = Scenario.from_dict(benchmarks.ALL[name]())
        clear_calibration_caches()
        first = TrackerWorld(scenario) if fit == "cached" else None
        world = TrackerWorld(scenario)
        hits = 1 if fit == "cached" else 0
        assert perception.fit_regression.cache_info().hits == hits
        if first is not None:
            assert world.params is first.params
        assert trace_digest(world, 65) == GOLDEN_TRACE_SHA256[name]

    def test_relocation_trace_digest(self):
        clear_calibration_caches()
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["occlusion_turn"]()))
        assert trace_digest(world, 140) == RELOCATION_TRACE_SHA256

    def test_corner_trace_digest(self):
        clear_calibration_caches()
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        assert trace_digest(world, 222) == CORNER_TRACE_SHA256

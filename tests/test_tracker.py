import copy
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aerotrack import benchmarks, kino_search, perception, tracker, traj_opt
from aerotrack.errors import NoPath, TrajectoryLeftCorridor
from aerotrack.perception import TargetObservation
from aerotrack.scenario import Scenario
from aerotrack.tracker import (
    RELOCATING,
    RELOCATION_MIN_REMAINING_S,
    TRACE_COLUMNS,
    TRACKING,
    ModeState,
    TrackerWorld,
    format_trace_csv,
    relocation_update,
    step,
)
from oracles import free_goal

SRC = Path(__file__).resolve().parents[1] / "src"

DT = 0.125  # exact in binary, so streak sums hit the timeout exactly


def lost(t=0.0):
    return TargetObservation.invalid(t)


def seen(t=0.0):
    return TargetObservation(position_world=np.zeros(3), timestamp=t, valid=True)


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
            world.quad_p = np.array([rng.uniform(1.0, 9.5), rng.uniform(1.0, 15.0), 1.3])
            for lo, hi in ((wall_lo, wall_hi), (outside_lo, outside_hi)):
                goal_p = rng.uniform(lo, hi)
                assert world.grid.is_occupied(goal_p)
                picked = self.assert_same_goal(world, goal_p)
                assert not world.grid.is_occupied(picked)

    def test_blocked_segment_falls_back_to_the_quadrotor(self, world):
        world.quad_p = np.array([10.2, 4.5, 1.3])  # inside the wall, like the goal
        picked = self.assert_same_goal(world, np.array([10.2, 9.5, 1.3]))
        assert np.array_equal(picked, world.quad_p) and picked is not world.quad_p

    def test_free_goal_is_kept(self, world):
        goal_p = np.array([5.0, 5.0, 1.3])
        assert self.assert_same_goal(world, goal_p) is goal_p


class TestRelocationUpdate:
    def test_enters_relocation_exactly_at_timeout(self):
        state = ModeState()
        for _ in range(3):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
            assert state.mode == TRACKING
        state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        assert state.invalid_streak == 0.5
        assert state.mode == RELOCATING
        assert state.time_since_loss == 0.0

    def test_time_since_loss_accumulates_while_relocating(self):
        state = ModeState()
        for _ in range(4):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        for k in range(1, 6):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
            assert state.mode == RELOCATING
            assert state.time_since_loss == k * DT

    def test_reacquisition_keeps_time_since_loss(self):
        state = ModeState()
        for _ in range(7):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        state = relocation_update(state, seen(), DT, loss_timeout=0.5)
        assert state.mode == TRACKING
        assert state.invalid_streak == 0.0
        assert state.time_since_loss == 3 * DT
        # the next loss restarts the clock once the timeout passes again
        for _ in range(4):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        assert state.mode == RELOCATING
        assert state.time_since_loss == 0.0

    def test_short_dropout_stays_tracking(self):
        state = ModeState()
        for _ in range(3):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        state = relocation_update(state, seen(), DT, loss_timeout=0.5)
        for _ in range(3):
            state = relocation_update(state, lost(), DT, loss_timeout=0.5)
        assert state.mode == TRACKING


class TestStep:
    def test_time_and_motion_share_one_clock(self):
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        with pytest.raises(TypeError):
            step(world, 2 * world.dt)  # the cycle length is the world's, not the caller's
        for _ in range(8):
            step(world)
        t_col, ok_col = TRACE_COLUMNS.index("t"), TRACE_COLUMNS.index("plan_ok")
        assert [row[t_col] for row in world.trace_rows] == [k * world.dt for k in range(8)]
        assert world.trace_rows[-1][ok_col] == 1
        assert world.traj_clock == world.dt  # a new trajectory, flown for one cycle


class TestStageFailures:
    @staticmethod
    def planning_world():
        """A sharp_turn_low world stepped past its warm-up, so the next step plans."""
        world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]()))
        for _ in range(8):
            step(world)
        return world

    planning_failures = pytest.mark.parametrize("module, stage, error", [
        (kino_search, "search", NoPath("start is enclosed")),
        (traj_opt, "optimize", TrajectoryLeftCorridor("left at every barrier weight")),
    ], ids=["search", "optimize"])

    @planning_failures
    def test_planning_failure_is_named(self, monkeypatch, module, stage, error):
        world = self.planning_world()
        failures = world.plan_failures
        held = world.trajectory
        assert held is not None

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, stage, failing)
        step(world)
        assert world.last_plan_error == f"{type(error).__name__}: {error}"
        assert world.plan_failures == failures + 1
        assert world.trace_rows[-1][TRACE_COLUMNS.index("plan_ok")] == 0
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


@pytest.fixture(scope="module")
def relocating_world():
    """The builtin occlusion_turn world one cycle after relocation was entered and planned."""
    world = TrackerWorld(Scenario.from_dict(benchmarks.ALL["occlusion_turn"]()))
    while world.mode.mode != RELOCATING:
        step(world)
    step(world)
    return world


class TestRelocationReplan:
    """Relocation flies its trajectory on until an event calls for a replan."""

    @pytest.fixture
    def world(self, relocating_world, monkeypatch):
        world = copy.deepcopy(relocating_world)
        self.searches = 0
        real = kino_search.search

        def counted(*args):
            self.searches += 1
            return real(*args)

        monkeypatch.setattr(kino_search, "search", counted)
        assert world.mode.mode == RELOCATING and not world.last_plan_failed
        assert world.trajectory.duration - world.traj_clock > RELOCATION_MIN_REMAINING_S + 0.1
        return world

    @staticmethod
    def plan_ok(world):
        return world.trace_rows[-1][TRACE_COLUMNS.index("plan_ok")]

    def test_unchanged_goal_keeps_the_trajectory(self, world):
        held, clock = world.trajectory, world.traj_clock
        step(world)
        assert self.searches == 0
        assert world.trajectory is held and world.traj_clock == clock + world.dt
        assert world.mode.mode == RELOCATING and self.plan_ok(world) == 1

    @pytest.mark.parametrize("moved, searches", [(0.99, 0), (1.01, 1)])
    def test_goal_moved_beyond_r_goal_replans(self, world, moved, searches):
        world.plan_goal = world.plan_goal + np.array([moved * world.search_w.r_goal, 0.0, 0.0])
        held = world.trajectory
        step(world)
        assert self.searches == searches
        assert (world.trajectory is not held) == bool(searches)
        assert self.plan_ok(world) == 1

    def test_failed_attempt_replans_on_the_next_cycle(self, world, monkeypatch):
        goal, held = world.plan_goal, world.trajectory
        world.plan_goal = goal + np.array([2.0 * world.search_w.r_goal, 0.0, 0.0])
        counted = kino_search.search

        def failing(*args):
            counted(*args)
            raise NoPath("start is enclosed")

        monkeypatch.setattr(kino_search, "search", failing)
        step(world)
        assert world.last_plan_failed and world.trajectory is held and self.plan_ok(world) == 0
        monkeypatch.setattr(kino_search, "search", counted)
        world.plan_goal = goal  # the goal alone would keep the trajectory
        step(world)
        assert self.searches == 2
        assert not world.last_plan_failed and world.trajectory is not held

    @pytest.mark.parametrize("left, searches", [(1.01, 0), (0.99, 1)])
    def test_less_than_the_minimum_left_replans(self, world, left, searches):
        world.traj_clock = world.trajectory.duration - left * RELOCATION_MIN_REMAINING_S
        step(world)
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
    """Forget every memoized calibration dataset, and with it the dataset's fit."""
    perception._calibration_samples.cache_clear()


class TestRegressionSetup:
    def test_second_world_reuses_the_fit(self, monkeypatch):
        clear_calibration_caches()
        tracker._seed_sequence.cache_clear()
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
        assert tracker._seed_sequence.cache_info()[:2] == (0, 1)  # (hits, misses)
        calls.update(solve=0, project=0, fit=0, map=0)
        second = TrackerWorld(scenario)
        # no dataset rebuild, no solve and no rasterizing, but still one
        # fit_regression and one build_map call per world: perfbench reads
        # one fit span and one map span from each world it traces
        assert calls == {"solve": 0, "project": 0, "fit": 1, "map": 1}
        assert second.params is first.params
        assert second.grid is first.grid
        assert tracker._seed_sequence.cache_info()[:2] == (1, 1)

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


# sha256 of the 65-cycle trace CSV at the builtin seed, recorded when the
# jerk forms came from one scaled unit form, the inner solve from one
# partitioned matrix, the regression cost from an einsum and the prediction
# from a power-basis PiecewisePoly; perf changes must keep these byte-identical
GOLDEN_TRACE_SHA256 = {
    "sharp_turn_low": "f5decb91843b39dc676560359457663874640c1025f23bd4525e800e0832ff57",
    "occlusion_turn": "e24d26cb0d0e52e099643dc2c00c9ff4dcb85c28131c85cf9aa59f8f012f43f9",
}


class TestGoldenTrace:
    @pytest.mark.parametrize("fit", ["cold", "cached"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
    def test_trace_digest(self, name, fit):
        scenario = Scenario.from_dict(benchmarks.ALL[name]())
        clear_calibration_caches()
        first = TrackerWorld(scenario) if fit == "cached" else None
        world = TrackerWorld(scenario)
        hits = 1 if fit == "cached" else 0
        assert perception._calibration_samples.cache_info().hits == hits
        if first is not None:
            assert world.params is first.params
        for _ in range(65):
            step(world)
        digest = hashlib.sha256(format_trace_csv(world.trace_rows).encode()).hexdigest()
        assert digest == GOLDEN_TRACE_SHA256[name]

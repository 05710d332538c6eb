import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aerotrack import benchmarks, kino_search, perception, tracker, traj_opt
from aerotrack.errors import NoPath, TrajectoryLeftCorridor
from aerotrack.perception import TargetObservation
from aerotrack.scenario import Scenario
from aerotrack.tracker import (
    RELOCATING,
    TRACE_COLUMNS,
    TRACKING,
    ModeState,
    TrackerWorld,
    format_trace_csv,
    relocation_update,
    step,
)

SRC = Path(__file__).resolve().parents[1] / "src"

DT = 0.125  # exact in binary, so streak sums hit the timeout exactly


def lost(t=0.0):
    return TargetObservation.invalid(t)


def seen(t=0.0):
    return TargetObservation(position_world=np.zeros(3), timestamp=t, valid=True)


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

    @pytest.mark.parametrize("module, stage, error", [
        (kino_search, "search", NoPath("start is enclosed")),
        (traj_opt, "optimize", TrajectoryLeftCorridor("left at every barrier weight")),
    ], ids=["search", "optimize"])
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
    """Forget every memoized calibration dataset and fit."""
    perception._calibration_samples.cache_clear()
    perception._fit_arrays.cache_clear()


class TestRegressionSetup:
    def test_second_world_reuses_the_fit(self, monkeypatch):
        clear_calibration_caches()
        calls = dict.fromkeys(("solve", "project", "fit"), 0)

        def count(module, name, key):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(perception, "_lockstep_gauss_newton", "solve")
        count(perception, "project_target", "project")
        count(tracker, "fit_regression", "fit")
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        first = TrackerWorld(scenario)
        assert calls == {"solve": 2, "project": 320, "fit": 1}  # depth map, then lateral
        calls.update(solve=0, project=0, fit=0)
        second = TrackerWorld(scenario)
        # no dataset rebuild and no solve, but still one fit_regression call per
        # world: perfbench reads one fit span from each world it traces
        assert calls == {"solve": 0, "project": 0, "fit": 1}
        assert second.params is first.params


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
        if fit == "cached":
            TrackerWorld(scenario)
        world = TrackerWorld(scenario)
        hits = 1 if fit == "cached" else 0
        assert perception._calibration_samples.cache_info().hits == hits
        assert perception._fit_arrays.cache_info().hits == hits
        for _ in range(65):
            step(world)
        digest = hashlib.sha256(format_trace_csv(world.trace_rows).encode()).hexdigest()
        assert digest == GOLDEN_TRACE_SHA256[name]

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aerotrack import benchmarks, kino_search, perception
from aerotrack.errors import NoPath
from aerotrack.perception import TargetObservation
from aerotrack.scenario import Scenario
from aerotrack.tracker import (
    RELOCATING,
    TRACE_COLUMNS,
    TRACKING,
    ModeState,
    TrackerWorld,
    benchmark,
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

    def test_planning_failure_is_named(self, monkeypatch):
        world = self.planning_world()
        failures = world.plan_failures

        def enclosed(*args, **kwargs):
            raise NoPath("start is enclosed")

        monkeypatch.setattr(kino_search, "search", enclosed)
        step(world)
        assert world.last_plan_error == "NoPath: start is enclosed"
        assert world.plan_failures == failures + 1
        assert world.trace_rows[-1][TRACE_COLUMNS.index("plan_ok")] == 0


class TestBenchmark:
    def test_import_leaves_process_pool_unloaded(self):
        code = ("import sys, aerotrack.tracker, aerotrack.cli; "
                "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_workers_give_the_same_rows(self):
        scenario = dict(benchmarks.ALL["sharp_turn_low"](), duration=1.0)
        serial = benchmark([scenario], ["full"], 2, workers=1)
        pooled = benchmark([scenario], ["full"], 2, workers=2)

        def outcome(rows):  # plan_ms is wall-clock time
            return [{k: v for k, v in r.items() if k != "plan_ms"} for r in rows]

        assert [r["run"] for r in serial] == [0, 1]
        assert outcome(pooled) == outcome(serial)


class TestRegressionSetup:
    def test_second_world_reuses_the_fit(self, monkeypatch):
        perception._fit_arrays.cache_clear()
        calls = [0]
        real = perception._lockstep_gauss_newton

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(perception, "_lockstep_gauss_newton", counted)
        scenario = Scenario.from_dict(benchmarks.ALL["sharp_turn_low"]())
        first = TrackerWorld(scenario)
        assert calls[0] == 2  # the depth map, then the lateral map
        second = TrackerWorld(scenario)
        assert calls[0] == 2
        assert second.params is first.params


# sha256 of the 65-cycle trace CSV at the builtin seed, recorded before the
# regression fit was memoized; perf changes must keep these byte-identical
GOLDEN_TRACE_SHA256 = {
    "sharp_turn_low": "1d573a8504aa9ffb02338ae67900ee21e5f1ae4e5644fb91039e7ee0ee6a9c33",
    "occlusion_turn": "592de14f2b1ef41c1288308a9a8ef34fbcf551cc615ca3bc75cc9932e28c9665",
}


class TestGoldenTrace:
    @pytest.mark.parametrize("fit", ["cold", "cached"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
    def test_trace_digest(self, name, fit):
        scenario = Scenario.from_dict(benchmarks.ALL[name]())
        perception._fit_arrays.cache_clear()
        if fit == "cached":
            TrackerWorld(scenario)
        world = TrackerWorld(scenario)
        assert perception._fit_arrays.cache_info().hits == (1 if fit == "cached" else 0)
        for _ in range(65):
            step(world)
        digest = hashlib.sha256(format_trace_csv(world.trace_rows).encode()).hexdigest()
        assert digest == GOLDEN_TRACE_SHA256[name]

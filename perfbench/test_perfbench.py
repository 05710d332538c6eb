"""Tests of the benchmark itself: wrappers, repeatable counts, declared metrics.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

import closed_loop as cl
import run
from tracing import Probe, Recorder, span_cost_s

ROOT = Path(__file__).resolve().parent.parent
SHORT_WINDOW = 60  # cycles: past warm-up, a few seconds of wall time


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _traced_window(workload="occlusion_turn", cycles=SHORT_WINDOW):
    scenario = cl.make_scenario(workload)
    rec = Recorder()
    with rec.install(cl.STAGE_PROBES + cl.TRACE_PROBES):
        ep = cl.run_episode(scenario, cycles, rec)
    return rec, ep


class Widget:
    def scale(self, x, factor=2):
        return x * factor


def test_wrappers_pass_results_and_exceptions_through():
    sentinel = object()
    boom = KeyError("boom")

    def identity(x):
        return x

    def fail():
        raise boom

    ns = types.SimpleNamespace(identity=identity, fail=fail)
    rec = Recorder()
    with rec.install([Probe(ns, "identity", "id"), Probe(ns, "fail", "fail"),
                      Probe(Widget, "scale", "scale")]):
        assert ns.identity(sentinel) is sentinel
        with pytest.raises(KeyError) as info:
            ns.fail()
        assert info.value is boom
        assert Widget().scale(3, factor=5) == 15
    assert ns.identity is identity and ns.fail is fail
    assert Widget.__dict__["scale"].__name__ == "scale"
    assert rec.name == ["id", "fail", "scale"]
    assert rec.error == [None, "KeyError", None]
    assert all(rec.end[i] >= rec.start[i] for i in range(len(rec)))


def test_span_cost_is_small_and_positive():
    assert 0.0 <= span_cost_s(calls=10_000) < 1e-4


def test_spans_record_parent_and_cycle():
    ns = types.SimpleNamespace()
    ns.inner = lambda: 1
    ns.outer = lambda: ns.inner() + 1
    rec = Recorder()
    with rec.install([Probe(ns, "outer", "outer", root=True), Probe(ns, "inner", "inner")]):
        ns.outer()
        ns.outer()
    assert rec.name == ["outer", "inner", "outer", "inner"]
    assert rec.parent == [-1, 0, -1, 2]
    assert rec.cycle == [0, 0, 1, 1]


def test_install_restores_originals_when_a_probe_is_missing():
    ns = types.SimpleNamespace(f=lambda: 1)
    original = ns.f
    with pytest.raises(KeyError):
        with Recorder().install([Probe(ns, "f", "f"), Probe(ns, "absent", "absent")]):
            pass
    assert ns.f is original


def test_traced_counts_repeat_exactly():
    keys = ("kino_search.calls", "kino_search.expansions_p50", "kino_search.expansions_p95",
            "grid.los_calls", "traj_opt.cost_evals")
    (rec_a, ep_a), (rec_b, ep_b) = _traced_window(), _traced_window()
    a = cl.layer_metrics(rec_a, ep_a, 1e-6)
    b = cl.layer_metrics(rec_b, ep_b, 1e-6)
    assert a["kino_search.calls"] > 0 and a["grid.los_calls"] > 0 and a["traj_opt.cost_evals"] > 0
    assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
    assert ep_a.trace_sha256 == ep_b.trace_sha256


def test_every_metric_is_declared_with_its_unit():
    rec, ep = _traced_window()
    layers = _declared("per_layer")
    end_to_end = _declared("end_to_end")
    assert not set(layers) & set(end_to_end)

    traced = run.with_units(cl.layer_metrics(rec, ep, span_cost_s(calls=1000)), layers,
                            exact=True)
    assert {n: m["unit"] for n, m in traced.items()} == layers
    untraced = run.with_units(cl.end_to_end_metrics([0.1]), end_to_end, exact=True)
    assert {n: m["unit"] for n, m in untraced.items()} == end_to_end
    outcome = run.with_units(cl.outcome_metrics(ep), layers, exact=False)
    assert all(m["unit"] == layers[n] for n, m in outcome.items())
    with pytest.raises(RuntimeError):
        run.with_units({"not_declared": 1.0}, layers, exact=False)


def test_warmup_cycles_are_not_plan_attempts():
    _, ep = _traced_window(cycles=12)
    assert ep.warmup_cycles > 0
    assert ep.attempts + ep.warmup_cycles == ep.cycles
    assert cl.outcome_metrics(ep)["plan_fail_frac"] == ep.plan_failures / ep.attempts


def test_collision_fails_the_gate():
    raw = cl.benchmarks.ALL["occlusion_turn"]()
    raw["quad_start"] = [10.2, 7.0, 1.3]  # inside the wall
    scenario = cl.Scenario.from_dict(raw)
    rec = Recorder()
    with rec.install(cl.STAGE_PROBES), pytest.raises(cl.GateFailure, match="occupied voxel"):
        cl.run_episode(scenario, 3, rec)


def test_failure_without_a_stage_exception_fails_the_gate(monkeypatch):
    """An error that ``step`` swallows after every stage returned has no kind."""
    monkeypatch.setattr(cl.traj_opt, "optimize", lambda *args, **kwargs: object())
    rec = Recorder()
    with rec.install(cl.STAGE_PROBES), pytest.raises(cl.GateFailure, match="has no kind"):
        cl.run_episode(cl.make_scenario("occlusion_turn"), 12, rec)


def test_known_defect_labels_only_the_documented_loss():
    assert cl.known_defect("occlusion_turn", 0, 11.0)
    assert cl.known_defect("occlusion_turn", 0, None) is None
    assert cl.known_defect("occlusion_turn", 0, 9.0) is None
    assert cl.known_defect("occlusion_turn", 3, 11.0) is None
    assert cl.known_defect("sharp_turn_low", 0, 11.0) is None


def test_setup_seconds_are_scaled_construction_times():
    scaled, wall = cl.setup_seconds(cl.make_scenario("occlusion_turn"), pairs=2)
    assert len(scaled) == len(wall) == 2
    assert all(s > 0 for s in scaled) and all(w > 0 for w in wall)


def test_seed_offset_moves_only_the_seed():
    base = cl.make_scenario("sharp_turn_low")
    moved = cl.make_scenario("sharp_turn_low", 7)
    assert moved.seed == base.seed + 7
    assert moved.duration == base.duration and moved.name == base.name
    with pytest.raises(ValueError):
        cl.make_scenario("sharp_turn_low", -base.seed - 1)


def test_refuses_to_run_without_the_program():
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "occlusion_turn",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

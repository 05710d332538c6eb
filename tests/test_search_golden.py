"""Recorded search problems must give exactly the recorded paths.

The problems and paths in ``data/search_problems.json`` come from
``make_search_problems.py``; see its docstring to regenerate them.
"""

import json
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

from aerotrack import benchmarks
from aerotrack.grid import build_map
from aerotrack.kino_search import SearchWeights, search
from aerotrack.scenario import Scenario

PROBLEMS = json.loads((Path(__file__).parent / "data" / "search_problems.json").read_text())
BY_LABEL = {p["label"]: p for p in PROBLEMS}


@lru_cache(maxsize=None)
def scenario_grid(name):
    return build_map(Scenario.from_dict(benchmarks.ALL[name]()).map)


def run(problem):
    weights = dict(problem["weights"], u_grid=tuple(problem["weights"]["u_grid"]))
    start = [problem["start"]["p"], problem["start"]["v"]]
    goal = [problem["goal"]["p"], problem["goal"]["v"]]
    return search(start, scenario_grid(problem["scenario"]), SearchWeights(**weights),
                  goal, problem["occlusion_target"])


@pytest.mark.parametrize("label", sorted(BY_LABEL))
def test_recorded_path(label):
    problem = BY_LABEL[label]
    exp = problem["expected"]
    path = run(problem)
    assert path.info["expansions"] == exp["expansions"]
    assert path.info["reached_goal"] == exp["reached_goal"]
    assert path.total_cost == exp["total_cost"]
    assert len(path.controls) == len(exp["primitives"]) == len(path.p) - 1
    assert path.p[0].tolist() == problem["start"]["p"]
    assert path.v[0].tolist() == problem["start"]["v"]
    for u, p, v, e in zip(path.controls, path.p[1:], path.v[1:], exp["primitives"]):
        assert u.tolist() == e["u"] and path.tau == e["tau"]
        assert p.tolist() == e["p"] and v.tolist() == e["v"]


def test_budget_exhausting_search_memory():
    # 4026 nodes: per-node storage must not keep each expansion's
    # (controls x samples x 3) collision-sample buffer alive
    problem = BY_LABEL["occlusion_turn-c66-relocation"]
    assert problem["expected"]["expansions"] == problem["weights"]["node_budget"]
    scenario_grid(problem["scenario"])
    tracemalloc.start(1)
    try:
        path = run(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not path.info["reached_goal"]
    assert peak < 5e6, f"traced peak {peak / 1e6:.1f} MB"

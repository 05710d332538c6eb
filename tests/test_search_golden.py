"""Recorded search problems must give exactly the recorded paths.

The problems and paths in ``data/search_problems.json`` come from
``make_search_problems.py``; see its docstring to regenerate them.
"""

import json
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from aerotrack import benchmarks
from aerotrack.grid import OccupancyGrid, build_map
from aerotrack.kino_search import SearchWeights, search
from aerotrack.scenario import Scenario
from oracles import eager_search

PROBLEMS = json.loads((Path(__file__).parent / "data" / "search_problems.json").read_text())
BY_LABEL = {p["label"]: p for p in PROBLEMS}


@lru_cache(maxsize=None)
def scenario_grid(name):
    return build_map(Scenario.from_dict(benchmarks.ALL[name]()).map)


def run(problem, solve=search):
    weights = dict(problem["weights"], u_grid=tuple(problem["weights"]["u_grid"]))
    start = [problem["start"]["p"], problem["start"]["v"]]
    goal = [problem["goal"]["p"], problem["goal"]["v"]]
    return solve(start, scenario_grid(problem["scenario"]), SearchWeights(**weights),
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


@pytest.mark.parametrize("label", sorted(BY_LABEL))
def test_lazy_penalty_matches_eager_search(label):
    # adding the penalty at the pop keeps every recorded path of adding it at the push
    lazy, eager = run(BY_LABEL[label]), run(BY_LABEL[label], eager_search)
    assert lazy.info == eager.info
    assert lazy.total_cost == eager.total_cost
    for a, b in ((lazy.p, eager.p), (lazy.v, eager.v), (lazy.controls, eager.controls)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("label", sorted(BY_LABEL))
def test_line_of_sight_once_per_popped_voxel(label, monkeypatch):
    problem = BY_LABEL[label]
    real = OccupancyGrid.line_of_sight
    voxels = []  # the voxel of each call's first point, by the search's key rule

    def counted(grid, a, b):
        voxels.append(tuple(((a - grid.origin) * (1.0 / grid.resolution) // 1).astype(int)))
        return real(grid, a, b)

    monkeypatch.setattr(OccupancyGrid, "line_of_sight", counted)
    run(problem, eager_search)
    eager_calls = len(voxels)
    voxels.clear()
    run(problem)
    assert len(set(voxels)) == len(voxels)
    if problem["weights"]["p_occ"] == 0.0:
        assert voxels == [] and eager_calls == 0
    else:
        assert 0 < len(voxels) <= eager_calls


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

"""Record kinodynamic search problems and their paths as golden data.

Runs builtin scenarios through the closed loop, captures the arguments of
``kino_search.search`` at chosen cycles, re-solves each captured problem on
its own and writes problems plus paths to ``tests/data/search_problems.json``.
JSON stores floats by ``repr``, so the values round-trip exactly. Run from the
root of the repository:

    PYTHONPATH=src python tests/make_search_problems.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from aerotrack import benchmarks, kino_search, tracker
from aerotrack.grid import build_map
from aerotrack.scenario import Scenario

OUT = Path(__file__).resolve().parent / "data" / "search_problems.json"

# (label, builtin scenario, cycle, weight overrides)
PROBLEMS = [
    ("occlusion_turn-c66-relocation", "occlusion_turn", 66, {}),
    ("occlusion_turn-c79-relocation", "occlusion_turn", 79, {}),
    ("occlusion_turn-c79-relocation-p_occ0", "occlusion_turn", 79, {"p_occ": 0.0}),
    ("sharp_turn_low-c140", "sharp_turn_low", 140, {}),
    ("sharp_turn_low-c144", "sharp_turn_low", 144, {}),
]


def _vec(a) -> list[float]:
    return [float(x) for x in a]


def capture(scenario_name: str, cycles: set[int]) -> dict[int, dict]:
    """Search arguments of the given cycles of one builtin scenario run."""
    world = tracker.TrackerWorld(Scenario.from_dict(benchmarks.ALL[scenario_name]()))
    original = kino_search.search
    captured = {}

    def recording(start, grid, w, goal, occlusion_target):
        path = original(start, grid, w, goal, occlusion_target)
        if world.cycle in cycles:
            captured[world.cycle] = {
                "weights": dataclasses.asdict(w),
                "start": {"p": _vec(start.p), "v": _vec(start.v), "t": float(start.t)},
                "goal": {"p": _vec(goal.p), "v": _vec(goal.v)},
                "occlusion_target": _vec(occlusion_target),
                "in_loop": describe(path),
            }
        return path

    kino_search.search = recording
    try:
        while world.cycle <= max(cycles):
            tracker.step(world)
    finally:
        kino_search.search = original
    return captured


def solve(scenario_name: str, problem: dict) -> kino_search.KinoPath:
    """Run the search on one recorded problem."""
    grid = build_map(Scenario.from_dict(benchmarks.ALL[scenario_name]()).map_spec)
    weights = dict(problem["weights"], u_grid=tuple(problem["weights"]["u_grid"]))
    start = kino_search.KinoState(p=problem["start"]["p"], v=problem["start"]["v"],
                                  t=problem["start"]["t"])
    goal = kino_search.KinoState(p=problem["goal"]["p"], v=problem["goal"]["v"])
    return kino_search.search(start, grid, kino_search.SearchWeights(**weights),
                              goal, problem["occlusion_target"])


def describe(path: kino_search.KinoPath) -> dict:
    return {
        "expansions": path.info["expansions"],
        "reached_goal": path.info["reached_goal"],
        "total_cost": float(path.total_cost),
        "primitives": [{"u": _vec(u), "tau": path.tau, "p": _vec(end.p), "v": _vec(end.v),
                        "t": end.t} for u, end in zip(path.controls, path.states[1:])],
    }


def main() -> None:
    wanted: dict[str, set[int]] = {}
    for _, scenario_name, cycle, _ in PROBLEMS:
        wanted.setdefault(scenario_name, set()).add(cycle)
    captured = {name: capture(name, cycles) for name, cycles in wanted.items()}
    records = []
    for label, scenario_name, cycle, overrides in PROBLEMS:
        problem = dict(captured[scenario_name][cycle])
        in_loop = problem.pop("in_loop")
        problem["weights"] = dict(problem["weights"], **overrides)
        record = {"label": label, "scenario": scenario_name, "cycle": cycle, **problem}
        record["expected"] = describe(solve(scenario_name, problem))
        if not overrides and record["expected"] != in_loop:
            raise RuntimeError(f"{label}: the re-solved path differs from the closed loop's")
        records.append(record)
        exp = record["expected"]
        print(f"{label}: {exp['expansions']} expansions, reached_goal {exp['reached_goal']}, "
              f"total_cost {exp['total_cost']!r}, {len(exp['primitives'])} primitives")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Record kinodynamic search problems and their paths as golden data.

Runs builtin scenarios through the closed loop, captures the arguments of
``kino_search.search`` at chosen cycles, re-solves each captured problem on
its own and writes problems plus paths to ``tests/data/search_problems.json``.
A path is recorded as its primitives: control, duration and end state. States
carry no time, since the end of primitive ``k`` is ``(k + 1) * tau`` into the
search. JSON stores floats by ``repr``, so the values round-trip exactly. Run
from the root of the repository:

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
    ("sharp_turn_low-c18-start-in-goal", "sharp_turn_low", 18, {}),
    ("sharp_turn_high-c114", "sharp_turn_high", 114, {}),
]


def _vec(a) -> list[float]:
    return [float(x) for x in a]


def capture(scenario_name: str, cycles: set[int]) -> tuple[dict[int, dict], list[int]]:
    """Search arguments of the given cycles of one builtin scenario run, and
    every cycle of that run that searched, up to the last one given."""
    world = tracker.TrackerWorld(Scenario.from_dict(benchmarks.ALL[scenario_name]()))
    original = kino_search.search
    captured = {}
    searching = []

    def recording(start, grid, w, goal, occlusion_target):
        path = original(start, grid, w, goal, occlusion_target)
        searching.append(world.cycle)
        if world.cycle in cycles:
            captured[world.cycle] = {
                "weights": dataclasses.asdict(w),
                "start": {"p": _vec(start[0]), "v": _vec(start[1])},
                "goal": {"p": _vec(goal[0]), "v": _vec(goal[1])},
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
    return captured, searching


def solve(scenario_name: str, problem: dict) -> kino_search.KinoPath:
    """Run the search on one recorded problem."""
    grid = build_map(Scenario.from_dict(benchmarks.ALL[scenario_name]()).map)
    weights = dict(problem["weights"], u_grid=tuple(problem["weights"]["u_grid"]))
    start = [problem["start"]["p"], problem["start"]["v"]]
    goal = [problem["goal"]["p"], problem["goal"]["v"]]
    return kino_search.search(start, grid, kino_search.SearchWeights(**weights),
                              goal, problem["occlusion_target"])


def describe(path: kino_search.KinoPath) -> dict:
    return {
        "expansions": path.info["expansions"],
        "reached_goal": path.info["reached_goal"],
        "total_cost": float(path.total_cost),
        "primitives": [{"u": _vec(u), "tau": path.tau, "p": _vec(p), "v": _vec(v)}
                       for u, p, v in zip(path.controls, path.p[1:], path.v[1:])],
    }


def main() -> None:
    wanted: dict[str, set[int]] = {}
    for _, scenario_name, cycle, _ in PROBLEMS:
        wanted.setdefault(scenario_name, set()).add(cycle)
    runs = {name: capture(name, cycles) for name, cycles in wanted.items()}
    records = []
    for label, scenario_name, cycle, overrides in PROBLEMS:
        captured, searching = runs[scenario_name]
        if cycle not in captured:
            raise RuntimeError(
                f"{label}: cycle {cycle} of {scenario_name} runs no search; the cycles "
                f"that search, up to {max(wanted[scenario_name])}, are {searching}")
        problem = dict(captured[cycle])
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

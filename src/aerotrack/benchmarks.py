"""Builtin benchmark scenarios and the seeded scenario x variant benchmark.

The scenario dict builders are the canonical definitions; no scenario file is
kept in the repository. ``python -m aerotrack.benchmarks [DIR]`` writes one
JSON file per scenario into ``DIR`` (default ``scenarios``, created if
missing) so the CLI benchmark can consume a plain directory. ``benchmark``
runs each scenario under each variant for a range of seeds, and
``benchmark_table`` and ``write_benchmark_csv`` report its rows.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .scenario import Scenario
from .tracker import resolve_variant, run_scenario


def sharp_turn_scenario(speed: float, seed: int = 100) -> dict:
    """Target snakes around two large blocks with two sharp turns.

    The turns happen right at block corners, so a tracker that hugs the
    corners goes blind exactly when the heading changes; the surrounding
    clutter makes blind relocation slow.
    """
    name = f"sharp_turn_{'high' if speed >= 1.2 else 'low'}"
    route = [
        [2.5, 7.2, 0.9],
        [10.8, 7.2, 0.9],    # east along block A's south face
        [10.8, 11.8, 0.9],   # sharp left around A's south-east corner
        [13.2, 11.8, 0.9],   # across the gap
        [13.2, 7.2, 0.9],    # sharp right down between the blocks
        [17.8, 7.2, 0.9],    # east along block B's south face
        [17.8, 11.8, 0.9],   # sharp left around B's south-east corner
        [22.5, 11.8, 0.9],
    ]
    route_len = 8.3 + 4.6 + 2.4 + 4.6 + 4.6 + 4.6 + 4.7
    return {
        "name": name,
        "map": {
            "origin": [0, 0, 0],
            "resolution": 0.1,
            "dims": [260, 180, 25],
            "seed": 5,
            "obstacles": [
                # slalom blocks whose corners the route wraps
                {"type": "box", "min": [7.0, 8.0, 0.0], "max": [10.0, 11.0, 2.5]},
                {"type": "box", "min": [14.0, 8.0, 0.0], "max": [17.0, 11.0, 2.5]},
                # clutter that breaks blind relocation sightlines
                {"type": "box", "min": [11.3, 13.2, 0.0], "max": [13.0, 15.0, 2.5]},
                {"type": "cylinder", "center": [18.5, 13.8], "radius": 0.55},
                {"type": "cylinder", "center": [8.0, 4.6], "radius": 0.5},
                {"type": "cylinder", "center": [15.5, 4.8], "radius": 0.5},
                {"type": "cylinder", "center": [21.0, 7.8], "radius": 0.5},
            ],
        },
        "target": {"waypoints": route, "speed": speed, "smoothing": 1.0},
        "quad_start": [1.0, 7.2, 1.3],
        "duration": round(route_len / speed + 4.0, 1),
        "seed": seed,
        "tracker": {"d_track": 3.0},
        "search": {"v_max": 2.2, "r_goal": 0.5, "node_budget": 1500},
        "opt": {"v_max": 2.2, "a_max": 4.0},
    }


def occlusion_turn_scenario(seed: int = 300) -> dict:
    """Relocation test: the target disappears behind a wall, then doubles back.

    The straight-ahead extrapolation sends the quadrotor to the wrong side of
    the wall; only a camera that keeps sweeping during relocation reacquires
    the target once line of sight returns.
    """
    return {
        "name": "occlusion_turn",
        "map": {
            "origin": [0, 0, 0],
            "resolution": 0.1,
            "dims": [240, 160, 25],
            "obstacles": [
                {"type": "box", "min": [10.0, 4.0, 0.0], "max": [10.4, 10.0, 2.5]},
            ],
        },
        "target": {
            "waypoints": [
                [5.0, 7.0, 0.9],
                [11.2, 7.0, 0.9],   # passes behind the wall
                [11.2, 12.5, 0.9],  # sudden turn north
                [4.0, 12.5, 0.9],   # and doubles back west
            ],
            "speed": 1.2,
            "smoothing": 0.8,
        },
        "quad_start": [2.5, 7.0, 1.3],
        "duration": 20.0,
        "seed": seed,
        "search": {"node_budget": 1500},
    }


ALL = {
    "sharp_turn_low": lambda: sharp_turn_scenario(0.85),
    "sharp_turn_high": lambda: sharp_turn_scenario(1.5),
    "occlusion_turn": occlusion_turn_scenario,
}


def write_all(directory) -> list[Path]:
    out = []
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, build in ALL.items():
        path = directory / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(build(), fh, indent=2)
        out.append(path)
    return out


# ----------------------------------------------------------------------
# Benchmark harness
# ----------------------------------------------------------------------

def _bench_one(args):
    scenario_dict, variant, run_idx = args
    base = Scenario.from_dict(scenario_dict)
    scenario = replace(base, seed=base.seed + run_idx)
    metrics, _ = run_scenario(scenario, variant)
    return {
        "scenario": scenario.name,
        "variant": variant,
        "run": run_idx,
        "seed": scenario.seed,
        "success": int(metrics.success),
        "mean_dist": round(metrics.mean_target_distance, 4),
        "max_dist": round(metrics.max_target_distance, 4),
        "los_fraction": round(metrics.los_fraction, 4),
        "loss_episodes": metrics.loss_episodes,
        "plan_ms": round(metrics.stage_ms.get("planning", 0.0), 3),
    }


def benchmark(scenario_dicts: list, variants: list, n_runs: int,
              workers: int = 1) -> list:
    """Seeded repeated runs per (scenario, variant); rows sorted and merged."""
    variants = [resolve_variant(v) for v in variants]
    jobs = [(sd, v, i)
            for sd in scenario_dicts for v in variants for i in range(n_runs)]
    if workers > 1 and len(jobs) > 1:
        # imported here so that importing the package does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, jobs))
    else:
        rows = [_bench_one(j) for j in jobs]
    rows.sort(key=lambda r: (r["scenario"], r["variant"], r["run"]))
    return rows


def benchmark_table(rows: list) -> str:
    """Aligned text table of success counts and aggregate metrics."""
    if not rows:
        return "(no benchmark rows)\n"
    groups: dict[tuple, list] = {}
    for r in rows:
        groups.setdefault((r["scenario"], r["variant"]), []).append(r)
    header = f"{'scenario':<28} {'variant':<24} {'success':>8} {'mean_dist':>10} " \
             f"{'los_frac':>9} {'plan_ms':>8}"
    lines = [header, "-" * len(header)]
    for (scenario, variant), rs in sorted(groups.items()):
        n_ok = sum(r["success"] for r in rs)
        lines.append(
            f"{scenario:<28} {variant:<24} {n_ok}/{len(rs):<6} "
            f"{np.mean([r['mean_dist'] for r in rs]):>10.3f} "
            f"{np.mean([r['los_fraction'] for r in rs]):>9.3f} "
            f"{np.mean([r['plan_ms'] for r in rs]):>8.1f}")
    return "\n".join(lines) + "\n"


def write_benchmark_csv(rows: list, path) -> None:
    if not rows:
        with open(path, "w") as fh:
            fh.write("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "scenarios"
    for p in write_all(target):
        print(p)

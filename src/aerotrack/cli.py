"""Command line front end: run scenarios, benchmarks, fits, and map builds.

Exit codes: 0 on success, 2 when a scenario run fails its success criteria,
1 on input or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmarks import benchmark, benchmark_table, write_benchmark_csv
from .errors import FitDiverged, InvalidScenario, InvalidSpec, UnknownVariant
from .grid import MapSpec, build_map
from .perception import ImageFeatures, fit_regression
from .scenario import Scenario
from .tracker import run_scenario, write_trace


def _cmd_run(args) -> int:
    scenario = Scenario.from_json(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    metrics, trace = run_scenario(scenario, variant=args.variant)
    if args.trace:
        write_trace(trace, args.trace)
    print(json.dumps(metrics.to_dict(), indent=2))
    return 0 if metrics.success else 2


def _cmd_benchmark(args) -> int:
    if args.runs < 1:
        print(f"--runs must be at least 1, got {args.runs}", file=sys.stderr)
        return 1
    directory = Path(args.scenario_dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"no scenario files in {directory}", file=sys.stderr)
        return 1
    scenario_dicts = []
    for p in paths:
        with open(p) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                print(f"{p}: not valid JSON (line {exc.lineno}: {exc.msg})", file=sys.stderr)
                return 1
        Scenario.from_dict(raw)  # validate early
        scenario_dicts.append(raw)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = benchmark(scenario_dicts, variants, args.runs, workers=args.workers)
    print(benchmark_table(rows), end="")
    if args.out:
        write_benchmark_csv(rows, args.out)
    return 0


def _cmd_fit_regression(args) -> int:
    with open(args.dataset) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"{args.dataset}: not valid JSON (line {exc.lineno}: {exc.msg})",
                  file=sys.stderr)
            return 1
    if not (isinstance(raw, dict) and isinstance(raw.get("samples"), list)):
        print(f"{args.dataset}: expected a JSON object with a 'samples' list", file=sys.stderr)
        return 1
    samples = []
    for i, s in enumerate(raw["samples"]):
        try:
            feats = ImageFeatures(
                body_len_px=float(s["L"]), u_px=float(s["u"]),
                timestamp=float(s.get("t", i)))
            p_cam = np.asarray(s["p_cam"], dtype=float)
            if p_cam.shape != (3,):
                raise ValueError(f"p_cam: expected 3 numbers, got {s['p_cam']!r}")
            samples.append((feats, p_cam))
        except (KeyError, TypeError, ValueError) as exc:
            print(f"samples[{i}]: {exc}", file=sys.stderr)
            return 1
    try:
        params = fit_regression(samples)
    except FitDiverged as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        params.save(args.out)
    print(json.dumps(params.to_dict(), indent=2))
    return 0


def _cmd_gen_map(args) -> int:
    spec = MapSpec.from_json(args.mapspec)
    grid = build_map(spec)
    summary = {
        "dims": grid.dims.tolist(),
        "resolution": grid.resolution,
        "origin": grid.origin.tolist(),
        "voxels": int(np.prod(grid.dims)),
        "occupied_fraction": round(grid.occupied_fraction(), 6),
    }
    if args.out:
        np.savez_compressed(
            args.out, values=grid.occupied.astype(np.float32), origin=grid.origin,
            resolution=grid.resolution)
        summary["saved"] = args.out
    print(json.dumps(summary, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerotrack",
        description="Occlusion-aware aerial target tracking simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and print metrics")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trace", help="write the per-cycle trace CSV here")
    run.add_argument("--variant", default="full",
                     help="full | no_occ | no_search (default: full)")
    run.set_defaults(fn=_cmd_run)

    bench = sub.add_parser("benchmark", help="seeded comparison across variants")
    bench.add_argument("scenario_dir", help="directory of scenario JSON files")
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--variants", default="full,no_occ",
                       help="comma list: full,no_occ,no_search")
    bench.add_argument("--out", help="write per-run rows as CSV")
    bench.add_argument("--workers", type=int, default=1)
    bench.set_defaults(fn=_cmd_benchmark)

    fit = sub.add_parser("fit-regression", help="fit localization parameters")
    fit.add_argument("dataset", help="JSON with samples: [{L, u, p_cam}, ...]")
    fit.add_argument("--out", help="write fitted parameters JSON here")
    fit.set_defaults(fn=_cmd_fit_regression)

    gen = sub.add_parser("gen-map", help="rasterize a map spec and report stats")
    gen.add_argument("mapspec", help="map spec JSON file")
    gen.add_argument("--out", help="save the voxel grid as .npz")
    gen.set_defaults(fn=_cmd_gen_map)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidSpec, InvalidScenario, UnknownVariant) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

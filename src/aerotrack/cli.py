"""Command line front end: run one scenario, or benchmark a directory of them.

Exit codes: 0 on success, 2 when a scenario run fails its success criteria,
1 on input or runtime errors, which print one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .benchmarks import benchmark, benchmark_table, write_benchmark_csv
from .errors import InvalidInput, read_json
from .scenario import Scenario
from .tracker import VARIANTS, run_scenario, write_trace


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
        raise InvalidInput(f"--runs must be at least 1, got {args.runs}")
    if args.workers < 1:
        raise InvalidInput(f"--workers must be at least 1, got {args.workers}")
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise InvalidInput(f"--variants names no variant, got {args.variants!r}")
    directory = Path(args.scenario_dir)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise InvalidInput(f"no scenario files in {directory}")
    scenarios = [Scenario.from_dict(read_json(p)) for p in paths]
    rows = benchmark(scenarios, variants, args.runs, workers=args.workers)
    print(benchmark_table(rows), end="")
    if args.out:
        write_benchmark_csv(rows, args.out)
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
                     help=f"{' | '.join(VARIANTS)} (default: full)")
    run.set_defaults(fn=_cmd_run)

    bench = sub.add_parser("benchmark", help="seeded comparison across variants")
    bench.add_argument("scenario_dir", help="directory of scenario JSON files")
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--variants", default="full,no_occlusion_penalty",
                       help=f"comma list: {','.join(VARIANTS)}")
    bench.add_argument("--out", help="write per-run rows as CSV")
    bench.add_argument("--workers", type=int, default=1)
    bench.set_defaults(fn=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInput as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

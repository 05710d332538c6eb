#!/usr/bin/env python3
"""Closed-loop tracker benchmark: cycle latency against the 13 Hz budget,
tracking outcome, and per-layer cost on builtin scenarios.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload occlusion_turn --seed 0 --seconds 60 --trace 0

``--seed`` is an offset from the scenario's builtin seed, so 0 reproduces the
builtin run. A run measures one whole episode of the scenario, however long
it takes; ``--seconds`` is accepted because the benchmark's command line
carries it, and does not shorten the episode. ``--trace 0`` runs the episode
untraced and prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs it traced and prints the per-layer metrics; its spans go to
``perfbench/out/``.

Every run checks correctness and exits 1 if the gate fails: no collision,
identical trace digests for two runs of one scenario and seed, and a named
kind for every failed plan attempt. The line before the result carries the
trace SHA-256, the outcome figures and the host facts.
"""

import os

# One process, one thread: pin the BLAS pool before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Recorder, span_cost_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values: dict[str, float], units: dict[str, str], exact: bool) -> dict:
    """Attach declared units; every name must be declared, and with ``exact`` all printed."""
    unknown = set(values) - set(units)
    missing = set(units) - set(values) if exact else set()
    if unknown or missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: undeclared {sorted(unknown)}, "
                           f"missing {sorted(missing)}")
    return {n: {"value": values[n], "unit": units[n]} for n in values}


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def measure(cl, scenario, spans_path: Path | None):
    """Run one episode, check that a replay agrees, and compute the metrics.

    Untraced, set-up is timed first. Traced (``spans_path`` set), the episode
    runs with every probe and its spans are written out afterwards.
    """
    trace = spans_path is not None
    setup_s, setup_wall_s = ([], []) if trace else cl.setup_seconds(scenario)
    rec = Recorder()
    with rec.install(cl.STAGE_PROBES + (cl.TRACE_PROBES if trace else [])):
        ep = cl.run_episode(scenario, cl.full_cycles(scenario), rec)
    cl.check_same(f"untraced replay of the first {cl.REPLAY_CYCLES} cycles",
                  cl.trace_digest(ep.rows[:cl.REPLAY_CYCLES]),
                  cl.replay_digest(scenario, cl.REPLAY_CYCLES))
    if not trace:
        return ep, cl.end_to_end_metrics(setup_s), setup_wall_s
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write_csv(spans_path)
    return ep, cl.layer_metrics(rec, ep, span_cost_s()), setup_wall_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset from the scenario's builtin seed (default 0)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="accepted for the benchmark's command line; a run is one episode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aerotrack" / "__init__.py").is_file():
        print(f"perfbench: no aerotrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import closed_loop as cl

    if args.workload not in cl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(cl.WORKLOADS)}")
    workload = args.workload
    scenario = cl.make_scenario(workload, args.seed)
    trace = bool(args.trace)
    units = declared_units(trace)
    spans_path = OUT / f"spans-{workload}-seed{args.seed}.csv" if trace else None
    try:
        ep, metrics, setup_wall_s = measure(cl, scenario, spans_path)
    except cl.GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    report = {
        "workload": workload,
        "seed_offset": args.seed,
        "scenario_seed": scenario.seed,
        "cycles": ep.cycles,
        "trace_sha256": ep.trace_sha256,
        "lost_at_s": ep.lost_at_s,
        "failures_by_kind": dict(sorted(ep.failures.items())),
        "outcome": with_units(cl.outcome_metrics(ep), declared_units(True), exact=False),
        "host": host_facts(),
    }
    if setup_wall_s:
        report["setup_wall_s_median"] = statistics.median(setup_wall_s)
    if trace:
        report["spans"] = str(spans_path.relative_to(ROOT))
    defect = cl.known_defect(workload, args.seed, ep.lost_at_s)
    if defect:
        report["known_defect"] = defect
        print(f"perfbench: known defect on {workload}: {defect}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": True,
        "attempted": ep.cycles,
        "failed": 0,
        "metrics": with_units(metrics, units, exact=True),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

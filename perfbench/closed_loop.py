"""Closed-loop tracker workloads, the correctness gate, and the metrics.

One episode builds a ``TrackerWorld`` for a generated scenario and calls
``tracker.step`` once per replanning cycle: one simulated client, one process,
one thread. Each cycle starts when the previous ``step`` returns, and
simulated time advances by ``1/replan_hz`` per cycle whatever the wall time.
Everything is read from the world's public state, its trace rows, and spans
recorded around the calls into each layer (see ``tracing``).
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from aerotrack import benchmarks, corridor, kino_search, tracker, traj_opt  # noqa: E402
from aerotrack.grid import OccupancyGrid  # noqa: E402
from aerotrack.scenario import Scenario  # noqa: E402

from tracing import Probe, Recorder  # noqa: E402

# Layer names of the spans; the per-layer metric names start with the part
# before the first dot.
STEP = "tracker.step"
SEARCH = "kino_search.search"
CORRIDOR = "corridor.build_corridor"
OPTIMIZE = "traj_opt.optimize"
COST = "traj_opt.cost_and_gradient"
LOS = "grid.line_of_sight"
BUILD_MAP = "grid.build_map"
PREDICT = "prediction.fit_predicted_trajectory"
PROJECT = "perception.project_target"
FIT_REGRESSION = "perception.fit_regression"

PLAN_STAGES = (SEARCH, CORRIDOR, OPTIMIZE)
# Exception classes each stage is known to raise; any other class is
# counted as ``<layer>.fail.other`` and still named in ``failures_by_kind``.
KNOWN_FAILURES = {
    SEARCH: ("StartOccupied", "NoPath"),
    CORRIDOR: ("CorridorFailed", "SeedOccupied"),
    OPTIMIZE: ("BarrierDomainViolated", "SingularSystem"),
}
FAILSAFE_TRIP = "failsafe_trip"
# What ``step`` records when its own post-optimization occupancy check fails.
FAILSAFE_ERROR = "CorridorFailed:"

PLAN_OK = tracker.TRACE_COLUMNS.index("plan_ok")
SETUP_PAIRS = 9
REPLAY_CYCLES = 65


# ``sharp_turn_high`` runs by hand only: its search-heavy end (simulated
# t = 18-26 s) alone takes about 80 s of wall time, too long for BENCHMARK.json.
WORKLOADS = ("sharp_turn_low", "occlusion_turn", "sharp_turn_high")
# Failures the program is known to have: (workload, seed offset) -> simulated
# time at which the target is lost. A run is labelled with the defect only when
# it loses the target at that time; any other loss is reported as it is.
KNOWN_LOSSES = {("occlusion_turn", 0): 11.0}


def known_defect(workload: str, seed_offset: int, lost_at_s: float | None) -> str | None:
    """Description of the known defect this run shows, or None."""
    expected = KNOWN_LOSSES.get((workload, seed_offset))
    if expected is None or lost_at_s is None or abs(lost_at_s - expected) > 1e-6:
        return None
    return (f"the full variant loses the target at t = {expected:.1f} s on the builtin seed; "
            "the tracker is at fault, not the scenario")


# Simulated seconds a workload runs where that is shorter than its scenario.
# sharp_turn_low stops at 20 s (260 cycles, 13 beyond p95), after the target
# has turned at both of block A's corners. Traced, the optimizer's share of
# search plus optimizer time is 50-58 % both in these 20 s and over the whole
# 43.8 s, which would take 25-45 s of wall time per run.
DURATION_S = {"sharp_turn_low": 20.0}


def make_scenario(workload: str, seed_offset: int = 0) -> Scenario:
    """The builtin scenario with its seed moved by ``seed_offset``."""
    raw = benchmarks.ALL[workload]()
    raw["duration"] = DURATION_S.get(workload, raw["duration"])
    raw["seed"] = int(raw["seed"]) + seed_offset
    if raw["seed"] < 0:
        raise ValueError(f"seed offset {seed_offset} gives a negative seed")
    return Scenario.from_dict(raw)


def full_cycles(scenario: Scenario) -> int:
    return int(round(scenario.duration * scenario.tracker.replan_hz))


# Detail getters run inside the program's call stack, so they must not raise:
# a missing field reads as None and fails later, in the metrics.
def _path_detail(path):
    return path.info.get("expansions"), path.info.get("reached_goal")


def _opt_detail(traj):
    return traj.info.get("iterations"), traj.info.get("kappa"), traj.info.get("contained")


def _fit_detail(pred):
    return pred.fit_info.get("kkt_residual")


# Probes on the three planning stages: installed on every episode, because
# failure accounting needs them. One call each per cycle, so they cost
# microseconds per cycle.
STAGE_PROBES = [
    Probe(kino_search, "search", SEARCH, _path_detail),
    Probe(corridor, "build_corridor", CORRIDOR, len),
    Probe(traj_opt, "optimize", OPTIMIZE, _opt_detail),
]
# Probes added for the traced episode only.
TRACE_PROBES = [
    Probe(tracker, "step", STEP, root=True),
    Probe(traj_opt, "cost_and_gradient", COST),
    Probe(OccupancyGrid, "line_of_sight", LOS),
    Probe(tracker, "build_map", BUILD_MAP),
    Probe(tracker, "fit_predicted_trajectory", PREDICT, _fit_detail),
    Probe(tracker, "project_target", PROJECT, lambda f: f is not None),
    Probe(tracker, "fit_regression", FIT_REGRESSION),
]


class GateFailure(RuntimeError):
    """The run broke a correctness rule; its result must not be used."""


@dataclass
class Episode:
    """One closed-loop run of a scenario, scored from outside the program."""

    scenario: Scenario
    cycle_ms: list[float] = field(default_factory=list)
    trace_sha256: str = ""
    lost_at_s: float | None = None
    los_fraction: float = 0.0
    mean_target_dist_m: float = 0.0
    attempts: int = 0
    warmup_cycles: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    rows: list = field(default_factory=list)

    @property
    def cycles(self) -> int:
        return len(self.cycle_ms)

    @property
    def loop_s(self) -> float:
        return sum(self.cycle_ms) / 1000.0

    @property
    def success(self) -> bool:
        """Never lost; a collision fails the run before an episode is scored."""
        return self.lost_at_s is None

    @property
    def plan_failures(self) -> int:
        return sum(self.failures.values())


def trace_digest(rows: list) -> str:
    return hashlib.sha256(tracker.format_trace_csv(rows).encode()).hexdigest()


def _failure_kind(rec: Recorder, first: int, world) -> str | None:
    """Kind of this cycle's failed plan attempt, or None when it has none."""
    for i in range(first, len(rec)):
        if rec.name[i] in PLAN_STAGES and rec.error[i] is not None:
            return rec.error[i]
    if world.last_plan_error.startswith(FAILSAFE_ERROR):
        return FAILSAFE_TRIP
    return None


def run_episode(scenario: Scenario, cycles: int, rec: Recorder) -> Episode:
    """Build a world and step it ``cycles`` times; ``rec`` must be installed."""
    world = tracker.TrackerWorld(scenario)
    ep = Episode(scenario)
    t_fail = scenario.tracker.t_fail
    clock = time.perf_counter
    step = tracker.step
    for _ in range(cycles):
        first = len(rec)
        start = clock()
        step(world)
        ep.cycle_ms.append((clock() - start) * 1000.0)
        if world.collided:
            raise GateFailure(f"{scenario.name} (seed {scenario.seed}): the quadrotor entered "
                              f"an occupied voxel at t = {world.cycle * world.dt:.2f} s")
        if ep.lost_at_s is None and world.fail_streak > t_fail:
            ep.lost_at_s = world.cycle * world.dt
        attempted = any(rec.name[i] == SEARCH for i in range(first, len(rec)))
        if not attempted:
            ep.warmup_cycles += 1
            continue
        ep.attempts += 1
        if world.trace_rows[-1][PLAN_OK]:
            continue
        kind = _failure_kind(rec, first, world)
        if kind is None:
            raise GateFailure(f"cycle {world.cycle - 1}: failed plan attempt has no kind "
                              f"(last error {world.last_plan_error!r})")
        ep.failures[kind] = ep.failures.get(kind, 0) + 1
    ep.los_fraction = float(np.mean(world.los_flags))
    ep.mean_target_dist_m = float(np.mean(world.distances))
    ep.rows = world.trace_rows
    ep.trace_sha256 = trace_digest(ep.rows)
    return ep


def replay_digest(scenario: Scenario, cycles: int) -> str:
    """Trace digest of a fresh world stepped ``cycles`` times."""
    world = tracker.TrackerWorld(scenario)
    for _ in range(cycles):
        tracker.step(world)
    return trace_digest(world.trace_rows)


def check_same(what: str, a: str, b: str) -> None:
    if a != b:
        raise GateFailure(f"{what}: trace digests differ ({a[:12]} vs {b[:12]})")


def reference_work() -> None:
    """Fixed work of the same kind as set-up, used to measure host speed.

    Damped Gauss-Newton steps on small arrays, as the regression fit does, and
    box fills of a 3-D occupancy array, as the map build does. It never
    changes, so its CPU time moves only with the host.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(320, 6))
    b = rng.normal(size=320)
    p = np.zeros(6)
    for _ in range(6000):
        jac = a * (1.0 + 0.01 * np.tanh(p))
        step = np.linalg.solve(jac.T @ jac + 1e-3 * np.eye(6), jac.T @ (a @ p - b))
        p = p - 0.5 * step
    occ = np.zeros((120, 120, 30), dtype=np.float32)
    for lo in rng.integers(0, 90, size=(3000, 3)):
        x, y, z = (int(v) for v in lo)
        occ[x:x + 30, y:y + 30, z % 20:z % 20 + 10] += 1.0


# CPU seconds ``reference_work`` takes on the reference host, a 2-core x86-64
# VM with Python 3.11 and numpy on one BLAS thread.
REFERENCE_WORK_CPU_S = 0.23


def setup_seconds(scenario: Scenario, pairs: int = SETUP_PAIRS) -> tuple[list[float], list[float]]:
    """Set-up time of ``TrackerWorld`` construction (map build plus regression fit).

    Each construction runs right after one ``reference_work``. Returns the
    constructions' CPU times scaled to the reference host, i.e. construction
    CPU time / reference-work CPU time x ``REFERENCE_WORK_CPU_S``, and their
    raw wall times. CPU time leaves out time the process waited for a core,
    and the ratio takes out how fast the host runs at that moment; both change
    over an hour on a shared machine, while the program does not.
    """
    reference_work()
    tracker.TrackerWorld(scenario)  # warm caches and lazy imports before timing
    scaled, wall = [], []
    for _ in range(pairs):
        c0 = time.process_time()
        reference_work()
        c1 = time.process_time()
        w1 = time.perf_counter()
        tracker.TrackerWorld(scenario)
        wall.append(time.perf_counter() - w1)
        scaled.append((time.process_time() - c1) / (c1 - c0) * REFERENCE_WORK_CPU_S)
    return scaled, wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def outcome_metrics(ep: Episode) -> dict[str, float]:
    """Figures of one episode that can be 0 or swing with the seed, so none carries a bound."""
    cycle_ms = ep.cycle_ms
    budget_ms = 1000.0 / ep.scenario.tracker.replan_hz
    return {
        "cycle_ms_p50": _pct(cycle_ms, 50),
        "cycle_ms_p95": _pct(cycle_ms, 95),
        "deadline_miss_frac": sum(m > budget_ms for m in cycle_ms) / len(cycle_ms),
        "sim_s_per_wall_s": ep.cycles / ep.scenario.tracker.replan_hz / ep.loop_s,
        "success": float(ep.success),
        "los_fraction": ep.los_fraction,
        "mean_target_dist_m": ep.mean_target_dist_m,
        "tracker.plan_attempts": float(ep.attempts),
        "plan_fail_frac": ep.plan_failures / max(ep.attempts, 1),
        "tracker.warmup_cycles": float(ep.warmup_cycles),
        "tracker.failsafe_trips": float(ep.failures.get(FAILSAFE_TRIP, 0)),
    }


def end_to_end_metrics(setup_s: list[float]) -> dict[str, float]:
    """Untraced figures that stay steady across seeds and hours; each carries a bound.

    ``setup_s`` holds the scaled construction times of ``setup_seconds``.
    """
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def _fail_counts(rec: Recorder, idx: list[int], stage: str) -> dict[str, float]:
    """``<layer>.fail.<Class>`` counts over the spans ``idx`` of one planning stage."""
    layer, known = stage.split(".")[0], KNOWN_FAILURES[stage]
    counts = {f"{layer}.fail.{k}": 0.0 for k in (*known, "other")}
    for i in idx:
        err = rec.error[i]
        if err is not None:
            counts[f"{layer}.fail.{err if err in known else 'other'}"] += 1
    return counts


def layer_metrics(rec: Recorder, traced: Episode, span_cost_s: float) -> dict[str, float]:
    """Per-layer figures from the traced episode's spans.

    ``span_cost_s`` is the wall time one span adds; the tracing overhead is
    computed from it, because two episodes run one after the other differ by
    more than that through host drift alone.
    """
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(rec.name):
        by_name.setdefault(n, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def ms(name, ok_only=False):
        return [rec.duration(i) * 1000.0 for i in spans(name)
                if not ok_only or rec.error[i] is None]

    def details(name):
        return [rec.detail[i] for i in spans(name) if rec.error[i] is None]

    out: dict[str, float] = {}

    # kino_search
    search = spans(SEARCH)
    search_ms = ms(SEARCH)
    paths = details(SEARCH)
    expansions = [e for e, _ in paths]
    search_ok_s = sum(ms(SEARCH, ok_only=True)) / 1000.0
    out.update({
        "kino_search.ms_p50": _pct(search_ms, 50),
        "kino_search.ms_p95": _pct(search_ms, 95),
        "kino_search.ms_total": sum(search_ms),
        "kino_search.calls": float(len(search)),
        "kino_search.expansions_p50": _pct(expansions, 50),
        "kino_search.expansions_p95": _pct(expansions, 95),
        "kino_search.expansions_per_s": sum(expansions) / search_ok_s if search_ok_s else 0.0,
        "kino_search.reached_goal_frac": _mean([r for _, r in paths]),
    })
    out.update(_fail_counts(rec, search, SEARCH))

    # grid
    search_set = set(search)
    los = [i for i in spans(LOS) if rec.cycle[i] >= 0]
    los_in_search = sum(1 for i in los if rec.parent[i] in search_set)
    out.update({
        "grid.los_calls": float(len(los)),
        "grid.los_us_mean": _mean([rec.duration(i) for i in los]) * 1e6,
        "grid.los_per_expansion": los_in_search / sum(expansions) if sum(expansions) else 0.0,
        "grid.build_map_ms": statistics.median(ms(BUILD_MAP)),
    })

    # traj_opt
    opts = details(OPTIMIZE)
    kappa0 = traced.scenario.opt.kappa
    out.update({
        "traj_opt.ms_p50": _pct(ms(OPTIMIZE), 50),
        "traj_opt.ms_p95": _pct(ms(OPTIMIZE), 95),
        "traj_opt.ms_total": sum(ms(OPTIMIZE)),
        "traj_opt.cost_evals": float(len(spans(COST))),
        "traj_opt.iterations_p50": _pct([it for it, _, _ in opts], 50),
        "traj_opt.retry_frac": _mean([k > kappa0 for _, k, _ in opts]),
        "traj_opt.contained_frac": _mean([c for _, _, c in opts]),
    })
    out.update(_fail_counts(rec, spans(OPTIMIZE), OPTIMIZE))

    # corridor
    out.update({
        "corridor.ms_p50": _pct(ms(CORRIDOR), 50),
        "corridor.ms_p95": _pct(ms(CORRIDOR), 95),
        "corridor.cubes_p50": _pct(details(CORRIDOR), 50),
    })
    out.update(_fail_counts(rec, spans(CORRIDOR), CORRIDOR))

    # prediction
    kkt = details(PREDICT)
    out.update({
        "prediction.fit_ms_p50": _pct(ms(PREDICT), 50),
        "prediction.fit_ms_p95": _pct(ms(PREDICT), 95),
        "prediction.fit_calls": float(len(spans(PREDICT))),
        "prediction.insufficient_data": float(
            sum(rec.error[i] == "InsufficientData" for i in spans(PREDICT))),
        "prediction.kkt_residual_max": max(kkt) if kkt else 0.0,
    })

    # perception
    out.update({
        "perception.project_ms_p50": _pct(ms(PROJECT), 50),
        "perception.valid_frac": _mean(details(PROJECT)),
        "perception.fit_regression_ms": statistics.median(ms(FIT_REGRESSION)),
    })

    # tracker: step time not covered by a direct child span
    child_s: dict[int, float] = {}
    for i, p in enumerate(rec.parent):
        if p >= 0:
            child_s[p] = child_s.get(p, 0.0) + rec.duration(i)
    self_ms = [(rec.duration(i) - child_s.get(i, 0.0)) * 1000.0 for i in spans(STEP)]
    out["tracker.self_ms_p50"] = _pct(self_ms, 50)
    added_s = sum(1 for c in rec.cycle if c >= 0) * span_cost_s
    out["tracker.tracing_overhead_frac"] = added_s / (traced.loop_s - added_s)
    out.update(outcome_metrics(traced))
    return out

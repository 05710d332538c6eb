"""Spans recorded around calls into the tracker's layers, from outside the program.

A ``Recorder`` replaces chosen module or class attributes with wrappers for the
duration of a ``with`` block. Each wrapped call becomes one span: layer name,
start, end, parent span, the closed-loop cycle it belongs to, the exception
class it raised (if any) and a small ``detail`` value taken from its result.
Spans stay in memory in parallel lists and are written out only when asked,
after the timed loop has ended.
"""

from __future__ import annotations

import csv
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attr`` recorded as layer ``name``.

    ``detail`` maps the wrapped function's return value to the small value
    kept with the span; it must not keep the result itself alive.
    ``root`` marks the call that opens a new cycle.
    """

    owner: Any
    attr: str
    name: str
    detail: Callable[[Any], Any] | None = None
    root: bool = False


class Recorder:
    """In-memory span store, filled by the wrappers that ``install`` puts in place."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cycle: list[int] = []
        self.error: list[str | None] = []
        self.detail: list[Any] = []
        self._stack: list[int] = []
        self._cycle = -1

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records one span.

        The wrapper returns exactly what ``fn`` returns and re-raises
        whatever it raises, after recording the exception's class.
        """
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, cycles, errors, details = self.parent, self.cycle, self.error, self.detail
        name, describe, root = probe.name, probe.detail, probe.root

        def wrapper(*args, **kwargs):
            if root:
                self._cycle += 1
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            cycles.append(self._cycle)
            errors.append(None)
            details.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                errors[idx] = type(exc).__name__
                raise
            finally:
                stack.pop()
            ends[idx] = clock()
            if describe is not None:
                details[idx] = describe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def install(self, probes: list[Probe]) -> Iterator["Recorder"]:
        """Swap each probe's wrapper in for the block; always restore the originals."""
        saved = []
        try:
            for p in probes:
                original = p.owner.__dict__[p.attr]
                saved.append((p, original))
                setattr(p.owner, p.attr, self.wrap(p, original))
            yield self
        finally:
            for p, original in reversed(saved):
                setattr(p.owner, p.attr, original)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def write_csv(self, path) -> None:
        """Write every span as one CSV row, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "cycle", "parent", "start_us", "end_us", "error"])
            for i in range(len(self.name)):
                out.writerow([i, self.name[i], self.cycle[i], self.parent[i],
                              f"{(self.start[i] - t0) * 1e6:.1f}",
                              f"{(self.end[i] - t0) * 1e6:.1f}", self.error[i] or ""])


def span_cost_s(calls: int = 100_000, repeats: int = 3) -> float:
    """Wall time one span adds to a call: a wrapped minus a bare no-op, best of ``repeats``."""
    ns = types.SimpleNamespace(noop=lambda *args: None)
    bare = ns.noop

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(1, 2)
            times.append(time.perf_counter() - t0)
        return min(times)

    with Recorder().install([Probe(ns, "noop", "noop")]):
        wrapped = ns.noop
        return max(best(wrapped) - best(bare), 0.0) / calls

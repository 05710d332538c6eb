"""Exception types shared across the library, and the checks on outside input.

Scenario files, map spec included, are read by :func:`read_json` and checked
by the predicates here, which every reader shares. A config section derives
from :class:`Config`: each field declares its rule by its annotation (a
``float``, ``Positive``, ``NonNegative``, ``int``, ``PositiveCount``, ``bool``
or ``tuple`` kind), and :func:`check_fields` checks every field on every
construction, whether by a file, a direct call or ``dataclasses.replace``.
"""

import json
from dataclasses import fields
from numbers import Integral, Real
from pathlib import Path
from sys import float_info

import numpy as np


def is_number(x) -> bool:
    """A finite real number; a bool is not a number here."""
    return isinstance(x, Real) and not isinstance(x, bool) and abs(x) <= float_info.max


def is_positive(x) -> bool:
    return is_number(x) and x > 0


def is_count(x) -> bool:
    """A non-negative integer that is not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 0


def is_numbers(x, n=None) -> bool:
    """A list, tuple or 1-d array of finite numbers, of length ``n`` when given."""
    return ((isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim == 1)
            and all(is_number(c) for c in x) and (n is None or len(x) == n))


def key_problems(raw: dict, table: dict, where: str = "") -> list:
    """A message naming ``where`` and the key for each key of ``raw`` that breaks
    its ``(required, predicate, what it expects)`` row of ``table``."""
    problems = []
    for key, (required, ok, expects) in table.items():
        if key not in raw:
            if required:
                problems.append(f"{where}{key}: missing required field")
        elif not ok(raw[key]):
            problems.append(f"{where}{key}: expected {expects}, got {raw[key]!r}")
    return problems


# kinds beyond the builtin types: a field's kind is its annotation's text, so
# these aliases only keep that text a valid type
Positive = NonNegative = float
PositiveCount = int

# what a config field takes, by its annotation's text
_FIELD_KINDS = {
    "float": (is_number, "a finite number"),
    "Positive": (is_positive, "a finite number > 0"),
    "NonNegative": (lambda x: is_number(x) and x >= 0, "a finite number >= 0"),
    "int": (is_count, "a non-negative integer"),
    "PositiveCount": (lambda x: is_count(x) and x >= 1, "an integer >= 1"),
    "bool": (lambda x: isinstance(x, bool), "true or false"),
    "tuple": (lambda x: is_numbers(x) and any(c != 0 for c in x),
              "a list of finite numbers with a non-zero value"),
}


def check_fields(config) -> None:
    """Raise ``ValueError`` at the first field of a config dataclass that breaks
    the rule of its annotation's kind: ``float``, ``Positive``, ``NonNegative``,
    ``int``, ``PositiveCount``, ``bool`` or a ``tuple`` with a non-zero value;
    fields of other types, such as a camera, are skipped. :class:`Config` runs
    it on every construction."""
    for f in fields(config):
        ok, expects = _FIELD_KINDS.get(f.type, (None, None))
        value = getattr(config, f.name)
        if ok is not None and not ok(value):
            raise ValueError(f"{f.name} must be {expects}, got {value!r}")


class Config:
    """Base of a config section dataclass: each construction checks its fields.

    A subclass's module postpones annotations (``from __future__ import
    annotations``), so each field's kind is its annotation's text."""

    def __post_init__(self):
        check_fields(self)


def read_json(path, error: type):
    """The value of the JSON file at ``path``; bytes that are not UTF-8 JSON
    raise ``error`` naming the file, and an ``OSError`` passes through."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from None


class InvalidInput(ValueError):
    """Outside input failed its checks; the message is one line for the user."""


class InvalidSpec(InvalidInput):
    """A map spec dict failed validation; message lists field paths."""


class InvalidScenario(InvalidInput):
    """A scenario file or dict failed validation."""


class UnknownVariant(InvalidInput):
    """A tracker variant name is neither a variant nor an alias of one."""


class SeedOccupied(ValueError):
    """The voxel box holding a box inflation's seed points holds an occupied
    voxel or leaves the grid."""


class FitDiverged(RuntimeError):
    """No regression start converged, or the dataset is rank deficient."""


class InsufficientData(ValueError):
    """Too few observations inside the fit window."""


class QPInfeasible(RuntimeError):
    """The constrained fit QP has no feasible point (should be unreachable)."""


class OutOfDomain(ValueError):
    """Evaluation time outside the curve or trajectory domain."""


class StartOccupied(ValueError):
    """Kinodynamic search started from an occupied voxel."""


class NoPath(RuntimeError):
    """Search start is fully enclosed; not a single node could be expanded."""


class SingularSystem(RuntimeError):
    """Inner minimum-jerk system is singular (non-positive piece duration)."""


class BarrierDomainViolated(RuntimeError):
    """Consecutive corridor boxes do not overlap, so no waypoint can join them;
    a corridor cube grown from one point where the path clips an obstacle's
    corner can leave such a pair."""


class DescentFailed(RuntimeError):
    """The descent started outside its objective's domain or ended at a higher
    cost than it started from."""


class TrajectoryLeftCorridor(RuntimeError):
    """The optimized trajectory left its corridor."""

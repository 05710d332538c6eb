"""Exception types shared across the library, and the one checker of outside input.

A scenario file is read by :func:`read_json` and checked, map and shapes
included, by :meth:`Config.problems`. A :class:`Config` dataclass is a schema:
its field names are the keys of the JSON object it reads, a field without a
default is required, and each field's annotation names its kind (a key of
``_KINDS``) or a class with its own ``problems`` and ``from_dict`` that reads
that key's object. Every construction of a config, whether by a file, a direct
call or ``dataclasses.replace``, raises all of its problems on one line as
:class:`InvalidScenario`, the one error of a bad scenario file.
"""

import functools
import json
import sys
from dataclasses import MISSING, fields
from numbers import Integral, Real
from pathlib import Path
from sys import float_info

import numpy as np


def _number(x) -> bool:
    """A finite real number; a bool is not a number here."""
    return isinstance(x, Real) and not isinstance(x, bool) and abs(x) <= float_info.max


def _count(x) -> bool:
    """A non-negative integer that is not a bool."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 0


def _numbers(x, n=None) -> bool:
    """A list, tuple or 1-d array of finite numbers, of length ``n`` when given."""
    return ((isinstance(x, (list, tuple)) or isinstance(x, np.ndarray) and x.ndim == 1)
            and all(_number(c) for c in x) and (n is None or len(x) == n))


# kinds beyond the builtin types: a field's kind is its annotation's text, so
# these aliases only keep that text a valid type
Positive = NonNegative = FieldOfView = float
PositiveCount = int
Point = Planar = Dims = Route = np.ndarray

# what a field of each kind takes, by its annotation's text
_KINDS = {
    "str": (lambda x: isinstance(x, str), "a string"),
    "float": (_number, "a finite number"),
    "Positive": (lambda x: _number(x) and x > 0, "a finite number > 0"),
    "NonNegative": (lambda x: _number(x) and x >= 0, "a finite number >= 0"),
    "FieldOfView": (lambda x: _number(x) and 0 < x < 180, "a number of degrees in (0, 180)"),
    "int": (_count, "a non-negative integer"),
    "PositiveCount": (lambda x: _count(x) and x >= 1, "an integer >= 1"),
    "tuple": (lambda x: _numbers(x) and any(c != 0 for c in x),
              "a list of finite numbers with a non-zero value"),
    "list": (lambda x: isinstance(x, list), "a list"),
    "Point": (lambda x: _numbers(x, 3), "3 finite numbers"),
    "Planar": (lambda x: _numbers(x) and len(x) >= 2, "at least [x, y], finite"),
    "Dims": (lambda x: _numbers(x, 3) and all(_count(d) and d > 0 for d in x),
             "3 positive integers"),
    "Route": (lambda x: isinstance(x, (list, tuple, np.ndarray)) and len(x) >= 2
              and all(_numbers(p, 3) for p in x), "at least 2 rows of 3 finite numbers"),
}


@functools.cache
def _rules(schema: type) -> dict:
    """Each field of a schema: whether its key is required, and its kind's
    ``(predicate, what it expects)`` or the class that reads its object."""
    names = vars(sys.modules[schema.__module__])
    return {f.name: (f.default is MISSING and f.default_factory is MISSING,
                     _KINDS[f.type] if f.type in _KINDS else names[f.type])
            for f in fields(schema)}


class InvalidInput(ValueError):
    """Outside input failed its checks; the message is one line for the user."""


class InvalidScenario(InvalidInput):
    """A scenario file or dict, its map and shapes included, failed validation."""


def refuse(problems: list) -> None:
    """Raise ``InvalidScenario`` with every message of ``problems`` on one line, if any."""
    if problems:
        raise InvalidScenario("; ".join(problems))


class Config:
    """Base of a schema dataclass: each construction checks every field.

    A subclass's module postpones annotations (``from __future__ import
    annotations``), so each field's kind is its annotation's text.
    """

    def __post_init__(self):
        refuse(self.problems(vars(self)))

    @classmethod
    def problems(cls, raw: dict, where: str = "") -> list:
        """A message, prefixed by ``where``, for each unknown key of the object
        ``raw``, each required key it lacks and each value that breaks its rule."""
        rules = _rules(cls)
        problems = [f"{where}{key}: unknown key" for key in raw if key not in rules]
        for name, (required, rule) in rules.items():
            if name not in raw:
                if required:
                    problems.append(f"{where}{name}: missing required field")
            elif not isinstance(rule, type):
                ok, expects = rule
                if not ok(raw[name]):
                    problems.append(f"{where}{name} must be {expects}, got {raw[name]!r}")
            elif isinstance(raw[name], dict):
                problems += rule.problems(raw[name], f"{where}{name}: ")
            elif not isinstance(raw[name], rule):
                problems.append(f"{where}{name}: expected an object")
        return problems

    @classmethod
    def from_dict(cls, raw: dict):
        """Build from a JSON object, nested objects included, or raise one
        ``InvalidScenario`` naming every broken key."""
        refuse(cls.problems(raw) if isinstance(raw, dict) else ["expected a JSON object"])
        rules = _rules(cls)
        return cls(**{key: rules[key][1].from_dict(value)
                      if isinstance(rules[key][1], type) and isinstance(value, dict) else value
                      for key, value in raw.items()})


def read_json(path):
    """The value of the JSON file at ``path``; bytes that are not UTF-8 JSON
    raise ``InvalidScenario`` naming the file, and an ``OSError`` passes through."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise InvalidScenario(f"{path}: not valid JSON ({exc})") from None


class UnknownVariant(InvalidInput):
    """A tracker variant name is not one of the variants."""


class SeedOccupied(ValueError):
    """The voxel box holding a box inflation's seed points holds an occupied
    voxel or leaves the grid."""


class FitDiverged(RuntimeError):
    """No regression start converged, or the dataset is rank deficient."""


class InsufficientData(ValueError):
    """Too few observations inside the fit window."""


class QPInfeasible(RuntimeError):
    """The active-set QP started from an infeasible point or did not converge
    within its iterations; a high-degree prediction fit can do the latter."""


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

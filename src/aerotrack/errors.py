"""Exception types shared across the library, and the one positive-number check."""

from math import inf
from numbers import Real


def require_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number > 0 (bools rejected)."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0 < value < inf):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


class InvalidSpec(ValueError):
    """A map spec file or dict failed validation; message lists field paths."""


class InvalidScenario(ValueError):
    """A scenario file or dict failed validation."""


class UnknownVariant(ValueError):
    """A tracker variant name is neither a variant nor an alias of one."""


class SeedOccupied(ValueError):
    """Box inflation was seeded inside an occupied voxel."""


class FitDiverged(RuntimeError):
    """No regression start converged, or the dataset is rank deficient."""


class InsufficientData(ValueError):
    """Too few valid observations inside the fit window."""


class QPInfeasible(RuntimeError):
    """The constrained fit QP has no feasible point (should be unreachable)."""


class OutOfDomain(ValueError):
    """Evaluation time outside the curve or trajectory domain."""


class StartOccupied(ValueError):
    """Kinodynamic search started from an occupied voxel."""


class NoPath(RuntimeError):
    """Search start is fully enclosed; not a single node could be expanded."""


class CorridorFailed(RuntimeError):
    """Corridor construction could not bridge consecutive cubes."""


class SingularSystem(RuntimeError):
    """Inner minimum-jerk system is singular (non-positive piece duration)."""


class BarrierDomainViolated(RuntimeError):
    """A waypoint left the interior of its corridor intersection."""


class DescentFailed(RuntimeError):
    """The trajectory descent ended at a higher cost than it started from."""


class TrajectoryLeftCorridor(RuntimeError):
    """No barrier weight kept the optimized trajectory inside its corridor."""

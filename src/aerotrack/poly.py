"""Piecewise polynomials in local time: the one curve sampler of the planner.

A ``PiecewisePoly`` holds ``M`` pieces of a 3-D curve, each a polynomial of
degree ``K - 1`` per axis in the piece's local time ``tau`` in
``[0, durations[i]]``. Coefficients are in the power basis, indexed
``[piece, axis, power]``. The search's paths are degree-2 pieces
``(p, v, u / 2)`` and the optimizer's trajectories are quintics; both are
sampled here, in batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import perm

import numpy as np

from .errors import OutOfDomain


@dataclass
class PiecewisePoly:
    coeffs: np.ndarray      # (M, 3, K) [piece, axis, power]
    durations: np.ndarray   # (M,)
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.durations = np.asarray(self.durations, dtype=float)
        self._cum = np.concatenate([[0.0], np.cumsum(self.durations)])

    @property
    def duration(self) -> float:
        return float(self._cum[-1])

    def eval_local(self, piece, tau, order: int = 0) -> np.ndarray:
        """The ``order``-th derivative of ``piece`` at local time ``tau``.

        ``piece`` and ``tau`` broadcast to a common shape ``S``; the result
        has shape ``S + (3,)``.
        """
        piece, tau = np.broadcast_arrays(np.asarray(piece), np.asarray(tau, dtype=float))
        K = self.coeffs.shape[-1]
        k = np.arange(order, K)
        basis = np.zeros(tau.shape + (K,))
        basis[..., order:] = [perm(int(j), order) for j in k] * tau[..., None] ** (k - order)
        return (self.coeffs[piece] @ basis[..., None])[..., 0]

    def eval(self, ts, order: int = 0) -> np.ndarray:
        """The ``order``-th derivative at global times ``ts``, shape ``ts.shape + (3,)``."""
        ts = np.asarray(ts, dtype=float)
        # min/max with an in-domain initial value: cheap on a scalar, safe on an empty ts
        if ts.min(initial=0.0) < -1e-9 or ts.max(initial=0.0) > self.duration + 1e-9:
            raise OutOfDomain(f"t outside [0, {self.duration}]")
        ts = np.clip(ts, 0.0, self.duration)
        # ts >= 0 = _cum[0], so the right-side search index is at least 1
        piece = np.minimum(np.searchsorted(self._cum, ts, side="right") - 1,
                           len(self.durations) - 1)
        return self.eval_local(piece, ts - self._cum[piece], order)

    def sample(self, t: float) -> np.ndarray:
        """The (3, 3) kinematic state ``[p, v, a]`` at global time ``t``."""
        return np.stack([self.eval(t, order) for order in range(3)])

"""Axis-aligned uniform components: exact entropies, overlaps, and divergences.

Volumes are kept in the log domain throughout so that high-dimensional boxes
with small sides neither underflow nor overflow.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import NEG_INF, fsum
from .errors import AlphaOutOfRange, DegenerateBox, DimensionMismatch, NonFiniteValue


class UniformBox:
    """Uniform density on the closed axis-aligned box [lower, upper].

    Pair closed forms: ``kl``, ``chernoff`` (any order in [0, 1]), ``elk_log_cross``.
    """

    __slots__ = ("lower", "upper", "log_volume")

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise DimensionMismatch("lower and upper must be non-empty vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise NonFiniteValue("box bounds must be finite")
        sides = upper - lower
        if np.any(sides <= 0):
            raise DegenerateBox("every box side must have strictly positive length")
        self.lower = lower
        self.upper = upper
        self.log_volume = fsum(np.log(sides))

    @property
    def dim(self) -> int:
        return self.lower.size

    def entropy(self) -> float:
        """Differential entropy in nats: the log volume of the box."""
        return self.log_volume

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def log_density(self, x):
        """-log_volume inside the closed box, -inf outside; accepts (d,) or (n, d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"point dimension {pts.shape[-1]} does not match component dimension {self.dim}"
            )
        inside = np.all((pts >= self.lower) & (pts <= self.upper), axis=-1)
        out = np.where(inside, -self.log_volume, NEG_INF)
        return float(out[0]) if single else out

    def sample(self, rng, size=None):
        n = 1 if size is None else int(size)
        draws = rng.uniform(self.lower, self.upper, size=(n, self.dim))
        return draws[0] if size is None else draws

    def kl(self, other) -> float:
        return uniform_kl(self, other)

    def chernoff(self, other, alpha: float) -> float:
        return uniform_chernoff(self, other, alpha)

    def elk_log_cross(self, other) -> float:
        return uniform_elk_log_cross(self, other)


def _log_overlap(a: UniformBox, b: UniformBox) -> float:
    """Log volume of the intersection box, whose sides are min(upper) - max(lower);
    -inf when a side is not positive (zero measure, as for boxes that touch)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"component dimensions differ: {a.dim} vs {b.dim}")
    sides = np.minimum(a.upper, b.upper) - np.maximum(a.lower, b.lower)
    if np.any(sides <= 0):
        return NEG_INF
    return fsum(np.log(sides))


def uniform_kl(a: UniformBox, b: UniformBox) -> float:
    """KL(a || b): ln(V_b / V_a) when b's support contains a's, +inf otherwise."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"component dimensions differ: {a.dim} vs {b.dim}")
    contained = np.all(b.lower <= a.lower) and np.all(a.upper <= b.upper)
    if not contained:
        return math.inf
    return max(b.log_volume - a.log_volume, 0.0)


def uniform_chernoff(a: UniformBox, b: UniformBox, alpha: float) -> float:
    """Chernoff divergence -ln int a^alpha b^(1-alpha) dx for alpha in [0, 1]:
    alpha ln V_a + (1 - alpha) ln V_b - ln V_overlap, +inf if the boxes are
    disjoint.  As for Gaussians, the boundary orders give exactly zero."""
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"chernoff order must lie in [0, 1], got {alpha}")
    log_overlap = _log_overlap(a, b)
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return max(alpha * a.log_volume + (1.0 - alpha) * b.log_volume - log_overlap, 0.0)


def uniform_bd(a: UniformBox, b: UniformBox) -> float:
    """Bhattacharyya distance: the order-1/2 Chernoff divergence."""
    return uniform_chernoff(a, b, 0.5)


def uniform_elk_log_cross(a: UniformBox, b: UniformBox) -> float:
    """ln int a(x) b(x) dx = ln V_overlap - ln V_a - ln V_b, or -inf if disjoint."""
    return _log_overlap(a, b) - (a.log_volume + b.log_volume)


def uniform_elk_cross(a: UniformBox, b: UniformBox) -> float:
    """Expected-likelihood kernel int a(x) b(x) dx; zero when the boxes are disjoint."""
    return math.exp(uniform_elk_log_cross(a, b))

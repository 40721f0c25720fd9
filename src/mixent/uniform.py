"""Axis-aligned uniform components: exact entropies, overlaps, and divergences.

Volumes are kept in the log domain throughout so that high-dimensional boxes
with small sides neither underflow nor overflow.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import NEG_INF, fsum
from .errors import DegenerateBox, DimensionMismatch, NonFiniteValue, UnsupportedDistance


class UniformBox:
    """Uniform density on the closed axis-aligned box [lower, upper].

    Pair closed forms: ``kl``, ``chernoff`` (order 1/2 only), ``elk_log_cross``.
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
        if alpha != 0.5:
            raise UnsupportedDistance(f"box components support only order 0.5, got {alpha}")
        return uniform_bd(self, other)

    def elk_log_cross(self, other) -> float:
        return uniform_elk_log_cross(self, other)


def box_overlap(a: UniformBox, b: UniformBox) -> tuple[float, bool]:
    """Log volume of the intersection box plus an emptiness flag.

    The per-dimension overlap is max(0, min(upper) - max(lower)); boxes that
    merely touch have zero-measure overlap and count as empty.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"component dimensions differ: {a.dim} vs {b.dim}")
    sides = np.minimum(a.upper, b.upper) - np.maximum(a.lower, b.lower)
    if np.any(sides <= 0):
        return NEG_INF, True
    return fsum(np.log(sides)), False


def uniform_kl(a: UniformBox, b: UniformBox) -> float:
    """KL(a || b): ln(V_b / V_a) when b's support contains a's, +inf otherwise."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"component dimensions differ: {a.dim} vs {b.dim}")
    contained = np.all(b.lower <= a.lower) and np.all(a.upper <= b.upper)
    if not contained:
        return math.inf
    return max(b.log_volume - a.log_volume, 0.0)


def uniform_bd(a: UniformBox, b: UniformBox) -> float:
    """Bhattacharyya distance: (ln V_a + ln V_b) / 2 - ln V_overlap, +inf if disjoint."""
    log_overlap, empty = box_overlap(a, b)
    if empty:
        return math.inf
    return max(0.5 * a.log_volume + 0.5 * b.log_volume - log_overlap, 0.0)


def uniform_elk_log_cross(a: UniformBox, b: UniformBox) -> float:
    """ln int a(x) b(x) dx = ln V_overlap - ln V_a - ln V_b, or -inf if disjoint."""
    log_overlap, empty = box_overlap(a, b)
    if empty:
        return NEG_INF
    return log_overlap - (a.log_volume + b.log_volume)


def uniform_elk_cross(a: UniformBox, b: UniformBox) -> float:
    """Expected-likelihood kernel int a(x) b(x) dx; zero when the boxes are disjoint."""
    return math.exp(uniform_elk_log_cross(a, b))

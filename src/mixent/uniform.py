"""Axis-aligned uniform components: exact entropies, overlaps, and divergences.

Volumes are kept in the log domain throughout so that high-dimensional boxes
with small sides neither underflow nor overflow.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import (NEG_INF, as_count, as_floats, as_order, as_points, by_chunks, check_pair, fsum,
                       stacked)
from .errors import DegenerateBox, DimensionMismatch

__all__ = ["UniformBox", "uniform_kl", "uniform_chernoff", "uniform_bd", "uniform_elk_log_cross",
           "uniform_elk_cross"]


class UniformBox:
    """Uniform density on the closed axis-aligned box [lower, upper].

    Every side upper - lower must be positive and finite as a float, or
    :class:`DegenerateBox` is raised: a side that overflows, as from -1e308
    to 1e308, has no finite log volume and cannot be sampled.

    The family's pairwise matrix kernels, which the estimators call, are the
    ``kl_matrix``, ``chernoff_matrix`` (any order in [0, 1]) and
    ``half_matrices`` classmethods; ``half_matrices`` returns the
    Bhattacharyya and ELK matrices of one log-overlap pass, as for Gaussians.
    """

    __slots__ = ("lower", "upper", "log_volume")

    def __init__(self, lower, upper):
        lower = np.atleast_1d(as_floats(lower, "lower bounds"))
        upper = np.atleast_1d(as_floats(upper, "upper bounds"))
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise DimensionMismatch("lower and upper must be non-empty vectors of equal length")
        with np.errstate(over="ignore"):
            sides = upper - lower
        if np.any(sides <= 0):
            raise DegenerateBox("every box side must have strictly positive length")
        if not np.isfinite(sides).all():
            raise DegenerateBox("every box side length must be a finite float")
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
        # Halved first, so a box near the largest float has a finite center.
        return 0.5 * self.lower + 0.5 * self.upper

    def log_density(self, x):
        """-log_volume inside the closed box, -inf outside; accepts (d,) or (n, d)."""
        pts, single = as_points(x, self.dim, "component")
        out = np.empty((1, pts.shape[0]))
        self._log_density_rows((self,), pts.shape[0])(pts.T, out)
        return float(out[0, 0]) if single else out[0]

    @classmethod
    def _log_density_rows(cls, comps, width: int):
        """fill(cols, rows): write into row k of ``rows`` (K, b) the log
        density of comps[k] at the points in the columns of ``cols`` (d, b),
        b <= width, checked by ``as_points``, and return ``rows``; ``cols``
        is only read.  The columns are taken in the chunks of ``by_chunks``,
        as for Gaussians, so each comparison's boolean temporaries hold one
        chunk, at most 40 960 + d entries up to d = 640."""

        def fill(cols, rows):
            for comp, row in zip(comps, rows):
                lower, upper = comp.lower[:, None], comp.upper[:, None]
                inside = np.all((cols >= lower) & (cols <= upper), axis=0)
                row[...] = np.where(inside, -comp.log_volume, NEG_INF)

        return by_chunks(fill, comps[0].dim)

    def sample(self, rng, size=None):
        """Draw one vector (size=None) or a (size, d) batch using lower + side u."""
        n = 1 if size is None else as_count(size, 0, "the number of samples")
        draws = self._from_variates(self._variates(rng, np.empty((n, self.dim))))
        return draws[0] if size is None else draws

    @staticmethod
    def _variates(rng, out):
        """Fill ``out`` (n, d), C-contiguous, with the uniforms u in [0, 1) of
        n draws and return it; like the Gaussian's, it allocates nothing."""
        rng.random(out=out)
        return out

    def _from_variates(self, u):
        """The points lower + (upper - lower) u of the uniforms in the rows of
        u (n, d), mapped in place: bitwise ``rng.uniform(lower, upper)`` on
        the same stream."""
        u *= self.upper - self.lower
        u += self.lower
        return u

    @classmethod
    def kl_matrix(cls, comps) -> np.ndarray:
        """KL(comps[i] || comps[j]) for every pair: +inf unless box j contains box i."""
        lowers, uppers, log_volumes = stacked(comps, "lower", "upper", "log_volume")
        out = np.empty((len(comps), len(comps)))
        for i, a in enumerate(comps):
            contained = _within(a.lower, a.upper, lowers, uppers)
            out[i] = np.where(contained, np.maximum(log_volumes - a.log_volume, 0.0), math.inf)
        return out

    @classmethod
    def chernoff_matrix(cls, comps, alpha: float) -> np.ndarray:
        """Order-alpha Chernoff divergence for every pair, for an alpha in [0, 1]
        (``DistanceKind`` checks the order; this kernel does not)."""
        if alpha == 0.0 or alpha == 1.0:
            return np.zeros((len(comps), len(comps)))
        return _chernoff(*_log_overlaps(comps), alpha)

    @classmethod
    def half_matrices(cls, comps):
        """(Bhattacharyya distance, ln int p_i p_j dx) for every pair from one
        log-overlap matrix; the ELK term is ln V_ij - ln V_i - ln V_j, -inf where
        the boxes are disjoint or only touch.  Both matrices are symmetric."""
        log_overlap, log_volumes = _log_overlaps(comps)
        elk = log_overlap - (log_volumes[:, None] + log_volumes)
        return _chernoff(log_overlap, log_volumes, 0.5), elk


def _log_overlap(a: UniformBox, b: UniformBox) -> float:
    """Log volume of the intersection box, whose sides are min(upper) - max(lower);
    -inf when a side is not positive (zero measure, as for boxes that touch).
    A side of boxes far apart can overflow, only to -inf: exactly disjoint."""
    check_pair(a, b)
    with np.errstate(over="ignore"):
        sides = np.minimum(a.upper, b.upper) - np.maximum(a.lower, b.lower)
    if np.any(sides <= 0):
        return NEG_INF
    return fsum(np.log(sides))


def uniform_kl(a: UniformBox, b: UniformBox) -> float:
    """KL(a || b): ln(V_b / V_a) when b's support contains a's, +inf otherwise."""
    check_pair(a, b)
    contained = np.all(b.lower <= a.lower) and np.all(a.upper <= b.upper)
    if not contained:
        return math.inf
    return max(b.log_volume - a.log_volume, 0.0)


def uniform_chernoff(a: UniformBox, b: UniformBox, alpha: float) -> float:
    """Chernoff divergence -ln int a^alpha b^(1-alpha) dx for alpha in [0, 1]:
    alpha ln V_a + (1 - alpha) ln V_b - ln V_overlap, +inf if the boxes are
    disjoint.  As for Gaussians, the boundary orders give exactly zero."""
    alpha = as_order(alpha)
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


# Helpers of the matrix kernels, the classmethods of UniformBox.  Entry
# [i, j] of a kernel equals the scalar function above at
# (comps[i], comps[j]) to rounding, computed in N vectorised steps over
# broadcast bounds, each holding O(N d) memory.  The Chernoff and ELK
# matrices share one log-overlap matrix; KL needs only containment.  The
# scalar functions stay the reference.


def _within(lower, upper, outer_lower, outer_upper) -> np.ndarray:
    """Whether box [lower, upper] lies in [outer_lower, outer_upper], per row."""
    return np.all(outer_lower <= lower, axis=-1) & np.all(upper <= outer_upper, axis=-1)


def _log_overlaps(comps):
    """(_log_overlap(comps[i], comps[j]) for every pair, the log volumes).

    The matrix is exactly symmetric.  A nested pair overlaps in its inner
    box, whose log volume is exact; this keeps identical boxes at distance
    exactly zero, as in the scalar form.
    """
    lowers, uppers, log_volumes = stacked(comps, "lower", "upper", "log_volume")
    out = np.empty((len(comps), len(comps)))
    for i, a in enumerate(comps):
        with np.errstate(over="ignore"):  # to -inf only, as in _log_overlap
            sides = np.minimum(a.upper, uppers) - np.maximum(a.lower, lowers)
        positive = sides > 0
        log_sides = np.log(np.where(positive, sides, 1.0)).sum(axis=1)
        row = np.where(positive.all(axis=1), log_sides, NEG_INF)
        row = np.where(_within(a.lower, a.upper, lowers, uppers), a.log_volume, row)
        out[i] = np.where(_within(lowers, uppers, a.lower, a.upper), log_volumes, row)
    return out, log_volumes


def _chernoff(log_overlap, log_volumes, alpha: float) -> np.ndarray:
    """alpha (ln V_i - ln V_ij) + (1 - alpha) (ln V_j - ln V_ij), clamped at zero;
    the nesting overrides make both differences exactly zero for identical boxes."""
    out = alpha * (log_volumes[:, None] - log_overlap) + (1.0 - alpha) * (log_volumes - log_overlap)
    return np.maximum(out, 0.0)

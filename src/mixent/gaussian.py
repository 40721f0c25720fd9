"""Gaussian mixture components with closed-form entropy and divergences.

Everything here works through Cholesky factors: determinants come from the
factor diagonal and quadratic forms from triangular solves against the
factor, all through ``_numeric.forward_substitute``, so the package needs
NumPy alone.  No covariance matrix is ever inverted.  For density evaluation
each component also keeps the inverse of its triangular factor, formed once
at construction by one triangular solve, so a batch of points costs one
subtraction and one matrix product.  A squared norm that overflows is left
at +inf without a warning: it is the exact distance of components whose
means are too far apart to represent.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import as_points, forward_substitute
from .errors import AlphaOutOfRange, DimensionMismatch, NonFiniteValue, NotPositiveDefinite

_LOG_2PI = math.log(2.0 * math.pi)

# Relative symmetry tolerance and Cholesky pivot floor used at construction.
_SYMMETRY_RTOL = 1e-9
_PIVOT_FLOOR = 1e-12


class GaussianComponent:
    """Multivariate normal density with a full covariance matrix.

    Parameters
    ----------
    mean : array_like, shape (d,)
        Location vector.
    cov : array_like, shape (d, d)
        Covariance matrix.  It must be symmetric within a 1e-9 relative
        tolerance and admit a Cholesky factorization whose squared pivots
        all exceed 1e-12 times the largest diagonal entry; anything else
        raises :class:`NotPositiveDefinite` at construction time.

    The lower-triangular Cholesky factor L is computed once and reused by
    every downstream operation; ``inv_chol`` holds L^-1, used by
    ``log_density``.  The estimators reach the family's pairwise
    matrix kernels below through the ``kl_matrix``, ``chernoff_matrix`` and
    ``elk_log_cross_matrix`` classmethods.
    """

    __slots__ = ("mean", "cov", "chol", "inv_chol", "log_det")

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean.ndim != 1 or mean.size == 0:
            raise DimensionMismatch("mean must be a non-empty vector")
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise NonFiniteValue("mean and covariance entries must be finite")
        scale = float(np.abs(cov).max())
        if not np.allclose(cov, cov.T, rtol=_SYMMETRY_RTOL, atol=_SYMMETRY_RTOL * max(scale, 1.0)):
            raise NotPositiveDefinite("covariance matrix is not symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("covariance matrix is not positive definite") from None
        pivots = np.diag(chol) ** 2
        if pivots.min() <= _PIVOT_FLOOR * float(np.diag(cov).max()):
            raise NotPositiveDefinite("covariance matrix is numerically singular")
        self.mean = mean
        self.cov = cov
        self.chol = chol
        # Fortran order makes inv_chol.T, the right operand in log_density,
        # C-contiguous, which the block product runs faster on.
        self.inv_chol = np.asfortranarray(forward_substitute(chol, np.eye(mean.size)))
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    @property
    def dim(self) -> int:
        return self.mean.size

    def entropy(self) -> float:
        """Differential entropy in nats: (ln det cov + d ln 2 pi + d) / 2."""
        return 0.5 * (self.log_det + self.dim * (_LOG_2PI + 1.0))

    def log_density(self, x):
        """Log density at one point of shape (d,) or a batch of shape (n, d).

        The quadratic form is |L^-1 (x - mean)|^2.  The mean is subtracted
        before the product: expanding it as L^-1 x - L^-1 mean cancels badly
        for means far from the origin.
        """
        pts, single = as_points(x, self.dim, "component")
        z = (pts - self.mean) @ self.inv_chol.T
        quad = np.einsum("ij,ij->i", z, z)
        out = -0.5 * (quad + self.log_det + self.dim * _LOG_2PI)
        return float(out[0]) if single else out

    def sample(self, rng, size=None):
        """Draw one vector (size=None) or a (size, d) batch using mean + L z."""
        n = 1 if size is None else int(size)
        z = rng.standard_normal((n, self.dim))
        draws = self.mean + z @ self.chol.T
        return draws[0] if size is None else draws

    def center(self) -> np.ndarray:
        return self.mean

    @classmethod
    def kl_matrix(cls, comps) -> np.ndarray:
        return gaussian_kl_matrix(comps)

    @classmethod
    def chernoff_matrix(cls, comps, alpha: float) -> np.ndarray:
        return gaussian_chernoff_matrix(comps, alpha)

    @classmethod
    def elk_log_cross_matrix(cls, comps) -> np.ndarray:
        return gaussian_elk_log_cross_matrix(comps)


def _check_pair(a: GaussianComponent, b: GaussianComponent) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"component dimensions differ: {a.dim} vs {b.dim}")


def _mahalanobis_sq(chol: np.ndarray, delta: np.ndarray):
    """|chol^-1 delta|^2 over the last axis, for one factor or a stack.

    An overflow gives +inf, the exact distance of means too far apart to
    represent, so it raises no warning.
    """
    z = forward_substitute(chol, delta)
    with np.errstate(over="ignore"):
        return np.vecdot(z, z)


def gaussian_kl(a: GaussianComponent, b: GaussianComponent) -> float:
    """Kullback-Leibler divergence KL(a || b) in nats; zero iff a equals b."""
    _check_pair(a, b)
    quad = float(_mahalanobis_sq(b.chol, a.mean - b.mean))
    y = forward_substitute(b.chol, a.chol)
    trace = float(np.sum(y * y))
    value = 0.5 * (b.log_det - a.log_det + quad + trace - a.dim)
    # The divergence is non-negative; tiny negatives are rounding residue.
    return max(value, 0.0)


def _chernoff_exponent(a: GaussianComponent, b: GaussianComponent, alpha: float) -> float:
    """Closed-form -ln int a^alpha b^(1-alpha) dx without range checks or clamping.

    The covariance blend pairs (1 - alpha) with the covariance of the
    component whose density carries exponent alpha; the 1-D quadrature
    oracle is the arbiter for this pairing.
    """
    mixed = (1.0 - alpha) * a.cov + alpha * b.cov
    chol = np.linalg.cholesky(mixed)
    quad = 0.5 * alpha * (1.0 - alpha) * float(_mahalanobis_sq(chol, a.mean - b.mean))
    log_det_mixed = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return quad + 0.5 * (log_det_mixed - (1.0 - alpha) * a.log_det - alpha * b.log_det)


def gaussian_chernoff(a: GaussianComponent, b: GaussianComponent, alpha: float) -> float:
    """Chernoff divergence -ln int a^alpha b^(1-alpha) dx for alpha in [0, 1].

    At the boundary orders the integral is that of a single density, so the
    value is exactly zero.  Orders outside [0, 1] do not give a valid
    pairwise distance (the integral exceeds one) and are rejected.
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"chernoff order must lie in [0, 1], got {alpha}")
    _check_pair(a, b)
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return max(_chernoff_exponent(a, b, alpha), 0.0)


def gaussian_bd(a: GaussianComponent, b: GaussianComponent) -> float:
    """Bhattacharyya distance: the order-1/2 Chernoff divergence."""
    return gaussian_chernoff(a, b, 0.5)


def gaussian_elk_log_cross(a: GaussianComponent, b: GaussianComponent) -> float:
    """ln int a(x) b(x) dx: the log density of N(mean_b, cov_a + cov_b) at mean_a."""
    _check_pair(a, b)
    total = a.cov + b.cov
    chol = np.linalg.cholesky(total)
    quad = float(_mahalanobis_sq(chol, a.mean - b.mean))
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (quad + log_det + a.dim * _LOG_2PI)


def gaussian_elk_cross(a: GaussianComponent, b: GaussianComponent) -> float:
    """Expected-likelihood kernel int a(x) b(x) dx; strictly positive and symmetric."""
    return math.exp(gaussian_elk_log_cross(a, b))


# Matrix kernels: entry [i, j] equals the scalar function above at
# (comps[i], comps[j]) to rounding, computed in N vectorised steps, each
# holding O(N d^2) memory.  The scalar functions stay the reference.


def _stacked(comps):
    return (np.array([c.mean for c in comps]), np.array([c.cov for c in comps]),
            np.array([c.log_det for c in comps]))


def _quad_log_det(deltas: np.ndarray, covs: np.ndarray):
    """|L_k^-1 deltas[k]|^2 and ln det covs[k] for each covariance in a stack,
    L_k its Cholesky factor: one stacked factorization, then one stacked
    forward substitution."""
    chol = np.linalg.cholesky(covs)
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return _mahalanobis_sq(chol, deltas), log_det


def gaussian_kl_matrix(comps) -> np.ndarray:
    """KL(comps[i] || comps[j]) for every pair, with an exactly zero diagonal.

    Column j is one triangular solve with L_j against every mean difference
    and every Cholesky factor at once.
    """
    n, d = len(comps), comps[0].dim
    means, _, log_dets = _stacked(comps)
    # Column block i of the solve is L_j^-1 L_i, whose squared norm is the trace term.
    factors = np.concatenate([c.chol for c in comps], axis=1)
    out = np.empty((n, n))
    for j, b in enumerate(comps):
        solved = forward_substitute(b.chol, np.concatenate([(means - b.mean).T, factors], axis=1))
        with np.errstate(over="ignore"):  # +inf is exact here too; see _mahalanobis_sq
            squares = solved * solved
        quad = squares[:, :n].sum(axis=0)
        trace = squares[:, n:].sum(axis=0).reshape(n, d).sum(axis=1)
        out[:, j] = 0.5 * (b.log_det - log_dets + quad + trace - d)
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, 0.0)


def gaussian_chernoff_matrix(comps, alpha: float) -> np.ndarray:
    """Order-alpha Chernoff divergence for every pair, for an alpha in [0, 1]
    (``DistanceKind`` checks the order; this kernel does not).

    Row i works on the N blended covariances (1 - alpha) cov_i + alpha cov_j.
    """
    n = len(comps)
    out = np.zeros((n, n))
    if alpha == 0.0 or alpha == 1.0:
        return out
    means, covs, log_dets = _stacked(comps)
    for i, a in enumerate(comps):
        quad, log_det_mixed = _quad_log_det(a.mean - means, (1.0 - alpha) * a.cov + alpha * covs)
        out[i] = 0.5 * alpha * (1.0 - alpha) * quad + 0.5 * (
            log_det_mixed - (1.0 - alpha) * a.log_det - alpha * log_dets
        )
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, 0.0)


def gaussian_elk_log_cross_matrix(comps) -> np.ndarray:
    """ln int p_i p_j dx for every pair, the diagonal included.

    Row i works on the N summed covariances cov_i + cov_j.
    """
    n, d = len(comps), comps[0].dim
    means, covs, _ = _stacked(comps)
    out = np.empty((n, n))
    for i, a in enumerate(comps):
        quad, log_det = _quad_log_det(a.mean - means, a.cov + covs)
        out[i] = -0.5 * (quad + log_det + d * _LOG_2PI)
    return out

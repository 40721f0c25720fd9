"""Gaussian mixture components with closed-form entropy and divergences.

Everything here works through Cholesky factors, so the package needs NumPy
alone and no covariance matrix is ever inverted.  Each component keeps L^-1
for its own factor L, formed once by forward substitution, and applies L
only through it: in the log-density and in the KL matrix kernel, which
multiplies a block of columns' L_j^-1 by every mean difference and every
factor at once.  A batch of points is laid out with the points on the last
axis, and a mixture makes that transposed copy once for all its components;
each component then costs one subtraction, one (d, d) by (d, chunk) matrix
product and a sum over d rows per chunk of columns, in two work buffers
shared by all the components and written into the caller's row.
The other pairwise matrix kernels go through one pair-block driver, which
factors each pair's blended covariance in stacked blocks of pairs and forms
the Chernoff divergence of the blend's order.  It takes each self term from
its own diagonal pair, not from a stored log-determinant, so identical
components are exactly zero apart at every order.  The Bhattacharyya
distance and the ELK log cross-term share one factorization of
cov_i + cov_j per unordered pair.  A squared norm that
overflows is left at +inf without a warning: it is the exact distance of
components whose means are too far apart to represent.  So is one whose
mean difference overflows, where L^-1's zero upper triangle would turn
inf * 0 into NaN; every quadratic form maps NaN to +inf with np.fmin.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import (as_count, as_floats, as_order, as_points, by_chunks, check_pair, chunk_width,
                       forward_substitute, spans, stacked)
from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = ["GaussianComponent", "gaussian_kl", "gaussian_chernoff", "gaussian_bd",
           "gaussian_elk_log_cross", "gaussian_elk_cross"]

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
    ``log_density`` and ``kl_matrix``.  The family's pairwise matrix kernels,
    which the estimators call, are the ``kl_matrix``, ``chernoff_matrix`` and
    ``half_matrices`` classmethods; ``half_matrices`` returns the
    Bhattacharyya and ELK matrices of one order-1/2 pass.
    """

    __slots__ = ("mean", "cov", "chol", "inv_chol", "log_det")

    def __init__(self, mean, cov):
        mean = np.atleast_1d(as_floats(mean, "mean"))
        cov = np.atleast_2d(as_floats(cov, "covariance"))
        if mean.ndim != 1 or mean.size == 0:
            raise DimensionMismatch("mean must be a non-empty vector")
        if cov.shape != (mean.size, mean.size):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        # np.allclose's test, without its inf/NaN handling: the entries are finite.
        scale = float(np.abs(cov).max())
        tol = _SYMMETRY_RTOL * max(scale, 1.0) + _SYMMETRY_RTOL * np.abs(cov.T)
        if not (np.abs(cov - cov.T) <= tol).all():
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
        # Row m of the solve is column m of L^-1.  Its memory order does not
        # change the speed or the bits of the log-density and KL products.
        self.inv_chol = forward_substitute(chol, np.eye(mean.size)).T
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    @property
    def dim(self) -> int:
        return self.mean.size

    def entropy(self) -> float:
        """Differential entropy in nats: (ln det cov + d ln 2 pi + d) / 2."""
        return 0.5 * (self.log_det + self.dim * (_LOG_2PI + 1.0))

    def log_density(self, x):
        """Log density at one point of shape (d,) or a batch of shape (n, d)."""
        pts, single = as_points(x, self.dim, "component")
        out = np.empty((1, pts.shape[0]))
        self._log_density_rows((self,), pts.shape[0])(pts.T, out)
        return float(out[0, 0]) if single else out[0]

    @classmethod
    def _log_density_rows(cls, comps, width: int):
        """fill(cols, rows): write into row k of ``rows`` (K, b) the log
        density of comps[k] at the points in the columns of ``cols`` (d, b),
        b <= width, checked by ``as_points``, and return ``rows``.  ``cols``
        is only read, so a mixture passes one contiguous copy of a block; a
        transposed view gives the same bits.

        The quadratic form is |L^-1 (x - mean)|^2, formed with the points on
        the last axis so that every elementwise pass runs along b, not d.
        The mean is subtracted before the product: expanding it as
        L^-1 x - L^-1 mean cancels badly for means far from the origin.
        The columns are taken in the chunks of ``by_chunks``, and two
        (d, chunk) work buffers, allocated here once, hold the difference
        and the product of every component, each as one contiguous array;
        the constants are added to all K rows of a chunk in one pass after
        the loop.  Each buffer holds at most d (chunk + 1) floats, 40 960 + d
        up to d = 640, however many points are passed.  Up to d = 10 a block
        of ``log_density`` is one chunk, so the buffers are (d, block).
        """
        d = comps[0].dim
        diff_buf, z_buf = np.empty((2, d * chunk_width(d, width)))
        log_dets = np.array([c.log_det for c in comps])[:, None]

        def fill(cols, rows):
            b = cols.shape[1]
            diff, z = diff_buf[: d * b].reshape(d, b), z_buf[: d * b].reshape(d, b)
            with np.errstate(over="ignore", invalid="ignore"):  # see _mahalanobis_sq
                for comp, row in zip(comps, rows):
                    np.subtract(cols, comp.mean[:, None], out=diff)
                    np.matmul(comp.inv_chol, diff, out=z)
                    np.square(z, out=z).sum(axis=0, out=row)
            np.fmin(rows, np.inf, out=rows)
            rows += log_dets
            rows += d * _LOG_2PI
            rows *= -0.5

        return by_chunks(fill, d)

    def sample(self, rng, size=None):
        """Draw one vector (size=None) or a (size, d) batch using mean + L z."""
        n = 1 if size is None else as_count(size, 0, "the number of samples")
        draws = self._from_variates(self._variates(rng, np.empty((n, self.dim))))
        return draws[0] if size is None else draws

    @staticmethod
    def _variates(rng, out):
        """Fill ``out`` (n, d), C-contiguous, with the standard normals z of n
        draws and return it.  It allocates nothing, calls no BLAS and releases
        the GIL, so a mixture can run it on a helper thread."""
        rng.standard_normal(out=out)
        return out

    def _from_variates(self, z):
        """The points mean + L z of the standard normals in the rows of z
        (n, d), as a new array; the sum is formed in the product's memory."""
        draws = z @ self.chol.T
        draws += self.mean
        return draws

    def center(self) -> np.ndarray:
        return self.mean

    @classmethod
    def kl_matrix(cls, comps) -> np.ndarray:
        """KL(comps[i] || comps[j]) for every pair, with an exactly zero diagonal.

        Each block of columns j applies the stored L_j^-1 in two stacked
        products: one with every mean difference mean_i - mean_j, and one with
        every Cholesky factor L_i side by side, whose squared norm is the trace
        term.  A column's arithmetic does not depend on the block it falls in.
        """
        n, d = len(comps), comps[0].dim
        means, log_dets = stacked(comps, "mean", "log_det")
        factors = np.concatenate([c.chol for c in comps], axis=1)
        step = max(1, _BLOCK_FLOATS // (d * n * (d + 1)))
        out = np.empty((n, n))
        for start, stop in spans(n, step):
            js = slice(start, stop)
            inv = np.array([c.inv_chol for c in comps[js]])
            a = inv @ factors
            with np.errstate(over="ignore", invalid="ignore"):  # as in _mahalanobis_sq
                z = inv @ (means - means[js, None]).transpose(0, 2, 1)
                quad = np.fmin(np.square(z, out=z).sum(axis=1), np.inf)
                trace = np.square(a, out=a).sum(axis=1).reshape(-1, n, d).sum(axis=2)
            out[:, js] = (0.5 * (log_dets[js, None] - log_dets + quad + trace - d)).T
        np.fill_diagonal(out, 0.0)
        return np.maximum(out, 0.0)

    @classmethod
    def half_matrices(cls, comps):
        """(Bhattacharyya distance, ln int p_i p_j dx) for every pair, from one
        factorization of S_ij = cov_i + cov_j per unordered pair i <= j: the
        driver's divergence at equal weights, q / 4 + ((ln|S_ij| - ln|S_ii|) +
        (ln|S_ij| - ln|S_jj|)) / 4, and -(q + ln|S_ij| + d ln 2 pi) / 2.  Both
        matrices are symmetric; the distance is clamped at zero.
        """
        n, d = len(comps), comps[0].dim
        rows, cols = np.triu_indices(n)
        divergence, quad, log_det = _pair_terms(comps, rows, cols, 1.0, 1.0)
        bd, elk = np.empty((n, n)), np.empty((n, n))
        bd[rows, cols] = bd[cols, rows] = divergence
        elk[rows, cols] = elk[cols, rows] = -0.5 * (quad + log_det + d * _LOG_2PI)
        return np.maximum(bd, 0.0), elk

    @classmethod
    def chernoff_matrix(cls, comps, alpha: float) -> np.ndarray:
        """Order-alpha Chernoff divergence for every pair, for an alpha in [0, 1]
        (``DistanceKind`` checks the order; this kernel does not).

        Order 1/2 is the distance of ``half_matrices``.  Any other order
        factors (1 - alpha) cov_i + alpha cov_j over all N^2 ordered pairs,
        because that blend is not symmetric in (i, j).
        """
        n = len(comps)
        if alpha == 0.0 or alpha == 1.0:
            return np.zeros((n, n))
        if alpha == 0.5:
            return cls.half_matrices(comps)[0]
        rows, cols = np.indices((n, n)).reshape(2, -1)
        divergence = _pair_terms(comps, rows, cols, 1.0 - alpha, alpha)[0]
        return np.maximum(divergence.reshape(n, n), 0.0)


def _mahalanobis_sq(chol: np.ndarray, a: np.ndarray, b: np.ndarray):
    """|chol^-1 (a - b)|^2 over the last axis, for one factor or a stack.

    An overflow gives +inf, the exact distance of means too far apart to
    represent, so it raises no warning.  That includes a difference a - b
    that overflows: the solve then meets inf * 0 or inf - inf, and the NaN
    it leaves maps to +inf, while np.fmin keeps every other value's bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = forward_substitute(chol, a - b)
        return np.fmin(np.vecdot(z, z), np.inf)


def gaussian_kl(a: GaussianComponent, b: GaussianComponent) -> float:
    """Kullback-Leibler divergence KL(a || b) in nats; zero iff a equals b."""
    check_pair(a, b)
    quad = float(_mahalanobis_sq(b.chol, a.mean, b.mean))
    y = forward_substitute(b.chol, a.chol.T)  # the columns of a.chol, as rows
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
    quad = 0.5 * alpha * (1.0 - alpha) * float(_mahalanobis_sq(chol, a.mean, b.mean))
    log_det_mixed = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return quad + 0.5 * (log_det_mixed - (1.0 - alpha) * a.log_det - alpha * b.log_det)


def gaussian_chernoff(a: GaussianComponent, b: GaussianComponent, alpha: float) -> float:
    """Chernoff divergence -ln int a^alpha b^(1-alpha) dx for alpha in [0, 1].

    At the boundary orders the integral is that of a single density, so the
    value is exactly zero.  Orders outside [0, 1] do not give a valid
    pairwise distance (the integral exceeds one) and are rejected.
    """
    alpha = as_order(alpha)
    check_pair(a, b)
    if alpha == 0.0 or alpha == 1.0:
        return 0.0
    return max(_chernoff_exponent(a, b, alpha), 0.0)


def gaussian_bd(a: GaussianComponent, b: GaussianComponent) -> float:
    """Bhattacharyya distance: the order-1/2 Chernoff divergence."""
    return gaussian_chernoff(a, b, 0.5)


def gaussian_elk_log_cross(a: GaussianComponent, b: GaussianComponent) -> float:
    """ln int a(x) b(x) dx: the log density of N(mean_b, cov_a + cov_b) at mean_a,
    read from the ELK matrix of ``half_matrices`` on the pair."""
    check_pair(a, b)
    return float(GaussianComponent.half_matrices((a, b))[1][0, 1])


def gaussian_elk_cross(a: GaussianComponent, b: GaussianComponent) -> float:
    """Expected-likelihood kernel int a(x) b(x) dx; strictly positive and symmetric."""
    return math.exp(gaussian_elk_log_cross(a, b))


# Helpers of the matrix kernels, the classmethods of GaussianComponent.  Entry
# [i, j] of a kernel equals the scalar function above at (comps[i], comps[j])
# to rounding.  The KL and Chernoff scalar functions stay a float reference;
# the ELK one is a view of its kernel, whose float reference is in the tests.

# Floats per stacked temporary: a block of _pair_terms holds
# s = max(1, _BLOCK_FLOATS // d^2) pairs and a block of kl_matrix
# s = max(1, _BLOCK_FLOATS // (d N (d + 1))) columns, as split by spans, so
# their memory is the same at any N and d (unless one pair or column alone
# exceeds it).  The last block can hold s + 1, when spans merges a lone last
# item into it; at s = 1 it merges none, so a block never holds two items
# that each exceed the budget.
_BLOCK_FLOATS = 1 << 15


def _pair_terms(comps, rows, cols, w_row: float, w_col: float):
    """(D, q, ln|S|) for each pair (i, j) = (rows[k], cols[k]), with S_ij =
    w_row cov_i + w_col cov_j, L its Cholesky factor, q = |L^-1 (mean_i - mean_j)|^2
    and D the Chernoff divergence of order w_col / t, t = w_row + w_col:
    (w_row w_col q / t + (w_row (ln|S_ij| - ln|S_ii|) + w_col (ln|S_ij| - ln|S_jj|)) / t) / 2.

    S_kk = t cov_k, so the d ln t in each ln|S| cancels.  The self terms come
    from the diagonal pairs (k, k), so callers pass every diagonal pair, in
    order.  Identical components then have S_ij = S_ii = S_jj bitwise and D
    exactly zero, the premetric D(p || p) = 0 the estimators assume.  At
    w_row = w_col the two self-term differences enter as one sum, which
    commutes, so D does not depend on the order of its pair.  A pair's
    arithmetic does not depend on the block it falls in.
    """
    means, covs = stacked(comps, "mean", "cov")
    step = max(1, _BLOCK_FLOATS // comps[0].dim ** 2)
    quad, log_det = np.empty(rows.size), np.empty(rows.size)
    for start, stop in spans(rows.size, step):
        block = slice(start, stop)
        i, j = rows[block], cols[block]
        chol = np.linalg.cholesky(w_row * covs[i] + w_col * covs[j])
        quad[block] = _mahalanobis_sq(chol, means[i], means[j])
        log_det[block] = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    self_log_det = log_det[rows == cols]
    total = w_row + w_col
    self_terms = w_row * (log_det - self_log_det[rows]) + w_col * (log_det - self_log_det[cols])
    return 0.5 * (w_row * w_col / total * quad + self_terms / total), quad, log_det

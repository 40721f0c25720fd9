"""The package's one triangular solve, checked against independent references.

Every Gaussian kernel and scalar closed form solves through
``forward_substitute``, so the kernel-versus-scalar checks elsewhere share it
on both sides; this file is where the solve itself is arbitrated.  The
in-place log-sum-exps of the mixture log-density and of the estimators are
checked here too.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mixent._numeric import forward_substitute, log_sum_exp_axis0, log_sum_exp_rows
from support import cov_with_condition


def _longdouble_substitution(chol, rhs):
    """Row-by-row forward substitution in extended precision, for 2-D rhs."""
    chol = chol.astype(np.longdouble)
    x = rhs.astype(np.longdouble)
    for k in range(chol.shape[0]):
        x[k] = (x[k] - (chol[k, :k, None] * x[:k]).sum(axis=0)) / chol[k, k]
    return x


def _relative_error(got, ref) -> float:
    # Normwise per solution vector: its largest error over its largest entry.
    err = np.abs(got.astype(np.longdouble) - ref).max(axis=0)
    return float(np.max(err / np.abs(ref).max(axis=0)))


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e5, 1e8, 1e11])
@pytest.mark.parametrize(
    "layout", ["vector", "matrix", "stacked-vectors", "stacked-matrices", "shared-factor"]
)
def test_forward_substitute_matches_independent_references(layout, cond):
    rng = np.random.default_rng([int(math.log10(cond)), len(layout)])
    for dim in (1, 2, 5, 12):
        # Factors of covariances with the given condition number (the package
        # refuses pivots below 1e-12 of the largest, so 1e11 is near its edge),
        # and right-hand sides whose columns span six orders of magnitude.
        chols = np.array([np.linalg.cholesky(cov_with_condition(rng, dim, cond))
                          for _ in range(4)])
        rhs = rng.standard_normal((4, dim, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (4, 1, 3))
        chol, b = {
            "vector": (chols[0], rhs[0, :, 0]),
            "matrix": (chols[0], rhs[0]),
            "stacked-vectors": (chols, rhs[:, :, 0]),
            "stacked-matrices": (chols, rhs),
            "shared-factor": (chols[0], rhs),
        }[layout]
        got = forward_substitute(chol, b)
        assert got.shape == b.shape
        if b.ndim == chol.ndim - 1:
            b, got = b[..., None], got[..., None]
        factors = np.broadcast_to(chol, got.shape[:-2] + (dim, dim)).reshape(-1, dim, dim)
        columns = got.shape[-1]
        systems = zip(factors, b.reshape(-1, dim, columns), got.reshape(-1, dim, columns))
        for factor, rhs_k, x in systems:
            scipy_ref = solve_triangular(factor, rhs_k, lower=True)
            assert _relative_error(x, scipy_ref) <= 1e-12
            assert _relative_error(x, _longdouble_substitution(factor, rhs_k)) <= 1e-12


def test_forward_substitute_reads_only_the_lower_triangle():
    rng = np.random.default_rng(3)
    chol = np.linalg.cholesky(cov_with_condition(rng, 6, 1e4))
    filled = chol + np.triu(np.full((6, 6), np.nan), k=1)
    rhs = rng.standard_normal((6, 2))
    assert np.array_equal(forward_substitute(filled, rhs), forward_substitute(chol, rhs))
    assert np.array_equal(forward_substitute(filled, rhs[:, 0]), forward_substitute(chol, rhs[:, 0]))


@pytest.mark.parametrize("dim", [1, 2, 5, 13])
@pytest.mark.parametrize("stack", [1, 2, 9])
def test_stacked_forward_substitution_equals_each_slice_bitwise(stack, dim):
    # The KL matrix kernel solves a block of columns as one stack; a column's
    # value must not depend on the block it falls in.
    rng = np.random.default_rng([stack, dim])
    chols = np.array([np.linalg.cholesky(cov_with_condition(rng, dim, 1e4))
                      for _ in range(stack)])
    rhs = rng.standard_normal((stack, dim, 20 * (dim + 1)))
    stacked = forward_substitute(chols, rhs)
    shared = forward_substitute(chols, rhs[:1])
    assert stacked.shape == rhs.shape and shared.shape == rhs.shape
    for k in range(stack):
        assert np.array_equal(stacked[k], forward_substitute(chols[k], rhs[k]))
        assert np.array_equal(shared[k], forward_substitute(chols[k], rhs[0]))


@pytest.mark.parametrize("rows", [1, 2, 7, 100])
def test_log_sum_exp_axis0_in_place_equals_the_out_of_place_formula_bitwise(rows):
    rng = np.random.default_rng(rows)
    matrix = rng.uniform(-800.0, 50.0, (rows, 301))
    matrix[rng.uniform(size=matrix.shape) < 0.3] = -np.inf
    matrix[:, 17] = -np.inf
    original = matrix.copy()
    # The out-of-place formula it replaces.
    top = original.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        expected = shift + np.log(np.exp(original - shift).sum(axis=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_sum_exp_axis0(matrix)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.isneginf(got), np.isneginf(original).all(axis=0))
    assert got[17] == -np.inf and np.isfinite(got).sum() > 150
    # The argument is overwritten with the shifted exponentials.
    assert np.array_equal(matrix, np.exp(original - shift))


@pytest.mark.parametrize("rows", [1, 2, 7, 100])
def test_log_sum_exp_rows_equals_a_per_row_fsum_reference_bitwise(rows):
    rng = np.random.default_rng([rows, 2])
    matrix = rng.uniform(-800.0, 50.0, (rows, 301))
    matrix[rng.uniform(size=matrix.shape) < 0.3] = -np.inf
    matrix[rows // 2] = -np.inf
    original = matrix.copy()
    expected, shifted = [], []
    for row in original:
        top = row.max()
        if top == -np.inf:
            expected.append(-np.inf)
            shifted.append(np.zeros_like(row))
            continue
        shifted.append(np.exp(row - top))
        expected.append(top + math.log(math.fsum(shifted[-1].tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_sum_exp_rows(matrix)
    assert np.array_equal(got, expected)
    assert got[rows // 2] == -np.inf and np.isfinite(got).sum() == rows - 1
    # The argument is overwritten with the shifted exponentials.
    assert np.array_equal(matrix, shifted)

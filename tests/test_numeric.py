"""The package's one triangular solve, checked against independent references.

``forward_substitute`` solves stacked vectors only; a matrix is solved as the
stack of its columns.  Construction forms each component's inverse factor
with it, and the pair-block driver and the scalar closed forms solve through
it.  The KL matrix kernel multiplies by the stored inverse factors instead,
so its check against the scalar ``gaussian_kl`` compares two routes; this file
is where the solve itself is arbitrated.  The in-place log-sum-exps of the
mixture log-density and of the estimators are checked here too, and so is
the one rule that splits points into blocks and columns into chunks.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import mixent._numeric
from mixent._numeric import (BLOCK, _chunk_step, as_floats, as_labels, forward_substitute,
                             log_sum_exp_axis0, log_sum_exp_rows, spans)
from support import cov_with_condition


def _longdouble_substitution(chol, rhs):
    """Row-by-row forward substitution of one vector in extended precision."""
    chol = chol.astype(np.longdouble)
    x = rhs.astype(np.longdouble)
    for k in range(chol.shape[0]):
        x[k] = (x[k] - (chol[k, :k] * x[:k]).sum()) / chol[k, k]
    return x


def _relative_error(got, ref) -> float:
    # Normwise: the largest error over the largest entry of the solution.
    return float(np.abs(got.astype(np.longdouble) - ref).max() / np.abs(ref).max())


# (factors, vectors) from four factors (4, d, d) and twelve vectors (4, 3, d).
LAYOUTS = {
    "vector": lambda chols, vecs: (chols[0], vecs[0, 0]),
    # A matrix's columns, passed as rows: how construction and gaussian_kl
    # solve against a matrix.
    "matrix": lambda chols, vecs: (chols[0], vecs[0]),
    "stacked-vectors": lambda chols, vecs: (chols, vecs[:, 0]),
    # A broadcast stack: each factor against the same three vectors.
    "stacked-matrices": lambda chols, vecs: (chols[:, None], vecs[:1]),
    # One factor against every vector.
    "shared-factor": lambda chols, vecs: (chols[0], vecs),
}


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e5, 1e8, 1e11])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_forward_substitute_matches_independent_references(layout, cond):
    rng = np.random.default_rng([int(math.log10(cond)), len(layout)])
    for dim in (1, 2, 5, 12):
        # Factors of covariances with the given condition number (the package
        # refuses pivots below 1e-12 of the largest, so 1e11 is near its edge),
        # and vectors whose sizes span six orders of magnitude.
        chols = np.array([np.linalg.cholesky(cov_with_condition(rng, dim, cond))
                          for _ in range(4)])
        vecs = rng.standard_normal((4, 3, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (4, 3, 1))
        chol, b = LAYOUTS[layout](chols, vecs)
        got = forward_substitute(chol, b)
        assert got.shape == np.broadcast_shapes(chol.shape[:-1], b.shape)
        factors = np.broadcast_to(chol, got.shape + (dim,)).reshape(-1, dim, dim)
        systems = zip(factors, np.broadcast_to(b, got.shape).reshape(-1, dim), got.reshape(-1, dim))
        for factor, vec, x in systems:
            scipy_ref = solve_triangular(factor, vec, lower=True)
            assert _relative_error(x, scipy_ref) <= 1e-12
            assert _relative_error(x, _longdouble_substitution(factor, vec)) <= 1e-12


def test_forward_substitute_reads_only_the_lower_triangle():
    rng = np.random.default_rng(3)
    chols = np.array([np.linalg.cholesky(cov_with_condition(rng, 6, 1e4)) for _ in range(3)])
    filled = chols + np.triu(np.full((6, 6), np.nan), k=1)
    vecs = rng.standard_normal((3, 6))
    assert np.array_equal(forward_substitute(filled, vecs), forward_substitute(chols, vecs))
    assert np.array_equal(forward_substitute(filled[0], vecs), forward_substitute(chols[0], vecs))


@pytest.mark.parametrize("dim", [1, 2, 5, 13])
@pytest.mark.parametrize("stack", [1, 2, 9])
def test_stacked_forward_substitution_equals_each_slice_bitwise(stack, dim):
    # The pair-block driver solves a block of pairs as one stack of vectors;
    # a pair's value must not depend on the block it falls in.
    rng = np.random.default_rng([stack, dim])
    chols = np.array([np.linalg.cholesky(cov_with_condition(rng, dim, 1e4))
                      for _ in range(stack)])
    vecs = rng.standard_normal((stack, 20, dim))
    stacked = forward_substitute(chols[:, None], vecs)
    shared = forward_substitute(chols[:, None], vecs[:1])
    assert stacked.shape == vecs.shape and shared.shape == vecs.shape
    for k in range(stack):
        assert np.array_equal(stacked[k], forward_substitute(chols[k], vecs[k]))
        assert np.array_equal(shared[k], forward_substitute(chols[k], vecs[0]))
        for m in range(0, 20, 7):
            assert np.array_equal(stacked[k, m], forward_substitute(chols[k], vecs[k, m]))


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


def _scattered_rows(rows, width=301, low=-800.0, high=50.0):
    """Uniform values with 30% -inf and one all-(-inf) row."""
    rng = np.random.default_rng([rows, 2])
    matrix = rng.uniform(low, high, (rows, width))
    matrix[rng.uniform(size=matrix.shape) < 0.3] = -np.inf
    matrix[rows // 2] = -np.inf
    return matrix


def _rounding_tie_row():
    """[0, x] with exp(x) just above 2^-53: the exact row sum lies less than
    2^-80 above the tie 1 + 2^-53, so the limbs cannot settle it."""
    x = math.log(2.0**-53)
    while math.exp(x) <= 2.0**-53:
        x = np.nextafter(x, 0.0)
    assert math.exp(x) < 2.0**-53 * (1.0 + 2.0**-26)
    return np.array([[0.0, x], [x, 0.0], [0.0, -1.0]])


def _subnormal_rows():
    rng = np.random.default_rng(5)
    matrix = rng.uniform(-745.0, -708.5, (6, 400))  # exp(x - 0) is subnormal
    matrix[:, 7] = 0.0
    matrix[3, 8:] = -744.0  # equal subnormal exponentials beside the 1
    return matrix


LSE_ROWS_CASES = {
    "1": lambda: _scattered_rows(1),
    "2": lambda: _scattered_rows(2),
    "7": lambda: _scattered_rows(7),
    "100": lambda: _scattered_rows(100),
    "width-1": lambda: _scattered_rows(9, width=1),
    "width-2": lambda: _scattered_rows(9, width=2),
    "width-1000": lambda: _scattered_rows(30, width=1000),
    "spread-40x": lambda: _scattered_rows(31, low=-32_000.0, high=2_000.0),
    "equal-entries": lambda: np.repeat([[3.7], [-2.5e5], [0.0], [-np.inf], [1e-300]], 513, axis=1),
    "subnormal": _subnormal_rows,
    "fallback": _rounding_tie_row,
}


def _fsum_reference(original):
    """(log-sum-exps, shifted exponentials) of each row, one math.fsum per row."""
    expected, shifted = [], []
    for row in original:
        top = row.max()
        if top == -np.inf:
            expected.append(-np.inf)
            shifted.append(np.zeros_like(row))
            continue
        shifted.append(np.exp(row - top))
        expected.append(top + math.log(math.fsum(shifted[-1].tolist())))
    return expected, shifted


def _count_fallbacks(monkeypatch):
    """The lengths of the rows that log_sum_exp_rows leaves to fsum."""
    fallbacks = []

    def counted(values):
        fallbacks.append(len(values))
        return math.fsum(values.tolist())

    monkeypatch.setattr(mixent._numeric, "fsum", counted)
    return fallbacks


@pytest.mark.parametrize("rows", sorted(LSE_ROWS_CASES))
def test_log_sum_exp_rows_equals_a_per_row_fsum_reference_bitwise(monkeypatch, rows):
    matrix = LSE_ROWS_CASES[rows]()
    original = matrix.copy()
    expected, shifted = _fsum_reference(original)
    fallbacks = _count_fallbacks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_sum_exp_rows(matrix)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.isneginf(got), np.isneginf(original).all(axis=1))
    # The argument is overwritten with the shifted exponentials.
    assert np.array_equal(matrix, shifted)
    if rows == "fallback":  # both tie rows are summed by fsum
        assert len(fallbacks) >= 2


def test_log_sum_exp_rows_sums_rows_too_long_for_the_limbs_with_fsum(monkeypatch):
    # Rows of 2^23 entries could overflow the int64 limb sums; such a matrix
    # is summed by fsum row by row.  A lower threshold stands in for the size.
    matrix = _scattered_rows(7)
    expected, shifted = _fsum_reference(matrix.copy())
    fallbacks = _count_fallbacks(monkeypatch)
    monkeypatch.setattr(mixent._numeric, "_MAX_LIMB_ROW", matrix.shape[1])
    assert np.array_equal(log_sum_exp_rows(matrix), expected)
    assert np.array_equal(matrix, shifted)
    assert fallbacks == [matrix.shape[1]] * 7


def test_float_intake_takes_every_real_leaf_and_dtype():
    # The leaf rule refuses bools, strings, complex numbers, None, Fraction and
    # Decimal; every Python and NumPy int or float still reads as its value.
    leaves = [1, 2.5, np.float32(0.25), np.int8(-3), np.uint16(4), np.float64(1e-3)]
    assert as_floats(leaves, "x").tolist() == [1.0, 2.5, 0.25, -3.0, 4.0, 1e-3]
    assert as_floats(np.float32(0.5), "x").tolist() == 0.5
    for dtype in (np.int32, np.uint8, np.float16, np.float32, np.longdouble, object):
        assert as_floats(np.arange(3).astype(dtype), "x").tolist() == [0.0, 1.0, 2.0]


def test_labels_are_read_as_an_integer_array():
    # The one reader indexes the labels, so they come back as an array.
    labels = as_labels([3, -1, 3], 3)
    assert isinstance(labels, np.ndarray) and labels.dtype.kind == "i"
    assert labels.tolist() == [3, -1, 3]
    narrow = as_labels(np.array([0, 2, 1], np.uint8), 3)
    assert isinstance(narrow, np.ndarray) and narrow.dtype.kind in "iu"
    assert narrow.tolist() == [0, 2, 1]


@pytest.mark.parametrize("step", [64, 640, BLOCK])
def test_spans_cover_in_order_and_merge_a_lone_last_item(step):
    for n in [0, 1, 2, step - 1, step, step + 1, step + 2, 2 * step + 1, 3 * step + 17]:
        bounds = list(spans(n, step))
        assert [i for start, stop in bounds for i in range(start, stop)] == list(range(n))
        sizes = [stop - start for start, stop in bounds]
        assert all(2 <= size <= step + 1 for size in sizes) or n < 2
        assert all(size == step for size in sizes[:-1])


def test_chunks_are_derived_from_the_dimension_alone():
    # A chunk is the most multiples of 64 columns whose coordinates fit in
    # 40 960, and 64 where even those do not fit; up to ten dimensions a
    # block of BLOCK + 1 points is one chunk.
    for dim in range(1, 1000):
        step = _chunk_step(dim)
        assert step % 64 == 0 and step >= 64
        assert dim * step <= 40_960 or step == 64
        assert dim * (step + 64) > 40_960
        assert (list(spans(BLOCK + 1, step)) == [(0, BLOCK + 1)]) == (dim <= 10)

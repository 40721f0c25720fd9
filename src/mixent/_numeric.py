"""Shared numeric helpers: the one intake rule for each kind of argument
(counts, float arrays, group labels, Chernoff orders, component pairs),
the one stacking of component attributes for the pair kernels,
order-stable summation, careful log-sum-exp (the row form sums each row
exactly from integer limbs, bit for bit as math.fsum would), the
package's one triangular solve, on stacked vectors, and the one rule,
``spans``, that splits points into blocks, a block's columns into chunks,
and the Gaussian kernels' columns and pairs into blocks; a run holds one
item more than its step, if that is 2 or more, where a lone last item
joins it.

Every constructor and scalar function reads its arguments through these
rules, so a boolean is refused wherever a number is taken, by the library
and the JSON loader alike."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (AlphaOutOfRange, DimensionMismatch, InsufficientSamples, MixtureError,
                     NonFiniteValue)

NEG_INF = float("-inf")


def as_count(value, least: int, what: str, error=InsufficientSamples) -> int:
    """value as an int if it is a Python or NumPy integer, not a bool, of at least
    ``least``; anything else (a float or a numeric string too) raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise error(f"{what} must be {bound}, got {value}")
    return int(value)


def _fault(value) -> str | None:
    """Why value is not a real or an array of reals, or None if it is.

    An ndarray of integer or float dtype is a real array; any other ndarray
    and every list or tuple is walked, and each leaf must be a Python or
    NumPy int or float, never a bool."""
    if isinstance(value, (float, int, np.floating, np.integer)) and type(value) is not bool:
        return None
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return None
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return next(filter(None, map(_fault, value)), None)
    boolean = isinstance(value, (bool, np.bool_))
    return "booleans are not numbers" if boolean else f"{value!r} is not a real number"


def as_floats(value, what: str) -> np.ndarray:
    """value as a float array of finite entries.

    Each entry must be a Python or NumPy int or float, not a bool, and an
    ndarray must have an integer or float dtype.  Anything else (a bool, a
    string, a complex number, ``None``), or entries that do not make an array
    (ragged or nested too deep to walk), raises a plain :class:`MixtureError`,
    "malformed <what>: ..."; a NaN or infinite entry raises
    :class:`NonFiniteValue`.  ``what`` names the argument in the message.
    """
    try:
        if fault := _fault(value):
            raise TypeError(fault)
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, RecursionError) as exc:
        raise MixtureError(f"malformed {what}: {exc}") from None
    # A NaN propagates through min and max, so both are finite exactly when
    # every entry is; unlike isfinite, the two reductions make no temporary
    # of the array's size.
    if not (np.isfinite(array.min(initial=0.0)) and np.isfinite(array.max(initial=0.0))):
        raise NonFiniteValue(f"{what} must be finite")
    return array


def as_labels(value, count: int) -> np.ndarray:
    """value as an integer array of ``count`` labels, negative ones too.  A
    bool anywhere in it, a label of another dtype, a ragged value or another
    count raises a plain :class:`MixtureError`."""
    try:
        labels = None if _fault(value) else np.asarray(value)
    except (ValueError, RecursionError):
        labels = None
    if labels is None or labels.shape != (count,) or labels.dtype.kind not in "iu":
        raise MixtureError(f"need one integer group label per component ({count}), got {value!r}")
    return labels


def as_order(alpha) -> float:
    """alpha as a float if it is a Python or NumPy real in [0, 1], not a bool
    or a string; anything else raises :class:`AlphaOutOfRange`.  Orders outside
    [0, 1] give no valid Chernoff bound."""
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"chernoff order must be a real in [0, 1], got {alpha!r}")
    return float(alpha)


def stacked(comps, *names):
    """One array per named attribute, stacked over the components: only the
    stacks a kernel reads are built and kept alive."""
    return [np.array([getattr(c, name) for c in comps]) for name in names]


def check_pair(a, b) -> None:
    """Refuse two components of different dimensions with :class:`DimensionMismatch`."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"component dimensions differ: {a.dim} vs {b.dim}")


def as_points(x, dim: int, owner: str):
    """(points, single): x as a float (n, dim) batch, and whether it was one (dim,) point.

    x is read by :func:`as_floats`; a trailing size other than ``dim`` (or
    more than two axes) raises :class:`DimensionMismatch`.  ``owner`` names
    the caller in the message.
    """
    x = as_floats(x, "point coordinates")
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[-1] != dim:
        raise DimensionMismatch(
            f"point dimension {pts.shape[-1]} does not match {owner} dimension {dim}"
        )
    return pts, x.ndim == 1


def forward_substitute(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with chol @ x = rhs, for lower-triangular chol of shape (..., d, d)
    and vectors rhs of shape (..., d); leading axes broadcast.

    Entry k of x is (rhs_k - chol[k, :k] x[:k]) / chol[k, k], one entry per
    step over the whole stack.  A matrix right-hand side is solved as the
    stack of its columns, passed as rows.
    """
    x = np.empty(np.broadcast_shapes(chol.shape[:-1], rhs.shape))
    for k in range(chol.shape[-1]):
        x[..., k] = (rhs[..., k] - np.vecdot(chol[..., k, :k], x[..., :k])) / chol[..., k, k]
    return x


# Points per block of MixtureModel.log_density and of the grouped draws: the
# (d, block) point buffer and the K x block row buffer stay cache-sized
# however many points are drawn or evaluated.
BLOCK = 4096
# Coordinates per column chunk of a family's log-density routine: ten for
# each point of a block, so a block of at most ten dimensions is one chunk.
# A chunk is a multiple of 64 columns and never narrower than 64.
_CHUNK_COORDS = 10 * BLOCK
_CHUNK_ALIGN = 64


def spans(n: int, step: int):
    """Yield (start, stop) for each run of n items in steps of ``step``, in order.

    A lone last item joins the run before it: a one-point block or a
    one-column chunk takes other BLAS and summation routes and rounds
    differently.  So for n >= 2 and step >= 2 every run has from two to
    step + 1 items.  At step 1 every run is one item, so none is lone and
    none is merged: a step of 1 means that one item alone fills a block.
    """
    last = step + 1 if step > 1 else 1  # the most items of the last run
    start = 0
    while start < n:
        stop = n if n - start <= last else start + step
        yield start, stop
        start = stop


def _chunk_step(dim: int) -> int:
    return max(_CHUNK_ALIGN, _CHUNK_COORDS // dim // _CHUNK_ALIGN * _CHUNK_ALIGN)


def chunk_width(dim: int, width: int) -> int:
    """The most columns that one chunk of :func:`by_chunks` passes on, for
    batches of at most ``width`` points of dimension ``dim``: a work buffer
    of dim times this many floats holds any chunk.  That is at most
    40 960 + dim floats up to dim = 640, and 65 dim above it."""
    return min(width, _chunk_step(dim) + 1)


def by_chunks(fill, dim: int):
    """fill(cols, rows) run on each column chunk of ``cols`` (dim, b) and
    ``rows`` (K, b), chunks given by :func:`spans` at the dimension's step;
    returns ``rows``.  Up to ten dimensions a block of 4097 points or fewer
    is one chunk."""
    step = _chunk_step(dim)

    def chunked(cols, rows):
        for start, stop in spans(cols.shape[1], step):
            fill(cols[:, start:stop], rows[:, start:stop])
        return rows

    return chunked


# Bits per limb of the exact row sums.  An entry in [0, 1] gives two limbs
# of at most 2^40 each, so a row's int64 limb sum is exact below 2^23 entries.
_LIMB_BITS = 40
_LIMB = float(1 << _LIMB_BITS)
_MAX_LIMB_ROW = 1 << 23


def log_sum_exp_rows(matrix: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp along each row of a 2-D float array, in place
    like :func:`log_sum_exp_axis0`; an all-(-inf) row maps to -inf.

    Each row's exponentials are summed with correct rounding, as one
    math.fsum per row would sum them, so a row's result does not depend on
    the order of its entries.  After the shift a finite row holds entries in
    [0, 1] and an exact 1.  Two limbs, floor(x 2^40) and floor of the
    remainder times 2^40, are summed per row as int64 and joined into one
    int v, which holds the row's sum down to 2^-80; the bits dropped below
    come to less than n 2^-80 for n entries.  So float(v) 2^-80 is the
    correctly rounded sum when float(v) == float(v + n); a row that fails
    that test, a non-finite row and a matrix with rows of 2^23 or more
    entries are summed by :func:`fsum` instead.
    """
    m = matrix.max(axis=1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    matrix -= shift[:, None]
    np.exp(matrix, out=matrix)
    n = matrix.shape[1]
    settled = [None] * matrix.shape[0]
    if n < _MAX_LIMB_ROW:
        frac = matrix * _LIMB
        frac[~finite] = 0.0  # such rows are left to fsum below
        limb = np.empty_like(frac)
        np.floor(frac, out=limb)
        high = limb.sum(axis=1, dtype=np.int64).tolist()
        frac -= limb
        frac *= _LIMB
        low = np.floor(frac, out=limb).sum(axis=1, dtype=np.int64).tolist()
        for r, (h, lo) in enumerate(zip(high, low)):
            v = (h << _LIMB_BITS) + lo
            if float(v) == float(v + n):
                settled[r] = math.ldexp(float(v), -2 * _LIMB_BITS)
    totals = [fsum(matrix[r]) if t is None else t for r, t in enumerate(settled)]
    return np.array([s + math.log(t) if t else NEG_INF for s, t in zip(shift.tolist(), totals)])


def log_sum_exp_axis0(matrix: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp down the first axis of a 2-D float array.

    It works in place: the shifted exponentials overwrite ``matrix``, so a
    caller that reuses one buffer allocates nothing of its size.  Columns
    whose entries are all -inf map to -inf without warnings.
    """
    m = matrix.max(axis=0)
    shift = np.where(np.isfinite(m), m, 0.0)
    matrix -= shift
    total = np.exp(matrix, out=matrix).sum(axis=0)
    with np.errstate(divide="ignore"):
        return shift + np.log(total)


def fsum(values) -> float:
    """Exactly rounded sum of an iterable or array of floats."""
    return math.fsum(values)

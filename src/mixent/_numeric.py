"""Shared numeric helpers: the one rule for counts, order-stable summation,
careful log-sum-exp and the package's one triangular solve, on stacked vectors."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, NonFiniteValue

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


def as_points(x, dim: int, owner: str):
    """(points, single): x as a float (n, dim) batch, and whether it was one (dim,) point.

    A trailing size other than ``dim`` (or more than two axes) raises
    :class:`DimensionMismatch`; a NaN or infinite coordinate raises
    :class:`NonFiniteValue`.  ``owner`` names the caller in the message.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[-1] != dim:
        raise DimensionMismatch(
            f"point dimension {pts.shape[-1]} does not match {owner} dimension {dim}"
        )
    if not np.isfinite(pts).all():
        raise NonFiniteValue("point coordinates must be finite")
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


def log_sum_exp_rows(matrix: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp along each row of a 2-D float array, in place
    like :func:`log_sum_exp_axis0`.  One math.fsum per row makes a row's result
    independent of the order of its entries; an all-(-inf) row maps to -inf.
    """
    m = matrix.max(axis=1)
    shift = np.where(np.isfinite(m), m, 0.0)
    matrix -= shift[:, None]
    totals = [math.fsum(row.tolist()) for row in np.exp(matrix, out=matrix)]
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
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)

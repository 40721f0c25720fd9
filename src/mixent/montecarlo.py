"""Independent oracles: Monte Carlo entropy and one-dimensional quadrature.

These deliberately share no formulas with the closed-form modules; they exist
to cross-check them.  Both quadrature routines run one segment loop,
``_integrate``, and differ only in their integrand: it splits the
integration range at box-support edges, so that piecewise-smooth
integrands are handled at full accuracy, applies a composite Simpson rule
on a uniform grid in each segment, and gives +inf for an integrand that is
infinite anywhere.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from ._numeric import as_count, as_floats, as_order, fsum
from .errors import AlphaOutOfRange, MixtureError, NotOneDimensional
from .mixture import MixtureModel
from .uniform import UniformBox

__all__ = ["McResult", "mc_entropy", "quad_entropy_1d", "quad_cross_term_1d"]

_MIN_POINTS = 101


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with its standard error and sample count."""

    estimate: float
    stderr: float
    samples: int


def mc_entropy(mixture: MixtureModel, samples: int, seed: int) -> McResult:
    """Estimate mixture entropy as the sample mean of -ln density.

    Parameters
    ----------
    mixture : MixtureModel
    samples : int
        Number of draws, a Python or NumPy integer of at least 2 so the
        standard error exists; anything else raises InsufficientSamples.
    seed : int
        Non-negative master seed, a Python or NumPy integer; anything else
        raises MixtureError.  Draws come from a generator built on
        ``numpy.random.SeedSequence(seed, spawn_key=(0,))``, so a fixed seed
        always reproduces the same estimate bit for bit.

    Returns
    -------
    McResult
        estimate, stderr = sample standard deviation / sqrt(samples), samples.

    The result is bitwise that of ``-mixture.log_density(mixture.sample(rng,
    samples))``, but the (samples, d) array is never built: each block of
    the mixture's grouped draws is evaluated by the block routine of
    ``log_density`` as it is drawn, and the values are put back in draw
    order before the mean and spread are taken.  From two blocks on, a
    helper thread draws the next block's variates while this one is
    evaluated; one block is drawn inline.  The thread is joined before this
    function returns or raises.  Memory is O(block (K + d)): the (d, block)
    point buffer, the two (block, d) variate slots and the K x block row
    buffer, plus a Gaussian's two work buffers of at most 40 960 + d floats
    each (up to d = 640).  To that come at most 12 bytes per sample while
    the blocks are evaluated (the values and a narrow draw order), and 9
    more while the labels are sorted.
    """
    samples = as_count(samples, 2, "the number of samples")
    seed = as_count(seed, 0, "seed", MixtureError)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    evaluate = mixture._block_log_density(samples)
    values = np.empty(samples)
    with closing(mixture._grouped_draws(rng, samples)) as draws:
        for positions, cols in draws:
            values[positions] = evaluate(cols)
    # The last block's views hold the draw order and the point buffer.
    del positions, cols, evaluate
    np.negative(values, out=values)
    estimate = float(np.mean(values))
    spread = float(np.std(values, ddof=1))
    return McResult(estimate, spread / math.sqrt(samples), samples)


def _simpson(y: np.ndarray, step: float) -> float:
    # composite Simpson rule; y must have odd length >= 3
    return (step / 3.0) * float(
        y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
    )


def _cover(component) -> tuple[float, float, bool]:
    """(lo, hi, is_box): a box's support, or 12 standard deviations around a
    Gaussian mean.  This is the oracle's one test of the component family."""
    if isinstance(component, UniformBox):
        return float(component.lower[0]), float(component.upper[0]), True
    sd = math.sqrt(float(component.cov[0, 0]))
    return float(component.mean[0]) - 12.0 * sd, float(component.mean[0]) + 12.0 * sd, False


def _box_edges(component) -> list[float]:
    lo, hi, is_box = _cover(component)
    return [lo, hi] if is_box else []


def _component_density(component, xs: np.ndarray, midpoint: float) -> np.ndarray:
    """Component density on a grid that lies inside one smooth segment.

    Box components are classified once by the segment midpoint so that grid
    points sitting exactly on a support edge do not pick up jump values.
    """
    lo, hi, is_box = _cover(component)
    if is_box:
        inside = lo < midpoint < hi
        value = math.exp(-component.log_volume) if inside else 0.0
        return np.full(xs.size, value)
    return np.exp(component.log_density(xs[:, None]))


def _integrate(integrand, lo: float, hi: float, edges, points: int) -> float:
    """The composite Simpson value of integrand(xs, midpoint) over [lo, hi].

    The range is cut at the edges inside it, and each segment takes its
    share of ``points``, at least 9 and made odd, on a uniform grid xs, with
    the segment's midpoint.  An infinite integrand value anywhere gives
    exactly ``math.inf``: for KL, p has mass where q vanishes.
    """
    cuts = sorted({lo, hi, *(e for e in edges if lo < e < hi)})
    pieces = []
    for s0, s1 in zip(cuts[:-1], cuts[1:]):
        n = max(int(round(points * (s1 - s0) / (hi - lo))), 9) | 1
        values = integrand(np.linspace(s0, s1, n), 0.5 * (s0 + s1))
        if np.isinf(values).any():
            return math.inf
        pieces.append(_simpson(values, (s1 - s0) / (n - 1)))
    return fsum(pieces)


def quad_entropy_1d(mixture: MixtureModel, lo: float, hi: float, points: int = 10001) -> float:
    """Quadrature value of -int p ln p over [lo, hi] for a 1-D mixture.

    [lo, hi] must cover essentially all mass (12 standard deviations past
    every Gaussian mean is ample).  The 0 ln 0 = 0 convention applies where
    the density vanishes.  points must be an integer of at least 101.
    """
    if mixture.dim != 1:
        raise NotOneDimensional(f"quadrature oracle needs dimension 1, got {mixture.dim}")
    bounds = as_floats((lo, hi), "integration range")
    if bounds.shape != (2,) or not bounds[0] < bounds[1]:
        raise MixtureError(f"integration range must be two reals lo < hi, got [{lo}, {hi}]")
    lo, hi = bounds.tolist()
    points = as_count(points, _MIN_POINTS, "the number of quadrature points")

    edges = [e for k in mixture.active_indices() for e in _box_edges(mixture.components[k])]

    def integrand(xs, mid):
        dens = np.zeros(xs.size)
        for k in mixture.active_indices():
            dens += mixture.weights[k] * _component_density(mixture.components[k], xs, mid)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dens > 0, -dens * np.log(dens), 0.0)

    return _integrate(integrand, lo, hi, edges, points)


def quad_cross_term_1d(p, q, kind: str, alpha: float | None = None, points: int = 20001) -> float:
    """Quadrature value of a pairwise integrand for two 1-D components.

    kind selects the integrand:
      - "product":      p(x) q(x)              (expected-likelihood cross term)
      - "sqrt_product": sqrt(p(x) q(x))        (Bhattacharyya coefficient)
      - "chernoff":     p(x)^alpha q(x)^(1-alpha), alpha in (0, 1)
      - "kl":           p(x) ln(p(x) / q(x)), zero where p vanishes

    The integration range is derived from the two components (box supports,
    or 12 standard deviations around Gaussian means) and is split at box
    edges so each Simpson panel sees a smooth integrand.
    """
    if p.dim != 1 or q.dim != 1:
        raise NotOneDimensional("cross-term quadrature needs 1-D components")
    points = as_count(points, _MIN_POINTS, "the number of quadrature points")
    if kind == "chernoff":
        alpha = as_order(alpha)
        if alpha == 0.0 or alpha == 1.0:
            raise AlphaOutOfRange(f"chernoff integrand needs a real alpha in (0, 1), got {alpha!r}")
    elif kind not in ("product", "sqrt_product", "kl"):
        raise MixtureError(f"unknown integrand kind {kind!r}")

    (p_lo, p_hi, _), (q_lo, q_hi, _) = _cover(p), _cover(q)
    # The KL integrand vanishes with p, so p's own cover suffices.
    lo, hi = (p_lo, p_hi) if kind == "kl" else (min(p_lo, q_lo), max(p_hi, q_hi))

    def integrand(xs, mid):
        dp, dq = _component_density(p, xs, mid), _component_density(q, xs, mid)
        if kind == "product":
            return dp * dq
        if kind == "sqrt_product":
            return np.sqrt(dp * dq)
        if kind == "chernoff":
            return dp**alpha * dq ** (1.0 - alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dp > 0, dp / dq, 1.0)
            return np.where(dp > 0, dp * np.log(ratio), 0.0)

    return _integrate(integrand, lo, hi, _box_edges(p) + _box_edges(q), points)

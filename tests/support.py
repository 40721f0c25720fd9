"""Shared builders for randomized test mixtures."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mixent
from mixent import GaussianComponent, MixtureModel, UniformBox
from mixent._numeric import forward_substitute


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this copy of mixent; text output."""
    path = [str(Path(mixent.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def peak_bytes(call) -> int:
    """The peak of memory traced by ``tracemalloc`` while call() runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nested(depth: int) -> str:
    """JSON text of 1.0 inside ``depth`` arrays: too deep for a recursive walk."""
    return "[" * depth + "1.0" + "]" * depth


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """A well-conditioned random symmetric positive-definite matrix."""
    basis = rng.standard_normal((dim, dim))
    return scale * (basis @ basis.T / dim + np.diag(rng.uniform(0.5, 1.5, dim)))


def cov_with_condition(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    """A random symmetric positive-definite matrix with condition number cond."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = (basis * np.logspace(0.0, -math.log10(cond), dim)) @ basis.T
    return 0.5 * (cov + cov.T)


def _mp_quad(mpmath, cov, delta):
    """delta^T cov^-1 delta, through an LU solve at the working precision."""
    return (delta.T * mpmath.lu_solve(cov, delta))[0]


def _mp_log_det(mpmath, cov):
    return mpmath.log(mpmath.det(cov))


def _mp_inputs(mpmath, a: GaussianComponent, b: GaussianComponent):
    """(cov_a, cov_b, mean_a - mean_b) as mpmath matrices, the floats taken as exact."""
    delta = mpmath.matrix(a.mean.tolist()) - mpmath.matrix(b.mean.tolist())
    return mpmath.matrix(a.cov.tolist()), mpmath.matrix(b.cov.tolist()), delta


def float_gaussian_elk_log_cross(a: GaussianComponent, b: GaussianComponent) -> float:
    """ln int a b dx in floats, from one Cholesky factor of cov_a + cov_b.

    The package's ``gaussian_elk_log_cross`` reads this value from its
    ``half_matrices`` kernel; this scalar closed form is the float reference
    that the kernel is checked against, bit for bit.  An overflowing squared
    norm is +inf, so means too far apart give -inf.
    """
    chol = np.linalg.cholesky(a.cov + b.cov)
    z = forward_substitute(chol, a.mean - b.mean)
    with np.errstate(over="ignore"):
        quad = float(np.vecdot(z, z))
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (quad + log_det + a.dim * math.log(2.0 * math.pi))


def _mp_gaussian_terms(mpmath, a: GaussianComponent, b: GaussianComponent):
    """(KL(a || b), Bhattacharyya distance, ln int a b dx) as mpf values at the
    working precision, each from the closed form of :func:`mp_gaussian_pair`."""
    cov_a, cov_b, delta = _mp_inputs(mpmath, a, b)
    log_det_a, log_det_b = _mp_log_det(mpmath, cov_a), _mp_log_det(mpmath, cov_b)
    dim = a.dim
    trace = sum(mpmath.lu_solve(cov_b, cov_a[:, k])[k] for k in range(dim))
    kl = (log_det_b - log_det_a + trace + _mp_quad(mpmath, cov_b, delta) - dim) / 2
    half = (cov_a + cov_b) / 2
    bd = (_mp_quad(mpmath, half, delta) / 8
          + (_mp_log_det(mpmath, half) - (log_det_a + log_det_b) / 2) / 2)
    total = cov_a + cov_b
    log_cross = -(_mp_quad(mpmath, total, delta) + _mp_log_det(mpmath, total)
                  + dim * mpmath.log(2 * mpmath.pi)) / 2
    return kl, bd, log_cross


def mp_gaussian_pair(a: GaussianComponent, b: GaussianComponent) -> tuple[float, float, float]:
    """(KL(a || b), Bhattacharyya distance, ln int a b dx) at 60 digits, rounded to floats.

    The components' float means and covariances are taken as exact, and each
    closed form is evaluated from them with mpmath alone, through LU solves
    and determinants at ``mp.dps = 60``.  It shares no code with the package:
    it is the reference for the closed forms themselves.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(60):
        return tuple(float(term) for term in _mp_gaussian_terms(mpmath, a, b))


def mp_gaussian_chernoff(a: GaussianComponent, b: GaussianComponent, alpha: float) -> float:
    """C_alpha(a || b) = -ln int a^alpha b^(1-alpha) dx at 60 digits, rounded to a float.

    C_alpha = alpha (1 - alpha) / 2 delta^T S^-1 delta
    + (ln|S| - (1 - alpha) ln|cov_a| - alpha ln|cov_b|) / 2, with
    S = (1 - alpha) cov_a + alpha cov_b and delta = mean_a - mean_b; alpha
    and the components are taken as exact, as in :func:`mp_gaussian_pair`.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(60):
        cov_a, cov_b, delta = _mp_inputs(mpmath, a, b)
        order = mpmath.mpf(alpha)
        mixed = (1 - order) * cov_a + order * cov_b
        log_dets = (_mp_log_det(mpmath, mixed) - (1 - order) * _mp_log_det(mpmath, cov_a)
                    - order * _mp_log_det(mpmath, cov_b))
        return float(order * (1 - order) * _mp_quad(mpmath, mixed, delta) / 2 + log_dets / 2)


def _mp_log_volume(mpmath, sides):
    """ln of the product of exact positive Fractions, at the working precision."""
    mpf = mpmath.mpf
    return mpmath.fsum(mpmath.log(mpf(s.numerator)) - mpmath.log(mpf(s.denominator)) for s in sides)


def _box_sides(box: UniformBox) -> list[Fraction]:
    """The sides of a box, each formed exactly from its float bounds."""
    return [Fraction(u) - Fraction(lo) for lo, u in zip(box.lower.tolist(), box.upper.tolist())]


def _mp_box_terms(mpmath, a: UniformBox, b: UniformBox, alpha: float):
    """(KL(a || b), C_alpha(a || b), ln int a b dx) as mpf values at the
    working precision, +inf and -inf where :func:`mp_box_pair` says."""
    lower_a, upper_a, lower_b, upper_b = (
        [Fraction(x) for x in bound.tolist()] for bound in (a.lower, a.upper, b.lower, b.upper))
    overlap = [min(ua, ub) - max(la, lb)
               for la, ua, lb, ub in zip(lower_a, upper_a, lower_b, upper_b)]
    contained = all(lb <= la and ua <= ub
                    for la, ua, lb, ub in zip(lower_a, upper_a, lower_b, upper_b))
    log_a, log_b = _mp_log_volume(mpmath, _box_sides(a)), _mp_log_volume(mpmath, _box_sides(b))
    kl = log_b - log_a if contained else mpmath.inf
    if min(overlap) <= 0:
        return kl, mpmath.inf, -mpmath.inf
    log_ab = _mp_log_volume(mpmath, overlap)
    order = mpmath.mpf(alpha)
    return kl, order * log_a + (1 - order) * log_b - log_ab, log_ab - log_a - log_b


def mp_box_pair(a: UniformBox, b: UniformBox, alpha: float = 0.5) -> tuple[float, float, float]:
    """(KL(a || b), C_alpha(a || b), ln int a b dx) at 60 digits, rounded to floats.

    Every float bound is a rational, so each side of a, of b and of their
    overlap box is formed exactly with ``fractions.Fraction``; an overlap
    side that is not positive (disjoint or touching boxes) makes the overlap
    volume exactly zero.  Only the logs of the sides are taken with mpmath,
    at ``mp.dps = 60``.  Then KL = ln V_b - ln V_a if b contains a and +inf
    otherwise, C_alpha = alpha ln V_a + (1 - alpha) ln V_b - ln V_ab, and
    ln int a b = ln V_ab - ln V_a - ln V_b, with ln 0 = -inf exactly; alpha
    is taken as exact.  The default order 1/2 gives the Bhattacharyya
    distance.  It shares no code with the package.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(60):
        return tuple(float(term) for term in _mp_box_terms(mpmath, a, b, alpha))


def _mp_entropy(mpmath, comp):
    """A component's differential entropy as an mpf: ln V for a box, and
    (ln det cov + d ln 2 pi + d) / 2 for a Gaussian."""
    if isinstance(comp, UniformBox):
        return _mp_log_volume(mpmath, _box_sides(comp))
    log_det = _mp_log_det(mpmath, mpmath.matrix(comp.cov.tolist()))
    return (log_det + comp.dim * (mpmath.log(2 * mpmath.pi) + 1)) / 2


def _identical(a, b) -> bool:
    if isinstance(a, UniformBox):
        return np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
    return np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


def mp_bracket(mixture: MixtureModel) -> dict:
    """h_cond, h_bd, h_kl, h_elk and h_joint of a mixture at 60 digits, as mpf values.

    The positive-weight components and their float weights are taken as
    exact.  Every pair's KL, Bhattacharyya and ELK terms come from the
    formulas of :func:`mp_gaussian_pair` and :func:`mp_box_pair`, and no term
    is rounded to a float.  Identical components are exactly zero apart, as
    the package defines D(p || p) = 0.  Then, with mpmath ``exp``, ``log`` and
    ``fsum``: H(X|C) = sum_i c_i H(p_i), H(C) = -sum_i c_i ln c_i,
    h_D = H(X|C) - sum_i c_i min(0, ln sum_j c_j exp(-D_ij)) for D = BD and
    KL, h_elk = -sum_i c_i ln sum_j c_j int p_i p_j, and h_joint =
    H(X|C) + H(C).  It shares no code with the package.
    """
    mpmath = pytest.importorskip("mpmath")
    active = np.flatnonzero(mixture.weights > 0).tolist()
    comps = [mixture.components[k] for k in active]
    n = len(comps)
    with mpmath.mp.workdps(60):
        weights = [mpmath.mpf(float(mixture.weights[k])) for k in active]
        kl, bd, log_cross = ([[mpmath.mpf(0)] * n for _ in range(n)] for _ in range(3))
        for i in range(n):
            for j in range(n):
                a, b = comps[i], comps[j]
                if isinstance(a, UniformBox):
                    terms = _mp_box_terms(mpmath, a, b, 0.5)
                else:
                    terms = _mp_gaussian_terms(mpmath, a, b)
                if not _identical(a, b):
                    kl[i][j], bd[i][j] = terms[0], terms[1]
                log_cross[i][j] = terms[2]

        def log_mix(exponents):  # ln sum_j c_j exp(exponents[j])
            return mpmath.log(mpmath.fsum(c * mpmath.exp(e) for c, e in zip(weights, exponents)))

        def mixing_term(dist):
            return mpmath.fsum(weights[i] * min(0, log_mix([-d for d in dist[i]]))
                               for i in range(n))

        h_cond = mpmath.fsum(c * _mp_entropy(mpmath, comp) for c, comp in zip(weights, comps))
        return {
            "h_cond": h_cond,
            "h_bd": h_cond - mixing_term(bd),
            "h_kl": h_cond - mixing_term(kl),
            "h_elk": -mpmath.fsum(weights[i] * log_mix(log_cross[i]) for i in range(n)),
            "h_joint": h_cond - mpmath.fsum(c * mpmath.log(c) for c in weights),
        }


def random_gaussian_mixture(
    rng: np.random.Generator,
    n_components: int,
    dim: int,
    spread: float = 2.0,
    shared_cov: np.ndarray | None = None,
) -> MixtureModel:
    weights = rng.uniform(0.2, 1.0, n_components)
    means = spread * rng.standard_normal((n_components, dim))
    components = []
    for mean in means:
        cov = random_spd(rng, dim) if shared_cov is None else shared_cov
        components.append(GaussianComponent(mean, cov))
    return MixtureModel(weights, components)


def random_uniform_mixture(
    rng: np.random.Generator,
    n_components: int,
    dim: int,
    spread: float = 2.0,
) -> MixtureModel:
    weights = rng.uniform(0.2, 1.0, n_components)
    centers = spread * rng.standard_normal((n_components, dim))
    half_widths = rng.uniform(0.3, 1.6, (n_components, dim))
    boxes = [UniformBox(c - h, c + h) for c, h in zip(centers, half_widths)]
    return MixtureModel(weights, boxes)


def random_mixture(
    rng: np.random.Generator,
    n_components: int,
    dim: int,
    family: str,
    spread: float = 2.0,
) -> MixtureModel:
    if family == "gaussian":
        return random_gaussian_mixture(rng, n_components, dim, spread=spread)
    return random_uniform_mixture(rng, n_components, dim, spread=spread)

"""Pairwise-distance entropy bounds and baseline estimators for mixtures.

The central object is the estimator family

    H_D = conditional_entropy - sum_i c_i ln sum_j c_j exp(-D(p_i || p_j))

indexed by a pairwise premetric D (non-negative, zero between identical
arguments).  Every member is bracketed by the exact floor and ceiling from
the core model; the Kullback-Leibler choice is an upper bound on the true
mixture entropy and any Chernoff-order choice is a lower bound, with order
1/2 (the Bhattacharyya distance) optimal for shared-covariance mixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import as_count, as_labels, as_order, fsum, log_sum_exp_rows
from .errors import AlphaOutOfRange, BoundViolated, MixtureError, UnsupportedDistance
# Re-exported, not called here: ``mixent.estimators.gaussian_kl`` was a public
# name before the component methods, and bench/tests/test_bench.py reads it.
from .gaussian import gaussian_kl  # noqa: F401
from .mixture import MixtureModel
from .montecarlo import McResult, mc_entropy

__all__ = ["DistanceKind", "KL", "BHATTACHARYYA", "chernoff_distance", "pairwise_distance_matrix",
           "pairwise_estimate", "lower_bound_chernoff", "lower_bound_bd", "upper_bound_kl",
           "kde_estimate", "elk_estimate", "clustered_gap_bound", "EstimateReport", "estimate_all"]


@dataclass(frozen=True)
class DistanceKind:
    """Selector for the pairwise distance driving the estimator family: ``kl``
    (no order), or ``chernoff`` with a real order alpha in [0, 1]; anything
    else is refused."""

    name: str
    alpha: float | None = None

    def __post_init__(self):
        if self.name not in ("kl", "chernoff"):
            raise UnsupportedDistance(f"unknown distance kind {self.name!r}")
        if self.name == "kl" and self.alpha is not None:
            raise AlphaOutOfRange(f"kl takes no order, got {self.alpha}")
        if self.name == "chernoff":
            object.__setattr__(self, "alpha", as_order(self.alpha))


KL = DistanceKind("kl")
BHATTACHARYYA = DistanceKind("chernoff", 0.5)


def chernoff_distance(alpha: float) -> DistanceKind:
    """Chernoff divergence of the given order; valid distances need alpha in [0, 1]."""
    return DistanceKind("chernoff", alpha)


def pairwise_distance_matrix(mixture: MixtureModel, kind: DistanceKind) -> np.ndarray:
    """N x N matrix of D(p_i || p_j) with the diagonal pinned to exactly zero.

    Entries may be +inf (disjoint or non-nested box supports); negatives
    cannot occur because every closed form clamps rounding residue at zero.
    """
    comps = mixture.components
    if kind.name == "kl":
        return type(comps[0]).kl_matrix(comps)
    return type(comps[0]).chernoff_matrix(comps, kind.alpha)


def _active(mixture: MixtureModel, matrix: np.ndarray):
    """(weights, matrix) restricted to the positive-weight components."""
    active = mixture.active_indices()
    return mixture.weights[active], matrix[np.ix_(active, active)]


def _mixing_term(mixture: MixtureModel, dmat: np.ndarray) -> float:
    """sum_i c_i min(0, ln sum_j c_j exp(-D_ij)) for a prebuilt distance
    matrix: the estimator is the conditional entropy minus this term.

    Over positive-weight components, each inner log-sum-exp of ln c_j - D_ij
    is capped at zero (the weights sum to one), and a row of zero distances
    gives exactly zero, which its log-sum-exp can miss by an ulp.  This keeps
    the floor-and-ceiling bracket exact in floating point as well, and makes
    an all-zero matrix (Chernoff orders 0 and 1) give exactly the floor.
    """
    weights, dists = _active(mixture, dmat)
    inner = log_sum_exp_rows(np.log(weights) - dists)
    inner[~dists.any(axis=1)] = 0.0
    return fsum(weights * np.minimum(inner, 0.0))


def pairwise_estimate(mixture: MixtureModel, kind: DistanceKind) -> float:
    """Evaluate the pairwise-distance entropy estimator for one distance choice."""
    dmat = pairwise_distance_matrix(mixture, kind)
    return mixture.conditional_entropy() - _mixing_term(mixture, dmat)


def lower_bound_chernoff(mixture: MixtureModel, alpha: float) -> float:
    """Certified lower bound on mixture entropy from the order-alpha Chernoff distance."""
    return pairwise_estimate(mixture, chernoff_distance(alpha))


def lower_bound_bd(mixture: MixtureModel) -> float:
    """Bhattacharyya lower bound: the order-1/2 member of the Chernoff family."""
    return pairwise_estimate(mixture, BHATTACHARYYA)


def upper_bound_kl(mixture: MixtureModel) -> float:
    """Certified upper bound on mixture entropy from the KL divergence."""
    return pairwise_estimate(mixture, KL)


def kde_estimate(mixture: MixtureModel) -> float:
    """Kernel-density baseline: minus the average mixture log density at the
    component centers (Gaussian means, box centers)."""
    values = mixture.log_density(np.array([c.center() for c in mixture.components]))
    weights = mixture.weights
    active = mixture.active_indices()
    return -fsum(weights[active] * values[active])


def _elk_from_matrix(mixture: MixtureModel, log_cross: np.ndarray) -> float:
    """The ELK baseline for a prebuilt matrix of ln int p_i p_j."""
    weights, log_cross = _active(mixture, log_cross)
    return -fsum(weights * log_sum_exp_rows(np.log(weights) + log_cross))


def elk_estimate(mixture: MixtureModel) -> float:
    """Expected-likelihood-kernel baseline, a further lower bound on the entropy:
    -sum_i c_i ln sum_j c_j int p_i p_j."""
    comps = mixture.components
    return _elk_from_matrix(mixture, type(comps[0]).half_matrices(comps)[1])


def clustered_gap_bound(mixture: MixtureModel, labels, alpha: float) -> float:
    """Bound the KL-vs-Chernoff gap for a mixture with grouped components.

    ``labels[i]`` is the integer group label of component i: any integers,
    negative ones too, but never a bool, a float or a string.  With kappa the
    largest within-group KL divergence and beta the smallest between-group
    Bhattacharyya distance, the gap between the KL upper bound and the
    order-alpha Chernoff lower bound is at most

        kappa + (number of non-empty groups - 1) * exp(-(1 - |1 - 2 alpha|) * beta)

    which collapses to kappa as the groups separate.  A measured gap above
    the returned value raises :class:`BoundViolated`; labels of another kind
    or count than one per component raise :class:`MixtureError`.
    """
    alpha = as_order(alpha)
    if alpha == 0.0:
        raise AlphaOutOfRange(f"gap bound needs alpha in (0, 1], got {alpha}")
    active = mixture.active_indices()
    labels = as_labels(labels, mixture.n_components)[active]
    kl = pairwise_distance_matrix(mixture, KL)
    bd = pairwise_distance_matrix(mixture, BHATTACHARYYA)
    same = labels[:, None] == labels[None, :]  # kl's zero diagonal cannot raise kappa
    sub = np.ix_(active, active)
    kappa = float(kl[sub][same].max(initial=0.0))
    beta = float(bd[sub][~same].min(initial=math.inf))
    rate = 1.0 - abs(1.0 - 2.0 * alpha)
    decay = 1.0 if rate == 0.0 else math.exp(-rate * beta)
    bound = kappa + (len(np.unique(labels)) - 1) * decay  # groups with an active member
    chernoff = bd if alpha == 0.5 else pairwise_distance_matrix(mixture, chernoff_distance(alpha))
    # The KL estimate minus the Chernoff one; their conditional entropies cancel.
    gap = _mixing_term(mixture, chernoff) - _mixing_term(mixture, kl)
    if gap > bound + 1e-9:
        raise BoundViolated(f"measured gap {gap} exceeds bound {bound}")
    return bound


@dataclass(frozen=True)
class EstimateReport:
    """All analytic estimates for one mixture, plus an optional Monte Carlo row.

    The four bracket entries satisfy h_cond <= h_bd <= h_kl <= h_joint, but
    for nearly identical components, whose distances are rounding noise near
    zero: there h_bd can exceed h_kl by about an ulp.
    """

    h_cond: float
    h_joint: float
    h_bd: float
    h_kl: float
    h_kde: float
    h_elk: float
    mc: McResult | None = None


def estimate_all(
    mixture: MixtureModel, mc_samples: int | None = None, seed: int = 0
) -> EstimateReport:
    """Run every estimator on one mixture.

    Monte Carlo is included only when mc_samples is given (it must then be at
    least 2); seed feeds its substream derivation and nothing else, but is
    checked as in :func:`mc_entropy` either way.  The Bhattacharyya and ELK
    matrices come from one order-1/2 pass of the family's ``half_matrices``,
    and the conditional entropy is computed once for h_cond, h_joint, h_bd
    and h_kl.  Each field is bitwise its standalone function's value.
    """
    seed = as_count(seed, 0, "seed", MixtureError)
    mc = mc_entropy(mixture, mc_samples, seed) if mc_samples is not None else None
    comps = mixture.components
    bd, log_cross = type(comps[0]).half_matrices(comps)
    h_cond = mixture.conditional_entropy()
    return EstimateReport(
        h_cond=h_cond,
        h_joint=h_cond + mixture.weight_entropy(),
        h_bd=h_cond - _mixing_term(mixture, bd),
        h_kl=h_cond - _mixing_term(mixture, pairwise_distance_matrix(mixture, KL)),
        h_kde=kde_estimate(mixture),
        h_elk=_elk_from_matrix(mixture, log_cross),
        mc=mc,
    )

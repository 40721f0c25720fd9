"""Pairwise-distance entropy bounds plus the kernel baselines."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixent.estimators
import mixent.gaussian
import mixent.uniform
from mixent import (
    BHATTACHARYYA,
    KL,
    AlphaOutOfRange,
    BoundViolated,
    DistanceKind,
    GaussianComponent,
    Grouping,
    InsufficientSamples,
    MixtureModel,
    UniformBox,
    UnsupportedDistance,
    chernoff_distance,
    clustered_gap_bound,
    elk_estimate,
    estimate_all,
    gaussian_chernoff,
    gen_gaussian_wishart,
    kde_estimate,
    lower_bound_bd,
    lower_bound_chernoff,
    mc_entropy,
    pairwise_distance_matrix,
    pairwise_estimate,
    quad_cross_term_1d,
    uniform_chernoff,
    upper_bound_kl,
)
from support import (
    random_gaussian_mixture,
    random_mixture,
    random_spd,
    random_uniform_mixture,
)

TWO_FAR_APART_UPPER = 2.112085713764618  # component entropy plus ln 2
ELK_SINGLE_STANDARD_NORMAL = 1.2655121234846454  # half of ln(4 pi)
FAR_SINGLETON_GAP_BOUND = 1.3838965267367376e-87  # exp(-200)
WISHART_REPORT_REPR = (
    "EstimateReport(h_cond=4.91960236170858, h_joint=9.52477254769667, "
    "h_bd=7.2001748411150635, h_kl=9.347213413959182, h_kde=6.3910655750057686, "
    "h_elk=7.329284752613618, mc=McResult(estimate=7.889452168525433, "
    "stderr=0.03319343581672895, samples=2000))"
)

ALL_KINDS = (KL, BHATTACHARYYA, chernoff_distance(0.25))
FAMILY_CHERNOFF = {"gaussian": gaussian_chernoff, "uniform": uniform_chernoff}


def two_far_apart() -> MixtureModel:
    comps = [GaussianComponent([-30.0], [[1.0]]), GaussianComponent([30.0], [[1.0]])]
    return MixtureModel([0.5, 0.5], comps)


# ------------------------------------------------------------- distance kinds


def test_chernoff_distance_factory_validates_order():
    assert chernoff_distance(0.5) == BHATTACHARYYA
    assert chernoff_distance(0.25) == DistanceKind("chernoff", 0.25)
    for alpha in (-0.1, 1.1):
        with pytest.raises(AlphaOutOfRange):
            chernoff_distance(alpha)


def test_distance_kind_refuses_bad_orders_at_construction():
    for alpha in (None, -0.1, 1.5, math.nan):
        with pytest.raises(AlphaOutOfRange):
            DistanceKind("chernoff", alpha)


def test_distance_kind_refuses_an_order_on_kl():
    assert DistanceKind("kl") == KL
    for alpha in (0.0, 0.3, 0.5):
        with pytest.raises(AlphaOutOfRange, match="kl takes no order"):
            DistanceKind("kl", alpha)


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_chernoff_contract_is_the_same_for_both_families(family):
    # Overlapping 2-D components, so the interior orders give finite values.
    rng = np.random.default_rng(23)
    mix = random_mixture(rng, 2, 2, family, spread=0.3)
    a, b = mix.components
    chernoff = FAMILY_CHERNOFF[family]
    for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        dmat = pairwise_distance_matrix(mix, chernoff_distance(alpha))
        assert math.isclose(dmat[0, 1], chernoff(a, b, alpha), rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(dmat[1, 0], chernoff(b, a, alpha), rel_tol=1e-12, abs_tol=1e-15)
    for alpha in (0.1, 0.5, 0.9):
        assert 0.0 < chernoff(a, b, alpha) < math.inf
    for alpha in (0.0, 1.0):
        assert chernoff(a, b, alpha) == 0.0
        assert chernoff(b, a, alpha) == 0.0
    for alpha in (-0.1, 1.1):
        with pytest.raises(AlphaOutOfRange):
            lower_bound_chernoff(mix, alpha)
        with pytest.raises(AlphaOutOfRange):
            chernoff(a, b, alpha)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.1, 0.3, 0.5, 0.8]))
@settings(max_examples=40, deadline=None)
def test_box_chernoff_matches_quadrature(seed, alpha):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 1.0, 2)
    a, b = (UniformBox([x], [x + w]) for x, w in zip(lo, rng.uniform(0.2, 2.0, 2)))
    if min(a.upper[0], b.upper[0]) <= max(a.lower[0], b.lower[0]):
        assert uniform_chernoff(a, b, alpha) == math.inf
    else:
        quad = -math.log(quad_cross_term_1d(a, b, "chernoff", alpha=alpha))
        assert abs(uniform_chernoff(a, b, alpha) - quad) <= 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8])
def test_disjoint_or_touching_boxes_are_infinitely_far(alpha):
    unit = UniformBox([0.0, 0.0], [1.0, 1.0])
    for other in (UniformBox([1.0, 0.0], [2.0, 1.0]), UniformBox([0.5, 3.0], [1.5, 4.0])):
        assert uniform_chernoff(unit, other, alpha) == math.inf
        assert uniform_chernoff(other, unit, alpha) == math.inf


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: f"{k.name}-{k.alpha}")
def test_distance_matrix_diagonal_is_exactly_zero(family, kind):
    rng = np.random.default_rng(42)
    mix = random_mixture(rng, 5, 2, family)
    dmat = pairwise_distance_matrix(mix, kind)
    assert dmat.shape == (5, 5)
    assert (np.diag(dmat) == 0.0).all()
    assert (dmat >= 0.0).all()


def test_kl_matrix_is_asymmetric_where_bd_is_symmetric():
    rng = np.random.default_rng(2)
    mix = random_gaussian_mixture(rng, 3, 2)
    kl = pairwise_distance_matrix(mix, KL)
    bd = pairwise_distance_matrix(mix, BHATTACHARYYA)
    assert not np.allclose(kl, kl.T, atol=1e-9)
    assert np.allclose(bd, bd.T, atol=1e-10)


def test_uniform_mixture_takes_every_chernoff_order():
    rng = np.random.default_rng(3)
    mix = random_uniform_mixture(rng, 3, 2, spread=0.5)
    cond = mix.conditional_entropy()
    for alpha in np.linspace(0.0, 1.0, 11):
        dmat = pairwise_distance_matrix(mix, chernoff_distance(alpha))
        assert (dmat >= 0.0).all()
        assert cond <= lower_bound_chernoff(mix, alpha) <= mix.joint_entropy_upper()
        if alpha in (0.0, 1.0):
            assert not dmat.any()
        else:
            assert np.isfinite(dmat).all() and dmat.sum() > 0.0


def test_single_box_mixture_accepts_any_chernoff_order():
    # One component has no pairs, so every order gives its entropy.
    mix = MixtureModel([1.0], [UniformBox([0.0, 0.0], [1.0, 2.0])])
    assert lower_bound_chernoff(mix, 0.25) == mix.conditional_entropy()


def test_unknown_distance_kind_rejected():
    with pytest.raises(UnsupportedDistance):
        DistanceKind("hellinger")


# ----------------------------------------------------------- bracket estimates


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["gaussian", "uniform"]),
)
@settings(max_examples=40, deadline=None)
def test_every_estimate_sits_inside_the_exact_bracket(seed, family):
    rng = np.random.default_rng(seed)
    mix = random_mixture(rng, rng.integers(2, 7), rng.integers(1, 4), family)
    lo = mix.conditional_entropy()
    hi = mix.joint_entropy_upper()
    for kind in ALL_KINDS:
        est = pairwise_estimate(mix, kind)
        assert lo <= est <= hi  # exact in floating point, no slack


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["gaussian", "uniform"]),
)
@settings(max_examples=40, deadline=None)
def test_bound_ordering_lower_below_upper(seed, family):
    rng = np.random.default_rng(seed)
    mix = random_mixture(rng, rng.integers(2, 7), rng.integers(1, 4), family)
    assert lower_bound_bd(mix) <= upper_bound_kl(mix) + 1e-12
    assert elk_estimate(mix) <= upper_bound_kl(mix) + 1e-12


def test_trivial_distance_endpoints():
    # Chernoff order 0 gives an all-zero matrix, hence the floor (see
    # test_boundary_chernoff_orders_collapse_to_the_floor); pairwise disjoint
    # boxes give all-infinite KL and BD matrices, hence exactly the ceiling.
    rng = np.random.default_rng(5)
    mix = random_gaussian_mixture(rng, 6, 3)
    assert not pairwise_distance_matrix(mix, chernoff_distance(0.0)).any()
    boxes = [UniformBox([3.0 * k], [3.0 * k + 1.0 + 0.5 * k]) for k in range(4)]
    disjoint = MixtureModel([0.1, 0.2, 0.3, 0.4], boxes)
    for kind in (KL, BHATTACHARYYA):
        offdiag = pairwise_distance_matrix(disjoint, kind)[~np.eye(4, dtype=bool)]
        assert (offdiag == math.inf).all()
        assert pairwise_estimate(disjoint, kind) == disjoint.joint_entropy_upper()


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_boundary_chernoff_orders_collapse_to_the_floor(family):
    # Exactly the floor: the log-sum-exp of the log weights alone used to
    # round an ulp below zero on some of these seeds.
    for seed in range(200):
        mix = random_mixture(np.random.default_rng(seed), 4, 2, family)
        cond = mix.conditional_entropy()
        for alpha in (0.0, 1.0):
            assert lower_bound_chernoff(mix, alpha) == cond, (seed, alpha)


def test_lower_bound_rejects_orders_outside_unit_interval():
    rng = np.random.default_rng(7)
    mix = random_gaussian_mixture(rng, 3, 2)
    for alpha in (-0.1, 1.1):
        with pytest.raises(AlphaOutOfRange):
            lower_bound_chernoff(mix, alpha)


def test_identical_components_recover_component_entropy():
    comp = GaussianComponent([1.0, -1.0], np.diag([2.0, 0.5]))
    twin = GaussianComponent([1.0, -1.0], np.diag([2.0, 0.5]))
    mix = MixtureModel([0.4, 0.6], [comp, twin])
    h = comp.entropy()
    for kind in (KL, BHATTACHARYYA, chernoff_distance(0.0)):
        assert math.isclose(pairwise_estimate(mix, kind), h, abs_tol=1e-12)


@pytest.mark.parametrize(
    "copies, alpha",
    [
        ([GaussianComponent([0.0], [[0.3]]) for _ in range(2)], 0.1),
        ([UniformBox([0.0], [0.3]) for _ in range(2)], 0.3),
    ],
    ids=["gaussian", "uniform"],
)
def test_exact_copies_close_the_bracket_at_every_chernoff_order(copies, alpha):
    # The copies are exactly zero apart at every order, so the certified
    # lower bound equals the upper bound instead of passing it by an ulp.
    mix = MixtureModel([1.0, 1.0], copies)
    assert lower_bound_chernoff(mix, alpha) == upper_bound_kl(mix) == mix.conditional_entropy()


@pytest.mark.xfail(strict=True, reason="near copies: BD rounds above a KL clamped at 0")
def test_near_copies_keep_the_bd_bound_below_the_kl_bound():
    # BD_01 is 1.7e-16 while both KL entries round to 0, so h_bd exceeds h_kl
    # by an ulp.  A cancellation-free KL kernel would make this pass.
    mix = MixtureModel([1.0, 1.0], [
        GaussianComponent([-2.8833762481742564], [[0.28531797824768834]]),
        GaussianComponent([-2.883376248172732], [[0.28531797824743693]]),
    ])
    report = estimate_all(mix)
    assert report.h_bd <= report.h_kl


def test_far_separated_pair_hits_the_weight_entropy_ceiling():
    mix = two_far_apart()
    assert math.isclose(upper_bound_kl(mix), TWO_FAR_APART_UPPER, abs_tol=1e-12)
    assert math.isclose(lower_bound_bd(mix), TWO_FAR_APART_UPPER, abs_tol=1e-12)
    assert upper_bound_kl(mix) == mix.joint_entropy_upper()


def test_far_separated_monte_carlo_agrees_with_the_collapsed_bracket():
    mix = two_far_apart()
    mc = mc_entropy(mix, 100_000, seed=11)
    assert abs(mc.estimate - TWO_FAR_APART_UPPER) <= 3.0 * mc.stderr


def test_bhattacharyya_order_is_optimal_for_shared_covariance():
    rng = np.random.default_rng(8)
    cov = random_spd(rng, 3)
    mix = random_gaussian_mixture(rng, 5, 3, shared_cov=cov)
    best = lower_bound_bd(mix)
    for alpha in np.linspace(0.05, 0.95, 17):
        assert lower_bound_chernoff(mix, float(alpha)) <= best + 1e-12


def test_separation_widens_the_lower_bound():
    rng = np.random.default_rng(9)
    cov = np.eye(2)
    means = rng.standard_normal((4, 2))
    tight = MixtureModel(
        np.full(4, 0.25), [GaussianComponent(m, cov) for m in means]
    )
    spread = MixtureModel(
        np.full(4, 0.25), [GaussianComponent(5.0 * m, cov) for m in means]
    )
    assert lower_bound_bd(spread) > lower_bound_bd(tight)


# ------------------------------------------------------------ kernel baselines


def test_kde_single_standard_normal():
    mix = MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])
    assert math.isclose(kde_estimate(mix), 0.9189385332046727, abs_tol=1e-12)


def test_kde_single_unit_box_is_zero():
    mix = MixtureModel([1.0], [UniformBox([0.0], [1.0])])
    assert abs(kde_estimate(mix)) <= 1e-15


def test_kde_tracks_the_kl_bound_for_shared_covariance():
    rng = np.random.default_rng(10)
    for dim in (1, 3, 7):
        cov = random_spd(rng, dim)
        mix = random_gaussian_mixture(rng, 6, dim, shared_cov=cov)
        expected = upper_bound_kl(mix) - 0.5 * dim
        assert math.isclose(kde_estimate(mix), expected, abs_tol=1e-9)


def test_elk_single_standard_normal():
    mix = MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])
    assert math.isclose(elk_estimate(mix), ELK_SINGLE_STANDARD_NORMAL, abs_tol=1e-12)


def test_elk_far_separated_pair_adds_the_weight_entropy():
    mix = two_far_apart()
    expected = ELK_SINGLE_STANDARD_NORMAL + math.log(2.0)
    assert math.isclose(elk_estimate(mix), expected, abs_tol=1e-9)


@pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
def test_every_chernoff_order_bounds_box_mixtures_from_below(seed):
    # The paper's theorem for any family, with the Monte Carlo oracle as truth.
    rng = np.random.default_rng(seed)
    mix = random_uniform_mixture(rng, int(rng.integers(3, 7)), int(rng.integers(1, 4)))
    mc = mc_entropy(mix, 20_000, seed=99)
    upper = upper_bound_kl(mix)
    for alpha in (0.1, 0.25, 0.75, 0.9):
        lower = lower_bound_chernoff(mix, alpha)
        assert mix.conditional_entropy() <= lower <= mc.estimate + 3.0 * mc.stderr
        assert lower <= upper


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_estimates_stay_within_the_bias_bound_of_monte_carlo(family):
    rng = np.random.default_rng(13)
    mix = random_mixture(rng, 6, 2, family)
    mc = mc_entropy(mix, 20_000, seed=99)
    budget = mix.weight_entropy() + 3.0 * mc.stderr
    assert abs(upper_bound_kl(mix) - mc.estimate) <= budget
    assert abs(lower_bound_bd(mix) - mc.estimate) <= budget


# --------------------------------------------------------- clustered gap bound


def test_gap_bound_for_far_singleton_groups():
    comps = [GaussianComponent([0.0], [[1.0]]), GaussianComponent([40.0], [[1.0]])]
    mix = MixtureModel([0.5, 0.5], comps)
    grouping = Grouping(mix, [0, 1])
    bound = clustered_gap_bound(mix, grouping, 0.5)
    assert math.isclose(bound, FAR_SINGLETON_GAP_BOUND, rel_tol=1e-12)


def test_gap_bound_single_group_reduces_to_worst_internal_kl():
    rng = np.random.default_rng(14)
    mix = random_gaussian_mixture(rng, 4, 2)
    grouping = Grouping(mix, [0, 0, 0, 0])
    kl = pairwise_distance_matrix(mix, KL)
    np.fill_diagonal(kl, -np.inf)
    assert math.isclose(clustered_gap_bound(mix, grouping, 0.5), kl.max(), rel_tol=1e-12)


def test_gap_bound_alpha_one_keeps_one_unit_per_extra_group():
    comps = [GaussianComponent([0.0], [[1.0]]), GaussianComponent([40.0], [[1.0]])]
    mix = MixtureModel([0.5, 0.5], comps)
    grouping = Grouping(mix, [0, 1])
    # Order one has zero decay rate, so each extra group costs a full unit.
    assert math.isclose(clustered_gap_bound(mix, grouping, 1.0), 1.0, rel_tol=1e-12)


def test_gap_bound_disjoint_uniform_groups_drop_the_cross_term():
    # Duplicated boxes give zero within-group divergence, and disjoint
    # supports give an infinite between-group distance, so the bound is zero.
    boxes = [
        UniformBox([0.0], [1.0]),
        UniformBox([0.0], [1.0]),
        UniformBox([10.0], [11.0]),
    ]
    mix = MixtureModel([0.25, 0.25, 0.5], boxes)
    grouping = Grouping(mix, [0, 0, 1])
    assert clustered_gap_bound(mix, grouping, 0.5) == 0.0


def test_gap_bound_alpha_range():
    rng = np.random.default_rng(15)
    mix = random_gaussian_mixture(rng, 3, 2)
    grouping = Grouping(mix, [0, 1, 2])
    for alpha in (0.0, -0.5, 1.0001):
        with pytest.raises(AlphaOutOfRange):
            clustered_gap_bound(mix, grouping, alpha)


@pytest.fixture
def matrix_builds(monkeypatch):
    """The distance kinds of every pairwise_distance_matrix call, in order."""
    kinds = []
    original = mixent.estimators.pairwise_distance_matrix

    def counted(mixture, kind):
        kinds.append(kind)
        return original(mixture, kind)

    monkeypatch.setattr(mixent.estimators, "pairwise_distance_matrix", counted)
    return kinds


@pytest.mark.parametrize("alpha, builds", [(0.5, 2), (0.3, 3)])
def test_gap_bound_builds_each_distance_matrix_once(matrix_builds, alpha, builds):
    rng = np.random.default_rng(19)
    mix = random_gaussian_mixture(rng, 5, 2)
    clustered_gap_bound(mix, Grouping(mix, [0, 0, 1, 1, 2]), alpha)
    assert len(matrix_builds) == builds


def test_gap_above_the_bound_raises(monkeypatch):
    rng = np.random.default_rng(21)
    mix = random_gaussian_mixture(rng, 3, 2)
    # A KL estimate far above the Chernoff one stands in for a broken closed form.
    estimates = iter([1e9, 0.0])
    monkeypatch.setattr(mixent.estimators, "_estimate_from_matrix", lambda m, d: next(estimates))
    with pytest.raises(BoundViolated):
        clustered_gap_bound(mix, Grouping(mix, [0, 1, 2]), 0.5)


def test_gap_bound_holds_on_random_grouped_mixtures():
    rng = np.random.default_rng(16)
    for _ in range(10):
        mix = random_gaussian_mixture(rng, 6, 2)
        grouping = Grouping(mix, rng.integers(0, 3, 6))
        bound = clustered_gap_bound(mix, grouping, 0.5)  # asserts gap internally
        assert bound >= 0.0


# ----------------------------------------------------------------- full report


def test_estimate_all_report_fields_and_ordering():
    rng = np.random.default_rng(17)
    mix = random_gaussian_mixture(rng, 5, 3)
    report = estimate_all(mix)
    assert report.mc is None
    assert report.h_cond <= report.h_bd <= report.h_kl <= report.h_joint
    assert report.h_cond == mix.conditional_entropy()
    assert "h_kde" in repr(report)


# Every bracket field reduces its rows with one math.fsum each, so reordering
# the components must leave its bits alone.  h_kde is left out: the mixture
# log-density sums its components with NumPy, which can move it by an ulp.
PERMUTATION_FIELDS = {
    "gaussian": ("h_bd", "h_kl", "h_elk", "h_cond", "h_joint"),
    "uniform": ("h_bd", "h_kl", "h_elk", "h_cond", "h_joint"),
}


@pytest.mark.parametrize("family", sorted(PERMUTATION_FIELDS))
@pytest.mark.parametrize("seed", range(8))
def test_estimate_all_bracket_fields_do_not_depend_on_component_order(family, seed):
    rng = np.random.default_rng([seed, 31])
    n = int(rng.integers(2, 25))
    comps = random_mixture(rng, n, int(rng.integers(1, 5)), family).components
    # Both mixtures normalise the same raw weights: normalising normalised
    # weights again can move them by an ulp.
    raw = rng.uniform(0.05, 1.0, n) * (rng.uniform(size=n) < 0.7)
    raw[rng.integers(n)] = 1.0
    perm = rng.permutation(n)
    report = estimate_all(MixtureModel(raw, comps))
    permuted = estimate_all(MixtureModel(raw[perm], [comps[k] for k in perm]))
    for field in PERMUTATION_FIELDS[family]:
        assert getattr(permuted, field) == getattr(report, field), field


def test_gaussian_bd_matrix_does_not_depend_on_component_order():
    # gaussian_half_matrices forms each entry for i <= j only, so the self
    # terms ln|S_ii| and ln|S_jj| must enter in an order-free way.
    comps = random_gaussian_mixture(np.random.default_rng(3), 40, 3).components
    reversed_bd = pairwise_distance_matrix(MixtureModel(np.ones(40), comps[::-1]), BHATTACHARYYA)
    bd = pairwise_distance_matrix(MixtureModel(np.ones(40), comps), BHATTACHARYYA)
    assert np.array_equal(reversed_bd[::-1, ::-1], bd)


# The function behind each family's order-1/2 pass: the Gaussian pair
# factorization, and the box log-overlap matrix.
HALF_PASS = {
    "gaussian": (mixent.gaussian, "gaussian_half_matrices", random_gaussian_mixture),
    "uniform": (mixent.uniform, "_log_overlaps", random_uniform_mixture),
}


@pytest.mark.parametrize("family", sorted(HALF_PASS))
@pytest.mark.parametrize(
    "estimate, kinds",
    [(estimate_all, [KL]), (lower_bound_bd, [BHATTACHARYYA]), (elk_estimate, [])],
    ids=["estimate_all", "lower_bound_bd", "elk_estimate"],
)
def test_estimates_run_one_order_half_pass(monkeypatch, matrix_builds, estimate, kinds, family):
    module, name, build = HALF_PASS[family]
    sizes = []
    original = getattr(module, name)

    def counted(comps):
        sizes.append(len(comps))
        return original(comps)

    monkeypatch.setattr(module, name, counted)
    estimate(build(np.random.default_rng(20), 4, 2))
    assert matrix_builds == kinds
    assert sizes == [4]


def test_estimate_all_with_monte_carlo():
    rng = np.random.default_rng(18)
    mix = random_uniform_mixture(rng, 4, 2)
    report = estimate_all(mix, mc_samples=5000, seed=3)
    assert report.mc is not None and report.mc.samples == 5000
    assert report.h_bd - 3.0 * report.mc.stderr <= report.mc.estimate
    assert report.mc.estimate <= report.h_kl + 3.0 * report.mc.stderr


def test_estimate_all_refuses_too_few_monte_carlo_samples():
    mix = MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])
    for samples in (0, 1):
        with pytest.raises(InsufficientSamples):
            estimate_all(mix, mc_samples=samples)


def test_report_repr_is_pinned_and_frozen():
    report = estimate_all(gen_gaussian_wishart(100, 5, 12.0, 3), mc_samples=2000, seed=1)
    assert repr(report) == WISHART_REPORT_REPR
    for record, field in ((report, "h_kl"), (report.mc, "estimate")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 0.0)

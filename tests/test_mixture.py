"""Mixture container: validation, weight handling, densities, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import mixent.gaussian
import mixent.mixture
import mixent.uniform
from mixent import (
    DimensionMismatch,
    EmptyMixture,
    GaussianComponent,
    Grouping,
    MixedFamilies,
    MixtureError,
    MixtureModel,
    NegativeWeight,
    NonFiniteValue,
    UniformBox,
    UnsupportedDistance,
    ZeroWeightSum,
)
from mixent.mixture import _BLOCK
from support import random_gaussian_mixture, random_mixture, random_uniform_mixture

# Frozen from the 1-D quadrature oracle (tests/test_montecarlo.py checks it).
STD_NORMAL_ENTROPY = 1.4189385332046727
STD_NORMAL_PEAK_LOG_DENSITY = -0.9189385332046727


def std_normal(dim: int = 1, shift: float = 0.0) -> GaussianComponent:
    return GaussianComponent(np.full(dim, shift), np.eye(dim))


def test_empty_mixture_rejected():
    with pytest.raises(EmptyMixture):
        MixtureModel([], [])


def test_weight_count_must_match_components():
    with pytest.raises(MixtureError):
        MixtureModel([0.5, 0.5], [std_normal()])


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        MixtureModel([0.5, -0.1], [std_normal(), std_normal(shift=1.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_rejected(bad):
    with pytest.raises(NonFiniteValue):
        MixtureModel([bad, 1.0], [std_normal(), std_normal(shift=1.0)])


def test_components_outside_both_families_rejected():
    class Point:
        dim = 1

    with pytest.raises(UnsupportedDistance):
        MixtureModel([0.5, 0.5], [Point(), Point()])


def test_zero_weight_sum_rejected():
    with pytest.raises(ZeroWeightSum):
        MixtureModel([0.0, 0.0], [std_normal(), std_normal(shift=1.0)])


def test_mixed_families_rejected():
    with pytest.raises(MixedFamilies):
        MixtureModel([0.5, 0.5], [std_normal(), UniformBox([0.0], [1.0])])


def test_component_dimensions_must_agree():
    with pytest.raises(DimensionMismatch):
        MixtureModel([0.5, 0.5], [std_normal(1), std_normal(2)])


def test_weights_are_normalized():
    mix = MixtureModel([2.0, 6.0], [std_normal(), std_normal(shift=3.0)])
    assert mix.weights.tolist() == [0.25, 0.75]


def test_weights_whose_sum_overflows_are_normalized():
    mix = MixtureModel([1e308, 1e308, 0.0], [std_normal(), std_normal(shift=3.0), std_normal()])
    assert mix.weights.tolist() == [0.5, 0.5, 0.0]


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_normalization_sums_to_one(raw_weights):
    comps = [std_normal(shift=float(i)) for i in range(len(raw_weights))]
    mix = MixtureModel(raw_weights, comps)
    assert math.isclose(math.fsum(mix.weights.tolist()), 1.0, abs_tol=1e-12)


def test_zero_weight_components_are_kept_but_inert():
    heavy = std_normal()
    ghost = std_normal(shift=50.0)
    with_ghost = MixtureModel([1.0, 0.0], [heavy, ghost])
    alone = MixtureModel([1.0], [heavy])
    assert with_ghost.n_components == 2
    assert with_ghost.active_indices().tolist() == [0]
    x = np.array([0.3])
    assert with_ghost.log_density(x) == alone.log_density(x)
    assert with_ghost.conditional_entropy() == alone.conditional_entropy()
    assert with_ghost.weight_entropy() == 0.0


def test_log_density_single_standard_normal():
    mix = MixtureModel([1.0], [std_normal()])
    assert math.isclose(
        mix.log_density(np.zeros(1)), STD_NORMAL_PEAK_LOG_DENSITY, abs_tol=1e-12
    )


def test_log_density_batch_shape_and_agreement():
    rng = np.random.default_rng(7)
    mix = random_gaussian_mixture(rng, 4, 3)
    points = rng.standard_normal((11, 3))
    batch = mix.log_density(points)
    assert batch.shape == (11,)
    singles = [mix.log_density(p) for p in points]
    assert np.allclose(batch, singles, atol=1e-12)


def test_log_density_outside_every_box_is_minus_infinity():
    mix = MixtureModel(
        [0.5, 0.5], [UniformBox([0.0], [1.0]), UniformBox([2.0], [3.0])]
    )
    assert mix.log_density(np.array([1.5])) == -math.inf
    batch = mix.log_density(np.array([[0.5], [1.5], [2.5]]))
    assert math.isinf(batch[1]) and batch[1] < 0
    assert np.isfinite(batch[[0, 2]]).all()


def _streamed_mixture(family: str, dim: int):
    # Nine components, one with zero weight; every fifth point is shifted far
    # from the mass, some outside every box for the uniform family.  Eight
    # active rows are enough for numpy to sum a lone column pairwise.
    rng = np.random.default_rng(dim)
    mix = random_mixture(rng, 9, dim, family)
    mix = MixtureModel(np.append(mix.weights[:8], 0.0), mix.components)
    points = mix.sample(rng, 3 * _BLOCK + 17)
    points[::5] += rng.uniform(-8.0, 8.0, (len(points[::5]), dim))
    return mix, points


@pytest.mark.parametrize("dim", [1, 2, 5, 10])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_log_density_does_not_depend_on_the_block_split(family, dim):
    mix, points = _streamed_mixture(family, dim)
    full = mix.log_density(points)
    assert full.shape == (len(points),)
    assert np.isneginf(full).any() == (family == "uniform")
    n, b = len(points), _BLOCK
    slices = [
        (0, 2), (b - 1, b + 1), (b - 3, 2 * b + 5), (1, b + 2), (2, 2 * b + 3),
        (b + 1, n), (2 * b - 7, n), (3 * b - 1, n), (n - 2, n), (5, n - 3),
    ]
    # Slices of block + 1 points end in a block of one point if it is not merged.
    slices += [(z - b - 1, z) for z in range(b + 1, n + 1, 311)]
    for a, z in slices:
        assert np.array_equal(mix.log_density(points[a:z]), full[a:z]), (a, z)
    # Single points take other BLAS and summation routes: equal to rounding.
    for i in (0, b - 1, b, n - 1):
        assert math.isclose(mix.log_density(points[i]), full[i], rel_tol=1e-14, abs_tol=1e-14)


@pytest.mark.parametrize("n", [2, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_log_density_is_bitwise_the_per_component_sum(family, n):
    # Every component reads one shared copy of each block and writes its row
    # in place.  The reference is the route that copies nothing: each active
    # component's public log_density plus ln c_k, then an out-of-place
    # max-shifted sum of exponentials.  2 * block + 1 points end in a lone
    # point, which joins the block before it.
    rng = np.random.default_rng([n, len(family)])
    mix = random_mixture(rng, 5, 3, family)
    mix = MixtureModel(np.insert(mix.weights[1:], 2, 0.0), mix.components)
    points = mix.sample(rng, n)
    points[::3] += rng.uniform(-6.0, 6.0, (len(points[::3]), 3))
    before = points.copy()
    active = mix.active_indices()
    assert active.size == 4
    log_weights = np.log(mix.weights[active])
    terms = np.array([
        log_weights[row] + mix.components[k].log_density(points)
        for row, k in enumerate(active)
    ])
    top = terms.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        ref = shift + np.log(np.exp(terms - shift).sum(axis=0))
    assert np.array_equal(mix.log_density(points), ref)
    assert np.array_equal(points, before)


@pytest.mark.parametrize("dim", [1, 5, 60])
def test_component_log_density_is_bitwise_its_one_component_mixture(dim):
    # A component alone reads a transposed view of its points, a mixture
    # passes a contiguous copy; the difference from the mean is formed in C
    # order either way, so the two routes give the same bits.
    rng = np.random.default_rng(dim)
    comp = random_gaussian_mixture(rng, 1, dim).components[0]
    points = comp.sample(rng, 100)
    for pts in (points[:7], points):
        assert np.array_equal(MixtureModel([1.0], [comp]).log_density(pts), comp.log_density(pts))


def test_gaussian_log_density_matches_scipy_with_an_fsum_log_sum_exp():
    # An independent reference: scipy's logpdf per component, combined with a
    # max-shifted, exactly summed log-sum-exp over the positive weights.
    rng = np.random.default_rng(100)
    mix = random_gaussian_mixture(rng, 100, 5)
    weights = mix.weights * (rng.uniform(size=100) < 0.8)
    mix = MixtureModel(weights, mix.components)
    assert 0 < mix.active_indices().size < 100
    points = mix.sample(rng, 700)
    points[::7] += rng.uniform(-30.0, 30.0, (len(points[::7]), 5))
    terms = np.array([
        math.log(mix.weights[k])
        + multivariate_normal(mix.components[k].mean, mix.components[k].cov).logpdf(points)
        for k in mix.active_indices()
    ])
    top = terms.max(axis=0)
    ref = top + np.log([math.fsum(column) for column in np.exp(terms - top).T])
    got = mix.log_density(points)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_log_density_checks_the_points_once(monkeypatch, family):
    mix, points = _streamed_mixture(family, 2)
    full = mix.log_density(points)
    checks = []
    original = mixent.mixture.as_points

    def counted(*args):
        checks.append(args[-1])
        return original(*args)

    for module in (mixent.mixture, mixent.gaussian, mixent.uniform):
        monkeypatch.setattr(module, "as_points", counted)
    assert np.array_equal(mix.log_density(points), full)
    assert checks == ["mixture"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_log_density_refuses_non_finite_points(family, bad):
    mix, points = _streamed_mixture(family, 2)
    with pytest.raises(NonFiniteValue):
        mix.log_density(np.array([bad, 0.5]))
    points[-1, 1] = bad
    with pytest.raises(NonFiniteValue):
        mix.log_density(points)


def test_conditional_entropy_single_component():
    mix = MixtureModel([1.0], [std_normal()])
    assert math.isclose(mix.conditional_entropy(), STD_NORMAL_ENTROPY, abs_tol=1e-12)


def test_weight_entropy_values():
    equal = MixtureModel([1.0, 1.0, 1.0, 1.0], [std_normal(shift=float(i)) for i in range(4)])
    assert math.isclose(equal.weight_entropy(), math.log(4.0), abs_tol=1e-12)
    lone = MixtureModel([3.0], [std_normal()])
    assert lone.weight_entropy() == 0.0


@given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_weight_entropy_is_nonnegative_and_bounded(raw_weights):
    comps = [std_normal(shift=float(i)) for i in range(len(raw_weights))]
    mix = MixtureModel(raw_weights, comps)
    h = mix.weight_entropy()
    assert -1e-12 <= h <= math.log(len(raw_weights)) + 1e-12


def test_joint_entropy_is_conditional_plus_weight_entropy():
    rng = np.random.default_rng(3)
    mix = random_gaussian_mixture(rng, 5, 2)
    expected = mix.conditional_entropy() + mix.weight_entropy()
    assert mix.joint_entropy_upper() == expected


def test_component_permutation_leaves_summaries_unchanged():
    rng = np.random.default_rng(11)
    mix = random_uniform_mixture(rng, 6, 2)
    order = [4, 0, 5, 2, 1, 3]
    permuted = MixtureModel(
        [mix.weights[i] for i in order], [mix.components[i] for i in order]
    )
    assert permuted.conditional_entropy() == mix.conditional_entropy()
    assert permuted.weight_entropy() == mix.weight_entropy()
    point = np.array([0.1, -0.2])
    assert math.isclose(
        permuted.log_density(point), mix.log_density(point), abs_tol=1e-12
    )


def test_duplicating_a_component_splits_weight_cleanly():
    base = MixtureModel([0.4, 0.6], [std_normal(), std_normal(shift=2.0)])
    split = MixtureModel(
        [0.2, 0.2, 0.6], [std_normal(), std_normal(), std_normal(shift=2.0)]
    )
    point = np.array([0.7])
    assert math.isclose(split.log_density(point), base.log_density(point), abs_tol=1e-12)
    assert math.isclose(
        split.conditional_entropy(), base.conditional_entropy(), abs_tol=1e-12
    )
    assert split.weight_entropy() > base.weight_entropy()


def test_sampling_is_deterministic_per_seed():
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    mix = MixtureModel([0.3, 0.7], [std_normal(), std_normal(shift=4.0)])
    assert np.array_equal(mix.sample(rng_a, 50), mix.sample(rng_b, 50))


def test_sampling_single_draw_shape():
    rng = np.random.default_rng(5)
    mix = MixtureModel([1.0], [std_normal(3)])
    assert mix.sample(rng).shape == (3,)
    assert mix.sample(rng, 10).shape == (10, 3)


def test_uniform_sampling_stays_in_support_and_centers():
    rng = np.random.default_rng(17)
    box = UniformBox([0.0, 0.0], [1.0, 2.0])
    mix = MixtureModel([1.0], [box])
    draws = mix.sample(rng, 100_000)
    assert (draws >= box.lower).all() and (draws <= box.upper).all()
    assert np.allclose(draws.mean(axis=0), [0.5, 1.0], atol=0.02)


def test_gaussian_sampling_matches_moments():
    rng = np.random.default_rng(19)
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    mix = MixtureModel([1.0], [GaussianComponent([1.0, -2.0], cov)])
    draws = mix.sample(rng, 200_000)
    assert np.allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(draws.T), cov, rtol=0.05, atol=0.02)


def test_zero_weight_components_never_sampled():
    rng = np.random.default_rng(23)
    mix = MixtureModel([1.0, 0.0], [std_normal(), std_normal(shift=100.0)])
    draws = mix.sample(rng, 10_000)
    assert np.abs(draws).max() < 10.0


def test_grouping_weights_and_counts():
    rng = np.random.default_rng(29)
    mix = random_gaussian_mixture(rng, 6, 2)
    grouping = Grouping(mix, [0, 0, 1, 1, 2, 2])
    total = math.fsum(grouping.group_weights.values())
    assert math.isclose(total, 1.0, abs_tol=1e-12)
    assert grouping.n_groups == 3


def test_grouping_ignores_zero_weight_groups():
    mix = MixtureModel([0.5, 0.5, 0.0], [std_normal(shift=float(i)) for i in range(3)])
    grouping = Grouping(mix, [0, 0, 1])
    assert grouping.n_groups == 1


def test_grouping_assignment_length_checked():
    mix = MixtureModel([0.5, 0.5], [std_normal(), std_normal(shift=1.0)])
    with pytest.raises(MixtureError):
        Grouping(mix, [0])

"""Mixture container: validation, weight handling, densities, sampling."""

import math
import sys
import threading

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
    InsufficientSamples,
    MixedFamilies,
    MixtureError,
    MixtureModel,
    NegativeWeight,
    NonFiniteValue,
    UniformBox,
    UnsupportedDistance,
    ZeroWeightSum,
    clustered_gap_bound,
)
from mixent._numeric import BLOCK as _BLOCK
from mixent._numeric import _chunk_step
from support import peak_bytes, random_gaussian_mixture, random_mixture, random_uniform_mixture

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


@pytest.mark.parametrize(
    "bad", [["a"], [True], [0.5, False], np.array([True]), "ab", ["0.5", "0.5"],
            np.array([0.5, 0.5], dtype=complex), [None, 1.0]],
)
def test_malformed_or_boolean_weights_rejected(bad):
    comps = [std_normal(shift=float(k)) for k in range(np.size(bad))]
    with pytest.raises(MixtureError, match="malformed"):
        MixtureModel(bad, comps)


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


# Above ten dimensions BLAS may round a Gaussian's product differently in
# the tail columns of a block or chunk, so a point's value can depend on its
# batch by this much, relative to max(1, |value|); see MixtureModel.log_density.
SPLIT_RTOL = 8 * np.finfo(float).eps


def _assert_split_agrees(got, ref, exact):
    if exact:
        assert np.array_equal(got, ref)
    else:
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        assert np.all(np.abs(got - ref) <= SPLIT_RTOL * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("dim", [1, 2, 5, 10, 16, 60])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_log_density_does_not_depend_on_the_block_split(family, dim):
    # Bitwise up to ten dimensions, and for boxes at any dimension.
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
    exact = dim <= 10 or family == "uniform"
    for a, z in slices:
        _assert_split_agrees(mix.log_density(points[a:z]), full[a:z], exact)
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


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_block_log_density_allocates_no_block_array_per_component(family):
    # The family's block routine makes no float (d, b) array per component
    # (the Gaussian one works in two buffers made once per mixture call), so
    # one block of K = 8 components peaks below a single such array.
    dim, k = 40, 8
    rng = np.random.default_rng([dim, len(family)])
    mix = random_mixture(rng, k, dim, family)
    cols = np.ascontiguousarray(mix.sample(rng, _BLOCK).T)
    evaluate = mix._block_log_density(_BLOCK)
    values = []
    peak = peak_bytes(lambda: values.append(evaluate(cols)))
    assert np.isfinite(values[0]).all()
    assert peak < 8 * dim * _BLOCK, peak


# Two work buffers of 40 960 + d floats, the Gaussian routine's bound, and
# room for NumPy's iteration buffers (8192 elements per operand) and the
# small arrays of a call.
_CHUNK_WORK_BYTES = 2 * 8 * (40_960 + 60) + 200_000


@pytest.mark.parametrize("n", [50_000, 200_000])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_component_log_density_memory_does_not_grow_with_the_batch(family, n):
    # Beyond its n-float output, a component's log_density holds one chunk's
    # work, whatever n is: no (d, n) difference, product or boolean array.
    dim = 20
    rng = np.random.default_rng([n, dim])
    comp = random_mixture(rng, 1, dim, family).components[0]
    points = rng.standard_normal((n, dim))
    peak = peak_bytes(lambda: comp.log_density(points))
    assert peak < 8 * n + _CHUNK_WORK_BYTES, peak


@pytest.mark.parametrize("dim", [60, 200])
def test_gaussian_block_memory_does_not_grow_with_the_dimension(dim):
    # One block of a mixture: the routine's buffers span a chunk of columns,
    # never d x block floats (3.9 MB at d = 60, 13 MB at d = 200).
    rng = np.random.default_rng(dim)
    comps = random_gaussian_mixture(rng, 4, dim).components
    cols = rng.standard_normal((dim, _BLOCK))
    rows = np.empty((len(comps), _BLOCK))
    peak = peak_bytes(lambda: GaussianComponent._log_density_rows(comps, _BLOCK)(cols, rows))
    assert np.isfinite(rows).all()
    assert peak < _CHUNK_WORK_BYTES, peak


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_chunk_edges_agree_with_the_unchunked_per_component_reference(family):
    # At d = 60 a chunk is 640 columns.  Widths on each side of one and two
    # chunk edges, and a whole block with its merged last point, agree with
    # each component's density formed over all points at once: within the
    # split bound for Gaussians, bitwise for boxes.
    dim = 60
    chunk = _chunk_step(dim)
    assert chunk == 640
    rng = np.random.default_rng([dim, len(family)])
    mix = random_mixture(rng, 3, dim, family)
    points = mix.sample(rng, _BLOCK + 1)
    points[::4] += rng.uniform(-3.0, 3.0, (len(points[::4]), dim))
    rows = []
    for comp, log_weight in zip(mix.components, np.log(mix.weights)):
        if family == "gaussian":
            z = comp.inv_chol @ (points.T - comp.mean[:, None])
            row = -0.5 * (np.square(z).sum(axis=0) + comp.log_det + dim * math.log(2 * math.pi))
        else:
            inside = np.all((points >= comp.lower) & (points <= comp.upper), axis=1)
            row = np.where(inside, -comp.log_volume, -math.inf)
        _assert_split_agrees(comp.log_density(points), row, family == "uniform")
        rows.append(log_weight + row)
    terms = np.array(rows)
    top = terms.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        ref = shift + np.log(np.exp(terms - shift).sum(axis=0))
    for width in (chunk - 1, chunk, chunk + 1, chunk + 2, 2 * chunk + 1, _BLOCK + 1):
        got = mix.log_density(points[:width])
        _assert_split_agrees(got, ref[:width], family == "uniform")


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


@pytest.mark.parametrize("bad", [["a", 0.5], [True, 0.5], [[0.0, 0.5], [0.5]], ["0.5", 0.5],
                                 np.array([0.5j, 0.5])])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_log_density_refuses_malformed_or_boolean_points(family, bad):
    mix, _ = _streamed_mixture(family, 2)
    with pytest.raises(MixtureError, match="malformed"):
        mix.log_density(bad)


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


@pytest.mark.parametrize("bad", [2.5, np.float64(2.0), -1, np.int64(-3), "3", True])
def test_sampling_refuses_a_count_that_is_not_a_non_negative_integer(bad):
    # The component samplers follow the mixture's rule: no count is truncated.
    mix = MixtureModel([1.0], [std_normal(2)])
    for sampler in (mix, std_normal(2), UniformBox([0.0, 0.0], [1.0, 2.0])):
        with pytest.raises(InsufficientSamples):
            sampler.sample(np.random.default_rng(0), bad)


def test_sampling_takes_numpy_integer_counts_and_zero():
    mix = MixtureModel([0.5, 0.5], [std_normal(2), std_normal(2, shift=3.0)])
    assert mix.sample(np.random.default_rng(0), 0).shape == (0, 2)
    got = mix.sample(np.random.default_rng(1), np.uint16(9))
    assert np.array_equal(got, mix.sample(np.random.default_rng(1), 9))


def _mask_loop_sample(mix, rng, n):
    # The independent reference for draw order: label every draw, then let
    # each component with hits fill its rows through one boolean mask.
    idx = rng.choice(mix.n_components, size=n, p=mix.weights)
    out = np.empty((n, mix.dim))
    for k in range(mix.n_components):
        mask = idx == k
        hits = int(mask.sum())
        if hits:
            out[mask] = mix.components[k].sample(rng, hits)
    return out, idx


@pytest.mark.parametrize("n", [2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 3 * _BLOCK + 17])
@pytest.mark.parametrize("dim", [1, 5, 40])
@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_sampling_matches_the_mask_loop_reference(family, dim, n):
    # Up to one block every component is drawn in one call, as in the
    # reference.  Beyond it a component split by a block edge is drawn in two
    # calls on the same stream: the same normals, but a Gaussian's product
    # with its factor runs on fewer rows and may round differently.  That is
    # 4 ulps of the terms mean and L z, not of their sum, which cancels.
    rng = np.random.default_rng([n, dim, len(family)])
    mix = random_mixture(rng, 6, dim, family)
    mix = MixtureModel(np.insert(mix.weights[1:], 3, 0.0), mix.components)
    got_rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    got = mix.sample(got_rng, n)
    ref, labels = _mask_loop_sample(mix, ref_rng, n)
    # Both routes read the same values of the stream, and no more.
    assert got_rng.random() == ref_rng.random()
    if n <= _BLOCK + 1:
        assert np.array_equal(got, ref)
    else:
        centers = np.array([comp.center() for comp in mix.components])[labels]
        terms = np.abs(centers) + np.abs(ref - centers)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(terms))


@pytest.mark.parametrize(
    "n", [0, 1, 2, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 2 * _BLOCK + 2]
)
def test_block_wise_labels_are_those_of_rng_choice(n):
    # _draw_labels places one block of uniforms at a time in the cumulative
    # weights.  Its labels, their counts and the generator's next value must
    # be those of one rng.choice over all n draws, for K = 1 to 300 (the
    # label type widens at K = 257) with zero weights first, inside and last.
    box = UniformBox([0.0], [1.0])
    weights_rng = np.random.default_rng(n)
    for k in range(1, 301):
        weights = weights_rng.random(k)
        if k >= 4:
            weights[[0, k // 2, k - 1]] = 0.0
            weights[weights_rng.random(k) < 0.2] = 0.0
            weights[1] = 0.5
        mix = MixtureModel(weights, [box] * k)
        got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
        labels, counts = mix._draw_labels(got_rng, n)
        expected = ref_rng.choice(k, size=n, p=mix.weights)
        assert labels.dtype == np.min_scalar_type(k - 1)
        assert np.array_equal(labels, expected), k
        assert np.array_equal(counts, np.bincount(expected, minlength=k)), k
        assert got_rng.random() == ref_rng.random(), k


def _threads_since(before):
    return set(threading.enumerate()) - before


def test_no_draw_thread_outlives_sample_or_an_early_close():
    # Two blocks or more are drawn one block ahead by one helper thread;
    # one block is drawn inline.  The helper is joined when the draws end,
    # also when the caller closes them after the first block.
    mix = random_mixture(np.random.default_rng(5), 4, 3, "gaussian")
    before = set(threading.enumerate())
    assert mix.sample(np.random.default_rng(0), 3 * _BLOCK).shape == (3 * _BLOCK, 3)
    assert not _threads_since(before)
    draws = mix._grouped_draws(np.random.default_rng(0), 5 * _BLOCK)
    next(draws)
    assert len(_threads_since(before)) == 1
    draws.close()
    assert not _threads_since(before)
    single = mix._grouped_draws(np.random.default_rng(0), _BLOCK + 1)
    next(single)
    assert not _threads_since(before)
    single.close()


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_an_error_in_the_draw_thread_reaches_the_caller(family, monkeypatch):
    mix = random_mixture(np.random.default_rng(6), 4, 3, family)
    cls = type(mix.components[0])
    draw, calls = cls._variates, []

    def fails_on_the_third_block(rng, out):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise RuntimeError("no variates")
        return draw(rng, out)

    monkeypatch.setattr(cls, "_variates", staticmethod(fails_on_the_third_block))
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="no variates"):
        mix.sample(np.random.default_rng(0), 4 * _BLOCK)
    assert not _threads_since(before)
    assert len(calls) == 3 and threading.main_thread() not in calls


@pytest.mark.parametrize("family", [GaussianComponent, UniformBox])
def test_variate_blocks_hand_over_every_block_intact(family):
    # Stress the two-slot handover: four callers at once, more threads than
    # cores, with a one-microsecond switch interval.  Each block must hold
    # the same rows as one inline draw of all n x d variates while the
    # helper fills the other slot; a slot handed over too early is
    # overwritten under the check.
    n, dim = 9 * _BLOCK + 5, 3
    results = []

    def check(seed):
        expected = family._variates(np.random.default_rng(seed), np.empty((n, dim)))
        blocks = mixent.mixture._variate_blocks(family._variates, np.random.default_rng(seed), n, dim)
        results.append(all(np.array_equal(variates(slice(0, stop - start)), expected[start:stop])
                           for (start, stop), variates in blocks))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=check, args=(seed,)) for seed in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [True] * 4


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
    # A grouping is one integer label per component, read by clustered_gap_bound
    # alone.  A label is any integer, negative ones included, of any integer
    # dtype, but never a rounded float, a string or a bool.
    rng = np.random.default_rng(29)
    mix = random_gaussian_mixture(rng, 6, 2)
    bound = clustered_gap_bound(mix, [0, 0, 1, 1, 2, 2], 0.5)
    negative = np.array([-3, -3, 0, 0, 7, 7], dtype=np.int8)
    assert clustered_gap_bound(mix, negative, 0.5) == bound
    assert clustered_gap_bound(mix, (0, 0, 1, 1, 2, 2), 0.5) == bound
    for labels in ([0, 0, 1, 1, 2, 2.5], ["0", "0", "1", "1", "2", "2"], [True, False] * 3):
        with pytest.raises(MixtureError, match=r"integer group label per component \(6\)"):
            clustered_gap_bound(mix, labels, 0.5)


@pytest.mark.parametrize(
    "labels", [[0, True], [0, np.True_], [0, np.array(True)], [0, [1]]],
    ids=["bool", "numpy-bool", "bool-0d-array", "ragged"],
)
def test_grouping_refuses_a_boolean_or_ragged_label(labels):
    # [0, True] used to be read as the labels 0 and 1.
    mix = MixtureModel([0.5, 0.5], [std_normal(), std_normal(shift=1.0)])
    with pytest.raises(MixtureError, match="integer group label"):
        clustered_gap_bound(mix, labels, 0.5)


def test_grouping_ignores_zero_weight_groups():
    # The gap bound does not count a label whose members all weigh zero as a group.
    mix = MixtureModel([0.5, 0.5, 0.0], [std_normal(shift=float(i)) for i in range(3)])
    one_group = clustered_gap_bound(mix, [0, 0, 0], 0.5)
    assert clustered_gap_bound(mix, [0, 0, 1], 0.5) == one_group


def test_grouping_assignment_length_checked():
    mix = MixtureModel([0.5, 0.5], [std_normal(), std_normal(shift=1.0)])
    with pytest.raises(MixtureError, match=r"label per component \(2\)"):
        clustered_gap_bound(mix, [0], 0.5)

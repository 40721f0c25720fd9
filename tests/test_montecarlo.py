"""Monte Carlo and quadrature oracles, and their agreement with closed forms."""

import math
import threading

import numpy as np
import pytest

from mixent import (
    AlphaOutOfRange,
    GaussianComponent,
    InsufficientSamples,
    McResult,
    MixtureError,
    MixtureModel,
    NotOneDimensional,
    UniformBox,
    gaussian_bd,
    gaussian_chernoff,
    gaussian_elk_cross,
    gaussian_kl,
    mc_entropy,
    quad_cross_term_1d,
    quad_entropy_1d,
    uniform_bd,
    uniform_elk_cross,
    uniform_kl,
)
from mixent._numeric import BLOCK as _BLOCK
from support import peak_bytes, random_gaussian_mixture, random_mixture

STD_NORMAL_ENTROPY = 1.4189385332046727


def std_normal_mixture() -> MixtureModel:
    return MixtureModel([1.0], [GaussianComponent([0.0], [[1.0]])])


# ----------------------------------------------------------------- Monte Carlo


def test_mc_requires_at_least_two_samples():
    mix = std_normal_mixture()
    for n in (0, 1):
        with pytest.raises(InsufficientSamples):
            mc_entropy(mix, n, seed=0)


def test_mc_refuses_a_negative_seed():
    # numpy's SeedSequence would raise a bare ValueError deeper down.
    with pytest.raises(MixtureError, match="seed must be non-negative"):
        mc_entropy(std_normal_mixture(), 10, -1)


def test_mc_unit_box_has_zero_entropy_and_zero_error():
    mix = MixtureModel([1.0], [UniformBox([0.0], [1.0])])
    result = mc_entropy(mix, 1000, seed=5)
    assert result.estimate == 0.0
    assert result.stderr == 0.0
    assert result.samples == 1000


def test_mc_standard_normal_within_three_stderr():
    result = mc_entropy(std_normal_mixture(), 100_000, seed=1)
    assert result.stderr < 0.01
    assert abs(result.estimate - STD_NORMAL_ENTROPY) <= 3.0 * result.stderr


def test_mc_is_deterministic_per_seed():
    mix = std_normal_mixture()
    a = mc_entropy(mix, 5000, seed=7)
    b = mc_entropy(mix, 5000, seed=7)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = mc_entropy(mix, 5000, seed=8)
    assert c.estimate != a.estimate
    # the draws come from the (seed, spawn_key=(0,)) substream
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0,)))
    values = -mix.log_density(mix.sample(rng, 5000))
    assert a.estimate == float(np.mean(values))
    assert a.stderr == float(np.std(values, ddof=1)) / math.sqrt(5000)


def _draw_route_mixture(case: str, samples: int):
    """(mixture, seed) for one case of the draw-route test; see below."""
    rng = np.random.default_rng([samples, len(case)])
    if case == "single":
        return random_gaussian_mixture(rng, 1, 3), 11
    if case == "once":
        # A component of weight 1/samples, and the first seed whose labels
        # draw it exactly once.
        mix = random_gaussian_mixture(rng, 3, 3)
        mix = MixtureModel([0.5, 0.5, 1.0 / samples], mix.components)
        for seed in range(100):
            labels_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
            labels = labels_rng.choice(3, size=samples, p=mix.weights)
            if np.count_nonzero(labels == 2) == 1:
                return mix, seed
        raise AssertionError("no seed draws the light component exactly once")
    mix = random_mixture(rng, 5, 3, case)
    return MixtureModel(np.insert(mix.weights[1:], 2, 0.0), mix.components), 12


@pytest.mark.parametrize(
    "samples", [2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 3 * _BLOCK + 17]
)
@pytest.mark.parametrize("case", ["gaussian", "uniform", "single", "once"])
def test_mc_is_bitwise_the_mean_over_the_sampled_log_density(case, samples):
    # mc_entropy streams grouped blocks of draws and never builds the sample
    # array; its values must still be those of the public route, bit for
    # bit: one K = 1 mixture, both families with a zero-weight component,
    # and a component drawn exactly once, on either side of block edges.
    mix, seed = _draw_route_mixture(case, samples)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    values = -mix.log_density(mix.sample(rng, samples))
    expected = McResult(
        float(np.mean(values)), float(np.std(values, ddof=1)) / math.sqrt(samples), samples
    )
    assert mc_entropy(mix, samples, seed) == expected


@pytest.mark.parametrize("bad", [10.9, np.float64(3.9), 2.0, "10", None, True, np.bool_(True)])
def test_mc_refuses_a_sample_count_that_is_not_an_integer(bad):
    with pytest.raises(InsufficientSamples, match="must be an integer"):
        mc_entropy(std_normal_mixture(), bad, seed=0)


@pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", None, True])
def test_mc_refuses_a_seed_that_is_not_an_integer(bad):
    # numpy's SeedSequence would raise a bare TypeError deeper down, or take True as 1.
    with pytest.raises(MixtureError, match="seed must be an integer"):
        mc_entropy(std_normal_mixture(), 10, bad)


def test_mc_accepts_numpy_integer_counts_and_seeds():
    mix = std_normal_mixture()
    assert mc_entropy(mix, np.int32(50), np.uint64(4)) == mc_entropy(mix, 50, 4)
    assert mc_entropy(mix, np.int64(50), 4).samples == 50


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_mc_memory_stays_within_blocks(family):
    # The check holds O(block (K + d)) floats plus a few vectors of length
    # S, never the S x d sample array: its peak stays below half of one.
    samples, dim = 100_000, 40
    mix = random_mixture(np.random.default_rng(40), 8, dim, family)
    peak = peak_bytes(lambda: mc_entropy(mix, samples, seed=3))
    assert peak < 0.5 * 8 * samples * dim


def test_mc_memory_per_draw_at_the_benchmark_size():
    # At S = 200k draws of K = 8 Gaussians in d = 10, the size of the Monte
    # Carlo benchmark, the check holds the values (8 B per draw), the narrow
    # labels (1 B) and the draw order (8 B while it is cast, then 4 B), plus
    # well under 1.2 MB of blocks.  One rng.choice over all draws held 16 B
    # per draw more, and the last block's views kept the int64 order alive
    # through the spread's own S-length temporary.
    samples = 200_000
    mix = random_mixture(np.random.default_rng(40), 8, 10, "gaussian")
    peak = peak_bytes(lambda: mc_entropy(mix, samples, seed=3))
    assert peak < 21 * samples + 1.2e6, peak


def test_no_draw_thread_outlives_mc_entropy(monkeypatch):
    # The draws of two blocks or more run one block ahead on a helper
    # thread; it is joined when mc_entropy returns and when evaluate raises.
    mix = random_mixture(np.random.default_rng(6), 4, 3, "gaussian")
    before = set(threading.enumerate())
    mc_entropy(mix, 3 * _BLOCK, seed=0)
    assert set(threading.enumerate()) == before

    block_log_density, helpers = MixtureModel._block_log_density, []

    def fails_on_the_second_block(self, n):
        evaluate = block_log_density(self, n)

        def checked(cols):
            helpers.append(len(set(threading.enumerate()) - before))
            if len(helpers) == 2:
                raise RuntimeError("evaluate failed")
            return evaluate(cols)

        return checked

    monkeypatch.setattr(MixtureModel, "_block_log_density", fails_on_the_second_block)
    with pytest.raises(RuntimeError, match="evaluate failed"):
        mc_entropy(mix, 5 * _BLOCK, seed=0)
    assert helpers == [1, 1]
    assert set(threading.enumerate()) == before


def test_mc_stderr_shrinks_like_the_square_root_of_the_sample_count():
    mix = std_normal_mixture()
    small = mc_entropy(mix, 2000, seed=3)
    large = mc_entropy(mix, 8000, seed=3)
    ratio = large.stderr / small.stderr
    assert 0.45 <= ratio <= 0.55


def test_mc_lands_inside_the_exact_bracket():
    rng = np.random.default_rng(21)
    for seed in (0, 1, 2):
        mix = random_gaussian_mixture(rng, 5, 2)
        result = mc_entropy(mix, 20_000, seed=seed)
        lo = mix.conditional_entropy() - 3.0 * result.stderr
        hi = mix.joint_entropy_upper() + 3.0 * result.stderr
        assert lo <= result.estimate <= hi


# ------------------------------------------------------------------ quadrature


def test_quad_standard_normal_entropy():
    value = quad_entropy_1d(std_normal_mixture(), -12.0, 12.0)
    assert math.isclose(value, STD_NORMAL_ENTROPY, abs_tol=1e-9)


def test_quad_wide_normal_entropy():
    mix = MixtureModel([1.0], [GaussianComponent([0.0], [[4.0]])])
    value = quad_entropy_1d(mix, -24.0, 24.0)
    assert math.isclose(value, STD_NORMAL_ENTROPY + math.log(2.0), abs_tol=1e-9)


def test_quad_unit_box_entropy_is_exactly_zero():
    mix = MixtureModel([1.0], [UniformBox([0.0], [1.0])])
    assert quad_entropy_1d(mix, -0.5, 1.5) == 0.0


def test_quad_box_entropy_is_log_length():
    mix = MixtureModel([1.0], [UniformBox([0.0], [2.0])])
    value = quad_entropy_1d(mix, -1.0, 3.0)
    assert math.isclose(value, math.log(2.0), abs_tol=1e-12)


def test_quad_overlapping_boxes_piecewise_value():
    mix = MixtureModel(
        [0.5, 0.5], [UniformBox([0.0], [1.0]), UniformBox([0.5], [1.5])]
    )
    value = quad_entropy_1d(mix, -0.5, 2.0)
    # Density is 1/2 on two stretches of total length one, and 1 in between.
    assert math.isclose(value, 0.5 * math.log(2.0), abs_tol=1e-10)


def test_quad_ignores_zero_weight_components():
    mix = MixtureModel([1.0, 0.0], [UniformBox([0.0], [1.0]), UniformBox([5.0], [6.0])])
    assert quad_entropy_1d(mix, -1.0, 2.0) == 0.0


def test_quad_input_validation():
    mix = std_normal_mixture()
    with pytest.raises(InsufficientSamples):
        quad_entropy_1d(mix, -12.0, 12.0, points=99)
    for points in (10001.9, "10001", True):  # refused, not truncated or parsed
        with pytest.raises(InsufficientSamples, match="must be an integer"):
            quad_entropy_1d(mix, -12.0, 12.0, points=points)
    with pytest.raises(MixtureError):
        quad_entropy_1d(mix, 2.0, -2.0)
    wide = MixtureModel([1.0], [GaussianComponent(np.zeros(2), np.eye(2))])
    with pytest.raises(NotOneDimensional):
        quad_entropy_1d(wide, -12.0, 12.0)


@pytest.mark.parametrize("lo, hi", [("a", 1.0), (True, 2.0), ([-1.0, 0.0], 1.0)])
def test_quad_refuses_a_range_that_is_not_two_reals(lo, hi):
    with pytest.raises(MixtureError):
        quad_entropy_1d(std_normal_mixture(), lo, hi)


def test_quad_matches_monte_carlo_on_a_random_mixture():
    rng = np.random.default_rng(33)
    mix = random_gaussian_mixture(rng, 4, 1)
    mc = mc_entropy(mix, 50_000, seed=4)
    lo = float(min(c.mean[0] for c in mix.components)) - 15.0
    hi = float(max(c.mean[0] for c in mix.components)) + 15.0
    quad = quad_entropy_1d(mix, lo, hi)
    assert abs(quad - mc.estimate) <= 3.0 * mc.stderr


# ----------------------------------------------------------------- cross terms


def test_cross_term_sqrt_product_of_self_is_one():
    comp = GaussianComponent([0.3], [[1.7]])
    assert math.isclose(quad_cross_term_1d(comp, comp, "sqrt_product"), 1.0, abs_tol=1e-9)
    box = UniformBox([-1.0], [2.0])
    assert math.isclose(quad_cross_term_1d(box, box, "sqrt_product"), 1.0, abs_tol=1e-12)


def test_cross_term_product_examples():
    std = GaussianComponent([0.0], [[1.0]])
    value = quad_cross_term_1d(std, std, "product")
    assert math.isclose(value, 1.0 / (2.0 * math.sqrt(math.pi)), abs_tol=1e-9)
    a = UniformBox([0.0], [2.0])
    b = UniformBox([1.0], [3.0])
    assert math.isclose(quad_cross_term_1d(a, b, "product"), 0.25, abs_tol=1e-12)


def test_cross_term_kl_examples():
    a = GaussianComponent([0.0], [[1.0]])
    b = GaussianComponent([2.0], [[1.0]])
    assert quad_cross_term_1d(a, a, "kl") <= 1e-10
    assert math.isclose(quad_cross_term_1d(a, b, "kl"), 2.0, abs_tol=1e-8)
    inner = UniformBox([0.0], [1.0])
    outer = UniformBox([-0.5], [1.5])
    assert math.isclose(quad_cross_term_1d(inner, outer, "kl"), math.log(2.0), abs_tol=1e-12)
    assert quad_cross_term_1d(outer, inner, "kl") == math.inf
    # Infinite only after a finite segment: q = [-1, 1] vanishes on [1, 2].
    assert quad_cross_term_1d(UniformBox([0.0], [2.0]), UniformBox([-1.0], [1.0]), "kl") == math.inf
    assert quad_cross_term_1d(a, inner, "kl") == math.inf


def test_cross_term_kl_box_against_gaussian():
    box = UniformBox([0.0], [1.0])
    gauss = GaussianComponent([0.0], [[1.0]])
    # Direct integral: mean of -ln q over the box, since the box entropy is 0.
    expected = 1.0 / 6.0 + 0.5 * math.log(2.0 * math.pi)
    assert math.isclose(quad_cross_term_1d(box, gauss, "kl"), expected, abs_tol=1e-8)


def test_cross_term_validation():
    a = GaussianComponent([0.0], [[1.0]])
    with pytest.raises(MixtureError):
        quad_cross_term_1d(a, a, "nonsense")
    with pytest.raises(MixtureError):
        quad_cross_term_1d(a, a, "chernoff")
    with pytest.raises(MixtureError):
        quad_cross_term_1d(a, a, "chernoff", alpha=1.0)
    for alpha in (True, "0.3"):  # not taken as order 1, nor compared as a string
        with pytest.raises(AlphaOutOfRange):
            quad_cross_term_1d(a, a, "chernoff", alpha=alpha)
    assert quad_cross_term_1d(a, a, "chernoff", alpha=np.float64(0.3)) > 0.0
    with pytest.raises(InsufficientSamples):
        quad_cross_term_1d(a, a, "product", points=11)
    for points in (10001.9, "10001", True):
        with pytest.raises(InsufficientSamples, match="must be an integer"):
            quad_cross_term_1d(a, a, "product", points=points)
    wide = GaussianComponent(np.zeros(2), np.eye(2))
    with pytest.raises(NotOneDimensional):
        quad_cross_term_1d(wide, wide, "product")


# --------------------------------------------- closed forms against the oracle


def random_gaussian_pair(rng):
    def draw():
        return GaussianComponent([rng.normal(0.0, 2.0)], [[rng.uniform(0.3, 3.0)]])

    return draw(), draw()


def random_box_pair(rng):
    def draw():
        center = rng.normal(0.0, 1.5)
        half = rng.uniform(0.2, 2.0)
        return UniformBox([center - half], [center + half])

    return draw(), draw()


def test_gaussian_closed_forms_match_quadrature():
    rng = np.random.default_rng(55)
    for _ in range(10):
        a, b = random_gaussian_pair(rng)
        assert math.isclose(
            gaussian_kl(a, b), quad_cross_term_1d(a, b, "kl"), abs_tol=1e-8
        )
        assert math.isclose(
            gaussian_bd(a, b),
            -math.log(quad_cross_term_1d(a, b, "sqrt_product")),
            abs_tol=1e-8,
        )
        assert math.isclose(
            gaussian_chernoff(a, b, 0.3),
            -math.log(quad_cross_term_1d(a, b, "chernoff", alpha=0.3)),
            abs_tol=1e-8,
        )
        assert math.isclose(
            gaussian_elk_cross(a, b), quad_cross_term_1d(a, b, "product"), abs_tol=1e-8
        )


def test_uniform_closed_forms_match_quadrature():
    rng = np.random.default_rng(56)
    for _ in range(10):
        a, b = random_box_pair(rng)
        kl = uniform_kl(a, b)
        quad_kl = quad_cross_term_1d(a, b, "kl")
        if math.isinf(kl):
            assert quad_kl == math.inf
        else:
            assert math.isclose(kl, quad_kl, abs_tol=1e-8)
        bd = uniform_bd(a, b)
        coeff = quad_cross_term_1d(a, b, "sqrt_product")
        if math.isinf(bd):
            assert coeff <= 1e-12
        else:
            assert math.isclose(bd, -math.log(coeff), abs_tol=1e-8)
        assert math.isclose(
            uniform_elk_cross(a, b), quad_cross_term_1d(a, b, "product"), abs_tol=1e-8
        )

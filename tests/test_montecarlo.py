"""Monte Carlo and quadrature oracles, and their agreement with closed forms."""

import math

import numpy as np
import pytest

from mixent import (
    GaussianComponent,
    InsufficientSamples,
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
from support import random_gaussian_mixture

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
    with pytest.raises(MixtureError):
        quad_entropy_1d(mix, 2.0, -2.0)
    wide = MixtureModel([1.0], [GaussianComponent(np.zeros(2), np.eye(2))])
    with pytest.raises(NotOneDimensional):
        quad_entropy_1d(wide, -12.0, 12.0)


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
    with pytest.raises(InsufficientSamples):
        quad_cross_term_1d(a, a, "product", points=11)
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

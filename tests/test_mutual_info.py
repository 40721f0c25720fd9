"""Mutual-information bounds across the additive Gaussian noise channel."""

import math

import numpy as np
import pytest

from mixent import (
    AlphaOutOfRange,
    AwgnChannel,
    DimensionMismatch,
    GaussianComponent,
    MixtureError,
    MixtureModel,
    NotPositiveDefinite,
    UniformBox,
    awgn_push,
    mc_entropy,
    mi_bounds,
)
from support import random_gaussian_mixture, random_spd


def unit_channel(dim: int = 1) -> AwgnChannel:
    return AwgnChannel(np.eye(dim))


def binary_input(separation: float = 10.0) -> MixtureModel:
    comps = [
        GaussianComponent([-separation], [[1e-12]]),
        GaussianComponent([separation], [[1e-12]]),
    ]
    return MixtureModel([0.5, 0.5], comps)


def test_channel_entropy_and_dim():
    channel = unit_channel(2)
    assert channel.dim == 2
    expected = GaussianComponent(np.zeros(2), np.eye(2)).entropy()
    assert channel.conditional_entropy() == expected


def test_channel_noise_must_be_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        AwgnChannel([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("bad", [[["a"]], [[True]], [[1.0, 0.0], [0.0]]])
def test_channel_noise_must_be_a_float_matrix(bad):
    with pytest.raises(MixtureError, match="malformed noise covariance"):
        AwgnChannel(bad)


def test_pushforward_adds_noise_covariance():
    rng = np.random.default_rng(1)
    mix = random_gaussian_mixture(rng, 4, 3)
    noise_cov = random_spd(rng, 3)
    pushed = awgn_push(mix, AwgnChannel(noise_cov))
    assert np.array_equal(pushed.weights, mix.weights)
    for before, after in zip(mix.components, pushed.components):
        assert np.array_equal(after.mean, before.mean)
        assert np.array_equal(after.cov, before.cov + noise_cov)


def test_pushforward_rejects_boxes_and_dimension_mismatch():
    boxes = MixtureModel([1.0], [UniformBox([0.0], [1.0])])
    with pytest.raises(MixtureError):
        awgn_push(boxes, unit_channel(1))
    rng = np.random.default_rng(2)
    mix = random_gaussian_mixture(rng, 3, 2)
    with pytest.raises(DimensionMismatch):
        awgn_push(mix, unit_channel(3))


def test_bounds_order_and_gap_budget():
    rng = np.random.default_rng(3)
    for seed in range(5):
        mix = random_gaussian_mixture(rng, 5, 2)
        lower, upper = mi_bounds(mix, unit_channel(2))
        assert lower <= upper + 1e-12
        assert upper - lower <= mix.weight_entropy() + 1e-12


def test_single_component_input_gives_exact_channel_information():
    cov = np.array([[2.0]])
    mix = MixtureModel([1.0], [GaussianComponent([0.7], cov)])
    lower, upper = mi_bounds(mix, unit_channel(1))
    assert math.isclose(lower, upper, abs_tol=1e-12)
    # For one Gaussian source the information is half the log determinant ratio.
    expected = 0.5 * math.log(3.0 / 1.0)
    assert math.isclose(upper, expected, abs_tol=1e-12)


def test_clean_binary_channel_approaches_one_bit():
    lower, upper = mi_bounds(binary_input(), unit_channel(1))
    assert math.isclose(lower, math.log(2.0), abs_tol=1e-6)
    assert math.isclose(upper, math.log(2.0), abs_tol=1e-6)
    assert lower <= upper + 1e-12


def test_noisy_binary_channel_carries_less_than_one_bit():
    lower, upper = mi_bounds(binary_input(separation=0.1), unit_channel(1))
    assert upper < math.log(2.0)
    assert lower >= -1e-12


def test_bounds_bracket_a_monte_carlo_estimate():
    rng = np.random.default_rng(4)
    mix = random_gaussian_mixture(rng, 4, 2)
    channel = unit_channel(2)
    lower, upper = mi_bounds(mix, channel)
    pushed = awgn_push(mix, channel)
    mc = mc_entropy(pushed, 40_000, seed=7)
    mi_mc = mc.estimate - channel.conditional_entropy()
    assert lower - 3.0 * mc.stderr <= mi_mc <= upper + 3.0 * mc.stderr


def test_half_order_is_best_for_equal_covariance_inputs():
    rng = np.random.default_rng(5)
    cov = random_spd(rng, 2)
    mix = random_gaussian_mixture(rng, 4, 2, shared_cov=cov)
    channel = unit_channel(2)
    best, _ = mi_bounds(mix, channel, alpha=0.5)
    for alpha in (0.1, 0.25, 0.75, 0.9):
        lower, _ = mi_bounds(mix, channel, alpha=alpha)
        assert lower <= best + 1e-12


def test_alpha_is_validated():
    rng = np.random.default_rng(6)
    mix = random_gaussian_mixture(rng, 3, 2)
    with pytest.raises(AlphaOutOfRange):
        mi_bounds(mix, unit_channel(2), alpha=1.5)

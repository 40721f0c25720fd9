"""Mutual-information bounds for mixtures sent through additive Gaussian noise.

For output X = U + Z with U mixture-distributed and Z independent Gaussian
noise, I(X; U) = H(X) - H(Z).  The pushforward of the mixture under the
channel is again a mixture (same weights and means, noise covariance added
to every component), so the certified entropy bounds give certified
mutual-information bounds.
"""

from __future__ import annotations

import numpy as np

from ._numeric import as_floats
from .errors import DimensionMismatch, MixtureError
from .estimators import lower_bound_chernoff, upper_bound_kl
from .gaussian import GaussianComponent
from .mixture import MixtureModel

__all__ = ["AwgnChannel", "awgn_push", "mi_bounds"]


class AwgnChannel:
    """Additive white Gaussian noise channel with a fixed noise covariance."""

    __slots__ = ("noise",)

    def __init__(self, noise_cov):
        noise_cov = np.atleast_2d(as_floats(noise_cov, "noise covariance"))
        self.noise = GaussianComponent(np.zeros(noise_cov.shape[0]), noise_cov)

    @property
    def dim(self) -> int:
        return self.noise.dim

    def conditional_entropy(self) -> float:
        """Entropy of the output given the input: the noise entropy H(X | U)."""
        return self.noise.entropy()


def awgn_push(mixture: MixtureModel, channel: AwgnChannel) -> MixtureModel:
    """Pushforward of a Gaussian mixture through the channel.

    Weights and means are unchanged; every covariance gains the noise
    covariance.
    """
    if not all(isinstance(c, GaussianComponent) for c in mixture.components):
        raise MixtureError("the noise-channel pushforward is defined for gaussian mixtures")
    if mixture.dim != channel.dim:
        raise DimensionMismatch(
            f"mixture dimension {mixture.dim} does not match channel dimension {channel.dim}"
        )
    pushed = [
        GaussianComponent(c.mean, c.cov + channel.noise.cov) for c in mixture.components
    ]
    return MixtureModel(mixture.weights, pushed)


def mi_bounds(mixture: MixtureModel, channel: AwgnChannel, alpha: float = 0.5):
    """Certified bounds on I(X; U) for X = U + Z.

    Returns (lower, upper): the order-alpha Chernoff and KL entropy bounds
    of the pushforward mixture, each minus the noise entropy.  The lower
    value never exceeds the upper one, and their gap is at most the weight
    entropy of the mixture.
    """
    pushed = awgn_push(mixture, channel)
    h_noise = channel.conditional_entropy()
    lower = lower_bound_chernoff(pushed, alpha) - h_noise
    upper = upper_bound_kl(pushed) - h_noise
    return lower, upper

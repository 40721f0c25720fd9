"""Exception types raised by mixture construction and the entropy estimators."""

__all__ = ["MixtureError", "NonFiniteValue", "EmptyMixture", "NegativeWeight", "ZeroWeightSum",
           "DimensionMismatch", "MixedFamilies", "NotPositiveDefinite", "DegenerateBox",
           "AlphaOutOfRange", "UnsupportedDistance", "BoundViolated", "DegreesOfFreedomTooSmall",
           "InsufficientSamples", "NotOneDimensional"]


class MixtureError(ValueError):
    """Base class for all mixture-model and estimator errors."""


class NonFiniteValue(MixtureError):
    """Weights, means, covariances and box bounds must be finite numbers."""


class EmptyMixture(MixtureError):
    """A mixture needs at least one component."""


class NegativeWeight(MixtureError):
    """Component weights must be non-negative."""


class ZeroWeightSum(MixtureError):
    """Component weights must not all be zero."""


class DimensionMismatch(MixtureError):
    """Vectors or components disagree on dimensionality."""


class MixedFamilies(MixtureError):
    """All components of a mixture must come from one family."""


class NotPositiveDefinite(MixtureError):
    """Covariance matrix failed the symmetry or Cholesky check."""


class DegenerateBox(MixtureError):
    """A box component needs strictly positive side lengths."""


class AlphaOutOfRange(MixtureError):
    """The order parameter alpha lies outside its admissible interval."""


class UnsupportedDistance(MixtureError):
    """The distance kind or the component type is not one the estimators know."""


class BoundViolated(MixtureError):
    """A measured quantity broke a bound that the theory guarantees."""


class DegreesOfFreedomTooSmall(MixtureError):
    """Wishart sampling needs at least as many degrees of freedom as dimensions."""


class InsufficientSamples(MixtureError):
    """A sample or point count must be an integer, and large enough: at least
    two for Monte Carlo estimation."""


class NotOneDimensional(MixtureError):
    """Quadrature oracles only handle one-dimensional mixtures."""

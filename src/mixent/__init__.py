"""Certified entropy bounds, baselines, and oracles for finite mixture models.

The package computes the exact floor and ceiling of a mixture's entropy,
certified pairwise-distance lower and upper bounds that converge to the truth
in both the collapsed and the fully separated regimes, kernel-density and
expected-likelihood baselines, mutual-information bounds across additive
Gaussian noise channels, and the Monte Carlo and quadrature oracles used to
validate all of the above.
"""

from .errors import *
from .estimators import *
from .experiments import *
from .gaussian import *
from .mixture import *
from .mixture_io import *
from .montecarlo import *
from .mutual_info import *
from .uniform import *

# Each module's __all__ is its public surface.  Importing a submodule binds its
# name in this package, so the package's surface is the union of theirs.
__all__ = [
    *errors.__all__, *estimators.__all__, *experiments.__all__, *gaussian.__all__,
    *mixture.__all__, *mixture_io.__all__, *montecarlo.__all__, *mutual_info.__all__,
    *uniform.__all__,
]

__version__ = "0.1.0"

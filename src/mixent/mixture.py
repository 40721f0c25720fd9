"""Finite mixture container and the exact split-variable entropy quantities.

A mixture is a weighted list of same-family components.  The three exact
quantities computed here bracket the (intractable) mixture entropy:

    conditional_entropy  <=  H(mixture)  <=  joint_entropy_upper

where joint_entropy_upper = conditional_entropy + weight_entropy.
"""

from __future__ import annotations

import numpy as np

from ._numeric import as_points, fsum, log_sum_exp_axis0
from .errors import (
    DimensionMismatch,
    EmptyMixture,
    MixedFamilies,
    MixtureError,
    NegativeWeight,
    NonFiniteValue,
    UnsupportedDistance,
    ZeroWeightSum,
)
from .gaussian import GaussianComponent
from .uniform import UniformBox

# Points per block in MixtureModel.log_density: the K x block row buffer and
# each component's block temporaries stay cache-sized however many points
# are evaluated.
_BLOCK = 4096


class MixtureModel:
    """Weighted finite mixture of components from one family: all
    GaussianComponent or all UniformBox.

    Weights must be non-negative with a positive sum and are normalized at
    construction.  Zero weights are allowed: the component is kept but is
    excluded from every log-sum and contributes nothing to any estimate.
    """

    __slots__ = ("weights", "components")

    def __init__(self, weights, components):
        components = tuple(components)
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if not components or weights.size == 0:
            raise EmptyMixture("a mixture needs at least one component")
        if weights.ndim != 1 or weights.size != len(components):
            raise MixtureError(
                f"got {weights.size} weights for {len(components)} components"
            )
        if not np.isfinite(weights).all():
            raise NonFiniteValue("component weights must be finite")
        if np.any(weights < 0):
            raise NegativeWeight("component weights must be non-negative")
        total = fsum(weights)
        if total <= 0:
            raise ZeroWeightSum("component weights must not all be zero")
        first = components[0]
        if not isinstance(first, (GaussianComponent, UniformBox)):
            raise UnsupportedDistance(f"no distances defined for {type(first).__name__}")
        for comp in components[1:]:
            if type(comp) is not type(first):
                raise MixedFamilies("all components must come from one family")
            if comp.dim != first.dim:
                raise DimensionMismatch(
                    f"component dimensions differ: {comp.dim} vs {first.dim}"
                )
        self.weights = weights / total
        self.components = components

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def active_indices(self) -> np.ndarray:
        """Indices of components with strictly positive weight."""
        return np.flatnonzero(self.weights > 0)

    def log_density(self, x):
        """Mixture log density at a point (d,) or a batch (n, d).

        Computed as a max-shifted log-sum-exp over ln c_k + ln p_k(x) with
        zero-weight components left out of the index set; a point outside
        every support maps to -inf.  The points are streamed in fixed
        blocks, and a point's value does not depend on which batch it came
        in (batches of two or more points).  Each block is copied once with
        the points on the last axis; every component reads that copy and
        writes its row of one K x block buffer, which is reduced in place.
        So memory is O(block (K + d)) for any batch size, and the buffer is
        allocated once per call.
        """
        pts, single = as_points(x, self.dim, "mixture")
        active = self.active_indices()
        log_weights = np.log(self.weights[active])
        n = pts.shape[0]
        out = np.empty(n)
        rows = np.empty((active.size, min(n, _BLOCK + 1)))
        start = 0
        while start < n:
            # A lone last point joins the block before it: a one-point block
            # takes other BLAS and summation routes and rounds differently.
            stop = n if n - start <= _BLOCK + 1 else start + _BLOCK
            cols, buf = np.ascontiguousarray(pts[start:stop].T), rows[:, : stop - start]
            # The points were checked once above; each component skips its own check.
            for row, k in enumerate(active):
                self.components[k]._log_density_cols(cols, buf[row])
            buf += log_weights[:, None]
            out[start:stop] = log_sum_exp_axis0(buf)
            start = stop
        return float(out[0]) if single else out

    def conditional_entropy(self) -> float:
        """Average component entropy: the floor of the mixture entropy."""
        return fsum(
            self.weights[k] * self.components[k].entropy() for k in self.active_indices()
        )

    def weight_entropy(self) -> float:
        """Entropy of the weight vector, -sum c ln c, with 0 ln 0 = 0."""
        return -fsum(
            self.weights[k] * np.log(self.weights[k]) for k in self.active_indices()
        )

    def joint_entropy_upper(self) -> float:
        """Entropy of the (component, point) pair: the ceiling of the mixture entropy."""
        return self.conditional_entropy() + self.weight_entropy()

    def sample(self, rng, size=None):
        """Draw one vector (size=None) or a (size, d) batch.

        A component index is drawn from the weights, then the component
        generates the point; batches fill per component in index order so a
        fixed generator state always yields the same draws.
        """
        n = 1 if size is None else int(size)
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for k in range(self.n_components):
            mask = idx == k
            hits = int(mask.sum())
            if hits:
                out[mask] = self.components[k].sample(rng, hits)
        return out[0] if size is None else out


class Grouping:
    """Assignment of mixture components to disjoint groups.

    ``assignment[i]`` is the integer group label of component i, and
    ``group_weights`` maps each label to the total mixture weight of its
    members.  Labels whose total weight is zero count as empty groups.
    """

    __slots__ = ("assignment", "group_weights")

    def __init__(self, mixture: MixtureModel, assignment):
        assignment = tuple(int(g) for g in assignment)
        if len(assignment) != mixture.n_components:
            raise MixtureError(
                f"got {len(assignment)} group labels for {mixture.n_components} components"
            )
        buckets: dict[int, list[float]] = {}
        for label, w in zip(assignment, mixture.weights):
            buckets.setdefault(label, []).append(float(w))
        self.assignment = assignment
        self.group_weights = {label: fsum(ws) for label, ws in sorted(buckets.items())}

    @property
    def n_groups(self) -> int:
        """Number of groups that carry positive weight."""
        return sum(1 for w in self.group_weights.values() if w > 0)

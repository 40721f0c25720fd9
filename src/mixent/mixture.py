"""Finite mixture container and the exact split-variable entropy quantities.

A mixture is a weighted list of same-family components.  The three exact
quantities computed here bracket the (intractable) mixture entropy:

    conditional_entropy  <=  H(mixture)  <=  joint_entropy_upper

where joint_entropy_upper = conditional_entropy + weight_entropy.
"""

from __future__ import annotations

import threading
from contextlib import closing

import numpy as np

from ._numeric import (BLOCK, as_count, as_floats, as_points, check_pair, fsum, log_sum_exp_axis0,
                       spans)
from .errors import (
    EmptyMixture,
    MixedFamilies,
    MixtureError,
    NegativeWeight,
    UnsupportedDistance,
    ZeroWeightSum,
)
from .gaussian import GaussianComponent
from .uniform import UniformBox

__all__ = ["MixtureModel"]

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
        weights = np.atleast_1d(as_floats(weights, "component weights"))
        if not components or weights.size == 0:
            raise EmptyMixture("a mixture needs at least one component")
        if weights.ndim != 1 or weights.size != len(components):
            raise MixtureError(
                f"got {weights.size} weights for {len(components)} components"
            )
        if np.any(weights < 0):
            raise NegativeWeight("component weights must be non-negative")
        try:
            total = fsum(weights)
        except OverflowError:  # the sum is too large; the normalized weights are not
            weights = weights / weights.max()
            total = fsum(weights)
        if total <= 0:
            raise ZeroWeightSum("component weights must not all be zero")
        first = components[0]
        if not isinstance(first, (GaussianComponent, UniformBox)):
            raise UnsupportedDistance(f"no distances defined for {type(first).__name__}")
        for comp in components[1:]:
            if type(comp) is not type(first):
                raise MixedFamilies("all components must come from one family")
            check_pair(comp, first)
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
        blocks.  Each block is copied once with the points on the last axis
        and evaluated by the same block routine that the Monte Carlo check
        runs on its grouped draws, which takes the block's columns in chunks
        of a fixed number of coordinates.  So memory is the (d, block) copy,
        the K x block row buffer and a Gaussian's two work buffers of at most
        40 960 + d floats each (up to d = 640), for any batch size.

        In batches of two or more points, a point's value does not depend on
        which batch it came in: bit for bit up to d = 10 and for boxes.
        Above that two batches differ by at most 8 eps max(1, |value|), with
        eps = 2.2e-16, because BLAS may round the tail columns of a block or
        chunk differently.
        """
        pts, single = as_points(x, self.dim, "mixture")
        n = pts.shape[0]
        evaluate = self._block_log_density(n)
        out = np.empty(n)
        for start, stop in spans(n, BLOCK):
            out[start:stop] = evaluate(np.ascontiguousarray(pts[start:stop].T))
        return float(out[0]) if single else out

    def _block_log_density(self, n: int):
        """The mixture log density of one block of points, as a function.

        The function takes the points as the columns of a (d, b) array,
        b <= min(n, BLOCK + 1), unchecked and only read, and returns their
        log densities (b,).  The family's block routine writes every active
        component's row of one K x block buffer, allocated here once; ln c_k
        is added, and the buffer is reduced by a log-sum-exp in place.
        """
        active = self.active_indices()
        log_weights = np.log(self.weights[active])[:, None]
        rows = np.empty((active.size, min(n, BLOCK + 1)))
        comps = [self.components[k] for k in active]
        fill = type(comps[0])._log_density_rows(comps, rows.shape[1])

        def evaluate(cols):
            buf = fill(cols, rows[:, : cols.shape[1]])
            buf += log_weights
            return log_sum_exp_axis0(buf)

        return evaluate

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

        size must be a Python or NumPy integer >= 0, not a bool, or
        :class:`InsufficientSamples` is raised.  The rows are the grouped
        draws of :meth:`_grouped_draws` put back in draw order, so a fixed
        generator state always yields the same points.
        """
        n = 1 if size is None else as_count(size, 0, "the number of samples")
        out = np.empty((n, self.dim))
        with closing(self._grouped_draws(rng, n)) as draws:
            for positions, cols in draws:
                out[positions] = cols.T
        return out[0] if size is None else out

    def _draw_labels(self, rng, n: int):
        """(labels, counts): the component of each of n draws, as the
        narrowest unsigned type, and the number of draws of each component.

        The labels are bitwise those of ``rng.choice(K, n, p=weights)``, and
        the generator is left in the same state: each block of uniforms is
        placed in the cumulative weights, normalised to end at 1, as
        ``choice`` places its n uniforms.  Only a block of uniforms and of
        int64 labels is held at a time, and zero-weight components are never
        drawn.
        """
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        labels = np.empty(n, np.min_scalar_type(self.n_components - 1))
        counts = np.zeros(self.n_components, np.intp)
        for start, stop in spans(n, BLOCK):
            block = cdf.searchsorted(rng.random(stop - start), side="right")
            labels[start:stop] = block
            counts += np.bincount(block, minlength=self.n_components)
        return labels, counts

    def _grouped_draws(self, rng, n: int):
        """Draw n checked points; yield (positions, cols) per block of
        ``spans(n, BLOCK)``, with the points grouped by component.

        The labels of all n draws are drawn first, by :meth:`_draw_labels`.
        Then each block's variates, the next b x d values of the generator's
        stream, are drawn by the family's ``_variates`` (through
        :func:`_variate_blocks`: inline for one block, one block ahead on a
        helper thread for more) and mapped to points by each component's
        ``_from_variates``, in index order, into the next columns of one
        reused (d, block) buffer.  A component with k draws in a block maps
        k rows, so the stream is read and the points formed as each
        component's ``sample`` would draw them; one that a block edge splits
        maps its rows in two products.  ``cols`` is a (d, b) view of the
        buffer that the next block overwrites; ``positions`` are the draw
        indices of its points.  Closing this generator early joins the
        helper thread.
        """
        labels, counts = self._draw_labels(rng, n)
        ends = np.cumsum(counts).tolist()
        # A stable sort lists each component's draws in draw order.  NumPy
        # radix-sorts the narrow unsigned labels, several times faster than
        # it sorts int64 ones; the order is kept in the narrowest unsigned
        # type that holds n - 1, half the memory of int64 indices or less.
        order = np.argsort(labels, kind="stable").astype(np.min_scalar_type(max(n - 1, 0)))
        del labels
        buffer = np.empty((self.dim, min(n, BLOCK + 1)))
        k = 0
        blocks = _variate_blocks(type(self.components[0])._variates, rng, n, self.dim)
        with closing(blocks):
            for (start, stop), variates in blocks:
                cols = buffer[:, : stop - start]
                at = start
                while at < stop:
                    while ends[k] <= at:  # components whose draws are all made
                        k += 1
                    rows = slice(at - start, min(ends[k], stop) - start)
                    cols[:, rows] = self.components[k]._from_variates(variates(rows)).T
                    at = start + rows.stop
                yield order[start:stop], cols


def _variate_blocks(draw, rng, n: int, dim: int):
    """Yield ((start, stop), variates) for each block of ``spans(n, BLOCK)``:
    variates(rows) returns the (r, dim) variates of a slice of the block's
    rows, filled by ``draw(rng, out)``.  The caller asks for consecutive
    slices that cover the block, in order.

    The generator's stream is read in row order, so the variates are the
    same however they are drawn.  A single block is drawn inline, a slice
    at a time as the caller asks for it, so no block-sized array is made.
    More blocks are drawn by one helper thread into two preallocated slots,
    one block ahead: while the caller uses block i in one slot, the thread
    fills the other with block i + 1, and it takes block i's slot for block
    i + 2 once the caller asks for block i + 1.  Two semaphores hand the
    slots over.  ``draw`` releases the GIL, allocates nothing and calls no
    BLAS, so the thread runs beside the caller's mapping and evaluation.
    The thread is joined before this generator ends, also when it is closed
    early or the caller raises; an error in the thread is raised here.
    """
    bounds = list(spans(n, BLOCK))
    if len(bounds) < 2:
        for bound in bounds:
            yield bound, lambda rows: draw(rng, np.empty((rows.stop - rows.start, dim)))
        return
    slots = np.empty((2, BLOCK + 1, dim))
    views = [slots[i % 2, : stop - start] for i, (start, stop) in enumerate(bounds)]
    free, filled = threading.Semaphore(2), threading.Semaphore(0)
    stopping, failure = threading.Event(), []

    def fill():
        try:
            for z in views:
                free.acquire()
                if stopping.is_set():
                    return
                draw(rng, z)
                filled.release()
        except BaseException as exc:  # handed to the caller's thread
            failure.append(exc)
            filled.release()

    worker = threading.Thread(target=fill, name="mixent-variates")
    worker.start()
    try:
        for bound, z in zip(bounds, views):
            filled.acquire()
            if failure:
                raise failure[0]
            yield bound, z.__getitem__
            free.release()
    finally:
        stopping.set()
        free.release()
        worker.join()

"""Uniform box components: volumes, overlaps, divergences, edge cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixent import (
    DegenerateBox,
    DimensionMismatch,
    MixtureError,
    MixtureModel,
    NonFiniteValue,
    UniformBox,
    estimate_all,
    kde_estimate,
    uniform_bd,
    uniform_chernoff,
    uniform_elk_cross,
    uniform_elk_log_cross,
    uniform_kl,
)
from mixent.uniform import _log_overlap


def unit_box(dim: int = 1) -> UniformBox:
    return UniformBox(np.zeros(dim), np.ones(dim))


def random_box_pair(seed: int, dim: int = 2) -> tuple[UniformBox, UniformBox]:
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(2):
        center = rng.normal(0.0, 1.5, dim)
        half = rng.uniform(0.2, 2.0, dim)
        boxes.append(UniformBox(center - half, center + half))
    return boxes[0], boxes[1]


# ---------------------------------------------------------------- construction


def test_scalar_bounds_become_one_dimensional():
    box = UniformBox(0.0, 2.0)
    assert box.dim == 1
    assert math.isclose(box.entropy(), math.log(2.0), abs_tol=1e-12)


def test_degenerate_sides_rejected():
    with pytest.raises(DegenerateBox):
        UniformBox([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DegenerateBox):
        UniformBox([1.0], [0.0])


@pytest.mark.parametrize(
    "lower, upper", [([-1e308], [1e308]), ([0.0, -1e308], [1.0, 1.7e308]), ([-1.7e308], [1e308])]
)
def test_a_side_that_overflows_is_refused(lower, upper):
    # Each bound is finite, but upper - lower overflows to +inf: the box has
    # no finite log volume, estimate_all returned nan with warnings and
    # mc_entropy raised a bare OverflowError.
    with pytest.raises(DegenerateBox, match="finite"):
        UniformBox(lower, upper)


def test_the_widest_finite_side_is_accepted():
    box = UniformBox([-8e307], [8e307])
    assert box.log_volume == math.log(1.6e308)


def test_boxes_near_the_largest_float_have_finite_centers():
    # 0.5 * (lower + upper) overflowed, so estimate_all and kde_estimate refused
    # this accepted mixture: "point coordinates must be finite".
    boxes = [UniformBox([1e308], [1.5e308]), UniformBox([1.2e308], [1.7e308])]
    assert boxes[1].center().tolist() == [1.45e308]
    mix = MixtureModel([0.5, 0.5], boxes)
    report = estimate_all(mix, mc_samples=1000)
    assert report.h_cond <= report.h_bd < report.h_kl <= report.h_joint
    assert report.h_kde == kde_estimate(mix)
    for value in (report.h_kde, report.h_elk, report.mc.estimate):
        assert math.isfinite(value)
    # Away from the float edge the halves add to the halved sum bit for bit.
    rng = np.random.default_rng(3)
    for _ in range(200):
        lower = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), 4)
        box = UniformBox(lower, lower + rng.uniform(1e-3, 1e3, 4))
        assert box.center().tolist() == (0.5 * (box.lower + box.upper)).tolist()


def test_boxes_at_both_ends_of_the_float_range_are_disjoint_without_warnings():
    # A side of their overlap, min(upper) - max(lower), overflows to -inf:
    # exactly disjoint, and no longer an overflow warning.
    low, high = UniformBox([-1.7e308], [-1e308]), UniformBox([1e308], [1.7e308])
    assert _log_overlap(low, high) == -math.inf
    assert uniform_bd(low, high) == math.inf
    assert uniform_elk_log_cross(low, high) == -math.inf
    report = estimate_all(MixtureModel([0.5, 0.5], [low, high]), mc_samples=1000)
    assert report.h_cond < report.h_bd == report.h_kl == report.h_joint
    assert math.isfinite(report.h_kde) and math.isfinite(report.mc.estimate)


def test_bound_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        UniformBox([0.0, 0.0], [1.0])
    with pytest.raises(DimensionMismatch):
        UniformBox([], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bounds_rejected(bad):
    with pytest.raises(NonFiniteValue):
        UniformBox([0.0, bad], [1.0, 1.0])
    with pytest.raises(NonFiniteValue):
        UniformBox([0.0, 0.0], [1.0, bad])


@pytest.mark.parametrize(
    "lower, upper",
    [(["a"], [1.0]), ([False], [True]), ([0.0], np.array([True])), ([[0.0], [0.0, 1.0]], [1.0]),
     (["0"], ["1"]), ([0.0], np.array([1 + 0j])), ([None], [1.0])],
    ids=["text-bound", "bool-bounds", "bool-array", "ragged-bound", "numeric-text-bounds",
         "complex-array", "null-bound"],
)
def test_malformed_or_boolean_bounds_rejected(lower, upper):
    with pytest.raises(MixtureError, match="malformed"):
        UniformBox(lower, upper)


def test_matrix_kernels_are_the_scalar_closed_forms():
    a, b = random_box_pair(4)
    kl = UniformBox.kl_matrix((a, b))
    cross = UniformBox.half_matrices((a, b))[1]
    assert kl[0, 1] == uniform_kl(a, b) and kl[1, 0] == uniform_kl(b, a)
    assert math.isclose(cross[0, 1], uniform_elk_log_cross(a, b), rel_tol=1e-12)
    for alpha in (0.0, 0.25, 0.5, 1.0):
        chernoff = UniformBox.chernoff_matrix((a, b), alpha)
        assert math.isclose(chernoff[0, 1], uniform_chernoff(a, b, alpha), rel_tol=1e-12)
    assert uniform_chernoff(a, b, 0.5) == uniform_bd(a, b)


# ----------------------------------------------------------- entropy / density


def test_entropy_is_log_volume():
    box = UniformBox([0.0, 0.0], [2.0, 3.0])
    assert math.isclose(box.entropy(), math.log(6.0), abs_tol=1e-12)


def test_entropy_of_tiny_high_dimensional_box_stays_finite():
    dim = 16
    box = UniformBox(np.zeros(dim), np.full(dim, 1e-3))
    assert math.isclose(box.entropy(), dim * math.log(1e-3), rel_tol=1e-12)
    assert math.isfinite(box.log_volume)


def test_log_density_inside_boundary_outside():
    box = UniformBox([0.0], [4.0])
    assert math.isclose(box.log_density(np.array([1.0])), -math.log(4.0), abs_tol=1e-12)
    # The box is closed: both faces carry the interior density.
    assert box.log_density(np.array([0.0])) == box.log_density(np.array([4.0]))
    assert box.log_density(np.array([4.0 + 1e-12])) == -math.inf


def test_log_density_batch():
    box = UniformBox([0.0, 0.0], [1.0, 1.0])
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, -0.1]])
    out = box.log_density(pts)
    assert out.shape == (3,)
    assert out[0] == 0.0 and math.isinf(out[1]) and math.isinf(out[2])


@pytest.mark.parametrize("bad", [["a"], [True], [np.False_], ["0.5"], np.array([0.5j])])
def test_log_density_refuses_malformed_or_boolean_points(bad):
    with pytest.raises(MixtureError, match="malformed"):
        unit_box().log_density(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_density_refuses_non_finite_points(bad):
    # A NaN coordinate fails every comparison, so it used to read as "outside".
    box = UniformBox([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(NonFiniteValue):
        box.log_density(np.array([bad, 0.5]))
    with pytest.raises(NonFiniteValue):
        box.log_density(np.array([[0.5, 0.5], [0.5, bad]]))


def test_center_and_sampling():
    rng = np.random.default_rng(3)
    box = UniformBox([-1.0, 2.0], [1.0, 6.0])
    assert np.array_equal(box.center(), [0.0, 4.0])
    draws = box.sample(rng, 50_000)
    assert (draws >= box.lower).all() and (draws <= box.upper).all()
    assert np.allclose(draws.mean(axis=0), box.center(), atol=0.03)
    assert box.sample(rng).shape == (2,)


# --------------------------------------------------------------------- overlap


def test_overlap_of_identical_boxes_is_their_volume():
    box = UniformBox([0.0, 0.0], [2.0, 3.0])
    assert math.isclose(_log_overlap(box, box), math.log(6.0), abs_tol=1e-12)


def test_partial_overlap_interval_example():
    a = UniformBox([0.0], [2.0])
    b = UniformBox([1.0], [3.0])
    assert math.isclose(_log_overlap(a, b), 0.0, abs_tol=1e-12)


def test_touching_boxes_count_as_disjoint():
    a = UniformBox([0.0], [1.0])
    b = UniformBox([1.0], [2.0])
    assert _log_overlap(a, b) == -math.inf


def test_disjoint_in_one_axis_is_disjoint_overall():
    a = UniformBox([0.0, 0.0], [1.0, 1.0])
    b = UniformBox([0.5, 2.0], [1.5, 3.0])
    assert _log_overlap(a, b) == -math.inf


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_overlap_is_symmetric(seed):
    a, b = random_box_pair(seed)
    assert _log_overlap(a, b) == _log_overlap(b, a)


# ----------------------------------------------------------------- divergences


def test_kl_zero_for_identical_boxes():
    box = UniformBox([0.0, -1.0], [2.0, 1.0])
    assert uniform_kl(box, box) == 0.0


def test_kl_containment_example():
    inner = UniformBox([0.0], [1.0])
    outer = UniformBox([-0.5], [1.5])
    assert math.isclose(uniform_kl(inner, outer), math.log(2.0), abs_tol=1e-12)


def test_kl_infinite_without_containment():
    a = UniformBox([0.0], [2.0])
    b = UniformBox([1.0], [3.0])
    assert uniform_kl(a, b) == math.inf
    assert uniform_kl(b, a) == math.inf
    # Containment is directional: the wide box does not fit inside the narrow one.
    inner = UniformBox([0.0], [1.0])
    outer = UniformBox([-0.5], [1.5])
    assert uniform_kl(outer, inner) == math.inf


def test_bd_zero_for_identical_boxes():
    box = UniformBox([0.0, 0.0], [0.5, 4.0])
    assert uniform_bd(box, box) == 0.0


def test_bd_half_overlap_example():
    a = UniformBox([0.0], [2.0])
    b = UniformBox([1.0], [3.0])
    assert math.isclose(uniform_bd(a, b), math.log(2.0), abs_tol=1e-12)


def test_bd_infinite_for_disjoint_boxes():
    a = UniformBox([0.0], [1.0])
    b = UniformBox([2.0], [3.0])
    assert uniform_bd(a, b) == math.inf


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_bd_symmetric_and_nonnegative(seed):
    a, b = random_box_pair(seed)
    assert uniform_bd(a, b) == uniform_bd(b, a)
    assert uniform_bd(a, b) >= 0.0


def test_elk_cross_examples():
    a = UniformBox([0.0], [2.0])
    b = UniformBox([1.0], [3.0])
    assert math.isclose(uniform_elk_cross(a, b), 0.25, abs_tol=1e-12)
    box = UniformBox([0.0], [4.0])
    assert math.isclose(uniform_elk_cross(box, box), 0.25, abs_tol=1e-12)
    disjoint = UniformBox([10.0], [11.0])
    assert uniform_elk_cross(a, disjoint) == 0.0
    assert uniform_elk_log_cross(a, disjoint) == -math.inf


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_elk_cross_symmetric(seed):
    a, b = random_box_pair(seed)
    assert uniform_elk_cross(a, b) == uniform_elk_cross(b, a)


def test_bd_and_elk_share_the_overlap_volume():
    # Both quantities are determined by the three log volumes, so one can be
    # rewritten in terms of the other.
    a = UniformBox([0.0, 0.0], [1.0, 2.0])
    b = UniformBox([0.5, 1.0], [1.5, 3.0])
    bd = uniform_bd(a, b)
    from_elk = -uniform_elk_log_cross(a, b) - 0.5 * (a.log_volume + b.log_volume)
    assert math.isclose(bd, from_elk, abs_tol=1e-12)

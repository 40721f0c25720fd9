"""Gaussian components: construction, entropy, divergences, shared-covariance bounds."""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import mixent.gaussian
from mixent import (
    AlphaOutOfRange,
    DimensionMismatch,
    GaussianComponent,
    MixtureError,
    MixtureModel,
    NonFiniteValue,
    NotPositiveDefinite,
    gaussian_bd,
    gaussian_chernoff,
    gaussian_elk_cross,
    gaussian_elk_log_cross,
    gaussian_kl,
    lower_bound_bd,
    upper_bound_kl,
)
from support import cov_with_condition, float_gaussian_elk_log_cross, random_spd

# Frozen against the 1-D quadrature oracle.
STD_NORMAL_ENTROPY = 1.4189385332046727
ELK_STD_SHIFTED_BY_TWO = 0.10377687435514868
CHERNOFF_03_VAR1_VAR4 = 0.11298278891821376


def gauss1(mean: float, var: float) -> GaussianComponent:
    return GaussianComponent([mean], [[var]])


def random_pair(seed: int, dim: int = 3) -> tuple[GaussianComponent, GaussianComponent]:
    rng = np.random.default_rng(seed)
    a = GaussianComponent(rng.standard_normal(dim), random_spd(rng, dim))
    b = GaussianComponent(rng.standard_normal(dim), random_spd(rng, dim))
    return a, b


# ---------------------------------------------------------------- construction


def test_scalar_inputs_become_one_dimensional():
    comp = GaussianComponent(0.0, 1.0)
    assert comp.dim == 1
    assert comp.cov.shape == (1, 1)


def test_covariance_shape_must_match_mean():
    with pytest.raises(DimensionMismatch):
        GaussianComponent([0.0, 0.0], np.eye(3))
    with pytest.raises(DimensionMismatch):
        GaussianComponent(np.zeros(0), np.eye(0))


def test_asymmetric_covariance_rejected():
    with pytest.raises(NotPositiveDefinite):
        GaussianComponent([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])


@pytest.mark.parametrize("dim", [1, 2, 5, 60])
def test_symmetry_decision_is_np_allclose(dim):
    # Construction refuses a covariance as "not symmetric" exactly when
    # np.allclose(cov, cov.T) with the construction's tolerances is false.
    # One entry is moved off its mirror to just inside and just outside the
    # tolerance, at entry scales from 1e-150 to 1e150.
    rtol = mixent.gaussian._SYMMETRY_RTOL
    rng = np.random.default_rng(dim)
    factors = (0.5, 1.0 - 1e-12, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-12, 2.0)
    decisions = set()
    for scale in np.logspace(-150.0, 150.0, 13):
        base = random_spd(rng, dim, scale)
        i, j = (0, 0) if dim == 1 else tuple(rng.choice(dim, 2, replace=False))
        for factor in factors:
            for sign in (1.0, -1.0):
                cov = base.copy()
                atol = rtol * max(float(np.abs(cov).max()), 1.0)
                cov[i, j] = cov[j, i] + sign * factor * (atol + rtol * abs(cov[j, i]))
                atol = rtol * max(float(np.abs(cov).max()), 1.0)
                symmetric = np.allclose(cov, cov.T, rtol=rtol, atol=atol)
                try:
                    GaussianComponent(np.zeros(dim), cov)
                    refused = False
                except NotPositiveDefinite as exc:
                    refused = "not symmetric" in str(exc)
                assert refused == (not symmetric), (scale, factor, sign)
                decisions.add(refused)
    assert decisions == ({False} if dim == 1 else {False, True})


def test_indefinite_covariance_rejected():
    with pytest.raises(NotPositiveDefinite):
        GaussianComponent([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_numerically_singular_covariance_rejected():
    with pytest.raises(NotPositiveDefinite):
        GaussianComponent([0.0, 0.0], np.diag([1.0, 1e-15]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mean_or_covariance_rejected(bad):
    with pytest.raises(NonFiniteValue):
        GaussianComponent([0.0, bad], np.eye(2))
    with pytest.raises(NonFiniteValue):
        GaussianComponent([0.0, 0.0], [[1.0, bad], [bad, 1.0]])


@pytest.mark.parametrize(
    "mean, cov",
    [(["a"], [[1.0]]), ([0.0, 0.0], [[1.0, 0.0], [0.0]]), ([1j], [[1.0]]),
     ([True], [[1.0]]), ([0.0], [[np.True_]]), (np.array([False]), np.eye(1)),
     (["1.5"], [["2"]]), (np.array([1 + 2j]), [[1.0]]), ([0.0], np.eye(1, dtype=complex)),
     ([None], [[1.0]]), ([Fraction(1, 2)], [[1.0]]), ([0.0], [[Decimal("2")]]),
     (np.array(["1.5"]), [[1.0]])],
    ids=["text-mean", "ragged-cov", "complex-mean", "bool-mean", "numpy-bool-cov", "bool-array",
         "numeric-text", "complex-array-mean", "complex-array-cov", "null-mean", "fraction-mean",
         "decimal-cov", "text-array-mean"],
)
def test_malformed_or_boolean_mean_or_covariance_rejected(mean, cov):
    with pytest.raises(MixtureError, match="malformed"):
        GaussianComponent(mean, cov)


def test_matrix_kernels_are_the_scalar_closed_forms():
    a, b = random_pair(21)
    kl = GaussianComponent.kl_matrix((a, b))
    chernoff = GaussianComponent.chernoff_matrix((a, b), 0.3)
    cross = GaussianComponent.half_matrices((a, b))[1]
    for (i, p), (j, q) in ((0, a), (1, b)), ((1, b), (0, a)):
        assert math.isclose(kl[i, j], gaussian_kl(p, q), rel_tol=1e-12)
        assert math.isclose(chernoff[i, j], gaussian_chernoff(p, q, 0.3), rel_tol=1e-12)
        assert math.isclose(cross[i, j], float_gaussian_elk_log_cross(p, q), rel_tol=1e-12)
    assert a.center() is a.mean


# --------------------------------------------------------- entropy and density


def test_entropy_standard_normal():
    assert math.isclose(gauss1(0.0, 1.0).entropy(), STD_NORMAL_ENTROPY, abs_tol=1e-12)


def test_entropy_scales_with_log_variance():
    wide = gauss1(0.0, 4.0)
    assert math.isclose(
        wide.entropy(), STD_NORMAL_ENTROPY + math.log(2.0), abs_tol=1e-12
    )


def test_entropy_adds_over_independent_coordinates():
    comp = GaussianComponent(np.zeros(2), np.eye(2))
    assert math.isclose(comp.entropy(), 2.0 * STD_NORMAL_ENTROPY, abs_tol=1e-12)


def test_entropy_is_translation_invariant():
    assert gauss1(0.0, 2.5).entropy() == gauss1(-17.0, 2.5).entropy()


def test_log_density_peak_value():
    comp = gauss1(0.0, 1.0)
    assert math.isclose(
        comp.log_density(np.zeros(1)), -0.9189385332046727, abs_tol=1e-12
    )
    assert comp.log_density(np.zeros(1)) > comp.log_density(np.array([0.5]))


def test_log_density_batch_matches_singles():
    rng = np.random.default_rng(2)
    comp = GaussianComponent(rng.standard_normal(3), random_spd(rng, 3))
    pts = rng.standard_normal((7, 3))
    batch = comp.log_density(pts)
    assert batch.shape == (7,)
    assert np.allclose(batch, [comp.log_density(p) for p in pts], atol=1e-12)


def test_log_density_dimension_checked():
    with pytest.raises(DimensionMismatch):
        gauss1(0.0, 1.0).log_density(np.zeros(2))


@pytest.mark.parametrize("bad", [["a"], [True], np.array([True]), [[0.0], [1.0, 2.0]], ["0.5"],
                                 np.array([0.5 + 0j])])
def test_log_density_refuses_malformed_or_boolean_points(bad):
    # [True] used to be read as the point 1.0, whose log density is -0.0 here.
    comp = GaussianComponent([1.0], [[1.0 / (2.0 * math.pi)]])
    with pytest.raises(MixtureError, match="malformed"):
        comp.log_density(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_density_refuses_non_finite_points(bad):
    comp = GaussianComponent(np.zeros(2), np.eye(2))
    with pytest.raises(NonFiniteValue):
        comp.log_density(np.array([bad, 0.5]))
    with pytest.raises(NonFiniteValue):
        comp.log_density(np.array([[0.0, 0.0], [0.5, bad]]))


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1.0, 1e3, 1e6]),
)
@settings(max_examples=60, deadline=None)
def test_log_density_matches_scipy_multivariate_normal(dim, seed, offset):
    # An independent reference; large offsets put the means far from the origin.
    rng = np.random.default_rng(seed)
    mean = offset * rng.standard_normal(dim)
    cov = random_spd(rng, dim, scale=rng.uniform(0.01, 100.0))
    pts = mean + 3.0 * rng.standard_normal((9, dim)) @ np.linalg.cholesky(cov).T
    got = GaussianComponent(mean, cov).log_density(pts)
    ref = multivariate_normal(mean, cov).logpdf(pts)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_density_far_from_the_mean_is_minus_infinity_without_warnings():
    # The squared distance overflows to +inf, the exact value: no warning.
    comp = GaussianComponent(np.zeros(3), np.diag([1.0, 2.0, 0.5]))
    pts = np.array([[1e160, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1e160, 1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = comp.log_density(pts[0])
        batch = comp.log_density(pts)
    assert single == -math.inf
    assert np.isneginf(batch).tolist() == [True, False, True]
    assert batch[1] == comp.log_density(pts[1])


@pytest.mark.parametrize("cond", [1e2, 1e5, 1e8, 1e11])
def test_log_density_quadratic_form_is_accurate_when_ill_conditioned(cond):
    # Reference: forward substitution with the same Cholesky factor in extended
    # precision, so only the evaluation through the inverse factor is measured.
    rng = np.random.default_rng(int(math.log10(cond)))
    dim = 6
    for _ in range(10):
        comp = GaussianComponent(rng.standard_normal(dim), cov_with_condition(rng, dim, cond))
        pts = comp.mean + rng.uniform(1.0, 4.0) * rng.standard_normal((20, dim)) @ comp.chol.T
        quad = -2.0 * comp.log_density(pts) - comp.log_det - dim * math.log(2.0 * math.pi)
        chol = comp.chol.astype(np.longdouble)
        delta = pts.astype(np.longdouble) - comp.mean.astype(np.longdouble)
        z = np.zeros_like(delta)
        for k in range(dim):
            z[:, k] = (delta[:, k] - (z[:, :k] * chol[k, :k]).sum(axis=1)) / chol[k, k]
        ref = (z * z).sum(axis=1)
        assert float(np.max(np.abs(quad - ref) / ref)) <= 1e-10


# ---------------------------------------------------------------- divergences


def test_kl_of_component_with_itself_is_tiny():
    a, _ = random_pair(31)
    assert 0.0 <= gaussian_kl(a, a) <= 1e-12


def test_kl_mean_shift_example():
    assert math.isclose(gaussian_kl(gauss1(0.0, 1.0), gauss1(2.0, 1.0)), 2.0, abs_tol=1e-12)


def test_kl_variance_ratio_examples():
    narrow_into_wide = gaussian_kl(gauss1(0.0, 1.0), gauss1(0.0, 4.0))
    wide_into_narrow = gaussian_kl(gauss1(0.0, 4.0), gauss1(0.0, 1.0))
    assert math.isclose(narrow_into_wide, 0.5 * math.log(4.0) - 0.375, abs_tol=1e-12)
    assert math.isclose(wide_into_narrow, 1.5 - math.log(2.0), abs_tol=1e-12)
    assert narrow_into_wide != wide_into_narrow


def test_kl_dimension_checked():
    with pytest.raises(DimensionMismatch):
        gaussian_kl(gauss1(0.0, 1.0), GaussianComponent(np.zeros(2), np.eye(2)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_kl_nonnegative(seed):
    a, b = random_pair(seed)
    assert gaussian_kl(a, b) >= 0.0


def test_chernoff_rejects_orders_outside_unit_interval():
    a, b = random_pair(5)
    # True is not taken as order 1, nor "0.3" compared as a string.
    for alpha in (-0.5, -1e-9, 1.0 + 1e-9, 1.5, True, "0.3"):
        with pytest.raises(AlphaOutOfRange):
            gaussian_chernoff(a, b, alpha)


def test_chernoff_boundary_orders_are_exactly_zero():
    a, b = random_pair(6)
    assert gaussian_chernoff(a, b, 0.0) == 0.0
    assert gaussian_chernoff(a, b, 1.0) == 0.0


def test_chernoff_half_mean_shift_example():
    assert math.isclose(
        gaussian_chernoff(gauss1(0.0, 1.0), gauss1(2.0, 1.0), 0.5), 0.5, abs_tol=1e-12
    )


def test_chernoff_unequal_variances_frozen_value():
    value = gaussian_chernoff(gauss1(0.0, 1.0), gauss1(0.0, 4.0), 0.3)
    assert math.isclose(value, CHERNOFF_03_VAR1_VAR4, abs_tol=1e-12)


def test_bhattacharyya_variance_ratio_example():
    value = gaussian_bd(gauss1(0.0, 1.0), gauss1(0.0, 4.0))
    assert math.isclose(value, 0.5 * math.log(1.25), abs_tol=1e-12)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=40, deadline=None)
def test_chernoff_order_swap_symmetry(seed, alpha):
    a, b = random_pair(seed)
    left = gaussian_chernoff(a, b, alpha)
    right = gaussian_chernoff(b, a, 1.0 - alpha)
    assert math.isclose(left, right, rel_tol=1e-10, abs_tol=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_bhattacharyya_is_symmetric(seed):
    a, b = random_pair(seed)
    assert math.isclose(gaussian_bd(a, b), gaussian_bd(b, a), rel_tol=1e-10, abs_tol=1e-12)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=40, deadline=None)
def test_chernoff_capped_by_scaled_kl(seed, alpha):
    a, b = random_pair(seed)
    cap = min((1.0 - alpha) * gaussian_kl(a, b), alpha * gaussian_kl(b, a))
    assert gaussian_chernoff(a, b, alpha) <= cap + 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_chernoff_coefficient_is_midpoint_convex_in_order(seed):
    a, b = random_pair(seed)
    grid = np.linspace(0.1, 0.9, 9)
    coeff = [math.exp(-gaussian_chernoff(a, b, alpha)) for alpha in grid]
    for lo, mid, hi in zip(coeff, coeff[1:], coeff[2:]):
        assert mid <= 0.5 * (lo + hi) + 1e-12


# -------------------------------------------------------------- overlap kernel


def test_elk_cross_standard_pair():
    value = gaussian_elk_cross(gauss1(0.0, 1.0), gauss1(0.0, 1.0))
    assert math.isclose(value, 1.0 / (2.0 * math.sqrt(math.pi)), rel_tol=1e-14)
    assert math.isclose(
        -gaussian_elk_log_cross(gauss1(0.0, 1.0), gauss1(0.0, 1.0)),
        0.5 * math.log(4.0 * math.pi),
        abs_tol=1e-12,
    )


def test_elk_cross_shifted_pair_frozen_value():
    value = gaussian_elk_cross(gauss1(0.0, 1.0), gauss1(2.0, 1.0))
    assert math.isclose(value, ELK_STD_SHIFTED_BY_TWO, abs_tol=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_elk_cross_symmetric_and_positive(seed):
    a, b = random_pair(seed)
    assert gaussian_elk_log_cross(a, b) == gaussian_elk_log_cross(b, a)
    assert gaussian_elk_cross(a, b) > 0.0


def test_elk_cross_decays_with_separation():
    near = gaussian_elk_cross(gauss1(0.0, 1.0), gauss1(1.0, 1.0))
    far = gaussian_elk_cross(gauss1(0.0, 1.0), gauss1(5.0, 1.0))
    assert far < near


# ------------------------------------------------- shared-covariance mixtures


def shared_cov_mixture(seed: int, n: int = 5, dim: int = 3) -> MixtureModel:
    rng = np.random.default_rng(seed)
    cov = random_spd(rng, dim)
    comps = [GaussianComponent(rng.standard_normal(dim) * 2.0, cov) for _ in range(n)]
    return MixtureModel(rng.uniform(0.2, 1.0, n), comps)


def test_coincident_components_collapse_to_component_entropy():
    cov = np.diag([1.0, 3.0])
    comp = GaussianComponent([0.5, -0.5], cov)
    mix = MixtureModel([0.25, 0.75], [comp, GaussianComponent([0.5, -0.5], cov)])
    h = comp.entropy()
    assert math.isclose(lower_bound_bd(mix), h, abs_tol=1e-12)
    assert math.isclose(upper_bound_kl(mix), h, abs_tol=1e-12)


def test_shared_path_brackets_run_in_the_right_order():
    mix = shared_cov_mixture(14)
    lower = lower_bound_bd(mix)
    upper = upper_bound_kl(mix)
    assert mix.conditional_entropy() - 1e-12 <= lower <= upper
    assert upper <= mix.joint_entropy_upper() + 1e-12


def test_kl_matrix_applies_the_stored_inverse_factors(monkeypatch):
    # A component's own factor reaches the KL kernel only through inv_chol;
    # forward substitution is left to fresh factors and the scalar reference.
    rng = np.random.default_rng(5)
    comps = [GaussianComponent(rng.standard_normal(4), random_spd(rng, 4)) for _ in range(6)]

    def refuse(*args):
        raise AssertionError("the KL kernel forward-substituted")

    monkeypatch.setattr(mixent.gaussian, "forward_substitute", refuse)
    kl = GaussianComponent.kl_matrix(comps)
    monkeypatch.undo()
    ref = np.array([[gaussian_kl(a, b) for b in comps] for a in comps])
    np.testing.assert_allclose(kl, ref, rtol=1e-12, atol=0.0)


def _longdouble_cholesky(cov):
    factor = np.zeros(cov.shape, dtype=np.longdouble)
    cov = cov.astype(np.longdouble)
    for j in range(len(cov)):
        factor[j, j] = np.sqrt(cov[j, j] - (factor[j, :j] ** 2).sum())
        for i in range(j + 1, len(cov)):
            factor[i, j] = (cov[i, j] - (factor[i, :j] * factor[j, :j]).sum()) / factor[j, j]
    return factor


def _longdouble_kl(a, b):
    """KL(a || b) in extended precision from the components' float64 inputs."""
    chol_a, chol_b = _longdouble_cholesky(a.cov), _longdouble_cholesky(b.cov)
    rhs = np.column_stack([a.mean.astype(np.longdouble) - b.mean, chol_a])
    for k in range(len(rhs)):
        rhs[k] = (rhs[k] - (chol_b[k, :k, None] * rhs[:k]).sum(axis=0)) / chol_b[k, k]
    log_dets = [2.0 * np.log(np.diagonal(chol)).sum() for chol in (chol_a, chol_b)]
    return 0.5 * (log_dets[1] - log_dets[0] + (rhs * rhs).sum() - len(rhs))


@pytest.mark.parametrize("cond", [1e2, 1e6])
@pytest.mark.parametrize("dim", range(2, 8))
def test_kl_matrix_is_accurate_on_near_copies(dim, cond):
    # cov2 = F cov F^T with F = I + eps G: the KL terms nearly cancel, so the
    # entries are compared in absolute terms.  At condition numbers near the
    # package's limit the float64 inputs alone leave errors of ~1e-7.
    rng = np.random.default_rng([dim, int(math.log10(cond))])
    for eps in np.logspace(-16.0, -6.0, 11):
        cov, mean = cov_with_condition(rng, dim, cond), rng.standard_normal(dim)
        twist = np.eye(dim) + eps * rng.standard_normal((dim, dim))
        near = twist @ cov @ twist.T
        comps = [
            GaussianComponent(mean, cov),
            GaussianComponent(mean + eps * rng.standard_normal(dim), 0.5 * (near + near.T)),
        ]
        kl = GaussianComponent.kl_matrix(comps)
        for i, j in ((0, 1), (1, 0)):
            ref = max(_longdouble_kl(comps[i], comps[j]), 0.0)
            assert abs(kl[i, j] - ref) <= 1e-13

"""Per-family matrix kernels against the scalar pair closed forms they replace."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixent.estimators
import mixent.gaussian
import mixent.uniform
from mixent import (
    BHATTACHARYYA,
    KL,
    AwgnChannel,
    GaussianComponent,
    MixtureModel,
    UniformBox,
    chernoff_distance,
    clustered_gap_bound,
    elk_estimate,
    estimate_all,
    gaussian_chernoff,
    gaussian_elk_cross,
    gaussian_elk_log_cross,
    gaussian_kl,
    gen_gaussian_clustered,
    lower_bound_chernoff,
    mi_bounds,
    pairwise_distance_matrix,
    pairwise_estimate,
    uniform_chernoff,
    uniform_elk_log_cross,
    uniform_kl,
    upper_bound_kl,
)
from support import (
    cov_with_condition,
    float_gaussian_elk_log_cross,
    mp_box_pair,
    mp_gaussian_chernoff,
    mp_gaussian_pair,
    random_gaussian_mixture,
    random_spd,
    random_uniform_mixture,
)

ORDERS = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)
RTOL = 1e-12
SCALAR = {
    # The Gaussian ELK scalar is a view of its kernel; its float formula is in support.
    GaussianComponent: (gaussian_kl, gaussian_chernoff, float_gaussian_elk_log_cross),
    UniformBox: (uniform_kl, uniform_chernoff, uniform_elk_log_cross),
}
# Every scalar pair function of both families, including the private helpers.
PAIR_FUNCTIONS = {
    mixent.gaussian: ("gaussian_kl", "gaussian_chernoff", "gaussian_bd",
                      "gaussian_elk_log_cross", "gaussian_elk_cross", "_chernoff_exponent"),
    mixent.uniform: ("uniform_kl", "uniform_chernoff", "uniform_bd",
                     "uniform_elk_log_cross", "uniform_elk_cross", "_log_overlap"),
}


def scalar_matrix(pair, comps, zero_diagonal=True) -> np.ndarray:
    n = len(comps)
    return np.array(
        [[0.0 if zero_diagonal and i == j else pair(comps[i], comps[j]) for j in range(n)]
         for i in range(n)]
    ).reshape(n, n)


def assert_matches(kernel: np.ndarray, reference: np.ndarray) -> None:
    """Same shape, same +-inf pattern, finite entries within RTOL * max(|ref|, 1).

    The absolute floor below 1 covers entries that are near zero through
    cancellation, e.g. the KL divergence between near-identical components.
    """
    assert kernel.shape == reference.shape
    assert np.array_equal(np.isposinf(kernel), np.isposinf(reference))
    assert np.array_equal(np.isneginf(kernel), np.isneginf(reference))
    finite = np.isfinite(reference)
    assert np.isfinite(kernel[finite]).all()
    err = np.abs(kernel[finite] - reference[finite])
    assert (err <= RTOL * np.maximum(np.abs(reference[finite]), 1.0)).all(), err.max()


def assert_kernels_match(comps) -> None:
    family = type(comps[0])
    kl, chernoff, elk = SCALAR[family]
    dmats = [family.kl_matrix(comps)] + [family.chernoff_matrix(comps, a) for a in ORDERS]
    refs = [scalar_matrix(kl, comps)] + [
        scalar_matrix(lambda p, q, a=a: chernoff(p, q, a), comps) for a in ORDERS
    ]
    for dmat, ref in zip(dmats, refs):
        assert_matches(dmat, ref)
        assert (np.diag(dmat) == 0.0).all()
        assert (dmat >= 0.0).all()
    for alpha in (0.0, 1.0):
        assert (family.chernoff_matrix(comps, alpha) == 0.0).all()
    assert_matches(family.half_matrices(comps)[1], scalar_matrix(elk, comps, False))


def grid_boxes(rng, n: int, dim: int) -> list[UniformBox]:
    """Boxes with integer corners on a small grid: nested, touching, identical
    and disjoint pairs all occur often."""
    lower = rng.integers(0, 3, (n, dim)).astype(float)
    return [UniformBox(lo, lo + rng.integers(1, 3, dim)) for lo in lower]


def gaussian_comps(rng, n: int, dim: int) -> list[GaussianComponent]:
    comps = [GaussianComponent(rng.standard_normal(dim), random_spd(rng, dim)) for _ in range(n)]
    if n > 1:
        comps[-1] = GaussianComponent(comps[0].mean, comps[0].cov)  # an identical pair
    return comps


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_gaussian_kernels_match_a_60_digit_reference(seed, dim):
    # Three components, the last an exact copy of the first; random_spd keeps
    # every covariance well conditioned, so no entry is a near-copy residue.
    comps = gaussian_comps(np.random.default_rng(seed), 3, dim)
    kl = GaussianComponent.kl_matrix(comps)
    bd, log_cross = GaussianComponent.half_matrices(comps)
    for i in range(3):
        for j in range(3):
            a, b = comps[i], comps[j]
            if np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
                assert kl[i, j] == 0.0 and bd[i, j] == 0.0
            ref = mp_gaussian_pair(a, b)
            for value, exact in zip((kl[i, j], bd[i, j], log_cross[i, j]), ref):
                assert abs(value - exact) <= RTOL * max(1.0, abs(exact)), (i, j, value, exact)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_gaussian_elk_scalar_equals_its_float_formula(seed, dim, mean_exp, cov_exp, far):
    # The ELK scalar reads the pair's half_matrices entry; it keeps the bits
    # of the float closed form, including -inf for means too far apart.
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((2, dim)) * 10.0**mean_exp
    if far:
        means[:, 0] = 1e200, -1e200
    a, b = (GaussianComponent(m, random_spd(rng, dim, 10.0**cov_exp)) for m in means)
    expected = float_gaussian_elk_log_cross(a, b)
    assert (expected == -math.inf) == far
    for p, q in ((a, b), (b, a), (a, a)):
        reference = float_gaussian_elk_log_cross(p, q)
        assert gaussian_elk_log_cross(p, q) == reference
        assert gaussian_elk_cross(p, q) == math.exp(reference)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_gaussian_chernoff_orders_match_a_60_digit_reference(seed, dim):
    # The order-alpha blend is not symmetric, so every ordered pair is checked.
    comps = gaussian_comps(np.random.default_rng(seed), 3, dim)
    for alpha in (0.1, 0.3, 0.9):
        chernoff = GaussianComponent.chernoff_matrix(comps, alpha)
        for i in range(3):
            for j in range(3):
                exact = mp_gaussian_chernoff(comps[i], comps[j], alpha)
                err = abs(chernoff[i, j] - exact)
                assert err <= RTOL * max(1.0, abs(exact)), (alpha, i, j, chernoff[i, j], exact)


@pytest.mark.parametrize("dim", range(2, 6))
@pytest.mark.parametrize("cond", [1e3, 1e7, 1e11])
def test_gaussian_kernels_keep_the_written_error_budget(cond, dim):
    # The README budget: on covariances of condition number cond, each closed
    # form is within 8 u cond max(1, |exact|) of its 60-digit value, u = 2^-53.
    # The worst seen over 30 seeds per cond was 0.9 u cond, for KL.
    rng = np.random.default_rng([dim, int(math.log10(cond))])
    comps = [GaussianComponent(rng.standard_normal(dim), cov_with_condition(rng, dim, cond))
             for _ in range(2)]
    bd, log_cross = GaussianComponent.half_matrices(comps)
    kernels = {"KL": GaussianComponent.kl_matrix(comps), "BD": bd, "ELK": log_cross}
    kernels.update({a: GaussianComponent.chernoff_matrix(comps, a) for a in (0.1, 0.3, 0.9)})
    budget = 8.0 * 2.0**-53 * cond
    for i, j in ((0, 1), (1, 0)):
        exact = dict(zip(("KL", "BD", "ELK"), mp_gaussian_pair(comps[i], comps[j])))
        exact.update({a: mp_gaussian_chernoff(comps[i], comps[j], a) for a in (0.1, 0.3, 0.9)})
        for name, kernel in kernels.items():
            err = abs(kernel[i, j] - exact[name])
            assert err <= budget * max(1.0, abs(exact[name])), (name, i, j, err)


@st.composite
def extreme_boxes(draw):
    """Two to five boxes in d 1-8, then a copy of the first.  Axis k has its
    own scale s_k, a mantissa in [1, 2) times 10^-200 to 10^200, and every
    box spans s_k [l, l + w] on it, l in 0..3 and w in 1..3: nested,
    touching, disjoint and identical pairs all occur, with sides from 1e-200
    to 1e201 and a box's sides of unrelated sizes."""
    dim = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=2, max_value=5))
    scales = np.array([draw(st.floats(min_value=1.0, max_value=2.0, exclude_max=True))
                       * 10.0 ** draw(st.integers(min_value=-200, max_value=200))
                       for _ in range(dim)])
    corners = st.lists(st.integers(min_value=0, max_value=3), min_size=dim, max_size=dim)
    widths = st.lists(st.integers(min_value=1, max_value=3), min_size=dim, max_size=dim)
    boxes = []
    for _ in range(n):
        lower, width = np.array(draw(corners)), np.array(draw(widths))
        boxes.append(UniformBox(scales * lower, scales * (lower + width)))
    return boxes + [UniformBox(boxes[0].lower, boxes[0].upper)]


def log_size(lower, upper) -> float:
    """sum_k |ln side_k| of a box: |ln V| when no two sides lie on either side of 1."""
    return float(np.abs(np.log(upper - lower)).sum())


@given(extreme_boxes())
@settings(max_examples=40, deadline=None)
def test_box_kernels_keep_the_written_error_budget(boxes):
    # The README budget: each box entry is within 8 u d max(1, L_i, L_j, L_ij)
    # of its 60-digit value, u = 2^-53, with L the log size of box i, box j
    # and their overlap; every infinite entry is exact.  The worst seen over
    # 1,800 draws was 1.9 u d L for KL and every Chernoff order, 2.4 for ELK.
    dim = boxes[0].dim
    bd, log_cross = UniformBox.half_matrices(boxes)
    kernels = {"KL": UniformBox.kl_matrix(boxes), "BD": bd, "ELK": log_cross}
    kernels.update({a: UniformBox.chernoff_matrix(boxes, a) for a in (0.1, 0.5, 0.9)})
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            exact = dict(zip(("KL", "BD", "ELK"), mp_box_pair(a, b)))
            exact.update({alpha: mp_box_pair(a, b, alpha)[1] for alpha in (0.1, 0.9)})
            exact[0.5] = exact["BD"]
            lower, upper = np.maximum(a.lower, b.lower), np.minimum(a.upper, b.upper)
            sizes = [log_size(a.lower, a.upper), log_size(b.lower, b.upper)]
            if (upper > lower).all():
                sizes.append(log_size(lower, upper))
            budget = 8.0 * 2.0**-53 * dim * max(1.0, *sizes)
            for name, kernel in kernels.items():
                if math.isinf(exact[name]):
                    assert kernel[i, j] == exact[name], (name, i, j, kernel[i, j])
                else:
                    err = abs(kernel[i, j] - exact[name])
                    assert err <= budget, (name, i, j, err / budget * 8.0)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["gaussian", "uniform", "grid"]),
)
@settings(max_examples=60, deadline=None)
def test_kernels_equal_the_scalar_reference(seed, n, dim, family):
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        comps = gaussian_comps(rng, n, dim)
    elif family == "uniform":
        comps = list(random_uniform_mixture(rng, n, dim, spread=1.0).components)
    else:
        comps = grid_boxes(rng, n, dim)
    assert_kernels_match(comps)
    # Zero-weight components are built into the matrices and dropped by the estimators.
    weights = rng.uniform(0.2, 1.0, n) * (rng.uniform(size=n) < 0.7)
    weights[rng.integers(n)] = 1.0
    mix = MixtureModel(weights, comps)
    active = mix.active_indices()
    log_w = np.log(mix.weights[active])
    kl, chernoff, elk = SCALAR[type(comps[0])]
    for kind, pair in ((KL, kl), (chernoff_distance(0.25), lambda p, q: chernoff(p, q, 0.25))):
        mixing = mixent.estimators._mixing_term(mix, scalar_matrix(pair, comps))
        expected = mix.conditional_entropy() - mixing
        assert math.isclose(pairwise_estimate(mix, kind), expected, rel_tol=RTOL)
    # The ELK expectation reduces each row of the scalar matrix on its own.
    inner = []
    for row in log_w + scalar_matrix(elk, comps, False)[np.ix_(active, active)]:
        top = row.max()
        inner.append(top + math.log(math.fsum(np.exp(row - top).tolist())))
    expected = -math.fsum((mix.weights[active] * inner).tolist())
    assert math.isclose(elk_estimate(mix), expected, rel_tol=RTOL)


def test_box_kernels_on_every_placement():
    unit = UniformBox([0.0, 0.0], [1.0, 1.0])
    boxes = [
        unit,
        UniformBox([0.0, 0.0], [1.0, 1.0]),  # identical
        UniformBox([0.25, 0.25], [0.75, 0.5]),  # nested
        UniformBox([1.0, 0.0], [2.0, 1.0]),  # touching along one face
        UniformBox([1.0, 1.0], [2.0, 2.0]),  # touching at a corner
        UniformBox([0.5, 3.0], [1.5, 4.0]),  # disjoint along one axis only
        UniformBox([0.5, 0.5], [1.5, 1.5]),  # overlapping, not nested
    ]
    assert_kernels_match(boxes)
    with np.errstate(all="raise"):
        for alpha in (0.1, 0.5):
            bd = UniformBox.chernoff_matrix(boxes, alpha)
            assert bd[0, 1] == 0.0 and bd[0, 3] == math.inf and bd[0, 5] == math.inf
        kl = UniformBox.kl_matrix(boxes)
        assert kl[2, 0] == math.log(8.0) and kl[0, 2] == math.inf
        assert UniformBox.half_matrices(boxes)[1][0, 4] == -math.inf


@pytest.mark.parametrize("seed", range(40))
def test_box_half_pass_on_grid_placements(seed):
    # A non-integer scale keeps every placement, but the kernel's sum of log
    # sides can then miss a box's fsum log volume by an ulp, so identical
    # boxes are exactly zero apart only through the nesting overrides.
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 3.0)
    grid = grid_boxes(rng, int(rng.integers(2, 9)), int(rng.integers(1, 6)))
    boxes = [UniformBox(b.lower * scale, b.upper * scale) for b in grid + grid[:1]]
    bd, elk = UniformBox.half_matrices(boxes)
    assert np.array_equal(bd, UniformBox.chernoff_matrix(boxes, 0.5))
    assert np.array_equal(bd, bd.T) and np.array_equal(elk, elk.T)
    lowers = np.array([b.lower for b in boxes])
    uppers = np.array([b.upper for b in boxes])
    identical = (lowers[:, None] == lowers).all(axis=-1) & (uppers[:, None] == uppers).all(axis=-1)
    assert identical.sum() > len(boxes)
    assert (bd[identical] == 0.0).all()
    for alpha in (0.1, 0.3, 0.7, 0.9):
        assert (UniformBox.chernoff_matrix(boxes, alpha)[identical] == 0.0).all(), alpha
    sides = np.minimum(uppers[:, None], uppers) - np.maximum(lowers[:, None], lowers)
    assert np.array_equal(np.isneginf(elk), (sides <= 0.0).any(axis=-1))


@pytest.mark.parametrize(
    "comp",
    [GaussianComponent([1.0, 2.0], np.eye(2)), UniformBox([0.0, 0.0], [2.0, 3.0])],
    ids=["gaussian", "uniform"],
)
def test_single_component_kernels(comp):
    assert_kernels_match([comp])
    assert type(comp).half_matrices([comp])[1][0, 0] == SCALAR[type(comp)][2](comp, comp)


def exactness_mixture(kind, seed):
    """``clustered``: the g3 sweep's mixture at sigma = 13.8, whose components
    share a center and a covariance exactly.  ``copies``: random components
    followed by bitwise copies of three of them."""
    if kind == "clustered":
        return gen_gaussian_clustered(20, 5, 5, 13.804574186067095, seed, False)[0]
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    comps = gaussian_comps(rng, n, dim)
    comps += [GaussianComponent(comps[k].mean, comps[k].cov) for k in rng.integers(0, n, 3)]
    return MixtureModel(rng.uniform(0.2, 1.0, n + 3), comps)


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("kind", ["clustered", "copies"])
def test_identical_components_are_exactly_zero_apart(kind, seed):
    mix = exactness_mixture(kind, seed)
    comps = mix.components
    bd = pairwise_distance_matrix(mix, BHATTACHARYYA)
    identical = [
        (i, j) for i in range(len(comps)) for j in range(len(comps))
        if np.array_equal(comps[i].mean, comps[j].mean)
        and np.array_equal(comps[i].cov, comps[j].cov)
    ]
    assert len(identical) > len(comps)
    assert [bd[i, j] for i, j in identical] == [0.0] * len(identical)
    # Every order, not only 1/2: the premetric D(p || p) = 0 is what keeps
    # the Chernoff lower bound below the KL upper bound on exact copies.
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        dists = pairwise_distance_matrix(mix, chernoff_distance(alpha))
        assert [dists[i, j] for i, j in identical] == [0.0] * len(identical), alpha
        assert lower_bound_chernoff(mix, alpha) <= upper_bound_kl(mix), alpha
    report = estimate_all(mix)
    assert report.h_cond <= report.h_bd <= report.h_kl <= report.h_joint


@pytest.mark.parametrize("n", [1, 2, 20])
def test_pair_blocks_do_not_change_the_matrices(monkeypatch, n):
    # At d = 13 a default block holds 32768 // 169 = 193 pairs, so n = 20
    # (210 unordered and 380 ordered pairs) straddles a block edge.
    dim = 13
    comps = gaussian_comps(np.random.default_rng(n), n, dim)

    def matrices():
        return [*GaussianComponent.half_matrices(comps)] + [
            GaussianComponent.chernoff_matrix(comps, alpha) for alpha in (0.1, 0.3, 0.9)
        ]

    default = matrices()
    bd, elk = default[:2]
    assert np.array_equal(bd, bd.T) and np.array_equal(elk, elk.T)
    assert (np.diag(bd) == 0.0).all() and bd[0, -1] == 0.0
    for pairs in (1, 7):
        monkeypatch.setattr(mixent.gaussian, "_BLOCK_FLOATS", pairs * dim * dim)
        for blocked, reference in zip(matrices(), default):
            assert np.array_equal(blocked, reference)


@pytest.mark.parametrize("columns", [1, 2, 9])
def test_kl_column_blocks_do_not_change_the_matrix(monkeypatch, columns):
    # At d = 13, N = 20 one KL column takes d N (d + 1) = 3640 floats of the
    # budget, so a default block holds 9 columns and N = 20 ends in a partial block.
    dim, n = 13, 20
    comps = gaussian_comps(np.random.default_rng(13), n, dim)
    per_column = dim * n * (dim + 1)
    assert mixent.gaussian._BLOCK_FLOATS // per_column == 9
    default = GaussianComponent.kl_matrix(comps)
    monkeypatch.setattr(mixent.gaussian, "_BLOCK_FLOATS", columns * per_column)
    blocked = GaussianComponent.kl_matrix(comps)
    assert np.array_equal(blocked, default)
    assert (np.diag(blocked) == 0.0).all()
    assert_matches(blocked, scalar_matrix(gaussian_kl, comps))


@pytest.fixture
def no_pair_functions(monkeypatch):
    """Every scalar pair function, wherever a mixent module binds it, raises."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mixent"]
    for owner, names in PAIR_FUNCTIONS.items():
        for name in names:
            original = getattr(owner, name)

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"scalar pair function {_name} was called")

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_estimators_never_call_a_scalar_pair_function(no_pair_functions, family):
    rng = np.random.default_rng(31)
    build = random_gaussian_mixture if family == "gaussian" else random_uniform_mixture
    mix = build(rng, 6, 2, spread=1.0)
    estimate_all(mix)
    lower_bound_chernoff(mix, 0.3)
    clustered_gap_bound(mix, [0, 0, 1, 1, 2, 2], 0.5)
    if family == "gaussian":
        mi_bounds(mix, AwgnChannel(0.5 * np.eye(2)))
    with pytest.raises(AssertionError, match="scalar pair function"):
        (mixent.gaussian.gaussian_kl if family == "gaussian" else mixent.uniform.uniform_kl)(
            *mix.components[:2])

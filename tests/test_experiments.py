"""Experiment generators, sweep driver, CSV round trip, SVG rendering."""

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from mixent import (
    CSV_HEADER,
    ESTIMATOR_ORDER,
    EXPERIMENTS,
    DegreesOfFreedomTooSmall,
    MixtureError,
    NonFiniteValue,
    SweepConfig,
    SweepRow,
    default_grid,
    format_csv,
    gen_gaussian_clustered,
    gen_gaussian_spread,
    gen_gaussian_wishart,
    gen_uniform_clustered,
    gen_uniform_gamma,
    gen_uniform_spread,
    read_csv,
    render_svg,
    run_sweep,
    upper_bound_kl,
    wishart_bartlett,
    write_csv,
)
from mixent import experiments
from mixent.experiments import _point_seeds, log_grid


def small_config(**overrides) -> SweepConfig:
    base = dict(
        experiment="g1", n_components=5, dim=2, grid=(0.5, 2.0), mc_samples=500, seed=0
    )
    base.update(overrides)
    return SweepConfig(**base)


# ------------------------------------------------------------------ generators


def test_experiment_ids_and_estimator_order():
    assert EXPERIMENTS == ("g1", "g2", "g3", "g4", "u1", "u2", "u3", "u4")
    assert ESTIMATOR_ORDER == (
        "H_MC", "H_KL", "H_BD", "H_KDE", "H_ELK", "H_cond", "H_joint"
    )


def test_gaussian_spread_structure():
    mix = gen_gaussian_spread(6, 3, 2.0, seed=1)
    assert mix.n_components == 6 and mix.dim == 3
    assert (mix.weights == mix.weights[0]).all()
    for comp in mix.components:
        assert np.array_equal(comp.cov, np.eye(3))


def test_gaussian_spread_sigma_scales_the_means():
    mix = gen_gaussian_spread(200, 4, 3.0, seed=2)
    coords = np.array([c.mean for c in mix.components]).ravel()
    assert abs(coords.std() - 3.0) / 3.0 < 0.1
    assert abs(coords.mean()) < 0.15


def test_gaussian_spread_deterministic_per_seed():
    a = gen_gaussian_spread(4, 2, 1.0, seed=9)
    b = gen_gaussian_spread(4, 2, 1.0, seed=9)
    for x, y in zip(a.components, b.components):
        assert np.array_equal(x.mean, y.mean) and np.array_equal(x.cov, y.cov)


def test_wishart_needs_enough_degrees_of_freedom():
    rng = np.random.default_rng(0)
    with pytest.raises(DegreesOfFreedomTooSmall):
        wishart_bartlett(rng, 4, 3.0, 1.0)


@pytest.mark.parametrize(
    "generate",
    [
        lambda n, d: gen_gaussian_spread(n, d, 1.0, 0),
        lambda n, d: gen_gaussian_wishart(n, d, 10.0, 0),
        lambda n, d: gen_gaussian_clustered(n, d, 1, 1.0, 0),
        lambda n, d: gen_uniform_spread(n, d, 1.0, 0),
        lambda n, d: gen_uniform_gamma(n, d, 1.0, 0),
        lambda n, d: gen_uniform_clustered(n, d, 1, 1.0, 0),
    ],
    ids=["g-spread", "g-wishart", "g-clustered", "u-spread", "u-gamma", "u-clustered"],
)
@pytest.mark.parametrize("n, d", [(2.5, 2), (3, 1.5), (True, 2), (3, "2"), (0, 2), (3, 0)])
def test_generators_refuse_sizes_that_are_not_positive_integers(generate, n, d):
    with pytest.raises(MixtureError):
        generate(n, d)


_SIGMA_GENERATORS = {
    "g-spread": lambda sigma: gen_gaussian_spread(3, 2, sigma, 0),
    "g-clustered": lambda sigma: gen_gaussian_clustered(3, 2, 2, sigma, 0)[0],
    "u-spread": lambda sigma: gen_uniform_spread(3, 2, sigma, 0),
    "u-gamma": lambda sigma: gen_uniform_gamma(3, 2, sigma, 0),
    "u-clustered": lambda sigma: gen_uniform_clustered(3, 2, 2, sigma, 0)[0],
}


@pytest.mark.parametrize("generate", _SIGMA_GENERATORS.values(), ids=_SIGMA_GENERATORS.keys())
@pytest.mark.parametrize(
    "sigma", [True, np.True_, "1", None, [1.0, 2.0], [1.0], math.nan, math.inf],
    ids=["bool", "numpy-bool", "text", "none", "pair", "list", "nan", "inf"],
)
def test_generators_refuse_a_sigma_that_is_not_one_real(generate, sigma):
    # True used to build a mixture at sigma 1 and "1" raised NumPy's bare
    # UFuncTypeError; a pair scaled each mean coordinate by its own sigma.
    with pytest.raises(MixtureError):
        generate(sigma)


@pytest.mark.parametrize("generate", _SIGMA_GENERATORS.values(), ids=_SIGMA_GENERATORS.keys())
def test_generators_take_any_real_sigma_alike(generate):
    # A Python or NumPy int or float, or a 0-d array, builds the same mixture.
    reference = generate(2.0)
    for sigma in (2, np.float32(2.0), np.int64(2), np.array(2.0)):
        got = generate(sigma)
        assert np.array_equal(got.weights, reference.weights)
        for a, b in zip(got.components, reference.components):
            assert np.array_equal(a.center(), b.center()) and a.entropy() == b.entropy()


@pytest.mark.parametrize("dim", [2.5, True, 0])
def test_wishart_refuses_a_dimension_that_is_not_a_positive_integer(dim):
    with pytest.raises(MixtureError, match="dimension must be"):
        wishart_bartlett(np.random.default_rng(0), dim, 4.0, 1.0)


@pytest.mark.parametrize(
    "dof, scale, error",
    [(math.nan, 1.0, NonFiniteValue), (math.inf, 1.0, NonFiniteValue),
     (8.0, math.nan, NonFiniteValue), (8.0, -math.inf, NonFiniteValue),
     (8.0, True, MixtureError), (np.True_, 1.0, MixtureError), ("8", 1.0, MixtureError),
     ([8.0], 1.0, MixtureError), ([8.0, 9.0], [1.0, 1.0], MixtureError),
     (8.0, -1.0, MixtureError), (8.0, 0.0, MixtureError), (8.0, -0.0, MixtureError)],
)
def test_wishart_refuses_a_dof_or_scale_that_is_not_a_finite_real(dof, scale, error):
    # Unchecked, a NaN dof or scale gives an all-NaN matrix and scale -1 a
    # negative-definite one.  The refusal comes before anything is drawn.
    rng = np.random.default_rng(0)
    with pytest.raises(error) as raised:
        wishart_bartlett(rng, 3, dof, scale)
    assert not isinstance(raised.value, DegreesOfFreedomTooSmall)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_wishart_takes_an_integer_dof_and_scale_as_their_floats():
    draws = [wishart_bartlett(np.random.default_rng(4), 3, dof, scale)
             for dof, scale in ((6, 2), (6.0, 2.0), (np.int64(6), np.float64(2.0)))]
    assert all(np.array_equal(draw, draws[0]) for draw in draws)


def test_wishart_draws_are_symmetric_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(20):
        draw = wishart_bartlett(rng, 3, 6.0, 0.1)
        assert np.allclose(draw, draw.T)
        assert np.linalg.eigvalsh(draw).min() > 0.0


def test_wishart_mean_matches_degrees_of_freedom_times_scale():
    rng = np.random.default_rng(2)
    dim, dof, scale = 3, 8.0, 1.0 / 18.0
    total = np.zeros((dim, dim))
    n = 10_000
    for _ in range(n):
        total += wishart_bartlett(rng, dim, dof, scale)
    mean = total / n
    expected = dof * scale * np.eye(dim)
    rel = np.linalg.norm(mean - expected) / np.linalg.norm(expected)
    assert rel < 0.05


def test_gaussian_wishart_mixture_structure():
    mix = gen_gaussian_wishart(5, 3, 12.0, seed=3)
    assert mix.n_components == 5 and mix.dim == 3
    covs = [c.cov for c in mix.components]
    assert not np.array_equal(covs[0], covs[1])


@pytest.mark.parametrize(
    "dof, error, message",
    [(-10.0, DegreesOfFreedomTooSmall, "got dof=-10.0, dim=2"),
     (-10, DegreesOfFreedomTooSmall, "got dof=-10.0, dim=2"),
     (1.5, DegreesOfFreedomTooSmall, "got dof=1.5, dim=2"),
     ("5", MixtureError, "malformed wishart dof"), (None, MixtureError, "malformed wishart dof"),
     ([5.0], MixtureError, "wishart dof must be one real number"),
     (True, MixtureError, "booleans"), (math.nan, NonFiniteValue, "wishart dof must be finite")],
)
def test_gaussian_wishart_reads_its_dof_before_any_draw(dof, error, message):
    # dof = -10 divided by zero in the scale 1 / (10 + dof), and "5", None
    # and [5.0] raised a bare TypeError there, before wishart_bartlett read dof.
    rng = np.random.default_rng(0)
    with pytest.raises(error, match=message):
        gen_gaussian_wishart(3, 2, dof, rng)  # default_rng passes a Generator through
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_gaussian_wishart_keeps_the_default_grid_refusal_text():
    # The g2 default grid at dim 5 starts at exp(ln 5), one ulp below 5.
    with pytest.raises(DegreesOfFreedomTooSmall) as raised:
        gen_gaussian_wishart(2, 5, math.exp(math.log(5)), 0)
    assert str(raised.value) == "wishart needs dof >= dim, got dof=4.999999999999999, dim=5"


def test_clustered_components_share_centers_exactly():
    mix, labels = gen_gaussian_clustered(12, 4, 3, 50.0, seed=4)
    assert mix.n_components == 12 and labels.shape == (12,) and labels.dtype.kind == "i"
    assert len(set(labels.tolist())) <= 3
    for i, label in enumerate(labels):
        for j, other in enumerate(labels):
            if label == other:
                assert np.array_equal(mix.components[i].mean, mix.components[j].mean)


def test_balanced_clusters_have_equal_counts():
    _, labels = gen_gaussian_clustered(20, 2, 5, 10.0, seed=5, balanced=True)
    assert (np.bincount(labels, minlength=5) == 4).all()
    _, box_labels = gen_uniform_clustered(20, 2, 5, 10.0, seed=5, balanced=True)
    assert (np.bincount(box_labels, minlength=5) == 4).all()


def test_cluster_count_validated():
    with pytest.raises(MixtureError):
        gen_gaussian_clustered(4, 2, 5, 1.0, seed=0)
    with pytest.raises(MixtureError):
        gen_uniform_clustered(4, 2, 0, 1.0, seed=0)


def test_uniform_spread_has_unit_half_widths():
    mix = gen_uniform_spread(5, 3, 2.0, seed=6)
    for box in mix.components:
        assert np.allclose(box.upper - box.lower, 2.0)


def test_uniform_gamma_half_width_moments():
    sigma = 3.0
    mix = gen_uniform_gamma(10_000, 1, sigma, seed=7)
    halves = np.array([0.5 * (b.upper[0] - b.lower[0]) for b in mix.components])
    assert abs(halves.mean() - 1.0) < 0.05
    expected_var = 1.0 / (1.0 + sigma)
    assert abs(halves.var() - expected_var) / expected_var < 0.1


@pytest.mark.parametrize("sigma", [-1.0, -2.0])
def test_uniform_gamma_refuses_a_shape_that_is_not_positive(sigma):
    with pytest.raises(MixtureError, match="sigma > -1"):
        run_sweep(SweepConfig("u2", grid=(sigma, 1.0)))
    assert gen_uniform_gamma(4, 2, -0.5, seed=0).n_components == 4


def test_tiny_spread_collapses_the_gaussian_report():
    mix = gen_gaussian_spread(10, 3, 1e-12, seed=8)
    assert upper_bound_kl(mix) - mix.conditional_entropy() <= 1e-9


def test_tiny_spread_collapses_the_uniform_overlap_bound():
    from mixent import lower_bound_bd

    mix = gen_uniform_spread(10, 3, 1e-12, seed=9)
    assert lower_bound_bd(mix) - mix.conditional_entropy() <= 1e-6
    # Box containment is exact-match territory, so the KL route stays at the
    # ceiling for distinct boxes no matter how close they sit.
    assert upper_bound_kl(mix) == mix.joint_entropy_upper()


# --------------------------------------------------------------- default grids


def test_default_sigma_grids():
    for experiment in ("g1", "g3", "u1", "u2", "u3"):
        grid = default_grid(experiment, dim=5)
        assert len(grid) == 9
        assert math.isclose(grid[0], math.exp(-3.0), rel_tol=1e-12)
        assert math.isclose(grid[-1], math.exp(6.0), rel_tol=1e-12)
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_default_wishart_grid_starts_at_the_dimension():
    grid = default_grid("g2", dim=5)
    assert len(grid) == 9
    assert math.isclose(grid[0], 5.0, rel_tol=1e-12)
    assert math.isclose(grid[-1], math.exp(8.0), rel_tol=1e-12)


def test_default_dimension_grids_are_integers():
    for experiment, top in (("g4", 60), ("u4", 16)):
        grid = default_grid(experiment, dim=5)
        assert grid[0] == 1.0 and grid[-1] == float(top)
        assert all(v == int(v) for v in grid)
        assert all(b > a for a, b in zip(grid, grid[1:]))


def test_log_grid_refuses_a_step_count_that_is_not_a_positive_integer():
    assert log_grid("g1", 0.0, 1.0, 1) == (1.0,)
    assert log_grid("g1", 0.0, 1.0, np.int64(3)) == log_grid("g1", 0.0, 1.0, 3)
    # True is not one step, 2.5 not two, "3" not three, and 0 not an empty grid.
    for steps in (True, 2.5, "3", 0):
        with pytest.raises(MixtureError, match="grid steps must be"):
            log_grid("g1", 0.0, 1.0, steps)


def test_default_grid_unknown_experiment():
    with pytest.raises(MixtureError):
        default_grid("g9", dim=5)


def test_resolved_grid_validation():
    assert small_config().resolved_grid() == (0.5, 2.0)
    with pytest.raises(MixtureError):
        small_config(grid=()).resolved_grid()
    with pytest.raises(MixtureError):
        small_config(grid=(2.0, 1.0)).resolved_grid()
    with pytest.raises(MixtureError):
        small_config(grid=(1.0, 1.0)).resolved_grid()
    for bad in ((float("nan"),), (0.5, float("inf")), (float("-inf"), 1.0)):
        with pytest.raises(MixtureError, match="finite"):
            small_config(grid=bad).resolved_grid()


@pytest.mark.parametrize(
    "bad",
    [("a",), ((1.0,),), (0.5, True), 2.0, ("0.5", "2.0"), np.array([0.5, 2.0], dtype=complex),
     (Fraction(1, 2), 2.0)],
)
def test_resolved_grid_refuses_entries_that_are_not_reals(bad):
    with pytest.raises(MixtureError):
        small_config(grid=bad).resolved_grid()
    with pytest.raises(MixtureError):
        run_sweep(small_config(grid=bad))


# ---------------------------------------------------------------- sweep driver


def test_point_seeds_are_deterministic_and_distinct():
    assert _point_seeds(0, "g1", 0) == _point_seeds(0, "g1", 0)
    seen = {
        _point_seeds(0, "g1", 0),
        _point_seeds(0, "g1", 1),
        _point_seeds(0, "u1", 0),
        _point_seeds(1, "g1", 0),
    }
    assert len(seen) == 4


def test_run_sweep_row_layout():
    rows = run_sweep(small_config())
    assert len(rows) == 2 * len(ESTIMATOR_ORDER)
    assert [r.estimator for r in rows[: len(ESTIMATOR_ORDER)]] == list(ESTIMATOR_ORDER)
    assert all(r.experiment == "g1" for r in rows)
    assert rows[0].param == 0.5 and rows[-1].param == 2.0
    for row in rows:
        if row.estimator == "H_MC":
            assert row.stderr is not None and row.stderr > 0.0
        else:
            assert row.stderr is None


def test_run_sweep_values_keep_the_bracket_order():
    rows = run_sweep(small_config(experiment="u1"))
    for param in (0.5, 2.0):
        cells = {r.estimator: r.value for r in rows if r.param == param}
        assert cells["H_cond"] <= cells["H_BD"] <= cells["H_KL"] <= cells["H_joint"]
        mc = next(r for r in rows if r.param == param and r.estimator == "H_MC")
        assert cells["H_BD"] - 4.0 * mc.stderr <= mc.value <= cells["H_KL"] + 4.0 * mc.stderr


def test_run_sweep_validation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator ran")

    # Every refusal comes before a mixture is built; no count or seed is
    # truncated or parsed from a string.
    for name in [name for name in vars(experiments) if name.startswith("gen_")]:
        monkeypatch.setattr(experiments, name, refuse)
    for overrides in (
        dict(experiment="g7"),
        dict(n_components=0),
        dict(mc_samples=1),
        dict(mc_samples="10"),
        dict(mc_samples=10.5),
        dict(seed=1.5),
        dict(seed=True),
        dict(n_components=2.5),
        dict(n_components="3"),
        dict(dim=1.5),
        dict(experiment="g3", clusters=2.5),
    ):
        with pytest.raises(MixtureError):
            run_sweep(small_config(**overrides))


def test_run_sweep_refuses_a_negative_seed():
    with pytest.raises(MixtureError, match="seed must be non-negative"):
        run_sweep(small_config(seed=-1))


def test_dimension_sweep_rounds_library_grids_to_the_nearest_dimension():
    rows = run_sweep(small_config(experiment="g4", grid=(1.4, 2.6), n_components=3))
    for param, dim in ((1.4, 1), (2.6, 3)):
        cond = next(r.value for r in rows if r.param == param and r.estimator == "H_cond")
        assert math.isclose(cond, 0.5 * dim * (math.log(2.0 * math.pi) + 1.0), rel_tol=1e-12)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(experiment="g1", dim=0),
        dict(experiment="g2", dim=-1, grid=None),
        dict(experiment="u3", dim=0),
        dict(experiment="g4", grid=(0.4, 2.0)),
        dict(experiment="u4", grid=(-3.0, 2.0)),
    ],
)
def test_run_sweep_rejects_dimensions_below_one_before_generating(monkeypatch, overrides):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator ran")

    for name in ("gen_gaussian_spread", "gen_gaussian_wishart", "gen_uniform_clustered",
                 "gen_uniform_spread"):
        monkeypatch.setattr(experiments, name, refuse)
    with pytest.raises(MixtureError, match="dimension must be at least 1"):
        run_sweep(small_config(**overrides))


def test_sweeps_call_the_generators_through_the_module_globals(monkeypatch):
    calls = []
    original = experiments.gen_gaussian_clustered

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "gen_gaussian_clustered", counting)
    run_sweep(small_config(experiment="g3", clusters=2))
    assert len(calls) == 2


def test_spread_sweep_rises_with_sigma():
    rows = run_sweep(SweepConfig(experiment="g1", n_components=10, dim=3, seed=1))
    mc = [r.value for r in rows if r.estimator == "H_MC"]
    conds = [r.value for r in rows if r.estimator == "H_cond"]
    assert mc[-1] > mc[0] + 1.0
    assert all(c == conds[0] for c in conds)  # unit covariances throughout


def test_every_experiment_runs_end_to_end():
    for experiment in EXPERIMENTS:
        grid = (4.0, 9.0) if experiment == "g2" else (1.0, 3.0)
        rows = run_sweep(
            small_config(
                experiment=experiment, grid=grid, n_components=4, dim=2, clusters=2
            )
        )
        assert len(rows) == 2 * len(ESTIMATOR_ORDER)
        assert all(math.isfinite(r.value) for r in rows)


# g2's default grid starts at exp(ln dim), which rounds below dim at these
# dimensions, so the Wishart generator refuses the first grid point.
_G2_DEFAULT_GRID_FAILS = (5, 7, 8)


@pytest.mark.parametrize("experiment, dim", [
    pytest.param(experiment, dim, marks=pytest.mark.xfail(
        strict=True, raises=DegreesOfFreedomTooSmall, reason="g2 grid starts below dof = dim"))
    if experiment == "g2" and dim in _G2_DEFAULT_GRID_FAILS else (experiment, dim)
    for experiment in EXPERIMENTS for dim in range(1, 11)
])
def test_every_default_grid_runs_at_dimensions_one_to_ten(experiment, dim):
    # Every configuration the CLI exposes should run; two components, one
    # cluster and two Monte Carlo samples keep each sweep small.
    config = SweepConfig(experiment, n_components=2, dim=dim, clusters=1, mc_samples=2)
    rows = run_sweep(config)
    assert len(rows) == len(config.resolved_grid()) * len(ESTIMATOR_ORDER)
    assert all(math.isfinite(r.value) for r in rows)


# ------------------------------------------------------------------------- CSV


def test_csv_header_and_format():
    rows = run_sweep(small_config())
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "experiment,param,estimator,value,stderr"
    assert len(lines) == 1 + len(rows)
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "g1" and first[2] == "H_MC" and first[4] != ""
    assert lines[2].split(",")[4] == ""


def test_csv_round_trip_is_lossless(tmp_path):
    rows = run_sweep(small_config(experiment="u2"))
    path = tmp_path / "sweep.csv"
    write_csv(rows, path)
    assert read_csv(path) == rows


def test_csv_repeat_runs_are_bit_identical():
    config = small_config(experiment="g3")
    assert format_csv(run_sweep(config)) == format_csv(run_sweep(config))


def test_csv_rejects_empty_and_foreign_files(tmp_path):
    with pytest.raises(MixtureError):
        format_csv([])
    bogus = tmp_path / "other.csv"
    bogus.write_text("a,b,c\n1,2,3\n", encoding="ascii")
    with pytest.raises(MixtureError):
        read_csv(bogus)


@pytest.mark.parametrize("row", ["g1,0.5,H_KL", "g1,0.5,H_KL,1.3,,7", "g1,x,H_KL,1.3,"])
def test_csv_bad_row_names_its_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\ng1,0.5,H_MC,1.25,0.03\n{row}\n", encoding="ascii")
    with pytest.raises(MixtureError, match="line 3"):
        read_csv(path)


def test_csv_non_ascii_file_is_a_mixture_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(f"{CSV_HEADER}\ng1,0.5,H_MC,1.25,0.03\xe9\n".encode("latin-1"))
    with pytest.raises(MixtureError, match="latin.csv"):
        read_csv(path)


def test_csv_parses_manual_rows(tmp_path):
    rows = [
        SweepRow("g1", 0.5, "H_MC", 1.25, 0.03),
        SweepRow("g1", 0.5, "H_KL", 1.3, None),
    ]
    path = tmp_path / "tiny.csv"
    write_csv(rows, path)
    assert read_csv(path) == rows


# ------------------------------------------------------------------------- SVG


def test_render_svg_structure(tmp_path):
    rows = run_sweep(small_config(grid=(0.5, 1.0, 2.0)))
    path = tmp_path / "sweep.svg"
    render_svg(rows, path)
    root = ET.fromstring(path.read_text(encoding="ascii"))
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    series = [e.get("data-series") for e in root.findall(".//s:polyline", ns)]
    assert series == ["H_MC", "H_KL", "H_BD", "H_KDE", "H_ELK"]
    bands = root.findall(".//s:polygon", ns)
    assert len(bands) == 1
    text = path.read_text(encoding="ascii")
    assert "inf" not in text and "nan" not in text


def test_render_svg_rejects_empty_rows(tmp_path):
    with pytest.raises(MixtureError):
        render_svg([], tmp_path / "empty.svg")


def test_render_svg_takes_both_axes_from_every_row(tmp_path):
    # Rows of one estimator alone, with no H_cond or H_joint rows, set both axes.
    rows = [SweepRow("g1", 1.0, "H_KL", 1.0), SweepRow("g1", math.e, "H_KL", 3.0)]
    path = tmp_path / "partial.svg"
    render_svg(rows, path)
    root = ET.fromstring(path.read_text(encoding="ascii"))
    ns = {"s": "http://www.w3.org/2000/svg"}
    points = {e.get("data-series"): e.get("points") for e in root.findall(".//s:polyline", ns)}
    assert points["H_KL"] == "56.00,384.00 584.00,56.00"  # the corners of the plot area
    assert points["H_BD"] == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_render_svg_refuses_a_value_that_is_not_finite(tmp_path, value):
    # read_csv takes the text "nan" as a float, which would be drawn as the
    # coordinate "nan".
    rows = [SweepRow("g1", p, name, 1.0) for p in (1.0, 2.0) for name in ESTIMATOR_ORDER]
    csv = tmp_path / "sweep.csv"
    csv.write_text(format_csv(rows).replace(",H_KL,1,", f",H_KL,{value},", 1), encoding="ascii")
    path = tmp_path / "bad.svg"
    with pytest.raises(MixtureError, match="not finite"):
        render_svg(read_csv(csv), path)
    assert not path.exists()


@pytest.mark.parametrize("param", [0.0, -1.0, math.inf, math.nan])
def test_render_svg_refuses_a_parameter_off_the_log_axis(tmp_path, param):
    rows = [SweepRow("g1", p, name, 1.0) for p in (1.0, param) for name in ESTIMATOR_ORDER]
    path = tmp_path / "bad.svg"
    with pytest.raises(MixtureError, match="log axis"):
        render_svg(rows, path)
    assert not path.exists()

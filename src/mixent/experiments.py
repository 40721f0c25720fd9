"""Reproducible experiment sweeps over synthetic mixture ensembles.

Eight experiment families are provided, four Gaussian and four uniform:

    g1 / u1   location spread: unit components, means scattered with scale sigma
    g2        random covariances drawn from a Wishart ensemble, indexed by dof
    u2        random box half-widths drawn from a Gamma ensemble, indexed by sigma
    g3 / u3   clustered: components share one of K cluster centers
    g4 / u4   dimension sweep at fixed unit spread

Each experiment is one row of the sweep table ``_SWEEPS``: its default grid,
and the generator that builds its mixture at one grid value.  A generator's
sigma, and the Wishart generator's dof, are read as every float is: a bool,
a string, a NaN or more than one number raises a MixtureError.

Every grid point derives its own generator and Monte Carlo seeds by hashing
(master seed, experiment id, grid index) through numpy's SeedSequence, so
sweeps are bit-reproducible.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._numeric import as_count, as_floats
from .errors import DegreesOfFreedomTooSmall, MixtureError
from .estimators import estimate_all
from .gaussian import GaussianComponent
from .mixture import MixtureModel
from .uniform import UniformBox

__all__ = ["ESTIMATOR_ORDER", "CSV_HEADER", "gen_gaussian_spread", "wishart_bartlett",
           "gen_gaussian_wishart", "gen_gaussian_clustered", "gen_uniform_spread",
           "gen_uniform_gamma", "gen_uniform_clustered", "EXPERIMENTS", "default_grid",
           "SweepConfig", "SweepRow", "run_sweep", "format_csv", "write_csv", "read_csv",
           "render_svg"]

# Estimator order for report rows: Monte Carlo first, then the two certified
# bounds, the two baselines, and the exact floor and ceiling.
ESTIMATOR_ORDER = ("H_MC", "H_KL", "H_BD", "H_KDE", "H_ELK", "H_cond", "H_joint")

CSV_HEADER = "experiment,param,estimator,value,stderr"


def _check_sizes(n_components, dim) -> None:
    # the generators' sizes, checked as run_sweep checks them
    as_count(n_components, 1, "n_components", MixtureError)
    as_count(dim, 1, "mixture dimension", MixtureError)


def _as_real(value, what: str) -> float:
    # a generator's sigma or dof, read as every float is: True, "1" and NaN are refused
    array = as_floats(value, what)
    if array.shape != ():
        raise MixtureError(f"{what} must be one real number, got {value!r}")
    return float(array)


def _check_dof(dof: float, dim: int) -> None:
    if dof < dim:
        raise DegreesOfFreedomTooSmall(f"wishart needs dof >= dim, got dof={dof}, dim={dim}")


def _gen_spread(make, n_components, dim, sigma, seed):
    # shared body of the spread generators; make(mean) builds one component
    sigma = _as_real(sigma, "sigma")
    rng = np.random.default_rng(seed)
    means = sigma * rng.standard_normal((n_components, dim))
    return MixtureModel(np.ones(n_components), [make(m) for m in means])


def gen_gaussian_spread(n_components: int, dim: int, sigma: float, seed) -> MixtureModel:
    """Equal-weight unit-covariance components with means scattered at scale sigma.

    Each mean coordinate is an independent normal draw with standard
    deviation sigma, so sigma -> 0 collapses the mixture onto one component
    and large sigma separates all components completely.
    """
    _check_sizes(n_components, dim)
    eye = np.eye(dim)
    return _gen_spread(lambda mean: GaussianComponent(mean, eye), n_components, dim, sigma, seed)


def wishart_bartlett(rng, dim: int, dof: float, scale: float) -> np.ndarray:
    """One Wishart draw with identity-proportional scale, via the Bartlett factor.

    The factor is lower triangular with chi-square diagonal entries (dof
    down to dof - dim + 1 degrees of freedom) and standard normal strict
    lower triangle; the draw is scale * A A^T.  Needs dof >= dim and scale > 0:
    dof and scale are read as every float is, so a bool or a non-finite value
    is refused, and a non-positive scale raises MixtureError before any draw.
    """
    as_count(dim, 1, "mixture dimension", MixtureError)
    params = as_floats((dof, scale), "wishart dof and scale")
    if params.shape != (2,) or not params[1] > 0.0:
        raise MixtureError(f"wishart needs a real dof and a scale > 0, got {dof!r} and {scale!r}")
    dof, scale = params.tolist()
    _check_dof(dof, dim)
    a = np.zeros((dim, dim))
    np.fill_diagonal(a, np.sqrt(rng.chisquare(dof - np.arange(dim))))
    lower = np.tril_indices(dim, -1)
    a[lower] = rng.standard_normal(lower[0].size)
    return scale * (a @ a.T)


def gen_gaussian_wishart(n_components: int, dim: int, dof: float, seed) -> MixtureModel:
    """Equal-weight components with standard-normal means and Wishart covariances.

    Covariances are drawn with scale matrix I / (10 + dof), so their mean is
    dof / (10 + dof) times the identity and approaches the identity as the
    degrees of freedom grow.  dof is read as sigma is, and checked against
    dim, before anything is drawn.
    """
    _check_sizes(n_components, dim)
    dof = _as_real(dof, "wishart dof")
    _check_dof(dof, dim)
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_components, dim))
    scale = 1.0 / (10.0 + dof)
    comps = [GaussianComponent(m, wishart_bartlett(rng, dim, dof, scale)) for m in means]
    return MixtureModel(np.ones(n_components), comps)


def _gen_clustered(make, n_components, dim, clusters, sigma, seed, balanced):
    # shared body of the clustered generators; make(center) builds one component
    if as_count(clusters, 1, "clusters", MixtureError) > n_components:
        raise MixtureError(f"need 1 <= clusters <= components, got {clusters} of {n_components}")
    sigma = _as_real(sigma, "sigma")
    rng = np.random.default_rng(seed)
    centers = sigma * rng.standard_normal((clusters, dim))
    if balanced:
        labels = rng.permutation(np.resize(np.arange(clusters), n_components))
    else:
        labels = rng.integers(0, clusters, n_components)
    return MixtureModel(np.ones(n_components), [make(centers[g]) for g in labels]), labels


def gen_gaussian_clustered(
    n_components: int,
    dim: int,
    clusters: int,
    sigma: float,
    seed,
    balanced: bool = False,
) -> tuple[MixtureModel, np.ndarray]:
    """Unit-covariance components sharing one of `clusters` centers exactly.

    Centers are scattered at scale sigma; components are assigned to
    clusters uniformly at random, or in equal counts when balanced is set.
    Returns the mixture and the int array of its components' cluster labels,
    which :func:`~mixent.estimators.clustered_gap_bound` takes as they are.
    """
    _check_sizes(n_components, dim)
    eye = np.eye(dim)
    return _gen_clustered(lambda center: GaussianComponent(center, eye),
                          n_components, dim, clusters, sigma, seed, balanced)


def gen_uniform_spread(n_components: int, dim: int, sigma: float, seed) -> MixtureModel:
    """Equal-weight unit-half-width boxes centered at scattered means."""
    _check_sizes(n_components, dim)
    return _gen_spread(lambda mean: UniformBox(mean - 1.0, mean + 1.0),
                       n_components, dim, sigma, seed)


def gen_uniform_gamma(n_components: int, dim: int, sigma: float, seed) -> MixtureModel:
    """Boxes with Gamma-distributed half-widths around standard-normal centers.

    Half-widths are Gamma(1 + sigma) draws with rate 1 + sigma, so their
    mean is one and their variance 1 / (1 + sigma) shrinks as sigma grows.
    sigma must exceed -1, the shape's zero, or MixtureError is raised.
    """
    _check_sizes(n_components, dim)
    sigma = _as_real(sigma, "sigma")
    if not sigma > -1.0:
        raise MixtureError(f"gamma sweep needs sigma > -1 for a positive shape, got {sigma!r}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_components, dim))
    shape = 1.0 + sigma
    half = rng.gamma(shape, 1.0 / shape, n_components)
    comps = [UniformBox(m - h, m + h) for m, h in zip(means, half)]
    return MixtureModel(np.ones(n_components), comps)


def gen_uniform_clustered(
    n_components: int,
    dim: int,
    clusters: int,
    sigma: float,
    seed,
    balanced: bool = False,
) -> tuple[MixtureModel, np.ndarray]:
    """Unit-half-width boxes sharing one of `clusters` centers exactly; returns
    the mixture and its cluster labels, as the Gaussian generator does."""
    _check_sizes(n_components, dim)
    return _gen_clustered(lambda center: UniformBox(center - 1.0, center + 1.0),
                          n_components, dim, clusters, sigma, seed, balanced)


# One row of the sweep table: ln_range(dim) gives the ln-space endpoints of the
# default grid, sweeps_dim marks grids of mixture dimensions (rounded to
# integers), and build(config, grid value, dimension, seed) makes the mixture.
_Sweep = namedtuple("_Sweep", "ln_range sweeps_dim build")


def _sigma(dim: int) -> tuple[float, float]:
    return -3.0, 6.0


# Builders call the gen_* functions by their global names at call time, so
# rebinding a generator in this module reaches every sweep that uses it.
_SWEEPS = {
    "g1": _Sweep(_sigma, False, lambda c, v, d, s: gen_gaussian_spread(c.n_components, d, v, s)),
    "g2": _Sweep(lambda dim: (math.log(dim), 8.0), False,
                 lambda c, v, d, s: gen_gaussian_wishart(c.n_components, d, v, s)),
    "g3": _Sweep(_sigma, False, lambda c, v, d, s: gen_gaussian_clustered(
        c.n_components, d, c.clusters, v, s, c.balanced_clusters)[0]),
    "g4": _Sweep(lambda dim: (0.0, math.log(60)), True,
                 lambda c, v, d, s: gen_gaussian_spread(c.n_components, d, 1.0, s)),
    "u1": _Sweep(_sigma, False, lambda c, v, d, s: gen_uniform_spread(c.n_components, d, v, s)),
    "u2": _Sweep(_sigma, False, lambda c, v, d, s: gen_uniform_gamma(c.n_components, d, v, s)),
    "u3": _Sweep(_sigma, False, lambda c, v, d, s: gen_uniform_clustered(
        c.n_components, d, c.clusters, v, s, c.balanced_clusters)[0]),
    "u4": _Sweep(lambda dim: (0.0, math.log(16)), True,
                 lambda c, v, d, s: gen_uniform_spread(c.n_components, d, 1.0, s)),
}

EXPERIMENTS = tuple(_SWEEPS)


def _lookup(experiment: str) -> _Sweep:
    try:
        return _SWEEPS[experiment]
    except KeyError:
        raise MixtureError(f"unknown experiment id {experiment!r}") from None


def log_grid(experiment: str, lo: float, hi: float, steps: int) -> tuple[float, ...]:
    """exp(linspace(lo, hi, steps)), rounded to unique integers for dimension sweeps.

    Both default_grid and ``mixent sweep --grid lo:hi:steps`` build grids here.
    Non-finite values pass through quietly; SweepConfig.resolved_grid refuses them.
    steps must be an integer of at least 1, not a bool, or MixtureError is raised.
    """
    steps = as_count(steps, 1, "the number of grid steps", MixtureError)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.exp(np.linspace(lo, hi, steps))
    if _lookup(experiment).sweeps_dim:
        values = np.unique(np.rint(values))
    return tuple(float(v) for v in values)


def default_grid(experiment: str, dim: int) -> tuple[float, ...]:
    """Desk-scale default grids: log_grid over the table row's ln range, nine steps.

    sigma-indexed experiments span ln sigma in [-3, 6]; the Wishart sweep
    spans ln dof in [ln dim, 8]; dimension sweeps cover 1..60 (Gaussian) or
    1..16 (uniform) with rounded log-spaced integers, deduplicated.
    """
    return log_grid(experiment, *_lookup(experiment).ln_range(dim), 9)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one experiment sweep.

    grid=None selects the default grid for the experiment; grids must be
    one-dimensional, non-empty, strictly ascending and finite, and are read
    as every float array is, so a bool or a non-numeric entry is refused.
    balanced_clusters forces equal cluster counts in the clustered experiments.
    """

    experiment: str
    n_components: int = 20
    dim: int = 5
    clusters: int = 5
    grid: tuple[float, ...] | None = None
    mc_samples: int = 2000
    seed: int = 0
    balanced_clusters: bool = False

    def resolved_grid(self) -> tuple[float, ...]:
        grid = self.grid if self.grid is not None else default_grid(self.experiment, self.dim)
        grid = as_floats(grid, "sweep grid")
        if grid.ndim != 1 or grid.size == 0:
            raise MixtureError("sweep grid must be a non-empty sequence of values")
        if np.any(grid[1:] <= grid[:-1]):
            raise MixtureError("sweep grid must be strictly ascending")
        return tuple(grid.tolist())


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, estimator) cell of a sweep result."""

    experiment: str
    param: float
    estimator: str
    value: float
    stderr: float | None = None


def _point_seeds(master_seed: int, experiment: str, index: int) -> tuple[int, int]:
    # substream derivation: hash (seed, experiment id, grid index) through
    # SeedSequence, then split one stream for generation and one for MC
    code = int.from_bytes(experiment.encode("ascii"), "little")
    seq = np.random.SeedSequence([master_seed, code, index])
    return tuple(int(s) for s in seq.generate_state(2, np.uint64))


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Run one experiment sweep and return rows in (grid point, estimator) order.

    Each grid point contributes exactly one row per name in ESTIMATOR_ORDER;
    only the Monte Carlo row carries a standard error.  The counts n_components,
    clusters, mc_samples, seed and dim must be integers of at least 1, 1, 2, 0
    and 1, or MixtureError is raised before any mixture is built.
    """
    sweep = _lookup(config.experiment)
    for name, least in (("n_components", 1), ("clusters", 1), ("mc_samples", 2)):
        as_count(getattr(config, name), least, name, MixtureError)
    seed = as_count(config.seed, 0, "seed", MixtureError)
    if not sweep.sweeps_dim:  # before default_grid takes ln dim
        as_count(config.dim, 1, "mixture dimension", MixtureError)
    grid = config.resolved_grid()
    dims = [int(round(v)) for v in grid] if sweep.sweeps_dim else [config.dim] * len(grid)
    as_count(min(dims), 1, "mixture dimension", MixtureError)
    rows: list[SweepRow] = []
    for index, (value, dim) in enumerate(zip(grid, dims)):
        gen_seed, mc_seed = _point_seeds(seed, config.experiment, index)
        mixture = sweep.build(config, value, dim, gen_seed)
        report = estimate_all(mixture, mc_samples=config.mc_samples, seed=mc_seed)
        rows.append(SweepRow(config.experiment, value, "H_MC",
                             report.mc.estimate, report.mc.stderr))
        rows.extend(SweepRow(config.experiment, value, name, getattr(report, name.lower()))
                    for name in ESTIMATOR_ORDER[1:])  # H_BD: report.h_bd
    return rows


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def format_csv(rows) -> str:
    """Render sweep rows as CSV text with 17-significant-digit decimals."""
    if not rows:
        raise MixtureError("no sweep rows to format")
    lines = [CSV_HEADER]
    for row in rows:
        err = "" if row.stderr is None else _fmt(row.stderr)
        lines.append(f"{row.experiment},{_fmt(row.param)},{row.estimator},{_fmt(row.value)},{err}")
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    """Write sweep rows to a CSV file; identical inputs give identical bytes."""
    Path(path).write_text(format_csv(rows), encoding="ascii")


def read_csv(path) -> list[SweepRow]:
    """Parse a sweep CSV back into rows (the inverse of write_csv)."""
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise MixtureError(f"{path} is not ASCII text: {exc}") from None
    if not lines or lines[0] != CSV_HEADER:
        raise MixtureError(f"unrecognized CSV header in {path}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            experiment, param, estimator, value, err = line.split(",")
            rows.append(
                SweepRow(experiment, float(param), estimator, float(value),
                         None if err == "" else float(err))
            )
        except ValueError as exc:
            raise MixtureError(f"{path} line {number}: {exc}") from None
    return rows


_SERIES_STYLE = (
    ("H_MC", "#222222"),
    ("H_KL", "#c0392b"),
    ("H_BD", "#2460a7"),
    ("H_KDE", "#d4860b"),
    ("H_ELK", "#7d3fa8"),
)

_VIEW_W, _VIEW_H = 640, 440
_MARGIN = 56.0


def _series(rows, name) -> list[tuple[float, float]]:
    return [(r.param, r.value) for r in rows if r.estimator == name]


def render_svg(rows, path) -> None:
    """Write a small self-contained SVG chart of one sweep.

    One polyline per estimator in the line list, plus one shaded band
    between whatever rows of the exact floor (H_cond) and ceiling (H_joint)
    there are.  Both axes span every row.  The parameter axis is
    logarithmic, so a parameter that is not positive and finite, or a value
    that is not finite, raises MixtureError before anything is written.
    """
    if not rows:
        raise MixtureError("no sweep rows to plot")
    bad = [r.param for r in rows if not 0.0 < r.param < math.inf]
    if bad:
        raise MixtureError(f"cannot plot parameter {bad[0]!r} on a log axis")
    bad = [r.value for r in rows if not math.isfinite(r.value)]
    if bad:
        raise MixtureError(f"cannot plot the value {bad[0]!r}, which is not finite")
    floor = _series(rows, "H_cond")
    ceiling = _series(rows, "H_joint")
    lines = [(name, color, _series(rows, name)) for name, color in _SERIES_STYLE]

    xs = [math.log(r.param) for r in rows]
    ys = [r.value for r in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(p):
        return _MARGIN + (math.log(p) - x_lo) / x_span * (_VIEW_W - 2 * _MARGIN)

    def sy(v):
        return _VIEW_H - _MARGIN - (v - y_lo) / y_span * (_VIEW_H - 2 * _MARGIN)

    def path_points(pts):
        return " ".join(f"{sx(p):.2f},{sy(v):.2f}" for p, v in pts)

    band = path_points(floor) + " " + path_points(list(reversed(ceiling)))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<polygon class="band" points="{band}" fill="#3f9d55" fill-opacity="0.25" stroke="none"/>',
    ]
    for name, color, pts in lines:
        parts.append(
            f'<polyline data-series="{name}" points="{path_points(pts)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    axis_y = _VIEW_H - _MARGIN
    parts.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_VIEW_W - _MARGIN}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_VIEW_W / 2:.0f}" y="{_VIEW_H - 12}" text-anchor="middle" '
        f'font-size="12">ln(parameter), {rows[0].experiment}</text>'
    )
    parts.append(
        f'<text x="14" y="{_VIEW_H / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {_VIEW_H / 2:.0f})" text-anchor="middle">entropy (nats)</text>'
    )
    for k, (name, color) in enumerate(_SERIES_STYLE):
        y = _MARGIN + 14 * k
        parts.append(
            f'<line x1="{_VIEW_W - 150}" y1="{y}" x2="{_VIEW_W - 126}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_VIEW_W - 120}" y="{y + 4}" font-size="11">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")

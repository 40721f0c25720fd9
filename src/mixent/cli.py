"""Command-line interface: estimate one mixture, run a sweep, or bound MI.

Exit codes: 0 on success, 2 on usage errors, 1 on computation or file errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .errors import MixtureError
from .estimators import estimate_all
from .experiments import (
    EXPERIMENTS,
    SweepConfig,
    format_csv,
    log_grid,
    render_svg,
    run_sweep,
    write_csv,
)
from .mixture_io import load_mixture, load_noise_cov
from .mutual_info import AwgnChannel, mi_bounds


def _grid_spec(text: str) -> tuple[float, float, int]:
    """argparse type for --grid: validated lo:hi:steps endpoints in ln space."""
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like lo:hi:steps, got {text!r}"
        ) from None
    if steps < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"grid needs lo <= hi and steps >= 1, got {text!r}")
    return lo, hi, steps


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixent",
        description="Certified entropy bounds and estimators for mixture models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An option left out stays out of the call, so the library's default applies.
    command = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    est = command("estimate", help="run every estimator on one mixture file")
    est.add_argument("--spec", required=True, help="JSON mixture definition file")
    est.add_argument("--mc", dest="mc_samples", metavar="MC", type=int,
                     help="Monte Carlo sample count")
    est.add_argument("--seed", type=int, help="Monte Carlo master seed")

    sw = command("sweep", help="run one experiment sweep")
    sw.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    sw.add_argument("--n", dest="n_components", metavar="N", type=int,
                    help="components per mixture")
    sw.add_argument("--dim", type=int, help="dimension (ignored by g4/u4)")
    sw.add_argument("--clusters", type=int, help="clusters for g3/u3")
    sw.add_argument("--grid", type=_grid_spec,
                    help="lo:hi:steps, log-spaced (ln endpoints); default per experiment")
    sw.add_argument("--mc", dest="mc_samples", metavar="MC", type=int,
                    help="Monte Carlo samples per point")
    sw.add_argument("--seed", type=int, help="master seed")
    sw.add_argument("--out", help="CSV output path (stdout if omitted)")
    sw.add_argument("--plot", help="SVG output path")
    sw.add_argument("--balanced-clusters", action="store_true",
                    help="equal cluster sizes in g3/u3")

    mi = command("mi", help="bound mutual information across a Gaussian noise channel")
    mi.add_argument("--spec", required=True, help="JSON mixture definition file")
    mi.add_argument("--noise", required=True, help="JSON noise covariance file")
    mi.add_argument("--alpha", type=float, help="Chernoff order for the lower bound")
    return parser


def _run_estimate(spec, **options) -> int:
    report = estimate_all(load_mixture(spec), **options)
    for label in ("H_cond", "H_BD", "H_KL", "H_joint", "H_KDE", "H_ELK"):
        print(f"{label:<7} = {getattr(report, label.lower()):.12g}")  # H_BD: report.h_bd
    if report.mc is not None:
        print(f"H_MC    = {report.mc.estimate:.12g} (stderr {report.mc.stderr:.6g})")
    return 0


def _run_sweep(experiment, grid=None, out=None, plot=None, **options) -> int:
    if grid is not None:
        options["grid"] = log_grid(experiment, *grid)
    rows = run_sweep(SweepConfig(experiment, **options))
    if out is None:
        sys.stdout.write(format_csv(rows))
    else:
        write_csv(rows, out)
    if plot is not None:
        render_svg(rows, plot)
    return 0


def _run_mi(spec, noise, **options) -> int:
    mixture = load_mixture(spec)
    channel = AwgnChannel(load_noise_cov(noise))
    lower, upper = mi_bounds(mixture, channel, **options)
    print(f"MI_lower = {lower:.12g}")
    print(f"MI_upper = {upper:.12g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        options = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    run = {"estimate": _run_estimate, "sweep": _run_sweep, "mi": _run_mi}[options.pop("command")]
    try:
        return run(**options)
    except (MixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

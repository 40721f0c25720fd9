"""Command-line interface: estimate one mixture, run a sweep, or bound MI.

Exit codes: 0 on success, 2 on usage errors, 1 on computation or file errors.
"""

from __future__ import annotations

import argparse
import sys

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

    est = sub.add_parser("estimate", help="run every estimator on one mixture file")
    est.add_argument("--spec", required=True, help="JSON mixture definition file")
    est.add_argument("--mc", type=int, default=None, help="Monte Carlo sample count")
    est.add_argument("--seed", type=int, default=0, help="Monte Carlo master seed")

    sw = sub.add_parser("sweep", help="run one experiment sweep")
    sw.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    sw.add_argument("--n", type=int, default=20, help="components per mixture")
    sw.add_argument("--dim", type=int, default=5, help="dimension (ignored by g4/u4)")
    sw.add_argument("--clusters", type=int, default=5, help="clusters for g3/u3")
    sw.add_argument("--grid", type=_grid_spec, default=None,
                    help="lo:hi:steps, log-spaced (ln endpoints); default per experiment")
    sw.add_argument("--mc", type=int, default=2000, help="Monte Carlo samples per point")
    sw.add_argument("--seed", type=int, default=0, help="master seed")
    sw.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    sw.add_argument("--plot", default=None, help="SVG output path")
    sw.add_argument("--balanced-clusters", action="store_true",
                    help="equal cluster sizes in g3/u3")

    mi = sub.add_parser("mi", help="bound mutual information across a Gaussian noise channel")
    mi.add_argument("--spec", required=True, help="JSON mixture definition file")
    mi.add_argument("--noise", required=True, help="JSON noise covariance file")
    mi.add_argument("--alpha", type=float, default=0.5, help="Chernoff order for the lower bound")
    return parser


def _run_estimate(args) -> int:
    mixture = load_mixture(args.spec)
    report = estimate_all(mixture, mc_samples=args.mc, seed=args.seed)
    print(f"H_cond  = {report.h_cond:.12g}")
    print(f"H_BD    = {report.h_bd:.12g}")
    print(f"H_KL    = {report.h_kl:.12g}")
    print(f"H_joint = {report.h_joint:.12g}")
    print(f"H_KDE   = {report.h_kde:.12g}")
    print(f"H_ELK   = {report.h_elk:.12g}")
    if report.mc is not None:
        print(f"H_MC    = {report.mc.estimate:.12g} (stderr {report.mc.stderr:.6g})")
    return 0


def _run_sweep(args) -> int:
    grid = None if args.grid is None else log_grid(args.experiment, *args.grid)
    config = SweepConfig(
        experiment=args.experiment,
        n_components=args.n,
        dim=args.dim,
        clusters=args.clusters,
        grid=grid,
        mc_samples=args.mc,
        seed=args.seed,
        balanced_clusters=args.balanced_clusters,
    )
    rows = run_sweep(config)
    if args.out is None:
        sys.stdout.write(format_csv(rows))
    else:
        write_csv(rows, args.out)
    if args.plot is not None:
        render_svg(rows, args.plot)
    return 0


def _run_mi(args) -> int:
    mixture = load_mixture(args.spec)
    channel = AwgnChannel(load_noise_cov(args.noise))
    lower, upper = mi_bounds(mixture, channel, alpha=args.alpha)
    print(f"MI_lower = {lower:.12g}")
    print(f"MI_upper = {upper:.12g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "estimate":
            return _run_estimate(args)
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_mi(args)
    except (MixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

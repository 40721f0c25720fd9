"""Offline benchmark for mixent: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload bracket-n100 --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): bracket-n100, mc-oracle, cli-sweeps. One
closed-loop client runs ops back to back for --seconds (cli-sweeps runs whole
cycles of its 11 commands), then every op is checked. BLAS runs one thread.

--trace 0 prints the end-to-end metrics:
  ops_per_s          verified ops per second of timed-loop wall time
  op_s_p50           median op wall time
  op_s_tail          op time at the highest percentile with 10 ops beyond it
  peak_rss_mb        peak RSS of this process; of the largest op child for cli-sweeps
  verified_op_share  verified ops / attempted ops (1 - the failed-op share)
  setup_s            median of 3 set-ups (this process and 2 fresh ones), each:
                     import mixent, build inputs, one untimed warm-up op
--trace 1 alternates each op untraced and traced and prints per-layer metrics
from the traced ops: inclusive seconds and call counts per op for each
wrapped public name (tracing.py), ``estimators.reduce.s`` as the self time
of pairwise_estimate, and the trace.* overhead and coverage shares.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. An op fails if it raises, exits non-zero or fails a check;
``correct`` is false only if some op returned output that failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bracket-n100", "mc-oracle", "cli-sweeps")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it.

    With too few ops the maximum is returned at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def child_setup_time(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tr, traced: list, untraced: list, setup_tracer) -> dict:
    """Per-layer metrics from the traced ops; times and counts are per op."""
    n = len(traced)
    traced_s = sum(op.wall for op in traced)
    untraced_s = sum(op.wall for op in untraced)
    child_s = sum(op.wall for op in traced if op.trace is not None)
    import_s = sum(op.trace["import_s"] for op in traced if op.trace is not None)

    def per_op(value, unit):
        return value / n, unit

    incl, calls = tr.inclusive, tr.calls
    metrics = {
        "gaussian.construct.calls": per_op(calls("gaussian.construct"), "count/op"),
        "gaussian.construct.s": per_op(incl("gaussian.construct"), "s/op"),
        "gaussian.kl.calls": per_op(calls("gaussian.kl"), "count/op"),
        "gaussian.chernoff.calls": per_op(calls("gaussian.chernoff"), "count/op"),
        "gaussian.elk.calls": per_op(calls("gaussian.elk"), "count/op"),
        "gaussian.pair.s": per_op(incl("gaussian.kl", "gaussian.chernoff", "gaussian.elk"), "s/op"),
        "gaussian.log_density.calls": per_op(calls("gaussian.log_density"), "count/op"),
        "gaussian.log_density.s": per_op(incl("gaussian.log_density"), "s/op"),
        "gaussian.sample.s": per_op(incl("gaussian.sample"), "s/op"),
        "uniform.construct.s": per_op(incl("uniform.construct"), "s/op"),
        "uniform.pair.calls": per_op(calls("uniform.kl", "uniform.bd", "uniform.elk"), "count/op"),
        "uniform.pair.s": per_op(incl("uniform.kl", "uniform.bd", "uniform.elk"), "s/op"),
        "uniform.log_density.s": per_op(incl("uniform.log_density"), "s/op"),
        "mixture.construct.s": per_op(incl("mixture.construct"), "s/op"),
        "mixture.sample.s": per_op(incl("mixture.sample"), "s/op"),
        "mixture.log_density.s": per_op(incl("mixture.log_density"), "s/op"),
        "estimators.kl_matrix.s": per_op(incl("estimators.kl_matrix"), "s/op"),
        "estimators.bd_matrix.s": per_op(incl("estimators.bd_matrix"), "s/op"),
        "estimators.matrix.calls": per_op(
            calls("estimators.kl_matrix", "estimators.bd_matrix", "estimators.other_matrix"), "count/op"
        ),
        "estimators.elk.s": per_op(incl("estimators.elk"), "s/op"),
        "estimators.kde.s": per_op(incl("estimators.kde"), "s/op"),
        "estimators.reduce.s": per_op(tr.self_time("estimators.pairwise"), "s/op"),
        "estimators.estimate_all.s": per_op(incl("estimators.estimate_all"), "s/op"),
        "montecarlo.mc_entropy.s": per_op(incl("montecarlo.mc_entropy"), "s/op"),
        "montecarlo.points": per_op(tr.counters.get("montecarlo.points", 0), "count/op"),
        "mutual_info.awgn_push.s": per_op(incl("mutual_info.awgn_push"), "s/op"),
        "mutual_info.mi_bounds.s": per_op(incl("mutual_info.mi_bounds"), "s/op"),
        "experiments.generate.s": per_op(incl("experiments.generate"), "s/op"),
        "experiments.run_sweep.s": per_op(incl("experiments.run_sweep"), "s/op"),
        "experiments.csv.s": per_op(incl("experiments.csv"), "s/op"),
        "experiments.svg.s": per_op(incl("experiments.svg"), "s/op"),
        "experiments.bytes_out": per_op(tr.counters.get("experiments.bytes_out", 0), "B/op"),
        "mixture_io.load.s": per_op(incl("mixture_io.load"), "s/op"),
        "cli.import.s": per_op(import_s, "s/op"),
        "cli.main.s": per_op(incl("cli.main"), "s/op"),
        "cli.process.s": per_op(child_s, "s/op"),
        "trace.op.s": per_op(traced_s, "s/op"),
        # a child's import is covered by the cli.import layer
        "trace.covered_share": ((tr.total_self_time() + import_s) / traced_s, "ratio"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
        "setup.construct.s": (
            setup_tracer.inclusive("gaussian.construct", "uniform.construct", "mixture.construct"), "s"
        ),
    }
    return metrics


def end_to_end_metrics(ops: list, loop_s: float, peak_rss_kb: int, setups: list) -> dict:
    times = [op.wall for op in ops]
    verified = sum(op.error is None for op in ops)
    tail_s, _ = tail(times)
    return {
        "ops_per_s": (verified / loop_s, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "verified_op_share": (verified / len(ops), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "mixent" / "__init__.py").is_file():
        print(f"error: no mixent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def run(args, workdir: Path) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import mixent  # noqa: F401  (timed: import cost is part of set-up)
    import workloads
    from tracing import Tracer

    wl = workloads.make(args.workload, args.seed, ROOT)
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install()
    try:
        wl.build(workdir)
    finally:
        setup_tracer.uninstall()
    wl.run(wl.cycle()[-1])  # warm-up, unchecked
    setups = [time.perf_counter() - start]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        setups += [child_setup_time(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer() if args.trace else None
    ops = []
    loop_start = time.perf_counter()
    while True:
        for task in wl.cycle():
            if tracer is not None:
                ops.append(wl.run(task))
            ops.append(wl.run(task, tracer))
        if time.perf_counter() - loop_start >= args.seconds:
            break
    loop_s = time.perf_counter() - loop_start
    child_rss_kb = [op.rss_kb for op in ops if op.rss_kb and not op.traced]
    peak_rss_kb = max(child_rss_kb) if child_rss_kb else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checked = set()
    for op in ops:
        if op.error is not None:
            continue
        try:
            problem = wl.check(op)
            if problem is None and op.key not in checked:
                checked.add(op.key)
                problem = wl.reference(op)
        except Exception as exc:  # unreadable output fails the op, not the benchmark
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            op.fail(problem)

    untraced = [op for op in ops if not op.traced]
    if tracer is not None:
        traced = [op for op in ops if op.traced]
        for op in traced:
            if op.trace is not None:
                tracer.merge(op.trace["stats"], op.trace["counters"])
        metrics = layer_metrics(tracer, traced, untraced, setup_tracer)
    else:
        metrics = end_to_end_metrics(untraced, loop_s, peak_rss_kb, setups)

    failed = [op for op in ops if op.error is not None]
    print("# env " + json.dumps(environment(args.seed)))
    print(f"# workload {args.workload}: {len(ops)} ops in {loop_s:.3f} s, {len(failed)} failed")
    errors: dict[tuple[str, str], int] = {}
    for op in failed:
        errors[(op.label, op.error)] = errors.get((op.label, op.error), 0) + 1
    for (label, error), count in sorted(errors.items()):
        print(f"# failed op x{count}: {label}: {error}")
    if not args.trace:
        _, pct = tail([op.wall for op in untraced])
        print(f"# failed_op_share {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)})")
        print(f"# op_s_tail is p{pct:.1f} of {len(untraced)} ops")
        print(f"# setup_s samples {[round(s, 4) for s in setups]}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

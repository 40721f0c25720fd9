"""Tests of the benchmark itself: output contract, trace accounting and checks.

Run from the repository root: python3 -m pytest -q bench/tests
The end-to-end tests start short benchmark runs (about a minute in all).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import mixent.estimators  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mixent import GaussianComponent, MixtureModel, UniformBox  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seconds=1, cwd=ROOT, script=BENCH / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    """Lazily run and cache (workload, trace) benchmark runs."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = result(bench(workload, trace))
        return cache[workload, trace]

    return get


def values(res):
    return {name: m["value"] for name, m in res["metrics"].items()}


# ------------------------------------------------------------ contract


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)


def test_end_to_end_metrics_match_the_spec(runs):
    _, res = runs("mc-oracle", 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_per_layer_metrics_match_the_spec(runs):
    _, res = runs("mc-oracle", 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


def test_in_process_workloads_verify_every_op(runs):
    _, res = runs("mc-oracle", 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert values(res)["verified_op_share"] == 1.0


def test_cli_failures_are_only_the_g2_default_grid(runs):
    lines, res = runs("cli-sweeps", 0)
    cycles = res["attempted"] // 11
    assert res["correct"] and res["attempted"] == 11 * cycles
    assert res["failed"] == cycles
    failures = [line for line in lines if line.startswith("# failed op")]
    assert len(failures) == 1
    assert "sweep g2: exit 1: error: wishart needs dof >= dim, got dof=4.999999999999999" in failures[0]
    assert values(res)["verified_op_share"] == pytest.approx(10 / 11)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("bracket-n100", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout


# ------------------------------------------------------- trace accounting


@pytest.mark.parametrize("workload", ["bracket-n100", "mc-oracle"])
def test_trace_accounts_for_the_op_time(runs, workload):
    _, res = runs(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert values(res)["trace.covered_share"] >= 0.9


def test_pair_matrices_dominate_bracket_n100(runs):
    v = values(runs("bracket-n100", 1)[1])
    pair = v["estimators.kl_matrix.s"] + v["estimators.bd_matrix.s"] + v["estimators.elk.s"]
    assert pair >= 0.85 * v["trace.op.s"]
    assert v["gaussian.kl.calls"] == 100 * 99
    assert v["estimators.matrix.calls"] == 2


def test_mc_oracle_is_sampling_and_log_density(runs):
    v = values(runs("mc-oracle", 1)[1])
    pair = v["estimators.kl_matrix.s"] + v["estimators.bd_matrix.s"] + v["estimators.elk.s"]
    assert pair <= 0.05 * v["trace.op.s"]
    assert v["mixture.sample.s"] + v["mixture.log_density.s"] >= 0.85 * v["trace.op.s"]
    assert v["montecarlo.points"] == 200_000


def test_cli_children_are_traced(runs):
    lines, res = runs("cli-sweeps", 1)
    v = values(res)
    for name in ("cli.import.s", "cli.main.s", "cli.process.s", "experiments.run_sweep.s",
                 "experiments.svg.s", "mixture_io.load.s", "mutual_info.mi_bounds.s",
                 "uniform.pair.s", "gaussian.construct.s", "experiments.bytes_out"):
        assert v[name] > 0, name
    assert v["cli.main.s"] + v["cli.import.s"] <= v["cli.process.s"]


# --------------------------------------------------------------- units


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert bench_run.tail([float(i) for i in range(20, 0, -1)]) == (10.0, 50.0)
    assert bench_run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_splits_self_and_inclusive_time():
    tracer = tracing.Tracer()

    def inner():
        return tracer.call("inner", sum, ([1, 2],))

    def outer():
        return tracer.call("outer", lambda: inner() + tracer.call("outer", inner))

    assert outer() == 6
    assert tracer.calls("outer") == 2 and tracer.calls("inner") == 2
    # the nested "outer" call is inside the first one: count its time once
    assert tracer.inclusive("outer") == pytest.approx(tracer.total_self_time())


def test_tracer_restores_every_wrapped_name():
    originals = (mixent.estimators.gaussian_kl, mixent.estimators.estimate_all,
                 GaussianComponent.__init__, MixtureModel.log_density)
    tracer = tracing.Tracer()
    tracer.install()
    assert mixent.estimators.gaussian_kl is not originals[0]
    tracer.uninstall()
    assert (mixent.estimators.gaussian_kl, mixent.estimators.estimate_all,
            GaussianComponent.__init__, MixtureModel.log_density) == originals


def test_bracket_problem_flags_each_violation():
    ok = (1.0, 1.2, 1.5, 1.0 + math.log(2.0), math.log(2.0))
    assert workloads.bracket_problem(*ok, mc=(1.4, 0.01)) is None
    assert workloads.bracket_problem(*ok, mc=(1.52, 0.01)) is None
    assert "order" in workloads.bracket_problem(1.0, 2.1, 2.0, 2.5, 1.5)
    assert "H(C)" in workloads.bracket_problem(1.0, 1.5, 2.0, 2.5, 1.4)
    assert "stderr" in workloads.bracket_problem(*ok, mc=(1.56, 0.01))


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_reference_bracket_matches_the_library(family):
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.2, 1.0, 6)
    centers = rng.standard_normal((6, 3))
    if family == "gaussian":
        comps = [GaussianComponent(c, np.eye(3) * s) for c, s in zip(centers, rng.uniform(0.5, 2, 6))]
    else:
        comps = [UniformBox(c - 1.0, c + 1.0) for c in centers]
    mixture = MixtureModel(weights, comps)
    h_bd, h_kl = workloads.reference_bracket(weights, comps)
    assert h_bd == pytest.approx(mixent.estimators.lower_bound_bd(mixture), rel=1e-12)
    assert h_kl == pytest.approx(mixent.estimators.upper_bound_kl(mixture), rel=1e-12)


def test_repeated_output_must_be_byte_identical():
    wl = workloads.CliWorkload(0, ROOT)
    assert wl._same_as_first("sweep g1", b"a,b\n") is None
    assert wl._same_as_first("sweep g1", b"a,b\n") is None
    assert "differ" in wl._same_as_first("sweep g1", b"a,c\n")

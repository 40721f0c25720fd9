"""Inputs, ops and output checks for the three benchmark workloads.

bracket-n100  estimate_all(mix, mc_samples=2000) on heteroscedastic
              Wishart-covariance Gaussian mixtures, N=100, d=5. The O(N^2)
              pairwise KL/BD/ELK loops take ~95% of an op.
mc-oracle     the same call with N=8, d=10, mc_samples=200_000. Sampling and
              mixture log-density dominate; the pair loops take ~2%, so a
              pairwise-kernel change should show no change here.
cli-sweeps    one cycle runs ``python -m mixent.cli`` once per op, one child
              at a time: the 8 default sweeps with --out/--plot, then
              ``estimate`` on a Gaussian and a box spec (N=40, d=5) and
              ``mi`` on the Gaussian spec. Small mixtures, both families,
              per-process import, JSON load and CSV/SVG output.

All inputs come from the benchmark seed; the program receives only arrays
(in-process) or JSON files (CLI). Every op is checked after the timed loop:
the bracket order h_cond <= h_bd <= h_kl <= h_joint, h_joint - h_cond = H(C),
the Monte Carlo z-score against the nearer bracket end, MI_lower <= MI_upper,
sweep CSV shape and byte-identical repeats. The first op of each distinct
input is also recomputed from the scalar pair functions with this module's
own log-sum-exp and must agree to REF_RTOL.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mixent.estimators
from mixent import GaussianComponent, MixtureModel, UniformBox, read_csv
from mixent.gaussian import gaussian_bd, gaussian_kl
from mixent.uniform import uniform_bd, uniform_kl

Z_MAX = 5.0  # largest accepted MC z-score outside the certified bracket
REF_RTOL = 1e-9  # scalar-reference agreement for h_kl, h_bd and MI
_LOG_2PI = math.log(2.0 * math.pi)


class Op:
    """One timed call: what ran, how long it took and what it returned."""

    __slots__ = ("label", "key", "wall", "error", "wrong", "output", "traced", "rss_kb", "trace")

    def __init__(self, label: str, key, traced: bool):
        self.label = label  # what ran, e.g. "sweep g2"
        self.key = key  # distinct input, for the once-per-input reference check
        self.traced = traced
        self.wall = 0.0
        self.error: str | None = None  # set when the op raised, exited non-zero or failed a check
        self.wrong = False  # set when the op returned output that failed a check
        self.output = None
        self.rss_kb = 0
        self.trace = None  # child-process span totals, for traced CLI ops

    def fail(self, reason: str) -> None:
        self.error = reason
        self.wrong = True


# ------------------------------------------------------------- reference


def log_sum_exp(values) -> float:
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def weight_entropy(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w / math.fsum(w.tolist())
    return -math.fsum(float(c) * math.log(c) for c in w if c > 0)


def _entropy(component) -> float:
    if isinstance(component, UniformBox):
        return math.fsum(np.log(component.upper - component.lower).tolist())
    log_det = float(np.linalg.slogdet(component.cov)[1])
    return 0.5 * (log_det + component.dim * (_LOG_2PI + 1.0))


def reference_bracket(weights, components) -> tuple[float, float]:
    """(h_bd, h_kl) from the scalar pair functions and a plain log-sum-exp."""
    w = np.asarray(weights, dtype=float)
    w = (w / math.fsum(w.tolist())).tolist()
    active = [i for i, c in enumerate(w) if c > 0]
    h_cond = math.fsum(w[i] * _entropy(components[i]) for i in active)
    if isinstance(components[0], UniformBox):
        kl, bd = uniform_kl, uniform_bd
    else:
        kl, bd = gaussian_kl, gaussian_bd

    def estimate(distance):
        terms = []
        for i in active:
            inner = log_sum_exp(
                [math.log(w[j]) - (0.0 if i == j else distance(components[i], components[j]))
                 for j in active]
            )
            terms.append(w[i] * min(inner, 0.0))
        return h_cond - math.fsum(terms)

    return estimate(bd), estimate(kl)


def _close(value: float, reference: float, rtol: float = REF_RTOL) -> bool:
    return abs(value - reference) <= rtol * max(1.0, abs(reference))


def bracket_problem(h_cond, h_bd, h_kl, h_joint, h_weights, mc=None, tol=1e-12) -> str | None:
    """Why a bracket (and optional (estimate, stderr) MC row) is wrong, or None."""
    values = (h_cond, h_bd, h_kl, h_joint)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite bracket {values}"
    if not h_cond <= h_bd <= h_kl <= h_joint:
        return f"bracket order broken: cond={h_cond!r} bd={h_bd!r} kl={h_kl!r} joint={h_joint!r}"
    if abs((h_joint - h_cond) - h_weights) > tol * max(1.0, abs(h_joint)):
        return f"h_joint - h_cond = {h_joint - h_cond!r}, expected H(C) = {h_weights!r}"
    if mc is not None:
        estimate, stderr = mc
        excess = max(h_bd - estimate, estimate - h_kl, 0.0)
        # an excess at rounding level is not a sampling discrepancy
        if excess > 1e-9 * max(1.0, abs(h_joint)):
            z = excess / stderr if stderr > 0 else math.inf
            if z > Z_MAX:
                return f"MC estimate {estimate!r} is {z:.2f} stderr outside [{h_bd!r}, {h_kl!r}]"
    return None


# ----------------------------------------------------------- in-process


def _wishart(rng, dim: int, dof: int) -> np.ndarray:
    factor = rng.standard_normal((dim, dof))
    return factor @ factor.T / dof


def gaussian_inputs(rng, n: int, dim: int, spread: float):
    """Dirichlet weights, normal means and Wishart(dim + 5) covariances."""
    weights = rng.dirichlet(np.full(n, 2.0))
    means = spread * rng.standard_normal((n, dim))
    covs = [_wishart(rng, dim, dim + 5) for _ in range(n)]
    return weights, means, covs


class EstimateAllWorkload:
    """Closed loop of estimate_all calls over a few fixed Gaussian mixtures."""

    def __init__(self, seed: int, n: int, dim: int, spread: float, mc_samples: int, inputs: int = 3):
        self.seed = seed
        self.shape = (n, dim, spread)
        self.mc_samples = mc_samples
        self.n_inputs = inputs
        self.mixtures: list[MixtureModel] = []
        self.weights: list[np.ndarray] = []
        self._next = 0

    def build(self, workdir: Path) -> None:
        n, dim, spread = self.shape
        rng = np.random.default_rng([self.seed, n, dim])
        for _ in range(self.n_inputs):
            weights, means, covs = gaussian_inputs(rng, n, dim, spread)
            comps = [GaussianComponent(m, c) for m, c in zip(means, covs)]
            self.mixtures.append(MixtureModel(weights, comps))
            self.weights.append(weights)

    def cycle(self) -> list[tuple[int, int]]:
        """One op: the next input in turn, with its own MC seed."""
        index = self._next
        self._next += 1
        return [(index % self.n_inputs, self.seed * 100_003 + index)]

    def run(self, task, tracer=None) -> Op:
        k, mc_seed = task
        op = Op(f"estimate_all input={k}", k, tracer is not None)
        mixture = self.mixtures[k]
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            op.output = mixent.estimators.estimate_all(
                mixture, mc_samples=self.mc_samples, seed=mc_seed
            )
        except Exception as exc:  # any raise is a failed op, reported by name
            op.error = f"{type(exc).__name__}: {exc}"
        op.wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        return op

    def check(self, op: Op) -> str | None:
        r = op.output
        mc = (r.mc.estimate, r.mc.stderr)
        problem = bracket_problem(r.h_cond, r.h_bd, r.h_kl, r.h_joint,
                                  weight_entropy(self.weights[op.key]), mc)
        if problem is None and not (math.isfinite(r.h_kde) and math.isfinite(r.h_elk)):
            problem = f"non-finite baseline kde={r.h_kde!r} elk={r.h_elk!r}"
        return problem

    def reference(self, op: Op) -> str | None:
        h_bd, h_kl = reference_bracket(self.weights[op.key], self.mixtures[op.key].components)
        r = op.output
        if not (_close(r.h_bd, h_bd) and _close(r.h_kl, h_kl)):
            return f"scalar reference disagrees: bd {r.h_bd!r} vs {h_bd!r}, kl {r.h_kl!r} vs {h_kl!r}"
        return None


# ------------------------------------------------------------------ CLI

EXPERIMENTS = ("g1", "g2", "g3", "g4", "u1", "u2", "u3", "u4")
ESTIMATORS = ("H_MC", "H_KL", "H_BD", "H_KDE", "H_ELK", "H_cond", "H_joint")
SWEEP_COMPONENTS = 20  # the CLI default --n
GRID_POINTS = {"u4": 8}  # default grid sizes; the rest have 9 points
SPEC_COMPONENTS, SPEC_DIM, CLI_MC = 40, 5, 2000


def parse_values(text: str) -> dict[str, float]:
    """Parse ``NAME = value [(stderr s)]`` lines printed by estimate and mi."""
    values = {}
    for line in text.splitlines():
        name, sep, rest = line.partition("=")
        if not sep:
            continue
        head, _, tail = rest.partition("(stderr")
        values[name.strip()] = float(head)
        if tail:
            values[name.strip() + "_stderr"] = float(tail.strip(" )"))
    return values


def run_child(argv: list[str], env, cwd: Path, out_path: Path, err_path: Path):
    """Run one child to completion: (wall seconds, exit code, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class CliWorkload:
    """Closed loop of ``mixent`` CLI child processes, one at a time."""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.launcher = Path(__file__).resolve().parent / "launcher.py"
        self.workdir: Path | None = None
        self.specs: dict[str, dict] = {}
        self._count = 0
        self._first_output: dict[str, bytes] = {}

    def build(self, workdir: Path) -> None:
        self.workdir = workdir
        rng = np.random.default_rng([self.seed, SPEC_COMPONENTS, SPEC_DIM])
        weights, means, covs = gaussian_inputs(rng, SPEC_COMPONENTS, SPEC_DIM, 1.5)
        self.specs["gaussian"] = {
            "family": "gaussian",
            "weights": weights.tolist(),
            "components": [{"mean": m.tolist(), "cov": c.tolist()} for m, c in zip(means, covs)],
        }
        box_weights = rng.dirichlet(np.full(SPEC_COMPONENTS, 2.0))
        centers = 1.5 * rng.standard_normal((SPEC_COMPONENTS, SPEC_DIM))
        half = rng.uniform(0.3, 1.5, (SPEC_COMPONENTS, SPEC_DIM))
        self.specs["uniform"] = {
            "family": "uniform",
            "weights": box_weights.tolist(),
            "components": [{"lower": (c - h).tolist(), "upper": (c + h).tolist()}
                           for c, h in zip(centers, half)],
        }
        self.specs["noise"] = {"cov": (0.5 * np.eye(SPEC_DIM) + 0.1 * _wishart(rng, SPEC_DIM, SPEC_DIM + 5)).tolist()}
        for name, doc in self.specs.items():
            (workdir / f"{name}.json").write_text(json.dumps(doc), encoding="ascii")

    def cycle(self) -> list[str]:
        return [f"sweep {e}" for e in EXPERIMENTS] + ["estimate gaussian", "estimate uniform", "mi gaussian"]

    def _argv(self, label: str, tag: str) -> list[str]:
        command, target = label.split()
        work = self.workdir
        if command == "sweep":
            return ["sweep", "--experiment", target, "--seed", str(self.seed),
                    "--out", str(work / f"{tag}.csv"), "--plot", str(work / f"{tag}.svg")]
        spec = str(work / f"{target}.json")
        if command == "estimate":
            return ["estimate", "--spec", spec, "--mc", str(CLI_MC), "--seed", str(self.seed)]
        return ["mi", "--spec", spec, "--noise", str(work / "noise.json")]

    def run(self, label: str, tracer=None) -> Op:
        op = Op(label, label, tracer is not None)
        self._count += 1
        tag = f"op{self._count:05d}"
        args = self._argv(label, tag)
        trace_path = self.workdir / f"{tag}.trace.json"
        if tracer is None:
            argv = [sys.executable, "-m", "mixent.cli", *args]
        else:
            argv = [sys.executable, str(self.launcher), str(trace_path), *args]
        out_path, err_path = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        op.wall, code, op.rss_kb = run_child(argv, self.env, self.root, out_path, err_path)
        if code != 0:
            stderr = err_path.read_text(errors="replace").strip()
            op.error = f"exit {code}: {stderr.splitlines()[-1] if stderr else ''}"
        op.output = (out_path, self.workdir / f"{tag}.csv")
        if trace_path.exists():
            op.trace = json.loads(trace_path.read_text())
        return op

    def _same_as_first(self, label: str, data: bytes) -> str | None:
        first = self._first_output.setdefault(label, data)
        if data != first:
            return "output bytes differ from the first run of the same command and seed"
        return None

    def check(self, op: Op) -> str | None:
        command, target = op.label.split()
        out_path, csv_path = op.output
        if command == "sweep":
            return self._check_sweep(target, csv_path) or self._same_as_first(op.label, csv_path.read_bytes())
        text = out_path.read_text()
        values = parse_values(text)
        if command == "estimate":
            needed = ("H_cond", "H_BD", "H_KL", "H_joint", "H_KDE", "H_ELK", "H_MC", "H_MC_stderr")
            if not all(k in values for k in needed):
                return f"estimate output is missing values: {text!r}"
            problem = bracket_problem(
                values["H_cond"], values["H_BD"], values["H_KL"], values["H_joint"],
                weight_entropy(self.specs[target]["weights"]),
                (values["H_MC"], values["H_MC_stderr"]), tol=1e-9,
            )
        else:
            if "MI_lower" not in values or "MI_upper" not in values:
                return f"mi output is missing values: {text!r}"
            problem = None
            if not values["MI_lower"] <= values["MI_upper"]:
                problem = f"MI_lower {values['MI_lower']!r} exceeds MI_upper {values['MI_upper']!r}"
        return problem or self._same_as_first(op.label, text.encode())

    def _check_sweep(self, experiment: str, csv_path: Path) -> str | None:
        rows = read_csv(csv_path)
        points = GRID_POINTS.get(experiment, 9)
        if len(rows) != points * len(ESTIMATORS):
            return f"{len(rows)} CSV rows, expected {points} grid points x {len(ESTIMATORS)}"
        h_weights = math.log(SWEEP_COMPONENTS)
        for start in range(0, len(rows), len(ESTIMATORS)):
            group = rows[start:start + len(ESTIMATORS)]
            if tuple(r.estimator for r in group) != ESTIMATORS:
                return f"grid point {group[0].param!r}: estimators {[r.estimator for r in group]}"
            if len({r.param for r in group}) != 1 or any(r.experiment != experiment for r in group):
                return f"grid point {group[0].param!r}: mixed experiment or parameter"
            v = {r.estimator: r for r in group}
            problem = bracket_problem(
                v["H_cond"].value, v["H_BD"].value, v["H_KL"].value, v["H_joint"].value,
                h_weights, (v["H_MC"].value, v["H_MC"].stderr),
            )
            if problem:
                return f"grid point {group[0].param!r}: {problem}"
        return None

    def _components(self, spec: dict, noise=None):
        if spec["family"] == "uniform":
            return [UniformBox(c["lower"], c["upper"]) for c in spec["components"]]
        extra = 0.0 if noise is None else noise
        return [GaussianComponent(c["mean"], np.asarray(c["cov"]) + extra) for c in spec["components"]]

    def reference(self, op: Op) -> str | None:
        command, target = op.label.split()
        if command == "sweep":
            return None
        spec = self.specs[target]
        values = parse_values(op.output[0].read_text())
        if command == "estimate":
            h_bd, h_kl = reference_bracket(spec["weights"], self._components(spec))
            if not (_close(values["H_BD"], h_bd) and _close(values["H_KL"], h_kl)):
                return f"scalar reference disagrees: bd {values['H_BD']!r} vs {h_bd!r}, kl {values['H_KL']!r} vs {h_kl!r}"
            return None
        noise = np.asarray(self.specs["noise"]["cov"])
        h_noise = 0.5 * (float(np.linalg.slogdet(noise)[1]) + SPEC_DIM * (_LOG_2PI + 1.0))
        h_bd, h_kl = reference_bracket(spec["weights"], self._components(spec, noise))
        lower, upper = h_bd - h_noise, h_kl - h_noise
        if not (_close(values["MI_lower"], lower) and _close(values["MI_upper"], upper)):
            return f"scalar reference disagrees: MI {values['MI_lower']!r}..{values['MI_upper']!r} vs {lower!r}..{upper!r}"
        return None


def make(name: str, seed: int, root: Path):
    if name == "bracket-n100":
        return EstimateAllWorkload(seed, n=100, dim=5, spread=1.5, mc_samples=2000)
    if name == "mc-oracle":
        return EstimateAllWorkload(seed, n=8, dim=10, spread=0.7, mc_samples=200_000)
    if name == "cli-sweeps":
        return CliWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")

"""Acceptance suite: eleven pass/fail criteria at pinned tolerances.

Each test records exactly one line of the form

    criterion NN <name>: PASS|FAIL

(echoed in the terminal summary by the conftest hook) and then asserts that no
check in the criterion failed, listing the first few offending checks if any did.
"""

import math
import time

import numpy as np
import pytest

from mixent import (
    AlphaOutOfRange,
    AwgnChannel,
    GaussianComponent,
    MixtureModel,
    SweepConfig,
    UniformBox,
    awgn_push,
    clustered_gap_bound,
    elk_estimate,
    format_csv,
    gaussian_bd,
    gaussian_chernoff,
    gaussian_elk_cross,
    gaussian_kl,
    kde_estimate,
    lower_bound_bd,
    lower_bound_chernoff,
    mc_entropy,
    mi_bounds,
    quad_cross_term_1d,
    quad_entropy_1d,
    run_sweep,
    uniform_bd,
    uniform_elk_cross,
    uniform_kl,
    upper_bound_kl,
)
from mixent.gaussian import _chernoff_exponent
from support import random_gaussian_mixture, random_mixture, random_spd

LN2 = math.log(2.0)
LN5 = math.log(5.0)

#: One "criterion NN <name>: PASS|FAIL" line per criterion, echoed by the
#: conftest terminal-summary hook so the verdicts survive output capture.
VERDICTS: list[str] = []


def _verdict(number: int, name: str, failures: list[str]) -> None:
    line = f"criterion {number:02d} {name}: {'FAIL' if failures else 'PASS'}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert not failures, "\n".join([line, *failures[:10]])


@pytest.fixture(scope="module")
def bracketing_suite():
    """200 randomized mixtures with their bounds and a 10^4-sample MC estimate.

    Shared by the bracketing and bias-bound criteria; the build time counts
    against the bracketing budget.
    """
    rng = np.random.default_rng(2026)
    dims = (1, 2, 5, 10)
    sizes = (2, 5, 20)
    instances = []
    start = time.perf_counter()
    for i in range(200):
        family = "gaussian" if i % 2 == 0 else "uniform"
        dim = dims[(i // 2) % len(dims)]
        n = sizes[(i // 8) % len(sizes)]
        mix = random_mixture(rng, n, dim, family)
        mc = mc_entropy(mix, 10_000, seed=i)
        instances.append((family, mix, mc, lower_bound_bd(mix), upper_bound_kl(mix)))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_01_bracketing_suite(bracketing_suite):
    instances, elapsed = bracketing_suite
    failures = []
    for i, (family, mix, mc, h_bd, h_kl) in enumerate(instances):
        cond = mix.conditional_entropy()
        joint = mix.joint_entropy_upper()
        if not (cond <= h_bd <= h_kl <= joint):
            failures.append(f"instance {i} ({family}): ordering broken")
        lo = h_bd - 3.0 * mc.stderr
        hi = h_kl + 3.0 * mc.stderr
        if not (lo <= mc.estimate <= hi):
            failures.append(
                f"instance {i} ({family}): MC {mc.estimate} outside [{lo}, {hi}]"
            )
    if elapsed >= 60.0:
        failures.append(f"suite took {elapsed:.1f} s, budget is 60 s")
    _verdict(1, "bracketing suite", failures)


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(4091)
    tol = 1e-6
    failures = []
    start = time.perf_counter()

    def check(tag, i, closed, quad):
        if math.isinf(closed):
            ok = math.isinf(quad) if quad != 0.0 else False
        else:
            ok = abs(closed - quad) <= tol
        if not ok:
            failures.append(f"pair {i} {tag}: closed {closed} vs quadrature {quad}")

    for i in range(100):
        if i % 2 == 0:
            a = GaussianComponent([rng.normal(0, 2)], [[rng.uniform(0.3, 3.0)]])
            b = GaussianComponent([rng.normal(0, 2)], [[rng.uniform(0.3, 3.0)]])
            sd = math.sqrt(a.cov[0, 0])
            lone = MixtureModel([1.0], [a])
            check("entropy", i, a.entropy(),
                  quad_entropy_1d(lone, a.mean[0] - 12 * sd, a.mean[0] + 12 * sd))
            check("kl", i, gaussian_kl(a, b), quad_cross_term_1d(a, b, "kl"))
            alpha = float(rng.uniform(0.1, 0.9))
            check("chernoff", i, gaussian_chernoff(a, b, alpha),
                  -math.log(quad_cross_term_1d(a, b, "chernoff", alpha=alpha)))
            check("bd", i, gaussian_bd(a, b),
                  -math.log(quad_cross_term_1d(a, b, "sqrt_product")))
            check("elk", i, gaussian_elk_cross(a, b),
                  quad_cross_term_1d(a, b, "product"))
        else:
            def box():
                center = rng.normal(0, 1.5)
                half = rng.uniform(0.2, 2.0)
                return UniformBox([center - half], [center + half])

            a, b = box(), box()
            lone = MixtureModel([1.0], [a])
            check("entropy", i, a.entropy(),
                  quad_entropy_1d(lone, a.lower[0] - 0.5, a.upper[0] + 0.5))
            check("kl", i, uniform_kl(a, b), quad_cross_term_1d(a, b, "kl"))
            bd = uniform_bd(a, b)
            coeff = quad_cross_term_1d(a, b, "sqrt_product")
            if math.isinf(bd):
                if coeff > 1e-12:
                    failures.append(f"pair {i} bd: disjoint boxes but coefficient {coeff}")
            else:
                check("bd", i, bd, -math.log(coeff))
            check("elk", i, uniform_elk_cross(a, b),
                  quad_cross_term_1d(a, b, "product"))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"oracle comparison took {elapsed:.1f} s, budget is 10 s")
    _verdict(2, "oracle equivalence", failures)


def test_criterion_03_bias_bound(bracketing_suite):
    instances, _ = bracketing_suite
    failures = []
    for i, (family, mix, mc, h_bd, h_kl) in enumerate(instances):
        budget = mix.weight_entropy() + 3.0 * mc.stderr
        estimates = {"bd": h_bd, "kl": h_kl}
        if family == "gaussian":
            estimates["chernoff(0.25)"] = lower_bound_chernoff(mix, 0.25)
        for tag, value in estimates.items():
            if abs(value - mc.estimate) > budget:
                failures.append(
                    f"instance {i} ({family}) {tag}: |{value} - {mc.estimate}| > {budget}"
                )
    _verdict(3, "bias bound", failures)


def test_criterion_04_half_order_optimality():
    rng = np.random.default_rng(1713)
    grid = np.linspace(0.1, 0.9, 17)
    failures = []
    for i in range(50):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        mix = random_gaussian_mixture(rng, n, dim, spread=2.5,
                                      shared_cov=random_spd(rng, dim))
        best = lower_bound_bd(mix)
        for alpha in grid:
            value = lower_bound_chernoff(mix, float(alpha))
            if value > best + 1e-12:
                failures.append(
                    f"mixture {i}: order {alpha:.3f} gives {value} > half-order {best}"
                )
    _verdict(4, "half-order optimality", failures)


def _clustered_instance(rng):
    """20 unit-covariance d=10 components on 5 centers >= 20 apart."""
    dim, clusters, n = 10, 5, 20
    while True:
        centers = rng.normal(0.0, 15.0, (clusters, dim))
        dists = [
            float(np.linalg.norm(centers[i] - centers[j]))
            for i in range(clusters)
            for j in range(i + 1, clusters)
        ]
        if min(dists) >= 20.0:
            break
    labels = np.concatenate([np.arange(clusters), rng.integers(0, clusters, n - clusters)])
    labels = rng.permutation(labels)
    eye = np.eye(dim)
    comps = [GaussianComponent(centers[g], eye) for g in labels]
    mix = MixtureModel(rng.uniform(0.2, 1.0, n), comps)
    return mix, labels


def test_criterion_05_clustered_exactness():
    rng = np.random.default_rng(55)
    failures = []
    for i in range(10):
        mix, labels = _clustered_instance(rng)
        group_weights = [math.fsum(mix.weights[labels == g]) for g in np.unique(labels)]
        group_entropy = -math.fsum(w * math.log(w) for w in group_weights if w > 0)
        target = mix.conditional_entropy() + group_entropy
        h_bd = lower_bound_bd(mix)
        h_kl = upper_bound_kl(mix)
        if abs(h_bd - target) > 1e-6:
            failures.append(f"instance {i}: lower bound {h_bd} vs target {target}")
        if abs(h_kl - target) > 1e-6:
            failures.append(f"instance {i}: upper bound {h_kl} vs target {target}")
        bound = clustered_gap_bound(mix, labels, 0.5)
        if h_kl - h_bd > bound + 1e-9:
            failures.append(f"instance {i}: gap {h_kl - h_bd} exceeds bound {bound}")
        if elk_estimate(mix) > h_bd + 1e-12:
            failures.append(f"instance {i}: overlap baseline above the distance bound")
    _verdict(5, "clustered exactness", failures)


def test_criterion_06_kde_dimensional_offset():
    rng = np.random.default_rng(66)
    failures = []
    for i in range(50):
        dim = (i % 20) + 1
        n = int(rng.integers(2, 9))
        mix = random_gaussian_mixture(rng, n, dim, spread=3.0,
                                      shared_cov=random_spd(rng, dim))
        kde = kde_estimate(mix)
        expected = upper_bound_kl(mix) - 0.5 * dim
        if abs(kde - expected) > 1e-9:
            failures.append(f"mixture {i} (d={dim}): {kde} vs {expected}")
    _verdict(6, "kernel-density offset", failures)


def test_criterion_07_uniform_identities():
    rng = np.random.default_rng(77)
    failures = []
    for i in range(50):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(2, 11))
        half = rng.uniform(0.3, 1.8, dim)
        centers = rng.normal(0.0, 2.0, (n, dim))
        boxes = [UniformBox(c - half, c + half) for c in centers]
        mix = MixtureModel(rng.uniform(0.2, 1.0, n), boxes)
        if upper_bound_kl(mix) != mix.joint_entropy_upper():
            failures.append(f"instance {i}: KL route missed the exact ceiling")
        gap = abs(elk_estimate(mix) - lower_bound_bd(mix))
        if gap > 1e-9:
            failures.append(f"instance {i}: overlap estimates differ by {gap}")
    _verdict(7, "uniform identities", failures)


def test_criterion_08_sweep_endpoints():
    failures = []

    def endpoint(rows, param, estimator):
        return next(r for r in rows if r.param == param and r.estimator == estimator)

    start = time.perf_counter()
    rows = run_sweep(SweepConfig(experiment="g1"))
    g1_elapsed = time.perf_counter() - start
    params = sorted({r.param for r in rows})
    low, high = params[0], params[-1]
    mc_low = endpoint(rows, low, "H_MC")
    floor = endpoint(rows, low, "H_cond").value
    if abs(mc_low.value - floor) > 3.0 * mc_low.stderr:
        failures.append(
            f"g1 low endpoint: MC {mc_low.value} vs floor {floor} "
            f"(3 stderr = {3.0 * mc_low.stderr:.4f})"
        )
    mc_high = endpoint(rows, high, "H_MC")
    ceiling = endpoint(rows, high, "H_joint").value
    if abs(mc_high.value - ceiling) > 3.0 * mc_high.stderr:
        failures.append(
            f"g1 high endpoint: MC {mc_high.value} vs ceiling {ceiling} "
            f"(3 stderr = {3.0 * mc_high.stderr:.4f})"
        )
    if g1_elapsed >= 30.0:
        failures.append(f"g1 sweep took {g1_elapsed:.1f} s, budget is 30 s")

    start = time.perf_counter()
    rows = run_sweep(SweepConfig(experiment="g3", balanced_clusters=True))
    g3_elapsed = time.perf_counter() - start
    high = max(r.param for r in rows)
    mc_high = endpoint(rows, high, "H_MC")
    target = endpoint(rows, high, "H_cond").value + LN5
    if abs(mc_high.value - target) > 3.0 * mc_high.stderr:
        failures.append(
            f"g3 right endpoint: MC {mc_high.value} vs {target} "
            f"(3 stderr = {3.0 * mc_high.stderr:.4f})"
        )
    if g3_elapsed >= 30.0:
        failures.append(f"g3 sweep took {g3_elapsed:.1f} s, budget is 30 s")
    _verdict(8, "sweep endpoints", failures)


def test_criterion_09_invalid_orders_rejected():
    rng = np.random.default_rng(99)
    failures = []
    for i in range(20):
        dim = int(rng.integers(1, 5))
        cov = random_spd(rng, dim)
        mean_a = rng.normal(0.0, 2.0, dim)
        mean_b = mean_a + rng.normal(0.0, 2.0, dim) + 0.5
        a = GaussianComponent(mean_a, cov)
        b = GaussianComponent(mean_b, cov)
        for alpha in (-0.5, 1.5):
            value = _chernoff_exponent(a, b, alpha)
            if not value < 0.0:
                failures.append(f"pair {i}: exponent at order {alpha} is {value}")
            try:
                gaussian_chernoff(a, b, alpha)
            except AlphaOutOfRange:
                pass
            else:
                failures.append(f"pair {i}: order {alpha} was not rejected")
    _verdict(9, "invalid orders rejected", failures)


def test_criterion_10_mutual_information_bounds():
    rng = np.random.default_rng(110)
    failures = []
    for i in range(20):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        mix = random_gaussian_mixture(rng, n, dim)
        channel = AwgnChannel(random_spd(rng, dim))
        lower, upper = mi_bounds(mix, channel)
        if lower > upper + 1e-12:
            failures.append(f"instance {i}: lower {lower} above upper {upper}")
        if upper - lower > mix.weight_entropy() + 1e-12:
            failures.append(f"instance {i}: gap {upper - lower} above weight entropy")
        pushed = awgn_push(mix, channel)
        mc = mc_entropy(pushed, 20_000, seed=i)
        mi_mc = mc.estimate - channel.conditional_entropy()
        if not (lower - 3.0 * mc.stderr <= mi_mc <= upper + 3.0 * mc.stderr):
            failures.append(f"instance {i}: MC information {mi_mc} outside bounds")

    binary = MixtureModel(
        [0.5, 0.5],
        [GaussianComponent([-10.0], [[1e-12]]), GaussianComponent([10.0], [[1e-12]])],
    )
    lower, upper = mi_bounds(binary, AwgnChannel([[1.0]]))
    if abs(lower - LN2) > 1e-3 or abs(upper - LN2) > 1e-3:
        failures.append(f"binary instance: bounds ({lower}, {upper}) vs ln 2")
    _verdict(10, "mutual information bounds", failures)


def test_criterion_11_deterministic_sweeps(tmp_path):
    failures = []
    configs = (
        SweepConfig(experiment="g2", n_components=6, dim=2,
                    grid=(4.0, 12.0, 40.0), mc_samples=400, seed=5),
        SweepConfig(experiment="u2", n_components=5, dim=2,
                    grid=(0.5, 2.0), mc_samples=400, seed=6),
        SweepConfig(experiment="g1", n_components=4, dim=3,
                    grid=(0.5, 4.0), mc_samples=300, seed=7),
    )
    for config in configs:
        first = format_csv(run_sweep(config))
        second = format_csv(run_sweep(config))
        if first != second:
            failures.append(f"{config.experiment}: repeated sweep differs")
    _verdict(11, "deterministic sweeps", failures)

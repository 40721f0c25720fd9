"""Span tracing of mixent from the outside, by wrapping its public names.

A :class:`Tracer` replaces each traced function or method with a wrapper
that times the call. Functions are replaced in every ``mixent`` module that
binds them, because callers look them up in their own module globals
(``estimators.pairwise_distance_matrix`` finds ``gaussian_kl`` in
``mixent.estimators``, ``experiments.run_sweep`` finds ``estimate_all`` in
``mixent.experiments``). Methods are replaced on their class. Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` puts every original back.

Spans are aggregated as they close, per span name: calls, inclusive time
(outermost calls only, so a name nested in itself is not counted twice) and
self time (duration minus the time covered by child spans). Keeping totals
instead of one record per call keeps the overhead and memory flat for the
tens of thousands of pair-function calls an op makes.

This module uses the standard library only, so the CLI launcher can import
it before ``mixent`` and time that import on its own.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _matrix_span(args, kwargs):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
    name = getattr(kind, "name", None)
    return {"kl": "estimators.kl_matrix", "chernoff": "estimators.bd_matrix"}.get(
        name, "estimators.other_matrix"
    )


def _count_points(tracer, args, kwargs, result):
    samples = kwargs.get("samples", args[1] if len(args) > 1 else 0)
    tracer.count("montecarlo.points", int(samples))


def _count_file_bytes(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        tracer.count("experiments.bytes_out", os.path.getsize(path))


# (module, attribute, span name or namer(args, kwargs), hook(tracer, args, kwargs, result))
FUNCTIONS = (
    ("mixent.gaussian", "gaussian_kl", "gaussian.kl", None),
    ("mixent.gaussian", "gaussian_chernoff", "gaussian.chernoff", None),
    ("mixent.gaussian", "gaussian_elk_log_cross", "gaussian.elk", None),
    ("mixent.uniform", "uniform_kl", "uniform.kl", None),
    ("mixent.uniform", "uniform_bd", "uniform.bd", None),
    ("mixent.uniform", "uniform_elk_log_cross", "uniform.elk", None),
    ("mixent.estimators", "pairwise_distance_matrix", _matrix_span, None),
    ("mixent.estimators", "pairwise_estimate", "estimators.pairwise", None),
    ("mixent.estimators", "elk_estimate", "estimators.elk", None),
    ("mixent.estimators", "kde_estimate", "estimators.kde", None),
    ("mixent.estimators", "estimate_all", "estimators.estimate_all", None),
    ("mixent.montecarlo", "mc_entropy", "montecarlo.mc_entropy", _count_points),
    ("mixent.mutual_info", "awgn_push", "mutual_info.awgn_push", None),
    ("mixent.mutual_info", "mi_bounds", "mutual_info.mi_bounds", None),
    ("mixent.experiments", "gen_gaussian_spread", "experiments.generate", None),
    ("mixent.experiments", "gen_gaussian_wishart", "experiments.generate", None),
    ("mixent.experiments", "gen_gaussian_clustered", "experiments.generate", None),
    ("mixent.experiments", "gen_uniform_spread", "experiments.generate", None),
    ("mixent.experiments", "gen_uniform_gamma", "experiments.generate", None),
    ("mixent.experiments", "gen_uniform_clustered", "experiments.generate", None),
    ("mixent.experiments", "run_sweep", "experiments.run_sweep", None),
    ("mixent.experiments", "format_csv", "experiments.csv", None),
    ("mixent.experiments", "write_csv", "experiments.csv", _count_file_bytes),
    ("mixent.experiments", "render_svg", "experiments.svg", _count_file_bytes),
    ("mixent.mixture_io", "load_mixture", "mixture_io.load", None),
    ("mixent.mixture_io", "load_noise_cov", "mixture_io.load", None),
)

# (module, class, method, span name)
METHODS = (
    ("mixent.gaussian", "GaussianComponent", "__init__", "gaussian.construct"),
    ("mixent.gaussian", "GaussianComponent", "log_density", "gaussian.log_density"),
    ("mixent.gaussian", "GaussianComponent", "sample", "gaussian.sample"),
    ("mixent.uniform", "UniformBox", "__init__", "uniform.construct"),
    ("mixent.uniform", "UniformBox", "log_density", "uniform.log_density"),
    ("mixent.mixture", "MixtureModel", "__init__", "mixture.construct"),
    ("mixent.mixture", "MixtureModel", "sample", "mixture.sample"),
    ("mixent.mixture", "MixtureModel", "log_density", "mixture.log_density"),
)


class Tracer:
    """Aggregated spans and counters for the calls made while installed.

    ``stats[name]`` is ``[calls, inclusive_s, self_s]``; ``counters[name]``
    is a running total.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        frame = [name, 0.0]
        self._stack.append(frame)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._depth[name] = depth
            if self._stack:
                self._stack[-1][1] += duration
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            if depth == 0:
                entry[1] += duration
            entry[2] += duration - frame[1]

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            result = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name; mixent must already be imported."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mixent"]
        for module_name, attr, span, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        for module_name, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(original, span, None))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def merge(self, stats: dict, counters: dict) -> None:
        """Add totals recorded elsewhere, e.g. by a traced child process."""
        for name, (calls, incl, self_s) in stats.items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for name, amount in counters.items():
            self.count(name, amount)

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def inclusive(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total_self_time(self) -> float:
        return sum(entry[2] for entry in self.stats.values())

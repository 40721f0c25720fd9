"""The names the benchmark imports, wraps and runs exist where it looks for them.

``bench/workloads.py`` imports package names and builds CLI command lines,
and ``bench/tracing.py`` wraps module functions and the methods in each
component class's own ``__dict__``.  A package change that drops or moves
one of those names (a method moved to a base class, say) breaks the
benchmark; these tests make it fail here too.  Both files are only read:
they are loaded from their paths without writing bytecode.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mixent.estimators
from mixent import GaussianComponent, MixtureModel
from mixent.cli import _build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def load(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load_module(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load_module


def _bindings():
    """Every name bound in every loaded mixent module, with its object."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mixent"]
    return {(module.__name__, name): value
            for module in modules for name, value in vars(module).items()}


def test_tracer_wraps_every_benchmark_name_and_restores_it(load):
    tracing = load("tracing")
    def own(module, cls, method):  # a method moved to a base class raises KeyError here
        return vars(getattr(sys.modules[module], cls))[method]

    methods = {entry[:3]: own(*entry[:3]) for entry in tracing.METHODS}
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _, _ in tracing.FUNCTIONS:
            assert getattr(sys.modules[module], attr).__wrapped__ is before[module, attr]
        for entry, original in methods.items():
            assert own(*entry).__wrapped__ is original, entry
        mix = MixtureModel([1.0, 2.0], [GaussianComponent([0.0], [[1.0]]),
                                        GaussianComponent([1.0], [[2.0]])])
        mixent.estimators.estimate_all(mix, mc_samples=10)  # looked up as the workload does
        assert tracer.calls("estimators.estimate_all", "montecarlo.mc_entropy") == 2
        assert tracer.calls("gaussian.construct", "mixture.construct") == 3
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_workload_names_and_command_lines_exist(load, tmp_path):
    workloads = load("workloads")
    inputs = workloads.make("bracket-n100", 1, BENCH.parent)
    inputs.build(tmp_path)
    assert isinstance(inputs.mixtures[0], MixtureModel)
    cli = workloads.make("cli-sweeps", 1, BENCH.parent)
    cli.build(tmp_path)
    parser = _build_parser()
    commands = [cli._argv(label, "check") for label in cli.cycle()]
    assert {argv[0] for argv in commands} == {"sweep", "estimate", "mi"}
    for argv in commands:
        parser.parse_args(argv)  # an unknown option or experiment exits here
    assert workloads.EXPERIMENTS == mixent.EXPERIMENTS
    assert np.isfinite(workloads.reference_bracket([1.0], inputs.mixtures[0].components[:1])).all()

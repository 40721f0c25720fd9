"""Rules the package source itself must follow."""

import ast
from pathlib import Path

import mixent


def test_no_assert_statements_in_the_package():
    # Invariant checks must raise real exceptions: assert vanishes under python -O.
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "estimators.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"


def test_experiment_ids_live_only_in_the_sweep_table():
    # Which experiments exist is decided once, by the table in experiments.py;
    # every other module reads EXPERIMENTS or asks that module.
    ids = {f"{family}{n}" for family in "gu" for n in range(1, 5)}
    sources = sorted(Path(mixent.__file__).parent.glob("*.py"))
    assert any(path.name == "cli.py" for path in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        if path.name != "experiments.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ids
    ]
    assert not found, f"experiment id literals outside experiments.py: {found}"

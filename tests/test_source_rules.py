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

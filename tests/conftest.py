"""Shared pytest hooks: echo the acceptance verdict lines after the run,
with the package's code-line count under them."""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mixent"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None)
    if not verdicts:
        return
    from support import code_lines

    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.write_line(line)
    total = sum(code_lines(path) for path in PACKAGE.glob("*.py"))
    terminalreporter.write_line(f"src/mixent code lines: {total}")

"""Run ``mixent.cli.main`` under the tracer in a child process.

Usage: python launcher.py TRACE_OUT.json <mixent cli arguments...>

The child times its own ``import mixent.cli``, installs the tracer, runs the
command, writes the span totals to TRACE_OUT.json and exits with the
command's exit code. ``src`` must be on PYTHONPATH, as for
``python -m mixent.cli``.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import mixent.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", mixent.cli.main, (argv,))
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="ascii") as handle:
            json.dump(
                {"import_s": import_s, "stats": tracer.stats, "counters": tracer.counters},
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())

"""Run one phasebus command with every traced function wrapped.

Usage: python trace_child.py SPANS_JSON <phasebus arguments...>

The import of ``phasebus.cli`` is timed before anything is wrapped; the
spans are written to SPANS_JSON when the command returns or raises, and
the process exits with the command's exit code.
"""

import sys
from time import perf_counter


def main(argv):
    spans_path, command = argv[0], argv[1:]
    start = perf_counter()
    import phasebus.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return phasebus.cli.main(command)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

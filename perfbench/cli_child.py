"""Run one cycloquant CLI command with the layer tracer installed.

    python cli_child.py OUT.json COMMAND [ARGS...]

Behaves like ``python -m cycloquant COMMAND [ARGS...]``: same standard
output and exit code. It also writes the time to import
``cycloquant.cli``, the time of the command and the tracer's aggregates
and spans to OUT.json. With ``-`` for OUT.json it runs the command the
same way without the tracer and writes nothing, the untraced half of the
tracer's overhead. ``src`` must be on PYTHONPATH.
"""

import json
import sys
import time

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import cycloquant.cli as cli

    if out == "-":
        return cli.main(argv)
    t1 = time.perf_counter()
    tr = tracer.Tracer()
    tr.install()
    command = tr.wrap(cli.main, "cli.main", True)
    t2 = time.perf_counter()
    try:
        code = command(argv)
    finally:
        t3 = time.perf_counter()
        tr.uninstall()
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "command_s": t3 - t2, "summary": tr.summary(),
                   "spans": [span for span in tr.spans if span is not None]}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

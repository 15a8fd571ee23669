"""Which package files a fresh interpreter executes, and how long commands take.

    python tests/cold_probe.py ARGS...    run ``python -m cycloquant ARGS``
    python tests/cold_probe.py -c CODE    run CODE

install an audit hook first and, after the run, print one more line to
stdout: the package files executed (the hook's ``exec`` events, which
fire whether or not a ``.pyc`` exists), then whether ``json`` was in
``sys.modules`` before the run and after it.

    python tests/cold_probe.py --report

runs each command kind of the ``cli_cold`` benchmark as 5 fresh
``python -m cycloquant`` processes and prints the median wall time and
the package files that one of them executed.
"""

import importlib.util
import os
import runpy
import sys

REPORT_FILES = {
    "lift.json": '{"strands": 3, "word": [1, -2, 1, -2, 1, -2]}',
    "quot.json": '{"strands": 3, "word": [1, -2]}',
    "b.json": '{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
    "bbar.json": '{"matrix": [[1]]}',
    "m.json": '{"matrix": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}',
}
REPORT_COMMANDS = (
    ["repro-remark13"],
    ["check-cor12", "--v=1 - A - A^2 + A^3 - A^4 + A^5 - A^7", "--r", "5", "--p", "11"],
    ["check-thm11", "--vm=1", "--vmbar=1", "--r", "5", "--p", "11"],
    ["check-thm41", "--lift", "lift.json", "--quotient", "quot.json", "--p", "3"],
    ["check-thm51", "--b", "b.json", "--bbar", "bbar.json", "--p", "3", "--n", "5", "--fast"],
    ["moo", "--n", "105", "--matrix", "m.json", "--fast"],
)


def probe(args: list[str]) -> None:
    package = os.path.dirname(importlib.util.find_spec("cycloquant").origin)
    executed = set()

    def hook(event, hook_args):
        path = getattr(hook_args[0], "co_filename", "") if event == "exec" else ""
        if os.path.dirname(path) == package:
            executed.add(os.path.basename(path))

    json_before = "json" in sys.modules
    sys.addaudithook(hook)
    if args[:1] == ["-c"]:
        exec(compile(args[1], "<probe>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv[1:] = args
        try:
            runpy.run_module("cycloquant", run_name="__main__")
        except SystemExit:
            pass
    sys.stdout.flush()
    print(" ".join(sorted(executed)), json_before, "json" in sys.modules)


def report() -> None:
    import statistics
    import subprocess
    import tempfile
    import time

    with tempfile.TemporaryDirectory() as cwd:
        for name, text in REPORT_FILES.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for args in REPORT_COMMANDS:
            times = []
            for _ in range(5):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "cycloquant", *args], cwd=cwd, capture_output=True)
                times.append(time.perf_counter() - start)
            last = subprocess.run(
                [sys.executable, os.path.abspath(__file__), *args], cwd=cwd, capture_output=True, text=True
            ).stdout.splitlines()[-1]
            executed = " ".join(last.split()[:-2])
            print(f"{args[0]:15s} {1e3 * statistics.median(times):7.1f} ms  {executed}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--report"]:
        report()
    else:
        probe(sys.argv[1:])

"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` once untraced and once
traced and asserts that the last line of output is the result object,
that the run is correct, and that every metric BENCHMARK.json names for
that mode is printed with its unit. It checks that the input generator
is deterministic (the same seed gives the same digest of the inputs, and
another seed a different one), and that the benchmark refuses to run,
without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(cwd: str, run: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_metrics(bench: dict) -> None:
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, RUN, "--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True, (name, trace, proc.stdout[-2000:])
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            printed = result["metrics"]
            for metric in bench[key]:
                got = printed.get(metric["name"])
                assert got is not None, (name, trace, metric["name"])
                assert got["unit"] == metric["unit"], (name, metric, got)
                assert isinstance(got["value"], (int, float)), (name, metric, got)
            assert len(printed) == len(bench[key]), (name, trace, sorted(printed))
            print(f"ok: {name} trace={trace}, {len(printed)} metrics")


DIGEST = """
import sys
sys.path[:0] = [sys.argv[3], sys.argv[4]]
import workloads
wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[5])
try:
    print(workloads.digest(wl.make_pass(0)))
finally:
    wl.close()
"""


def check_determinism(bench: dict) -> None:
    """The first pass's digest depends on the seed alone, in separate processes."""
    for workload in bench["workloads"]:
        name = workload["name"]
        digests = [
            subprocess.run([sys.executable, "-c", DIGEST, name, str(seed),
                            os.path.join(ROOT, "src"), HERE, ROOT],
                           capture_output=True, text=True, check=True, timeout=300).stdout.strip()
            for seed in (11, 11, 12)
        ]
        assert digests[0] == digests[1] != digests[2], (name, digests)
        print(f"ok: {name} inputs are a function of the seed ({digests[0]})")


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, os.path.join("perfbench", "run.py"), "--workload", "covers",
                    "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok: without sources the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_refuses_without_sources()
    check_determinism(bench)
    check_metrics(bench)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

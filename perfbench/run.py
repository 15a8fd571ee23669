"""The cycloquant benchmark: one workload per run, end to end or traced.

Run from the root of a checkout that holds ``src/cycloquant``:

    python3 perfbench/run.py --workload covers --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one caller: an operation (one
verdict or one Z_N value, or one CLI process for ``cli_cold``) starts
only after the previous one has finished, and at most one child process
runs at a time. The timed loop runs whole passes of fresh seeded inputs
until it has measured ``--seconds`` of operations and at least
MIN_SAMPLES of them. After each pass, outside the timed region, its
results are checked by the workload's oracle and then dropped.

The host's speed is measured along with the program: a fixed kernel of
the benchmark's own (``yardstick``) is timed between every two
operations and every TICK_S seconds while one runs, and each
operation's time is scaled to the reference speed at which the kernel
takes YARDSTICK_REF_S. On a host shared with other tenants the speed
changes by a third within seconds; the scaled times do not follow it,
the wall-clock times do. A run prints both.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed
number of passes twice, untraced and then with the layer tracer
installed, checks that both give identical results and prints the
per-layer metrics; its call counts depend only on the seed. It then runs
each op once more untraced and traced, back to back, for the tracer's
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when the run completed, also when an oracle failed (``correct`` is
then false), and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 100  # the 90th percentile then has ten samples beyond it
YARDSTICK_REF_S = 5e-4  # the yardstick's time at the reference speed
TICK_S = 0.2  # the yardstick's period while an op runs
SETUP_PROBES = 9
INTERP_PROBES = 10

END_TO_END = {
    "results_per_s": "1/s",
    "result_p50_ms": "ms",
    "result_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_ratio": "ratio",
}

SPANS = (
    "rings.CycloElem.mul",
    "rings.reduce",
    "rings.ModCycloElem.mul",
    "rings.reduce_mod_p",
    "rings.ideal_membership_cyclo",
    "rings.LaurentPoly.mul",
    "rings.laurent_ideal_membership",
    "rings.invert",
    "gauss.g_r",
    "gauss.gauss_sum",
    "links.j_invariant",
    "links.signature_counts",
    "moo.moo_fast",
    "criteria.check_cor_1_2",
    "criteria.check_thm_1_1",
    "criteria.check_thm_4_1",
    "criteria.check_thm_5_1",
)
LAYERS = ("rings", "gauss", "links", "moo", "criteria", "cli")

PER_LAYER = {
    **{f"{s}.{part}": unit for s in SPANS for part, unit in (("calls", "count"), ("self_s", "s"))},
    "gauss.g_r.misses": "count",
    "links.j_invariant.refused": "count",
    "links.closure_components.calls": "count",
    "moo.moo_fast.residual.self_s": "s",
    "moo.moo_fast.unit.self_s": "s",
    "moo.residual_share": "ratio",
    "criteria.obstructed_share": "ratio",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "input.ops": "count",
    "input.overcap_share": "ratio",
    "input.order.p50": "order",
    "input.order.max": "order",
    "input.crossings.p50": "crossings",
    "input.crossings.max": "crossings",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small passes, one set-up probe and few samples (smoke test only)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _attempt(wl, op):
    try:
        return wl.run(op)
    except Exception as exc:  # no valid input may raise; counted as failed
        return ("error", f"{type(exc).__name__}: {exc}")


def _warm(wl, ops) -> list:
    return [(op, _attempt(wl, op)) for op in wl.warm_ops(ops)]


def _check(wl, pairs) -> tuple[list[str], int]:
    """Oracle errors and the number of ops that raised."""
    raised = [f"{op.kind} {op.tag} raised {res[1]}" for op, res in pairs if res[0] == "error"]
    return raised + wl.check([(op, res) for op, res in pairs if res[0] != "error"]), len(raised)


# ---------------------------------------------------------------------------
# the host's speed

_YARDSTICK_LIST = tuple(range(1, 41))
_YARDSTICK_INT = 7**900


def yardstick() -> float:
    """Seconds a fixed kernel takes now: small-integer list arithmetic and
    a big-integer product, the kinds of work the package's rings do.

    The package never runs this code, so a change to the package cannot
    move it; only the host's speed does. It takes about half a
    millisecond, short enough to run between every two operations.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        out = [0] * (2 * len(_YARDSTICK_LIST) - 1)
        for i, x in enumerate(_YARDSTICK_LIST):
            for j, y in enumerate(_YARDSTICK_LIST):
                out[i + j] += x * y % 101
        _YARDSTICK_INT * (_YARDSTICK_INT + 3)
    return time.perf_counter() - t0


def at_reference(seconds: float, before: float, after: float) -> float:
    """An interval scaled to the reference speed, by the yardstick timed
    just before and just after it."""
    return seconds * YARDSTICK_REF_S * 2 / (before + after)


class Stopwatch:
    """Times one op after another, in wall-clock seconds and at the
    reference speed.

    The yardstick runs before the first op, after each op and, from a
    timer signal, every TICK_S seconds while an op runs. An op's time is
    scaled by the median of the yardstick times from just before it to
    just after it, and the ticks' own time is taken out of it. The ticks
    follow the host through an op that outlasts its changes of speed;
    an op shorter than TICK_S is scaled by the two times around it.
    """

    def __init__(self):
        self.before = yardstick()
        self.ticks: list[float] = []
        self.spent: list[tuple[float, float]] = []  # (start, seconds) of each tick

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ticks.append(yardstick())
        self.spent.append((t0, time.perf_counter() - t0))

    def time(self, fn, *args):
        """Run fn(*args); return its result and its seconds, wall-clock and
        at the reference speed."""
        self.ticks, self.spent = [], []
        previous = signal.signal(signal.SIGALRM, self._tick)
        try:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # a tick that ran after t1 was read is no part of the op
        seconds = t1 - t0 - sum(d for start, d in self.spent if start < t1)
        after = yardstick()
        speed = statistics.median([self.before, *self.ticks, after])
        self.before = after
        return result, seconds, seconds * YARDSTICK_REF_S / speed


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_probe(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, args.tiny)
    try:
        _warm(wl, wl.make_pass(0))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        wl.close()
    return 0


def setup_probe_seconds(args) -> tuple[float, float]:
    """Time from starting a fresh process to its first timed op, in wall-clock
    seconds and at the reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    before = yardstick()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed, at_reference(elapsed, before, yardstick())


# ---------------------------------------------------------------------------
# end-to-end run


class Tally:
    """Input properties and oracle outcomes, added up pass by pass."""

    def __init__(self, wl, workloads):
        self.wl, self.workloads = wl, workloads
        self.passes = self.ops = self.failed = 0
        self.errors: list[str] = []
        self.tags: dict[str, int] = {}
        self.verdicts = self.obstructed = self.overcap = self.thm11 = self.unit_ideal = 0
        self.hist: dict[str, dict[int, int]] = {"order": {}, "crossings": {}}

    def add(self, pairs) -> None:
        """Check one pass against the oracle and record its properties."""
        errors, failed = _check(self.wl, pairs)
        self.errors += errors
        self.failed += failed
        self.passes += 1
        self.ops += len(pairs)
        for op, res in pairs:
            self.tags[op.tag] = self.tags.get(op.tag, 0) + 1
            if res[0] in ("verdict", "holds"):
                self.verdicts += 1
                self.obstructed += not res[1]
            for field, hist in self.hist.items():
                if getattr(op, field):
                    hist[getattr(op, field)] = hist.get(getattr(op, field), 0) + 1
            self.overcap += op.crossings > self.workloads.SKEIN_CAP
            if op.kind == "thm11":
                self.thm11 += 1
                self.unit_ideal += self.wl.unit_ideal(op)

    def report(self) -> None:
        for e in self.errors[:20]:
            print("ORACLE FAIL:", e)
        print(f"inputs: {self.ops} ops in {self.passes} passes; "
              f"tags {json.dumps(self.tags, sort_keys=True)}")
        if self.verdicts:
            print(f"obstructed share: {self.obstructed}/{self.verdicts} = "
                  f"{self.obstructed / self.verdicts:.3f}")
        if self.thm11:
            print(f"check_thm_1_1 unit-ideal share: {self.unit_ideal}/{self.thm11} = "
                  f"{self.unit_ideal / self.thm11:.3f}")
        for field, hist in self.hist.items():
            if hist:
                print(f"{field} histogram: {json.dumps(dict(sorted(hist.items())))}")
        if self.overcap:
            print(f"over-cap share: {self.overcap}/{self.ops} = {self.overcap / self.ops:.3f}")


def timed_loop(wl, tally: Tally, seconds: float, min_samples: int, between):
    """Run whole passes until enough time and samples are measured.

    After each pass, outside the timed region, the pass is checked against
    the oracle and its inputs and results are dropped, so that the memory
    the benchmark holds does not grow with the number of passes; then
    ``between(fraction)`` runs with the fraction of ``seconds`` measured so
    far. Returns every latency in wall-clock seconds and at the reference
    speed, and whether each op was answered.
    """
    ops = wl.make_pass(0)
    warm = _warm(wl, ops)
    lat, ref_lat, answered = [], [], []
    index = 0
    while True:
        results = []
        watch = Stopwatch()
        for op in ops:
            res, op_s, ref_s = watch.time(_attempt, wl, op)
            lat.append(op_s)
            ref_lat.append(ref_s)
            results.append(res)
        tally.add(list(zip(ops, results)))
        if index == 0:
            timed = {id(op): res for op, res in zip(ops, results)}
            tally.errors += [f"warm-up and timed results differ for {op.kind} {op.tag}"
                             for op, res in warm if timed.get(id(op), res) != res]
        answered.extend(res != tally.workloads.REFUSED for res in results)
        between(sum(lat) / seconds)
        if sum(lat) >= seconds and len(lat) >= min_samples:
            return lat, ref_lat, answered
        index += 1
        ops = wl.make_pass(index)  # outside the timed region


def end_to_end(args, wl, workloads) -> tuple[bool, int, int, dict]:
    probes = 1 if args.tiny else SETUP_PROBES
    setup = []

    def probe_when_due(fraction: float) -> None:
        # spread the probes over the run, so one slow spell of the machine
        # does not set their median
        while len(setup) < min(probes, 1 + int(fraction * (probes - 1))):
            setup.append(setup_probe_seconds(args))

    probe_when_due(0.0)
    min_samples = 10 if args.tiny else MIN_SAMPLES
    tally = Tally(wl, workloads)
    lat, ref_lat, answered = timed_loop(wl, tally, args.seconds, min_samples, probe_when_due)
    probe_when_due(1.0)
    tally.report()

    wall = {
        "results_per_s": sum(answered) / sum(lat),
        "result_p50_ms": statistics.median(lat) * 1e3,
        "result_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "setup_s": statistics.median(wall_s for wall_s, _ in setup),
    }
    speed = statistics.median(yardstick() for _ in range(9))
    print(f"timings: {len(lat)} samples, {len(lat) // 10} beyond the 90th percentile; "
          f"set-up: median of {len(setup)} probes")
    print(f"wall clock: {json.dumps(wall)}")
    print(f"host speed: yardstick {speed * 1e3:.4f} ms (median of 9), reference "
          f"{YARDSTICK_REF_S * 1e3} ms; the timings below are at the reference speed")
    if args.workload == "cli_cold":
        peak_kib = wl.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "results_per_s": sum(answered) / sum(ref_lat),
        "result_p50_ms": statistics.median(ref_lat) * 1e3,
        "result_p90_ms": statistics.quantiles(ref_lat, n=10)[8] * 1e3,
        "setup_s": statistics.median(ref_s for _, ref_s in setup),
        "peak_rss_mb": peak_kib / 1024,
        "completed_ratio": sum(answered) / len(answered),
    }
    return not tally.errors, len(lat), tally.failed, _metrics(values, END_TO_END)


# ---------------------------------------------------------------------------
# traced run


def clear_caches() -> None:
    """Empty every functools cache in the package, so warm-up work is traced."""
    for name, mod in list(sys.modules.items()):
        if name == "cycloquant" or name.startswith("cycloquant."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def _in_process_pass(wl, ops, tracer=None) -> tuple[list, float]:
    """Run the ops from empty caches, warm-up included; return results and wall time."""
    clear_caches()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        _warm(wl, ops)
        results = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            results.append(_attempt(wl, op))
        return results, time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def overhead_ratio(wl, ops, tracer_mod) -> float:
    """Traced over untraced time of the same ops, run back to back.

    Each op runs once untraced and once traced, in turns alternating from
    op to op, so that neither a drift of the machine's speed nor the
    order of the two runs biases the ratio. The caches are warm, and the
    tracer's own figures are discarded.
    """
    tracer = tracer_mod.Tracer()
    walls = [0.0, 0.0]
    for i, op in enumerate(ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                _attempt(wl, op)
                walls[traced] += time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
    return walls[1] / walls[0]


def traced_in_process(wl, ops, tracer_mod):
    untraced, _ = _in_process_pass(wl, ops)
    tracer = tracer_mod.Tracer()
    traced, wall_t = _in_process_pass(wl, ops, tracer)
    ratio = overhead_ratio(wl, ops, tracer_mod)
    spans = [span for span in tracer.spans if span is not None]
    return untraced, traced, ratio, wall_t, tracer.summary(), spans, {}


def traced_cli(wl, ops, tracer_mod, workloads):
    exe = sys.executable
    child = os.path.join(HERE, "cli_child.py")
    interp = [workloads.run_child([exe, "-c", "pass"], ROOT, wl.env)[2]
              for _ in range(INTERP_PROBES)]
    _warm(wl, ops)

    # each op runs in an untraced and a traced child, in turns alternating
    # from op to op, so that a drift of the machine's speed does not bias
    # the overhead; the untraced child runs the same script without the tracer
    untraced, traced, summaries, spans, imports, commands = [], [], [], [], [], []
    walls = [0.0, 0.0]
    for i, op in enumerate(ops):
        for tracing in (False, True) if i % 2 == 0 else (True, False):
            out = os.path.join(wl.workdir, f"trace-{i}.json") if tracing else "-"
            code, stdout, seconds, _ = workloads.run_child([exe, child, out, *op.args],
                                                           wl.workdir, wl.env)
            walls[tracing] += seconds
            res = workloads.REFUSED if code == 2 else ("exit", code, stdout.decode())
            if not tracing:
                untraced.append(res)
                continue
            traced.append(res)
            with open(out, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(out)
            summaries.append(data["summary"])
            imports.append(data["import_s"])
            commands.append(data["command_s"])
            spans.extend((*span[:3], i, *span[4:]) for span in data["spans"])
    extra = {
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.command_ms": statistics.median(commands) * 1e3,
    }
    return (untraced, traced, walls[1] / walls[0], walls[1], tracer_mod.merge(summaries),
            spans, extra)


def per_layer(args, wl, workloads) -> tuple[bool, int, int, dict]:
    import tracer as tracer_mod

    ops = [op for i in range(wl.trace_passes) for op in wl.make_pass(i)]
    if args.workload == "cli_cold":
        result = traced_cli(wl, ops, tracer_mod, workloads)
    else:
        result = traced_in_process(wl, ops, tracer_mod)
    untraced, traced, ratio, wall_t, summary, spans, extra = result
    tally = Tally(wl, workloads)
    tally.add(list(zip(ops, traced)))
    tally.passes = wl.trace_passes
    tally.errors += [f"traced and untraced results differ for {op.kind} {op.tag}"
                     for op, a, b in zip(ops, untraced, traced) if a != b]
    tally.report()
    print(f"inputs digest (pass 0): {workloads.digest(wl.make_pass(0))}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(span_path, "w", encoding="utf-8") as fh:
        for sid, parent, name, op, start, end in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                 "start": start, "end": end}) + "\n")
    print(f"spans: {os.path.relpath(span_path, ROOT)}")

    stats, counts = summary["stats"], summary["counts"]
    values: dict[str, float] = {}
    for name in SPANS:
        calls, self_s = stats.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["gauss.g_r.misses"] = counts.get("gauss.g_r.misses", 0)
    values["links.j_invariant.refused"] = counts.get("links.j_invariant.refused", 0)
    values["links.closure_components.calls"] = stats.get("links.closure_components", (0, 0))[0]
    tagged = summary["tagged"]
    for tag in ("residual", "unit"):
        values[f"moo.moo_fast.{tag}.self_s"] = tagged.get(f"moo.moo_fast.{tag}", (0, 0.0))[1]
    values["moo.residual_share"] = _ratio(tagged.get("moo.moo_fast.residual", (0, 0))[0],
                                          stats.get("moo.moo_fast", (0, 0))[0])
    values["criteria.obstructed_share"] = _ratio(counts.get("criteria.obstructed", 0),
                                                 counts.get("criteria.verdicts", 0))
    for name in ("cli.interp_ms", "cli.import_ms", "cli.command_ms"):
        values[name] = extra.get(name, 0.0)
    values["trace.overhead_ratio"] = ratio
    for layer in LAYERS:
        own = sum(t for name, (_, t) in stats.items() if name.split(".")[0] == layer)
        values[f"share.{layer}"] = own / wall_t
    orders = sorted(op.order for op in ops if op.order)
    crossings = sorted(op.crossings for op in ops if op.crossings)
    values["input.ops"] = len(ops)
    values["input.overcap_share"] = _ratio(
        sum(1 for op in ops if op.crossings > workloads.SKEIN_CAP), len(ops))
    values["input.order.p50"] = statistics.median(orders) if orders else 0
    values["input.order.max"] = orders[-1] if orders else 0
    values["input.crossings.p50"] = statistics.median(crossings) if crossings else 0
    values["input.crossings.max"] = crossings[-1] if crossings else 0
    return not tally.errors, len(ops), tally.failed, _metrics(values, PER_LAYER)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cycloquant", "__init__.py")):
        print(f"error: no cycloquant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cycloquant
    import workloads

    if not os.path.abspath(cycloquant.__file__).startswith(SRC + os.sep):
        print(f"error: cycloquant was imported from {cycloquant.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, args.tiny)
    try:
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(args, wl, workloads)
    finally:
        wl.close()
    print(f"python {sys.version.split()[0]}, workload {args.workload}, seed {args.seed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

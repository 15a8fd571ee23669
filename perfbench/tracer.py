"""Layer tracing from outside the package.

The tracer replaces public functions of the ``cycloquant`` modules with
timing wrappers and puts the originals back on ``uninstall``. A function
imported by name into several modules (``criteria``, ``moo`` and ``cli``
do this) is rebound in every ``cycloquant.*`` namespace that holds the
same object, and the ``__mul__``/``__rmul__`` aliases of the ring classes
are patched together, so every call path is seen.

Every span adds its duration to its parent's child time; a layer's self
time is its span time minus that child time. Ring-kernel spans are only
aggregated into call counts and self time, so memory stays bounded; the
other spans are also kept as records in memory, for the caller to write
out at the end.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, metric prefix, keep per-call span records)
FUNCTIONS = (
    ("rings", "reduce", "rings.reduce", False),
    ("rings", "reduce_mod_p", "rings.reduce_mod_p", False),
    ("rings", "ideal_membership_cyclo", "rings.ideal_membership_cyclo", False),
    ("rings", "laurent_ideal_membership", "rings.laurent_ideal_membership", False),
    ("rings", "invert", "rings.invert", True),
    ("gauss", "g_r", "gauss.g_r", True),
    ("gauss", "gauss_sum", "gauss.gauss_sum", False),
    ("links", "j_invariant", "links.j_invariant", True),
    ("links", "closure_components", "links.closure_components", False),
    ("links", "signature_counts", "links.signature_counts", True),
    ("moo", "moo_fast", "moo.moo_fast", True),
    ("criteria", "check_cor_1_2", "criteria.check_cor_1_2", True),
    ("criteria", "check_thm_1_1", "criteria.check_thm_1_1", True),
    ("criteria", "check_thm_4_1", "criteria.check_thm_4_1", True),
    ("criteria", "check_thm_5_1", "criteria.check_thm_5_1", True),
)

# (class in rings, metric prefix); __mul__ and __rmul__ share one wrapper
METHODS = (
    ("CycloElem", "rings.CycloElem.mul"),
    ("ModCycloElem", "rings.ModCycloElem.mul"),
    ("LaurentPoly", "rings.LaurentPoly.mul"),
)

CRITERIA = {name for _, _, name, _ in FUNCTIONS if name.startswith("criteria.")}


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cycloquant" or name.startswith("cycloquant."))
    ]


def residual_tag(args: tuple) -> str:
    """'residual' when every matrix entry vanishes mod some prime dividing N."""
    matrix, n = args[0], args[1]
    rows = matrix.rows() if hasattr(matrix, "rows") else [list(r) for r in matrix]
    entries = [x for row in rows for x in row]
    q = 3  # N is odd
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            if all(x % q == 0 for x in entries):
                return "residual"
            while n % q == 0:
                n //= q
        q += 2
    return "unit"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.tagged: dict[str, list] = {}  # "name.tag" -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, op, start, end)
        self.op: int | None = None  # index of the operation being run
        self._child: list[float] = []
        self._ids: list[int] = []
        self._undo: list[tuple] = []
        self._g_r = None

    # -- recording ---------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, keep: bool, tag=None):
        """Wrap fn in a span named name; keep its record when keep is true.

        tag, if given, maps the call's arguments to a label, and the self
        time is also added up per label.
        """
        stats = self.stats.setdefault(name, [0, 0.0])
        child, ids, spans, clock = self._child, self._ids, self.spans, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sub = None
            if tag is not None:
                sub = tracer.tagged.setdefault(f"{name}.{tag(args)}", [0, 0.0])
            if keep:
                span_id = len(spans)
                spans.append(None)
                parent = ids[-1] if ids else -1
                ids.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if type(exc).__name__ == "RecursionBudgetExceeded":
                    tracer._bump(name + ".refused")
                raise
            else:
                if name in CRITERIA:
                    ok = result if isinstance(result, bool) else result.satisfied
                    tracer._bump("criteria.verdicts")
                    if not ok:
                        tracer._bump("criteria.obstructed")
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                own = dt - child.pop()
                if child:
                    child[-1] += dt
                stats[0] += 1
                stats[1] += own
                if sub is not None:
                    sub[0] += 1
                    sub[1] += own
                if keep:
                    ids.pop()
                    spans[span_id] = (span_id, parent, name, tracer.op, t0, t1)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import cycloquant.rings as rings

        modules = _package_modules()
        for mod_name, attr, name, keep in FUNCTIONS:
            orig = getattr(sys.modules["cycloquant." + mod_name], attr)
            tag = residual_tag if name == "moo.moo_fast" else None
            new = self.wrap(orig, name, keep, tag)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, new)
            if name == "gauss.g_r":
                self._g_r = (orig, orig.cache_info().misses)
        for cls_name, name in METHODS:
            cls = getattr(rings, cls_name)
            orig = cls.__dict__["__mul__"]
            new = self.wrap(orig, name, False)
            for key in ("__mul__", "__rmul__"):
                if cls.__dict__.get(key) is orig:
                    self._undo.append((cls, key, orig))
                    setattr(cls, key, new)

    def uninstall(self) -> None:
        if self._g_r is not None:
            orig, before = self._g_r
            self._bump("gauss.g_r.misses", orig.cache_info().misses - before)
            self._g_r = None
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates as plain data, mergeable across processes."""
        return {"stats": self.stats, "tagged": self.tagged, "counts": self.counts}


def merge(summaries) -> dict:
    out: dict = {"stats": {}, "tagged": {}, "counts": {}}
    for s in summaries:
        for part in ("stats", "tagged"):
            for k, (c, t) in s[part].items():
                acc = out[part].setdefault(k, [0, 0.0])
                acc[0] += c
                acc[1] += t
        for k, v in s["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
    return out

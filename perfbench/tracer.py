"""Outside-in tracing of halfflat's layers, installed from the benchmark.

:meth:`Tracer.install` rebinds each listed public function in every
``halfflat`` module namespace that holds it (so ``from .exterior import
wedge`` call sites are caught too) and wraps the listed class methods.  The
library's files are not touched.  Each call records a span (name, start,
end, parent span, operation id) in flat in-memory arrays and adds to the
per-name call count and inclusive time; :meth:`Tracer.write` saves the spans
and a per-name summary with self times when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

#: module -> public functions wrapped in every namespace that imported them
FUNCTIONS = {
    "exterior": ("wedge", "wedge_all", "contract", "kappa", "evaluate"),
    "stable": ("k_matrix", "lambda_of", "structure_type", "induced_metric_raw"),
    "linalg": ("rref", "rank", "nullspace", "solve", "invert", "det", "inertia"),
    "liealg": ("direct_sum", "change_basis", "catalog"),
    "verify": ("verify",),
    "corpus": ("verify_instance",),
    "obstruct": (
        "coherent_splittings", "is_coherent", "check_obstruction",
        "refined_h3_r2R", "refined_r2R_R3", "lambda_nonneg_scan",
    ),
    "classify3d": ("classify",),
    "search": ("find_halfflat", "rationalize", "float_reverify"),
    "cli": ("main", "parse"),
}
#: (module, class, method) -> span name; a wrapped __init__ counts constructions
METHODS = {
    ("liealg", "LieAlgebra", "d"): "liealg.d",
    ("liealg", "LieAlgebra", "closed_forms"): "liealg.closed_forms",
    ("stable", "StablePair", "__init__"): "stable.StablePair",
    ("search", "FloatKernels", "__init__"): "search.FloatKernels",
    ("search", "_Penalty", "value_grad"): "search.value_grad",
}
#: (inner, outer): calls of inner made while outer is active
NESTED = (("verify.verify", "search.rationalize"),)
#: spans kept in memory; calls beyond it are still counted and timed
SPAN_CAP = 2_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.active: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.nested = {pair: 0 for pair in NESTED}
        self.watch: dict[int, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("halfflat.") and mod is not None
        }
        for short, funcs in FUNCTIONS.items():
            mod = modules.get(short)
            if mod is None:
                continue
            for fname in funcs:
                orig = getattr(mod, fname)
                traced = self._wrap(f"{short}.{fname}", orig)
                for holder in modules.values():
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            self._restore.append((holder, attr, orig))
                            setattr(holder, attr, traced)
        for (short, cls_name, meth), label in METHODS.items():
            mod = modules.get(short)
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(label, orig))
        for inner, outer in NESTED:
            if inner in self.names and outer in self.names:
                pair = (inner, outer)
                self.watch.setdefault(self.names.index(inner), []).append((self.names.index(outer), pair))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def _id(self, label: str) -> int:
        self.names.append(label)
        self.calls.append(0)
        self.incl.append(0.0)
        self.active.append(0)
        return len(self.names) - 1

    def _wrap(self, label, fn):
        nid = self._id(label)
        clock = time.perf_counter
        stack, calls, incl, active, watch = self.stack, self.calls, self.incl, self.active, self.watch
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            keep = sid < SPAN_CAP
            if keep:
                start.append(0.0)
                end.append(0.0)
                name.append(nid)
                parent.append(stack[-1] if stack else -1)
                op.append(tracer.op_id)
            for outer, pair in watch.get(nid, ()):
                if active[outer]:
                    tracer.nested[pair] += 1
            stack.append(sid if keep else -1)
            active[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                calls[nid] += 1
                incl[nid] += t1 - t0
                if keep:
                    start[sid] = t0
                    end[sid] = t1

        return traced

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, inclusive seconds)."""
        return {label: (c, t) for label, c, t in zip(self.names, self.calls, self.incl)}

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, summed per name."""
        child = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, float] = {}
        for sid in range(len(self.start)):
            label = self.names[self.name[sid]]
            out[label] = out.get(label, 0.0) + (self.end[sid] - self.start[sid]) - child[sid]
        return out

    def write(self, stem: str, op_names: list[str], rounds: int):
        """Save spans as raw columns (native byte order) plus a JSON summary."""
        with open(stem + ".spans", "wb") as fh:
            for col in (self.start, self.end, self.name, self.parent, self.op):
                col.tofile(fh)
        totals = self.totals()
        selfs = self.self_times()
        summary = {
            "rounds": rounds,
            "spans": len(self.start),
            "span_cap": SPAN_CAP,
            "columns": [["start", "d"], ["end", "d"], ["name", "i"], ["parent", "i"], ["op", "i"]],
            "names": self.names,
            "ops": op_names,
            "per_name": {
                label: {"calls": c, "inclusive_s": t, "self_s": selfs.get(label, 0.0)}
                for label, (c, t) in sorted(totals.items())
            },
            "nested": {f"{a} in {b}": n for (a, b), n in self.nested.items()},
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)

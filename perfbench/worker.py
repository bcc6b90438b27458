"""One workload in a fresh process: set up, run whole rounds, check, report.

``run.py`` starts this file; it is not meant to be run by hand.  The worker
prints ``PERFBENCH-READY`` once the set-up (imports and input building) is
done and ``PERFBENCH-RESULT <json>`` at the end.  Rounds repeat until the
operations have taken ``--seconds`` of time in total; at least one round
always runs.  Each output is checked outside the timed region: in full in
the first round, and by digest against the first round afterwards.

Timings are taken per operation as the median over the rounds, then
summarised over the operations: ``ops_per_s`` is a round's completed
operations over the sum of those medians, ``op_p50_ms`` is their median
and ``op_p90_ms`` their nearest-rank 90th percentile.  All timings are
calibrated seconds (calibrate.py): a fixed loop is timed after each
operation, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

import workloads  # noqa: E402  (the benchmark directory is sys.path[0])
from calibrate import Calibrator  # noqa: E402

#: span names whose per-round call count and inclusive time are reported
TRACED_LAYERS = (
    "stable.k_matrix", "stable.StablePair", "stable.structure_type",
    "linalg.inertia", "linalg.rref", "linalg.nullspace",
    "exterior.kappa", "exterior.wedge", "exterior.evaluate",
    "liealg.d", "liealg.closed_forms",
    "obstruct.coherent_splittings", "obstruct.check_obstruction", "obstruct.lambda_nonneg_scan",
    "classify3d.classify",
    "search.FloatKernels", "search.value_grad", "search.rationalize",
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: an operation time that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rounds(wl, seconds: float, tracer=None) -> dict:
    calib = Calibrator(wl.calibration)
    times: list[list[float]] = [[] for _ in wl.ops]
    first_digest: dict[int, object] = {}
    first_why: dict[int, str | None] = {}
    wrong: list[str] = []
    counters = {name: 0.0 for name in wl.counters}
    attempted = failed = completed = rounds = 0
    elapsed = scaled = 0.0
    while rounds == 0 or elapsed < seconds:
        results, spans = [], []
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_id = i
            t0 = time.perf_counter()
            try:
                out, why = op.run(), None
            except Exception as exc:  # a raising operation is a failed one
                out, why = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            spans.append((t0, t1))
            calib.measure(t1 - t0)
            attempted += 1
            if why is None:
                completed += 1
                why = _check(op, i, out, rounds, first_digest, first_why)
            if why is not None:
                failed += 1
                if op.known_fault is None:
                    wrong.append(f"{op.name}: {why}")
            results.append((op, out))
        for i, (t0, t1) in enumerate(spans):
            times[i].append((t1 - t0) * calib.factor(t0, t1))
            elapsed += t1 - t0
            scaled += times[i][-1]
        for name, fn in wl.counters.items():
            counters[name] += fn(results)
        rounds += 1
    per_op = [statistics.median(t) for t in times]
    return {
        "correct": not wrong,
        "wrong": wrong[:20],
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "ops_per_s": completed / rounds / sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p90_ms": 1e3 * percentile(per_op, 0.9),
        "counters": {name: total / rounds for name, total in counters.items()},
        "scale": scaled / elapsed,
        "loop_ms": 1e3 * calib.median_loop_s(),
        "raw_ops_per_s": completed / elapsed,
    }


def _check(op, i, out, rounds, first_digest, first_why):
    try:
        digest = op.digest(out)
        if rounds and digest == first_digest.get(i):
            return first_why[i]
        why = op.check(out)
    except Exception as exc:  # a checker that cannot read the output rejects it
        digest, why = None, f"check raised {type(exc).__name__}: {exc}"
    if not rounds:
        first_digest[i], first_why[i] = digest, why
    return why


def layer_metrics(wl, tracer, res) -> dict:
    rounds, scale = res["rounds"], res["scale"]
    totals = tracer.totals()
    out = {"machine.loop_ms": res["loop_ms"]}
    for label in TRACED_LAYERS:
        calls, incl = totals.get(label, (0, 0.0))
        out[f"{label}.calls"] = calls / rounds
        out[f"{label}.s"] = scale * incl / rounds
    for (inner, outer), n in tracer.nested.items():
        out[f"{outer}.{inner.rsplit('.', 1)[-1]}_calls"] = n / rounds
    out.update(res["counters"])
    if wl.child_reports:
        for key, name, unit in (("import_s", "cli.import.s", scale), ("main_s", "cli.main.s", scale),
                                ("modules_loaded", "cli.modules_loaded", 1)):
            out[name] = unit * statistics.median(r[key] for r in wl.child_reports)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        print("PERFBENCH-READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            if wl.set_traced is not None:
                wl.set_traced(True)
        res = run_rounds(wl, args.seconds, tracer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        res["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            res["per_layer"] = layer_metrics(wl, tracer, res)
            tracer.write(
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"),
                [op.name for op in wl.ops],
                res["rounds"],
            )
        del res["counters"]
        print("PERFBENCH-RESULT " + json.dumps(res), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""halfflat benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus|obstruct|search|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; halfflat is imported from ``src/``.  Each
workload runs in a fresh worker process (``worker.py``) with BLAS threads
pinned to one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
the set-up time (process start to inputs built) over ``SETUP_PROBES``
set-up-only workers plus the measuring worker.  Timings are calibrated
seconds (see calibrate.py); the raw figures go to standard error.

``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics of the traced worker together with the tracing
overhead (untraced over traced ``ops_per_s``).  Spans and a per-name summary
are written to ``perfbench/out/trace-<workload>-seed<seed>.{spans,json}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "obstruct", "search", "cli")
SETUP_PROBES = 6
#: seconds a worker may take before it is killed; a run ends within 180 s
PROBE_TIMEOUT = 12
RUN_TIMEOUT = 70
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args: list[str], timeout: float) -> tuple[float | None, dict | None]:
    """Run one worker; return (seconds until it was set up, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("PERFBENCH-READY"):
                ready = time.perf_counter() - t0
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line[len("PERFBENCH-RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        return None, None
    return ready, result


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "halfflat" / "__init__.py").is_file():
        return fail(f"no halfflat sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    if args.trace:
        _, plain = spawn(common, RUN_TIMEOUT)
        _, traced = spawn(common + ["--trace"], RUN_TIMEOUT)
        if plain is None or traced is None:
            return fail("a worker failed")
        values = dict(traced["per_layer"])
        values["trace.ops_per_s"] = traced["ops_per_s"]
        values["trace.overhead"] = plain["ops_per_s"] / traced["ops_per_s"]
        metrics = spec["per_layer"]
        runs = [plain, traced]
    else:
        calib = Calibrator("python")
        setup, scaled = [], []
        for probe in range(SETUP_PROBES + 1):
            t0 = time.perf_counter()
            if probe < SETUP_PROBES:
                ready, _ = spawn(common + ["--setup-only"], PROBE_TIMEOUT)
                calib.measure(ready or 0.0)
            else:
                ready, res = spawn(common, RUN_TIMEOUT)
                if res is None:
                    return fail("the measuring worker failed")
            if ready is None:
                return fail("a set-up probe failed")
            setup.append(ready)
            scaled.append(ready * calib.factor(t0, t0 + ready))
        values = {key: res[key] for key in ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(scaled)
        print(
            f"perfbench: raw setup_s {statistics.median(setup):.4f}, raw ops_per_s {res['raw_ops_per_s']:.4f}, "
            f"calibration loop {res['loop_ms']:.3f} ms (scale {res['scale']:.3f})",
            file=sys.stderr,
        )
        metrics = spec["end_to_end"]
        runs = [res]

    for run in runs:
        for line in run["wrong"]:
            print(f"perfbench: wrong output: {line}", file=sys.stderr)
    out = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

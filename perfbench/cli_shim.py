"""``python -m halfflat.cli`` with timings, for traced runs of the cli workload.

Runs the command exactly as the module entry point does, then writes one
line ``PERFBENCH-CLI <json>`` to standard error: the seconds spent in
``import halfflat.cli``, the number of modules that import loaded, and the
seconds spent in ``main``.
"""

import json
import sys
import time

t0 = time.perf_counter()
before = len(sys.modules)
import halfflat.cli  # noqa: E402

t1 = time.perf_counter()
loaded = len(sys.modules) - before
code = halfflat.cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
print(
    "PERFBENCH-CLI " + json.dumps({"import_s": t1 - t0, "modules_loaded": loaded, "main_s": t2 - t1}),
    file=sys.stderr,
)
sys.exit(code)

"""Shows that each checker rejects a planted wrong answer and accepts the true one.

    PYTHONPATH=src python3 perfbench/selftest.py

Plants a flipped obstruct verdict, one perturbed rho coefficient (exact and
float), a wrong exit code, a wrong class, a negative lambda scan and a
missing snap.  Also checks that every per-layer metric named in
BENCHMARK.json is one the worker produces.  Exits 1 on the first miss.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
from fractions import Fraction

import checkers
import worker
import workloads
from halfflat import classify3d, cli, corpus, obstruct, search
from halfflat.exterior import KForm
from halfflat.liealg import catalog, direct_sum


def expect(label: str, why, rejected: bool):
    ok = (why is not None) == rejected
    print(f"{'ok  ' if ok else 'MISS'} {label}: {why or 'accepted'}")
    if not ok:
        sys.exit(1)


def perturb(form: KForm, mask: int, delta) -> KForm:
    return KForm(form.degree, {**form.terms, mask: form.coeff(mask) + delta})


def main():
    # obstruct verdicts against the paper's admission list
    out = io.StringIO()
    path = os.path.join(worker.OUT, "selftest-r2R+r3.alg")
    os.makedirs(worker.OUT, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cli.emit(direct_sum(catalog("r2R"), catalog("r3"))))
    with contextlib.redirect_stdout(out):
        code = cli.main(["obstruct", path])
    os.remove(path)
    expect("obstruct r2R+r3 as printed", checkers.check_obstruct("r2R", "r3", code, out.getvalue()), False)
    expect("obstruct r2R+r3 flipped", checkers.check_obstruct("r2R", "r3", 0, "verdict: Inconclusive\n"), True)
    expect("obstruct e2+r2R flipped", checkers.check_obstruct("e2", "r2R", 1, "verdict: NoHalfFlatSU3\n"), True)

    # exact verdicts: one rho coefficient moved, report kept
    inst = corpus.row_t4_e2()
    rep = corpus.verify_instance(inst)
    expect("corpus row as printed", checkers.check_instance(inst, rep), False)
    mask = min(inst.rho.terms)
    bad = dataclasses.replace(inst, rho=perturb(inst.rho, mask, Fraction(1)))
    expect("corpus row, one rho coefficient +1", checkers.check_instance(bad, rep), True)
    expect("verify report, one rho coefficient +1",
           checkers.check_report(inst.algebra, inst.omega, bad.rho, rep.report), True)

    # float search: one rho coefficient moved by 1e-3
    L = direct_sum(catalog("e2"), catalog("R3"))
    res = search.find_halfflat(L, "su3", restarts=3, seed=workloads.PANEL_SEED)
    expect("search e2+R3 as found", checkers.check_search(L, "su3", True, 0, res), False)
    moved = dataclasses.replace(res, rho=res.rho.copy())
    moved.rho[0] += 1e-3
    expect("search e2+R3, one rho coefficient +1e-3", checkers.check_search(L, "su3", True, 0, moved), True)
    expect("excluded target reported found", checkers.check_search(L, "su3", False, 3, res), True)
    expect("snap of the printed row", checkers.check_snap(inst.algebra, "su3", (inst.omega, inst.rho)), False)
    expect("snap with one rho coefficient +1", checkers.check_snap(inst.algebra, "su3", (inst.omega, bad.rho)), True)
    expect("no snap", checkers.check_snap(L, "su3", None), True)

    # exit codes, classes, scans
    expect("cli exit code as documented", checkers.check_cli(0, "found: true\n", 0, ["found: true"]), False)
    expect("cli wrong exit code", checkers.check_cli(1, "found: true\n", 0, ["found: true"]), True)
    c = classify3d.classify(catalog("r3mu", Fraction(1, 2)))
    expect("classify r3mu(1/2)", checkers.check_classify("r3mu", Fraction(1, 2), c), False)
    expect("classify r3mu(1/2) as r3pmu", checkers.check_classify("r3pmu", Fraction(1, 2), c), True)
    scan = obstruct.lambda_nonneg_scan(direct_sum(catalog("su2"), catalog("su2")), 20, seed=1)
    expect("control scan", checkers.check_scan(False, 20, scan), False)
    expect("control scan as an eligible algebra", checkers.check_scan(True, 20, scan), True)

    # every per-layer metric of BENCHMARK.json is produced by the worker
    with open(os.path.join(os.path.dirname(worker.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    produced = {f"{label}.{kind}" for label in worker.TRACED_LAYERS for kind in ("calls", "s")} | {
        "obstruct.scan_samples", "search.restarts", "search.snaps_verified", "search.rationalize.verify_calls",
        "cli.import.s", "cli.main.s", "cli.modules_loaded", "trace.ops_per_s", "trace.overhead",
        "machine.loop_ms",
    }
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    expect("per-layer metrics of BENCHMARK.json", f"not produced: {missing}" if missing else None, False)
    print("all checkers reject the planted answers")


if __name__ == "__main__":
    main()

"""The four workloads: inputs made from a seed, the operations, and their checks.

``build(name, seed, workdir)`` runs the workload's set-up (imports and input
building) and returns a :class:`Workload`.  One round is the fixed list of
operations; a run repeats whole rounds, so each round attempts the same
operations and the operations that fail through a known fault are the same
share of every run.

Operations call the library through module attributes
(``corpus.verify_instance``, ``classify3d.classify``), so the traced run,
which rebinds those attributes, sees the top-level call too.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import checkers

NAMES = ("corpus", "obstruct", "search", "cli")

#: seed of the positive search panel.  Its restart counts (17/1/2/22/1) are
#: the reference figures, and a search that stops at its first success has a
#: cost set by that count, so the panel keeps one seed for every run.
PANEL_SEED = 20240817
#: samples per lambda scan; the scan draws them all unless lambda < 0
SCAN_SAMPLES = 100
#: restarts per negative search, all of which run
NEGATIVE_RESTARTS = 6


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``check`` gets the output and returns ``None`` when it is right.
    ``digest`` reduces an output to a comparable value, so later rounds are
    compared with the fully checked first round.  ``known_fault`` names the
    program fault that makes this operation fail today.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], object] = repr
    known_fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: per-round counters derived from outputs: name -> function of [(op, output)]
    counters: dict[str, Callable[[list], float]] = field(default_factory=dict)
    #: calibration loop that slows like this workload's code (see calibrate.py)
    calibration: str = "python"
    #: turns on tracing in child processes (cli only)
    set_traced: Callable[[bool], None] | None = None
    #: timings the traced children report (cli only)
    child_reports: list[dict] = field(default_factory=list)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    return globals()[f"_build_{name}"](random.Random(seed), workdir)


# -- shared inputs --------------------------------------------------------------

UNIMODULAR = ("su2", "sl2", "e2", "e11", "h3", "R3")


def _class_samples(rng):
    """One member of each of the twelve classes; mu drawn from the library's samples."""
    from halfflat.liealg import catalog_classes

    out = []
    for spec in catalog_classes():
        mu = rng.choice(spec.mu_samples) if spec.mu_samples else None
        out.append((spec.key, spec.family, mu))
    return out


def _algebra(family, mu):
    from halfflat.liealg import catalog

    return catalog(family, mu) if mu is not None else catalog(family)


def _report_digest(rep):
    return (
        rep.half_flat, rep.d_rho_zero, rep.d_omega2_zero, rep.compatible,
        rep.structure, repr(rep.lam), repr(rep.norm_c4), rep.norm_sign,
    )


# -- corpus ---------------------------------------------------------------------

#: (xi1, xi2) of the type I ansatz; the pair is half-flat exactly when
#: xi1 c(g1) = xi2 c(g2) slotwise, so most draws give a negative verdict
XI_CHOICES = ((1, 1), (1, 0), (0, 1), (2, 3), (1, F(-1, 2)), (3, -1), (F(1, 2), 2))
#: a with 1 - a^2 a rational square, for type IIa
A_CHOICES = (F(3, 5), F(4, 5), F(5, 13), F(12, 13), F(8, 17), F(-3, 5), F(-7, 25))
XI2_CHOICES = (1, F(-1, 2), 2, F(3, 2), -3)
PQ_CHOICES = ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 3), (F(1, 2), 1))
TYPE_I_XI_PER_PAIR = 2
TYPE_IIA_OPS = 12


def _build_corpus(rng, workdir):
    from halfflat import corpus
    from halfflat import verify as hf_verify
    from halfflat.liealg import catalog, direct_sum

    ops = []
    for inst in corpus.iter_instances() + corpus.iter_instances(table=0):
        ops.append(Op(
            f"verify_instance {inst.label}",
            lambda inst=inst: corpus.verify_instance(inst),
            lambda rep, inst=inst: checkers.check_instance(inst, rep),
            lambda rep: (rep.ok, rep.normalization_ok, rep.metric_ok, _report_digest(rep.report)),
        ))
    for n1, n2 in itertools.combinations_with_replacement(UNIMODULAR, 2):
        L1, L2 = catalog(n1), catalog(n2)
        L = direct_sum(L1, L2)
        for xi in rng.sample(XI_CHOICES, TYPE_I_XI_PER_PAIR):
            omega, rho = hf_verify.ortho_type_I(L1, L2, *xi)
            ops.append(Op(
                f"verify typeI {n1}+{n2} xi={xi}",
                lambda L=L, omega=omega, rho=rho: hf_verify.verify(L, omega, rho),
                lambda rep, L=L, omega=omega, rho=rho: checkers.check_report(L, omega, rho, rep),
                _report_digest,
            ))
    for _ in range(TYPE_IIA_OPS):
        a, xi2, (p, q) = rng.choice(A_CHOICES), rng.choice(XI2_CHOICES), rng.choice(PQ_CHOICES)
        L, omega, rho = hf_verify.ortho_type_II("IIa", a=a, xi2=xi2, p=p, q=q)
        ops.append(Op(
            f"verify typeIIa a={a} xi2={xi2} p={p} q={q}",
            lambda L=L, omega=omega, rho=rho: hf_verify.verify(L, omega, rho),
            lambda rep, L=L, omega=omega, rho=rho: checkers.check_report(L, omega, rho, rep, "SU(3)"),
            _report_digest,
        ))
    rng.shuffle(ops)
    return Workload("corpus", ops)


# -- obstruct -------------------------------------------------------------------

#: factor order in which today's ``halfflat obstruct`` misses a refined argument
OBSTRUCT_ORDER_FAULT = {
    ("R3", "r2R"): "refined r2R+R3 check raises on the order R3+r2R and the CLI swallows it",
    ("r2R", "h3"): "refined h3+r2R check raises on the order r2R+h3 and the CLI swallows it",
}
SCAN_G1 = ("R3", "h3", "r2R")
CLASSIFY_CHANGES = 3


def _build_obstruct(rng, workdir):
    from halfflat import classify3d, cli, linalg, obstruct
    from halfflat.liealg import MU_SAMPLES, catalog, change_basis, direct_sum

    classes = _class_samples(rng)
    ops = []
    for (k1, f1, m1), (k2, f2, m2) in itertools.combinations_with_replacement(classes, 2):
        orders = [((k1, f1, m1), (k2, f2, m2))]
        if k1 != k2:
            orders.append(((k2, f2, m2), (k1, f1, m1)))
        for (ka, fa, ma), (kb, fb, mb) in orders:
            path = os.path.join(workdir, f"{ka}+{kb}.alg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cli.emit(direct_sum(_algebra(fa, ma), _algebra(fb, mb))))
            ops.append(Op(
                f"obstruct {ka}+{kb}",
                lambda path=path: _run_main(cli, ["obstruct", path]),
                lambda out, ka=ka, kb=kb: checkers.check_obstruct(ka, kb, *out),
                known_fault=OBSTRUCT_ORDER_FAULT.get((ka, kb)),
            ))
    for key, family, mu in classes:
        L = _algebra(family, mu)
        for _ in range(CLASSIFY_CHANGES):
            M = change_basis(L, _random_gl3(rng, linalg))
            ops.append(Op(
                f"classify {key} mu={mu}",
                lambda M=M: classify3d.classify(M),
                lambda c, family=family, mu=mu: checkers.check_classify(family, mu, c),
            ))
    g2s = [("r3", None)] + [("r3mu", m) for m in MU_SAMPLES if -1 < m <= 1 and m != 0] + [
        ("r3pmu", m) for m in MU_SAMPLES if m > 0
    ]
    scans = [(direct_sum(catalog(g1), _algebra(f, m)), f"{g1}+{f}({m})", True) for g1 in SCAN_G1 for f, m in g2s]
    scans.append((direct_sum(catalog("su2"), catalog("su2")), "control su2+su2", False))
    for L, label, eligible in scans:
        scan_seed = rng.randrange(2**31)
        ops.append(Op(
            f"scan {label}",
            lambda L=L, s=scan_seed: obstruct.lambda_nonneg_scan(L, SCAN_SAMPLES, seed=s),
            lambda rep, e=eligible: checkers.check_scan(e, SCAN_SAMPLES, rep),
            lambda rep: (rep.all_nonnegative, rep.first_negative),
        ))
    rng.shuffle(ops)

    def scan_samples(results):
        return sum(
            out.n_samples for op, out in results
            if op.name.startswith("scan ") and not op.name.startswith("scan control") and out.all_nonnegative
        )

    return Workload("obstruct", ops, {"obstruct.scan_samples": scan_samples})


def _random_gl3(rng, linalg):
    """Lower times upper unitriangular with entries in [-2, 2], denominators <= 2."""
    def entry():
        den = rng.randint(1, 2)
        return F(rng.randint(-2 * den, 2 * den), den)

    lower = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    upper = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(i):
            lower[i][j] = entry()
            upper[j][i] = entry()
    return linalg.mat_mul(lower, upper)


def _run_main(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# -- search ---------------------------------------------------------------------

POSITIVE_PANEL = (
    ("su2", "su2", "su3"),
    ("e2", "R3", "su3"),
    ("sl2", "r2R", "su3"),
    ("r2R", "r3", "sl3r"),
    ("r2R", "r2R", "su12"),
)
#: targets the paper rules out: the refined isotropy argument (h3+r2R) and
#: lambda >= 0 on every closed three-form (r2R+r3, r2R+R3)
NEGATIVE_PANEL = (
    ("r2R", "r3", "su3"),
    ("h3", "r2R", "su3"),
    ("r2R", "R3", "su3"),
    ("r2R", "r3", "su12"),
)
RATIONALIZE_FAULT = "rationalize rounds each coefficient alone, breaking d omega^2 = 0 and omega ^ rho = 0"


def _build_search(rng, workdir):
    from halfflat import search
    from halfflat.liealg import catalog, direct_sum

    ops = []
    for n1, n2, target in POSITIVE_PANEL:
        L = direct_sum(catalog(n1), catalog(n2))
        found = {}

        def run_search(L=L, target=target, found=found):
            found["result"] = search.find_halfflat(L, target, restarts=10_000, seed=PANEL_SEED)
            return found["result"]

        def run_snap(L=L, found=found):
            return search.rationalize(L, found["result"], max_den=64)

        ops.append(Op(
            f"search {n1}+{n2}->{target}",
            run_search,
            lambda res, L=L, t=target: checkers.check_search(L, t, True, 0, res),
            lambda res: (res.found, res.restarts_used, res.omega.tobytes() if res.found else None),
        ))
        ops.append(Op(
            f"rationalize {n1}+{n2}->{target}",
            run_snap,
            lambda snap, L=L, t=target: checkers.check_snap(L, t, snap),
            known_fault=RATIONALIZE_FAULT,
        ))
    for n1, n2, target in NEGATIVE_PANEL:
        L = direct_sum(catalog(n1), catalog(n2))
        s = rng.randrange(2**31)
        ops.append(Op(
            f"search {n1}+{n2}->{target} (excluded)",
            lambda L=L, t=target, s=s: search.find_halfflat(L, t, restarts=NEGATIVE_RESTARTS, seed=s),
            lambda res, L=L, t=target: checkers.check_search(L, t, False, NEGATIVE_RESTARTS, res),
            lambda res: (res.found, res.restarts_used),
        ))

    def restarts(results):
        return sum(out.restarts_used for op, out in results if op.name.startswith("search "))

    def snaps_verified(results):
        return sum(1 for op, out in results if op.name.startswith("rationalize ") and out is not None)

    return Workload(
        "search", ops, {"search.restarts": restarts, "search.snaps_verified": snaps_verified}, calibration="numpy"
    )


# -- cli ------------------------------------------------------------------------

_NAMES = ("e1", "e2", "e3", "f1", "f2", "f3")
CLI_SEARCH_ARGS = ("--target", "su3", "--restarts", "3", "--seed", str(PANEL_SEED))
#: rank-obstructed pairs for the one ``obstruct`` invocation (exit 1)
CLI_OBSTRUCT_G1 = ("h3", "r2R", "e2")


def _emit(L, omega=None, rho=None) -> str:
    """The structure-file format, written from the forms' coefficients.

    ``cli.emit`` does the same, but importing ``halfflat.cli`` pulls in scipy
    and would put 0.6 s into this workload's set-up that no user pays.
    """
    lines = [f"dim {L.dim}", "basis " + " ".join(_NAMES[: L.dim])]

    def terms(form):
        bits = []
        for mask, c in sorted(form.terms.items()):
            mono = "^".join(_NAMES[i] for i in range(6) if mask >> i & 1)
            bits.append(f"{'-' if c < 0 else '+'} {abs(c)} {mono}")
        return " ".join(bits).lstrip("+ ")

    for k, dk in enumerate(L.diffs):
        if dk.terms:
            lines.append(f"d {_NAMES[k]} = {terms(dk)}")
    if omega is not None:
        lines.append(f"form omega = {terms(omega)}")
        lines.append(f"form rho = {terms(rho)}")
    return "\n".join(lines) + "\n"


class _CliRunner:
    """Runs ``halfflat`` as a fresh interpreter per invocation, as a user does.

    Traced runs go through the benchmark's shim, which times the import of
    ``halfflat.cli`` and ``main`` inside the child.
    """

    def __init__(self, root: str):
        self.root = root
        self.traced = False
        self.reports: list[dict] = []

    def set_traced(self, traced: bool):
        self.traced = traced

    def __call__(self, args):
        if self.traced:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_shim.py"), *args]
        else:
            cmd = [sys.executable, "-m", "halfflat.cli", *args]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
        if self.traced:
            tail = proc.stderr.rstrip().rsplit("\n", 1)[-1]
            if tail.startswith("PERFBENCH-CLI "):
                self.reports.append(json.loads(tail[len("PERFBENCH-CLI "):]))
        return proc.returncode, proc.stdout


def _build_cli(rng, workdir):
    from halfflat import corpus
    from halfflat.exterior import KForm
    from halfflat.liealg import catalog, change_basis, direct_sum
    from halfflat import linalg

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = _CliRunner(root)

    def path(name, text):
        p = os.path.join(workdir, name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    rows = [
        i for i in corpus.iter_instances()
        if all(isinstance(c, F) for f in (i.omega, i.rho, *i.algebra.diffs) for c in f.terms.values())
    ]
    inst = rng.choice(rows)
    good = path("good.alg", _emit(inst.algebra, inst.omega, inst.rho))
    # one added monomial with omega ^ e^m != 0 breaks compatibility
    _, w = checkers.dense(inst.omega)
    masks = [m for m in range(64) if bin(m).count("1") == 3]
    rng.shuffle(masks)
    for m in masks:
        mono = (3, {tuple(i for i in range(6) if m >> i & 1): 1})
        if not checkers.is_zero(checkers.wedge((2, w), mono)):
            break
    bad_rho = KForm(3, {**inst.rho.terms, m: inst.rho.coeff(m) + 1})
    bad = path("bad.alg", _emit(inst.algebra, inst.omega, bad_rho))

    key, family, mu = rng.choice(_class_samples(rng))
    three = path("three.alg", _emit(change_basis(_algebra(family, mu), _random_gl3(rng, linalg))))
    g1 = rng.choice(CLI_OBSTRUCT_G1)
    k2, f2, m2 = rng.choice([c for c in _class_samples(rng) if c[0] in ("r3", "r31", "r3mu-", "r3mu+", "r3pmu")])
    obs = path("obstruct.alg", _emit(direct_sum(catalog(g1), _algebra(f2, m2))))
    srch = path("search.alg", _emit(direct_sum(catalog("e2"), catalog("R3"))))

    classify_lines = [f"bianchi: {checkers.BIANCHI[family]}"] + ([f"mu: {mu}"] if mu is not None else [])
    commands = [
        ("catalog", ["catalog"], 0, ["su2: su(2) (Bianchi IX, unimodular)"]),
        (f"verify {inst.label}", ["verify", good], 0, ["half_flat: true"]),
        (f"verify {inst.label} perturbed", ["verify", bad], 1, ["half_flat: false"]),
        (f"classify3d {key}", ["classify3d", three], 0, classify_lines),
        (f"obstruct {g1}+{k2}", ["obstruct", obs], 1, ["verdict: NoHalfFlatSU3"]),
        ("appendix --table 4", ["appendix", "--table", "4"], 0, ["T4.1[e2+r2R]: ok", "instances: 2  failures: 0"]),
        ("search e2+R3", ["search", srch, *CLI_SEARCH_ARGS], 0, ["found: true", "restarts_used: 1"]),
    ]
    ops = [
        Op(
            f"halfflat {label}",
            lambda argv=argv: run(argv),
            lambda out, code=code, want=want: checkers.check_cli(out[0], out[1], code, want),
        )
        for label, argv, code, want in commands
    ]
    # set-up ends with one warm-up invocation, which also proves the command runs
    warm = run(["catalog"])
    if warm[0] != 0:
        raise RuntimeError("halfflat catalog failed during set-up")
    return Workload("cli", ops, set_traced=run.set_traced, child_reports=run.reports)

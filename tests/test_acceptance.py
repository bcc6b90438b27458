"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced (pytest captures stdout otherwise).  Every check is exact
unless a float tolerance is stated explicitly.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from fractions import Fraction

from halfflat import corpus, linalg, obstruct, stable
from halfflat.classify3d import classify
from halfflat.exterior import KForm, basis_masks, covector, form, pullback, volume_ratio, wedge
from halfflat.liealg import LieAlgebra, catalog, change_basis, direct_sum
from halfflat.scalars import scalar_abs, sqrt_scalar
from halfflat.stable import StablePair, k_matrix, lambda_of
from halfflat.verify import ortho_type_I, ortho_type_II, plane_checks, type_I_closure_criterion, verify

from .conftest import random_fraction, random_form, random_unimodular_triangular
from .oracles import dense_phi_omega, omega_matrix, oriented_metric_raw

F = Fraction

UNIMODULAR = {"su2", "sl2", "e2", "e11", "h3", "R3"}
SIMPLE = {"su2", "sl2"}
#: the twelve classes; parameterized Bianchi types count as three classes
CLASSES: list[tuple[str, str, tuple[Fraction, ...]]] = [
    ("su2", "su2", ()),
    ("sl2", "sl2", ()),
    ("e2", "e2", ()),
    ("e11", "e11", ()),
    ("h3", "h3", ()),
    ("R3", "R3", ()),
    ("r2R", "r2R", ()),
    ("r3", "r3", ()),
    ("r31", "r31", ()),
    ("r3mu-", "r3mu", (F(-3, 4), F(-1, 2), F(-1, 4))),
    ("r3mu+", "r3mu", (F(1, 4), F(1, 2), F(3, 4))),
    ("r3pmu", "r3pmu", (F(1, 4), F(1, 2), F(3, 4), F(1), F(2))),
]


def announce(num: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def _instances(key: str, family: str, mus) -> list[tuple[LieAlgebra, Fraction | None]]:
    if not mus:
        return [(catalog(family), None)]
    return [(catalog(family, m), m) for m in mus]


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_appendix_corpus():
    t0 = time.time()
    instances = corpus.iter_instances()
    ok = len(instances) == 52
    for inst in instances:
        rep = corpus.verify_instance(inst)
        pair = StablePair(inst.omega, inst.rho)
        good = (
            rep.ok
            and rep.report.structure.kind == "SU(3)"
            and pair.lam < 0
            and rep.normalization_ok
            and rep.metric_ok
        )
        if not good:
            announce(1, False, f"{inst.label}: {rep.residual}")
        ok = ok and good
    elapsed = time.time() - t0
    announce(1, ok and elapsed < 10.0, f"{len(instances)} instances, {elapsed:.2f}s, exact")


# -- criterion 2 ---------------------------------------------------------------


def _theorem_admits(key1: str, key2: str) -> bool:
    unim = {k for k in (key1, key2) if k in {"su2", "sl2", "e2", "e11", "h3", "R3"}}
    if len(unim) == 2 or (key1 in unim and key1 == key2):
        return True
    if key1 in SIMPLE or key2 in SIMPLE:
        return True
    return {key1, key2} in ({"e2", "r2R"}, {"e11", "r2R"})


def _obstructed(fam1, mu1, fam2, mu2) -> bool:
    verdict, _ = obstruct.decide(direct_sum(catalog(fam1, mu1), catalog(fam2, mu2)))
    return verdict == obstruct.VERDICT_OBSTRUCTED


def _witnessed(fam1, mu1, fam2, mu2, index) -> bool:
    # mu = 1 in the r3mu family is the standard bracket of r3,1
    q1 = ("r3mu", F(1)) if fam1 == "r31" else (fam1, mu1)
    q2 = ("r3mu", F(1)) if fam2 == "r31" else (fam2, mu2)
    want = {q1, q2} if q1 != q2 else {q1}
    insts = index.get(frozenset(want), [])
    return any(corpus.verify_instance(i).ok for i in insts)


def test_criterion_2_classification_partition():
    t0 = time.time()
    index: dict[frozenset, list] = {}
    for inst in corpus.iter_instances():
        index.setdefault(frozenset(set(inst.factors)), []).append(inst)
    ok = True
    checked = 0
    for (k1, f1, mus1), (k2, f2, mus2) in itertools.combinations_with_replacement(
        CLASSES, 2
    ):
        admits = _theorem_admits(k1, k2)
        for L1m in mus1 or (None,):
            for L2m in mus2 or (None,):
                checked += 1
                obstructed = _obstructed(f1, L1m, f2, L2m)
                witnessed = admits and _witnessed(f1, L1m, f2, L2m, index)
                if obstructed and witnessed:
                    announce(2, False, f"overlap at {k1}({L1m}) + {k2}({L2m})")
                if admits and not witnessed:
                    announce(2, False, f"missing witness {k1}({L1m}) + {k2}({L2m})")
                if not admits and not obstructed:
                    announce(2, False, f"gap at {k1}({L1m}) + {k2}({L2m})")
                ok = ok and (witnessed == admits) and (obstructed == (not admits))
    pairs = len(list(itertools.combinations_with_replacement(CLASSES, 2)))
    announce(
        2,
        ok and pairs == 78,
        f"{pairs} class pairs, {checked} sampled instances, {time.time()-t0:.1f}s",
    )


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_obstruction_ranks():
    v_std = (covector(1), covector(4))
    solvable_g1 = []
    for key, fam, mus in CLASSES:
        if key in SIMPLE:
            continue
        solvable_g1.extend(_instances(key, fam, mus))
    g2_list = (
        _instances("r3", "r3", ())
        + _instances("r3mu", "r3mu", (F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1)))
        + _instances("r3pmu", "r3pmu", (F(1, 4), F(1, 2), F(3, 4), F(1), F(2)))
    )
    ok = True
    count = 0
    for g1, _ in solvable_g1:
        for g2, _ in g2_list:
            rep = obstruct.check_obstruction(direct_sum(g1, g2), v_std)
            ok = ok and rep.rank_d_lambda3_w == 4 and rep.rank_d_lambda4_w == 1
            count += 1
    rep = obstruct.check_obstruction(
        direct_sum(catalog("r2R"), catalog("r2R")), v_std
    )
    ok = ok and rep.rank_d_lambda3_w == 4 and rep.rank_d_lambda4_w == 1
    count += 1
    announce(3, ok, f"{count} splittings, ranks (4, 1) exact")


# -- criterion 4 ---------------------------------------------------------------


#: criterion 4's sums g1 + g2, 3 x 13 = 39 of them
SCAN_G1S = ("R3", "h3", "r2R")
SCAN_G2S = (
    [("r3", None)]
    + [("r3mu", m) for m in (F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1))]
    + [("r3pmu", m) for m in (F(1, 4), F(1, 2), F(3, 4), F(1), F(2))]
)


def test_criterion_4_lambda_scan():
    t0 = time.time()
    ok = True
    scans = 0
    for g1 in SCAN_G1S:
        for fam, mu in SCAN_G2S:
            L = direct_sum(catalog(g1), catalog(fam, mu))
            rep = obstruct.lambda_nonneg_scan(L, 1000, seed=20240817)
            ok = ok and rep.all_nonnegative
            scans += 1
    control = obstruct.lambda_nonneg_scan(
        direct_sum(catalog("su2"), catalog("su2")), 1000, seed=20240817
    )
    ok = ok and not control.all_nonnegative
    announce(
        4,
        ok,
        f"{scans} scans x 1000 exact samples nonnegative; control negative at "
        f"sample {control.first_negative}; {time.time()-t0:.1f}s",
    )


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_indefinite_examples():
    inst = corpus.example_su12()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    ok = (
        rep.half_flat
        and rep.structure.kind in ("SU(1,2)", "SU(2,1)")
        and rep.structure.signature in ((2, 4, 0), (4, 2, 0))
        and plane_checks(rep.pair, (covector(1), covector(4))) == (True, True)
    )
    inst2 = corpus.example_sl3r()
    rep2 = verify(inst2.algebra, inst2.omega, inst2.rho)
    ok = ok and rep2.half_flat and rep2.structure.kind == "SL(3,R)"
    ok = ok and corpus.verify_instance(inst).ok and corpus.verify_instance(inst2).ok
    announce(
        5,
        ok,
        f"SU(1,2) signature {rep.structure.signature} with exact isotropic "
        f"J-invariant plane; SL(3,R) signature {rep2.structure.signature}",
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_orthogonal_ansatz():
    ok = True
    xis = [(1, 1), (1, 0), (0, 1), (2, 3), (1, F(-1, 2))]
    for n1, n2 in itertools.combinations_with_replacement(sorted(UNIMODULAR), 2):
        L1, L2 = catalog(n1), catalog(n2)
        L = direct_sum(L1, L2)
        for xi1, xi2 in xis:
            omega, rho = ortho_type_I(L1, L2, xi1, xi2)
            rep = verify(L, omega, rho)
            ok = ok and rep.half_flat == type_I_closure_criterion(L1, L2, xi1, xi2)
    count_iia = 0
    for p, q in ((1, 0), (0, 1), (1, 1), (2, -1)):
        for xi2 in (1, F(-1, 2), 2):
            L, omega, rho = ortho_type_II("IIa", a=F(3, 5), xi2=xi2, p=p, q=q)
            rep = verify(L, omega, rho)
            g1, g2 = L.summands
            ok = (
                ok
                and rep.half_flat
                and rep.structure.kind == "SU(3)"
                and classify(g1).name == "e11"
                and classify(g2).name == "e11"
            )
            count_iia += 1
    announce(
        6,
        ok,
        f"type I over all 21 unimodular pairs x {len(xis)} xi; "
        f"{count_iia} type-IIa instances at a = 3/5 all e(1,1)+e(1,1)",
    )


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_property_suites():
    results = []

    # (a) d^2 = 0, 200 random forms over random catalog sums
    rng = random.Random(701)
    pool = [spec for spec in CLASSES]
    ok_a = True
    for _ in range(200):
        k1, f1, mus1 = pool[rng.randrange(len(pool))]
        k2, f2, mus2 = pool[rng.randrange(len(pool))]
        L = direct_sum(
            catalog(f1, rng.choice(mus1) if mus1 else None),
            catalog(f2, rng.choice(mus2) if mus2 else None),
        )
        a = random_form(rng, rng.randint(1, 4), span=5, density=0.4)
        ok_a = ok_a and L.d(L.d(a)).is_zero()
    results.append(("d^2=0", ok_a))

    # (b) K^2 = lambda id on 200 random three-forms
    rng = random.Random(702)
    ok_b = True
    for _ in range(200):
        rho = random_form(rng, 3, span=4, density=0.4)
        K = k_matrix(rho)
        lam = lambda_of(rho)
        expect = [[lam if i == j else F(0) for j in range(6)] for i in range(6)]
        ok_b = ok_b and linalg.mat_eq(linalg.mat_mul(K, K), expect)
    results.append(("K^2=lambda*id", ok_b))

    # (c) lambda(c rho) = c^4 lambda(rho), 200 cases
    rng = random.Random(703)
    ok_c = True
    for _ in range(200):
        rho = random_form(rng, 3, span=4, density=0.4)
        c = random_fraction(rng, 6)
        if c == 0:
            c = F(1)
        ok_c = ok_c and lambda_of(rho.scale(c)) == c**4 * lambda_of(rho)
    results.append(("lambda scaling", ok_c))

    # (d) one-form metric identity on 200 one-form pairs over exact structures
    rng = random.Random(704)
    pairs = [
        StablePair(stable.MODEL_OMEGA, stable.MODEL_RHO),
        StablePair(
            form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)]),
            form(3, [("e123", 1), ("f123", 1)]),
        ),
        StablePair(corpus.row_t4_e2().omega, corpus.row_t4_e2().rho),
        StablePair(corpus.example_su12().omega, corpus.example_su12().rho),
    ]
    ok_d = True
    for pair in pairs:
        root = sqrt_scalar(scalar_abs(pair.lam))
        o = pair.norm_sign
        ginv = linalg.invert(oriented_metric_raw(pair))
        omega2 = wedge(pair.omega, pair.omega)
        omega3 = wedge(omega2, pair.omega)
        vol3 = volume_ratio(omega3)
        for _ in range(50):
            alpha = random_form(rng, 1, span=4)
            beta = random_form(rng, 1, span=4)
            vals = stable.j_matrix_values(pair.K, beta)
            jbeta = KForm(1, {1 << v: vals[v] for v in range(6)})
            lhs = volume_ratio(wedge(wedge(alpha, jbeta), omega2)) / (o * root)
            avec = alpha.coefficients([1 << i for i in range(6)])
            bvec = beta.coefficients([1 << i for i in range(6)])
            gab = (
                sum(avec[i] * ginv[i][j] * bvec[j] for i in range(6) for j in range(6))
                * root
            )
            ok_d = ok_d and lhs == gab * vol3 / 3
    results.append(("one-form metric identity", ok_d))

    # (e) G_raw symmetric <=> omega ^ rho = 0, both directions, 200 cases
    rng = random.Random(705)
    ok_e = True
    done_generic = done_compat = 0
    masks2, masks5 = basis_masks(2), basis_masks(5)
    while done_generic < 100 or done_compat < 100:
        rho = random_form(rng, 3, span=3, density=0.5)
        if lambda_of(rho) == 0:
            continue
        if done_generic < 100:
            omega = random_form(rng, 2, span=3, density=0.6)
            if dense_phi_omega(omega) != 0:
                G = linalg.mat_mul(omega_matrix(omega), k_matrix(rho))
                ok_e = ok_e and linalg.is_symmetric(G) == wedge(omega, rho).is_zero()
                done_generic += 1
        if done_compat < 100:
            cols = [
                wedge(KForm(2, {m: F(1)}), rho).coefficients(masks5) for m in masks2
            ]
            for vec in linalg.nullspace(linalg.transpose(cols)):
                omega = KForm(2, dict(zip(masks2, vec)))
                if dense_phi_omega(omega) == 0:
                    continue
                G = linalg.mat_mul(omega_matrix(omega), k_matrix(rho))
                ok_e = ok_e and linalg.is_symmetric(G)
                done_compat += 1
                if done_compat >= 100:
                    break
    results.append(("symmetry iff compatible", ok_e))

    # (f) omega^2 closed iff both summands unimodular, over all 78 class pairs
    rng = random.Random(706)
    ok_f = True
    cases_f = 0
    reps = [catalog(f, mus[0] if mus else None) for _, f, mus in CLASSES]
    for L1, L2 in itertools.combinations_with_replacement(reps, 2):
        L = direct_sum(L1, L2)
        expected = L1.is_unimodular() and L2.is_unimodular()
        drawn = 0
        while drawn < 3:
            terms = {}
            for i in range(3):
                for j in range(3, 6):
                    terms[(1 << i) | (1 << j)] = random_fraction(rng, 4)
            omega = KForm(2, terms)
            if wedge(wedge(omega, omega), omega).is_zero():
                continue
            ok_f = ok_f and L.d(wedge(omega, omega)).is_zero() == expected
            drawn += 1
            cases_f += 1
    results.append((f"omega^2 criterion ({cases_f} cases)", ok_f))

    # (g) classify round-trip and basis-change invariance, 240 changes
    rng = random.Random(707)
    ok_g = True
    for key, fam, mus in CLASSES:
        L = catalog(fam, mus[0] if mus else None)
        base = classify(L)
        for _ in range(20):
            M = change_basis(L, random_unimodular_triangular(rng, 3))
            c = classify(M)
            ok_g = ok_g and c.name == base.name
            if base.det_d is not None:
                ok_g = ok_g and c.det_d == base.det_d
            if base.eigen_signs is not None:
                ok_g = ok_g and sorted(c.eigen_signs) == sorted(base.eigen_signs)
    results.append(("classify3d invariance", ok_g))

    ok = all(r[1] for r in results)
    detail = "; ".join(f"{name} {'ok' if good else 'FAIL'}" for name, good in results)
    announce(7, ok, detail)


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_search():
    from halfflat import search  # the only numpy user here: the exact criteria run without it

    t0 = time.time()
    targets = [
        (("su2", "su2"), "su3"),
        (("e2", "R3"), "su3"),
        (("sl2", "r2R"), "su3"),
        (("r2R", "r3"), "sl3r"),
    ]
    ok = True
    details = []
    restarts = []
    for (n1, n2), tgt in targets:
        L = direct_sum(catalog(n1), catalog(n2))
        res = search.find_halfflat(L, tgt, restarts=10_000, seed=20240817, tol=1e-8)
        good = res.found
        if good:
            good = (
                res.residuals["resid_drho"] < 1e-8
                and res.residuals["resid_domega2"] < 1e-8
                and res.residuals["resid_omega_rho"] < 1e-8
            )
            if tgt == "su3":
                good = good and res.residuals["min_eig_normalized"] > 1e-4
            else:
                good = good and res.residuals["signature"] == "(3,3)"
            # each success rationalizes or re-verifies in float
            snapped = search.rationalize(L, res, max_den=64)
            if snapped is None:
                re = search.float_reverify(L, res)
                good = good and max(
                    re["resid_drho"], re["resid_domega2"], re["resid_omega_rho"]
                ) < 1e-8
        ok = ok and good
        details.append(f"{n1}+{n2}->{tgt}: restarts {res.restarts_used}")
        restarts.append(res.restarts_used)
    announce(8, ok and time.time() - t0 < 600, "; ".join(details) + f"; {time.time()-t0:.0f}s")
    # the float path is deterministic for the fixed seed
    assert restarts == [17, 1, 2, 22]


# -- every verdict in random bases -----------------------------------------------


def test_verdicts_hold_in_random_gl6_bases():
    """The corpus verdicts and criterion 4's scans, each moved into seeded random GL(6,Q) bases.

    The algebra moves by ``change_basis`` and the forms by ``exterior.pullback``
    with the same matrix, so (omega, rho) stays the same structure: half_flat,
    kind and signature must not change, and neither may a scan's verdict.  Each
    row also moves by diag(-1, 1, 1, 1, 1, 1) times such a matrix, which reverses
    the orientation: phi(omega) is read against e^123456, so norm_sign flips.
    """
    t0 = time.time()
    rng = random.Random(3131)
    flip_rng = random.Random(3132)  # a stream of its own, so the other moves keep their bases
    moved = 0
    for inst in corpus.iter_instances() + corpus.iter_instances(table=0):
        want = verify(inst.algebra, inst.omega, inst.rho)
        bases = [random_unimodular_triangular(rng, 6) for _ in range(2)]
        flipped = random_unimodular_triangular(flip_rng, 6)
        bases.append([[-x for x in flipped[0]]] + flipped[1:])
        for n, A in enumerate(bases):
            got = verify(change_basis(inst.algebra, A), pullback(inst.omega, A), pullback(inst.rho, A))
            assert got.half_flat == want.half_flat, inst.label
            assert got.structure.kind == want.structure.kind, inst.label
            assert got.structure.signature == want.structure.signature, inst.label
            assert got.norm_sign == (-1 if n == 2 else 1) * want.norm_sign, inst.label
            moved += 1
    assert moved == 3 * 54
    # 250 samples a sum, not criterion 4's 1000: in a random basis the quartic of 6 lambda on Z^3 has
    # about 680 terms (about 5 in the catalog basis), and 39 x 1000 samples of it take about 9 s; the
    # control stops at its first negative sample
    for g1, (fam, mu) in itertools.product(SCAN_G1S, SCAN_G2S):
        L = change_basis(direct_sum(catalog(g1), catalog(fam, mu)), random_unimodular_triangular(rng, 6))
        assert obstruct.lambda_nonneg_scan(L, 250, seed=20240817).all_nonnegative, (g1, fam, mu)
    control = change_basis(direct_sum(catalog("su2"), catalog("su2")), random_unimodular_triangular(rng, 6))
    first = obstruct.lambda_nonneg_scan(control, 1000, seed=20240817).first_negative
    assert first is not None
    print(f"BASIS GATE: {moved} corpus verdicts (54 orientation-reversing) and 39 scans x 250 samples kept in "
          f"random GL(6,Q) bases; control negative at sample {first}; {time.time() - t0:.1f}s", file=sys.stderr)

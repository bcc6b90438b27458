from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

from halfflat import corpus, search
from halfflat.exterior import basis_masks
from halfflat.liealg import catalog, catalog_classes, direct_sum
from halfflat.stable import EPSILON, EPSILON_PARA, k_matrix, lambda_of
from halfflat import linalg
from halfflat.verify import verify

from .conftest import basis, random_form
from .oracles import antiderivation_d, omega_matrix


def test_gradient_matches_finite_differences():
    for names, target in ((("su2", "su2"), "su3"), (("r2R", "r3"), "sl3r"), (("r2R", "r2R"), "su12")):
        L = direct_sum(catalog(names[0]), catalog(names[1]))
        kern = search.FloatKernels(L)
        pen = search._Penalty(kern, target)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.standard_normal(15 + kern.z3.shape[1])
            _, g = pen.value_grad(x)
            h = 1e-6
            for idx in rng.choice(len(x), size=5, replace=False):
                xp = x.copy()
                xp[idx] += h
                xm = x.copy()
                xm[idx] -= h
                fd = (pen.value_grad(xp)[0] - pen.value_grad(xm)[0]) / (2 * h)
                denom = max(1.0, abs(fd), abs(g[idx]))
                assert abs(fd - g[idx]) / denom < 1e-5


def _reference_k_tensor(b3):
    """The float K tensor built by contract, wedge and kappa on basis forms."""
    from halfflat.exterior import DIM, KForm, contract, kappa, wedge

    out = np.zeros((DIM, DIM, len(b3), len(b3)))
    for v in range(DIM):
        ev = basis(v + 1)
        for i, mi in enumerate(b3):
            ci = contract(ev, KForm(3, {mi: Fraction(1)}))
            for j, mj in enumerate(b3):
                prod = wedge(ci, KForm(3, {mj: Fraction(1)}))
                if prod.is_zero():
                    continue
                x = kappa(prod)
                for u in range(DIM):
                    c = float(x[u])
                    if c:
                        out[u, v, i, j] += c
    return out


def test_float_k_tensor_matches_reference_loop():
    ref = _reference_k_tensor(basis_masks(3))
    for names in (("su2", "su2"), ("r2R", "r3")):
        kern = search.FloatKernels(direct_sum(catalog(names[0]), catalog(names[1])))
        assert np.array_equal(kern.kt, ref)
    assert np.count_nonzero(ref) == 240


def _reference_omega_matrix(kern, w):
    m = np.zeros((6, 6))
    for idx, mask in enumerate(kern.b2):
        i = mask.bit_length() - 1
        j = (mask & ~(1 << i)).bit_length() - 1
        m[j, i] = w[idx]
        m[i, j] = -w[idx]
    return m


def _reference_k_of(kern, r):
    return np.einsum("uvij,i,j->uv", kern.kt, r, r)


def _reference_residuals(kern, w, r):
    """Residuals by dense einsum contractions over kt, w22 and w23."""
    q = np.einsum("ijm,i,j->m", kern.w22, w, w)
    k = _reference_k_of(kern, r)
    return {
        "resid_drho": float(np.linalg.norm(kern.d3 @ r)),
        "resid_domega2": float(np.linalg.norm(kern.d4 @ q)),
        "resid_omega_rho": float(np.linalg.norm(np.einsum("ijm,i,j->m", kern.w23, w, r))),
        "lambda_float": float(np.trace(k @ k)) / 6.0,
    }


def _reference_value_grad(pen, x):
    """Penalty, gradient and lambda by dense einsum contractions (the reference)."""
    kern = pen.k
    w, z = pen.split(x)
    rho_raw = kern.z3 @ z
    n = np.linalg.norm(rho_raw)
    if n < 1e-9:
        return 1e6 - float(z @ z), np.concatenate([np.zeros(15), -2 * z])
    r = rho_raw / n
    dr_dz = (np.eye(20) - np.outer(r, r)) @ kern.z3 / n

    grad_w = np.zeros(15)
    grad_z = np.zeros(pen.nz)

    gauge = float(w @ w) - 1.0
    p0 = gauge * gauge
    grad_w += 4.0 * gauge * w

    q = np.einsum("ijm,i,j->m", kern.w22, w, w)
    r1 = kern.d4 @ q
    p1 = float(r1 @ r1)
    dq = 2.0 * (kern.d4.T @ r1)
    grad_w += 2.0 * np.einsum("m,ijm,j->i", dq, kern.w22, w)

    r2 = np.einsum("ijm,i,j->m", kern.w23, w, r)
    p2 = float(r2 @ r2)
    grad_w += 2.0 * np.einsum("m,ijm,j->i", r2, kern.w23, r)
    grad_r = 2.0 * np.einsum("m,ijm,i->j", r2, kern.w23, w)

    kmat = np.einsum("uvij,i,j->uv", kern.kt, r, r)
    lam = float(np.trace(kmat @ kmat)) / 6.0
    dlam_dr = (
        np.einsum("vu,uvij,j->i", kmat, kern.kt, r)
        + np.einsum("vu,uvji,j->i", kmat, kern.kt, r)
    ) / 3.0
    if pen.target in ("su3", "su12"):
        h = max(lam + search.LAM_GAP, 0.0)
        p3 = h * h
        if h > 0:
            grad_r += 2.0 * h * dlam_dr
    else:
        h = max(search.LAM_GAP - lam, 0.0)
        p3 = h * h
        if h > 0:
            grad_r -= 2.0 * h * dlam_dr

    eps = EPSILON_PARA if lam > 0 else EPSILON
    om = _reference_omega_matrix(kern, w)
    g = eps * (om @ kmat)
    s = 0.5 * (g + g.T)
    evals, evecs = np.linalg.eigh(s)
    scale = max(float(np.linalg.norm(s)), 1e-12)
    m0 = search.MARGIN_OPT * scale
    p4 = 0.0
    ds = np.zeros((6, 6))
    wants = pen._wanted_signs(evals)
    hsum = 0.0
    for idx in range(6):
        sgn = wants[idx]
        h = max(m0 - sgn * evals[idx], 0.0)
        if h > 0.0:
            p4 += h * h
            hsum += 2.0 * h
            ds -= 2.0 * h * sgn * np.outer(evecs[:, idx], evecs[:, idx])
    if hsum > 0.0:
        ds += hsum * search.MARGIN_OPT * s / scale
    if p4 > 0.0:
        dg = eps * (ds @ kmat.T)
        for idx, mask in enumerate(kern.b2):
            i = mask.bit_length() - 1
            j = (mask & ~(1 << i)).bit_length() - 1
            grad_w[idx] += 0.5 * (dg[j, i] - dg[i, j]) * 2.0
        dk = eps * (om.T @ ds)
        grad_r += np.einsum("uv,uvij,j->i", dk, kern.kt, r) + np.einsum(
            "uv,uvji,j->i", dk, kern.kt, r
        )

    grad_z += dr_dz.T @ grad_r
    return p0 + p1 + p2 + p3 + p4, np.concatenate([grad_w, grad_z]), lam


BITWISE_CASES = (
    (("su2", "su2"), "su3"),
    (("e2", "R3"), "su3"),
    (("sl2", "r2R"), "su3"),
    (("h3", "r2R"), "su3"),
    (("r2R", "r3"), "sl3r"),
    (("r2R", "r2R"), "su12"),
    (("su2", "r3"), "su12"),
)


def test_sparse_contractions_equal_einsum_bitwise():
    """The sparse term sums give the dense einsum values bit for bit.

    Scaling x by 0.01 to 3 moves omega across the unit-norm gauge and the
    random rho directions fall on both sides of the lambda hinge.
    """
    for (n1, n2), target in BITWISE_CASES:
        kern = search.FloatKernels(direct_sum(catalog(n1), catalog(n2)))
        pen = search._Penalty(kern, target)
        rng = np.random.default_rng(20240817)
        hinge_on = hinge_off = 0
        for _ in range(300):
            x = rng.standard_normal(15 + kern.z3.shape[1]) * 10 ** rng.uniform(-2.0, np.log10(3.0))
            value, grad = pen.value_grad(x)
            ref_value, ref_grad, lam = _reference_value_grad(pen, x)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
            active = lam + search.LAM_GAP > 0 if target != "sl3r" else search.LAM_GAP - lam > 0
            hinge_on += active
            hinge_off += not active
            w, z = pen.split(x)
            r = kern.z3 @ z
            r /= np.linalg.norm(r)
            k, _, _, om, _ = kern.pair(w, r)
            assert np.array_equal(k, _reference_k_of(kern, r))
            assert kern.residuals(w, r) == _reference_residuals(kern, w, r)
            assert np.array_equal(om, _reference_omega_matrix(kern, w))
        assert hinge_on and hinge_off, (n1, n2, target)


def _reference_negatives(target, values):
    """How many eigenvalues of the metric the penalty pushes negative, written out.

    su3: none, or all six when the trace is negative or NaN.  Otherwise, with the eigenvalues ranked
    from the lowest and NaN last, sl3r takes the 3 lowest negative and su12 the 4 lowest unless
    taking 2 is strictly cheaper: a choice costs the positive parts of the eigenvalues it takes
    negative plus the negative parts of those it takes positive (NaN costs 0).
    """
    if target == "su3":
        return 0 if sum(values) >= 0 else 6
    if target == "sl3r":
        return 3
    ranked = sorted(values, key=lambda x: (math.isnan(x), 0.0 if math.isnan(x) else x))
    cost = lambda n: sum(x for x in ranked[:n] if x > 0) + sum(-x for x in ranked[n:] if x < 0)
    return 2 if cost(2) < cost(4) else 4


def test_wanted_signs_match_written_rule():
    # seeded eigenvalues: normal draws, small integers (ties, exactly zero traces) and NaN entries.
    # Which of tied eigenvalues np.argsort ranks first is not part of the rule, so the values taken
    # negative are compared as a multiset with the lowest ones
    kern = search.FloatKernels(direct_sum(catalog("su2"), catalog("su2")))
    rng = np.random.default_rng(2028)
    draws = [rng.standard_normal(6) for _ in range(400)] + [rng.integers(-2, 3, 6).astype(float) for _ in range(400)]
    for evals in draws[::40]:
        evals = evals.copy()
        evals[rng.integers(6)] = np.nan
        draws.append(evals)
    seen = set()
    for target in search.TARGET_KINDS:
        pen = search._Penalty(kern, target)
        for evals in draws:
            wants = pen._wanted_signs(evals.copy())
            values = [float(x) for x in evals]
            n = _reference_negatives(target, values)
            assert set(wants) <= {1.0, -1.0} and int(np.sum(wants < 0)) == n, (target, evals)
            taken = [x for x, sgn in zip(values, wants) if sgn < 0]
            if target != "su3":
                assert np.array_equal(np.sort(taken), np.sort(evals)[:n], equal_nan=True), (target, evals)
            seen.add((target, n))
    assert {("su3", 0), ("su3", 6), ("su12", 2), ("su12", 4), ("sl3r", 3)} == seen, seen


def test_search_su12_on_r2R_r2R_panel_seed():
    # the search panel entry that criterion 8 does not cover
    L = direct_sum(catalog("r2R"), catalog("r2R"))
    res = search.find_halfflat(L, "su12", restarts=10_000, seed=20240817, tol=1e-8)
    assert res.found
    assert res.restarts_used == 1


def _reference_d_matrix(L, k):
    """Float matrix of d assembled from the images of basis monomials."""
    from halfflat.exterior import KForm

    src, dst = basis_masks(k), basis_masks(k + 1)
    dst_i = {m: i for i, m in enumerate(dst)}
    out = np.zeros((len(dst), len(src)))
    for j, m in enumerate(src):
        for mm, c in antiderivation_d(L, KForm(k, {m: Fraction(1)})).terms.items():
            out[dst_i[mm], j] = float(c)
    return out


def test_float_d_matrices_match_reference_assembly():
    # the 78 unordered class pairs at the first mu sample, so the float division by den is pinned bytewise
    firsts = [spec.instances()[0] for spec in catalog_classes()]
    pairs = list(itertools.combinations_with_replacement(firsts, 2))
    assert len(pairs) == 78
    for L1, L2 in pairs:
        L = direct_sum(L1, L2)
        kern = search.FloatKernels(L)
        for got, k in ((kern.d3, 3), (kern.d4, 4)):
            want = _reference_d_matrix(L, k)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), (L.name, k)


def test_float_reverify_equals_gate_residuals():
    # the two criterion-8 hits found within two restarts (the other two take 17 and 22)
    for (n1, n2), target in ((("e2", "R3"), "su3"), (("sl2", "r2R"), "su3")):
        L = direct_sum(catalog(n1), catalog(n2))
        res = search.find_halfflat(L, target, restarts=10_000, seed=20240817, tol=1e-8)
        assert res.found
        again = search.float_reverify(L, res)
        assert again == {key: res.residuals[key] for key in again}


def test_float_kernels_agree_with_exact(rng):
    """Float lambda, K and G_raw match the exact pipeline to 1e-10 relative."""
    L = direct_sum(catalog("e2"), catalog("r3"))
    kern = search.FloatKernels(L)
    b2, b3 = basis_masks(2), basis_masks(3)
    for _ in range(40):
        omega = random_form(rng, 2, span=4, density=0.6)
        rho = random_form(rng, 3, span=4, density=0.5)
        w = np.array([float(omega.coeff(m)) for m in b2])
        r = np.array([float(rho.coeff(m)) for m in b3])
        k_exact = k_matrix(rho)
        lam_exact = lambda_of(rho)
        k_float, lam_float, _, _, g_float = kern.pair(w, r)
        scale = max(1.0, abs(float(lam_exact)))
        assert abs(lam_float - float(lam_exact)) / scale < 1e-10
        kf_scale = max(1.0, float(np.max(np.abs(k_float))))
        for i in range(6):
            for j in range(6):
                assert abs(k_float[i, j] - float(k_exact[i][j])) / kf_scale < 1e-10
        if lam_exact != 0:
            eps = EPSILON_PARA if lam_exact > 0 else EPSILON
            g_exact = linalg.mat_mul(omega_matrix(omega), k_exact)
            gs = max(1.0, float(np.max(np.abs(g_float))))
            for i in range(6):
                for j in range(6):
                    assert abs(g_float[i, j] - eps * float(g_exact[i][j])) / gs < 1e-10


def test_gate_rejects_rows_under_other_targets():
    # exact half-flat rows as float points, with no L-BFGS run: each passes the gate under its
    # own target only, and zeroed rho coordinates or a moved omega are rejected
    rows = {"su3": corpus.row_t4_e2(), "su12": corpus.example_su12(), "sl3r": corpus.example_sl3r()}
    seen = {}
    for own, inst in rows.items():
        kern = search.FloatKernels(inst.algebra)
        # omega on basis_masks(2), rho's coordinates in kern.z3
        w = np.array([float(inst.omega.coeff(m)) for m in basis_masks(2)])
        r = np.array([float(inst.rho.coeff(m)) for m in basis_masks(3)])
        x = np.concatenate([w, np.linalg.lstsq(kern.z3, r, rcond=None)[0]])
        for target in search.TARGET_KINDS:
            gate = search._gate(search._Penalty(kern, target), x, 1e-8)
            assert (gate is not None) == (target == own), (inst.label, target)
            if gate is not None:
                seen[own] = gate[2]
        pen = search._Penalty(kern, own)
        zeroed = x.copy()
        zeroed[15:] = 0.0
        assert search._gate(pen, zeroed, 1e-8) is None, inst.label
        moved = x.copy()
        moved[0] += 1e-3
        assert search._gate(pen, moved, 1e-8) is None, inst.label
    assert seen["su3"]["lambda_float"] < 0 and seen["su3"]["min_eig_normalized"] > search.GATE_MARGIN
    assert seen["su12"]["lambda_float"] < 0 and seen["su12"]["signature"] in ("(2,4)", "(4,2)")
    assert seen["sl3r"]["lambda_float"] > 0 and seen["sl3r"]["signature"] == "(3,3)"


def test_search_su3_on_su2_su2():
    L = direct_sum(catalog("su2"), catalog("su2"))
    res = search.find_halfflat(L, "su3", restarts=200, seed=3)
    assert res.found
    assert res.residuals["resid_domega2"] < 1e-8
    assert res.residuals["resid_omega_rho"] < 1e-8
    assert res.residuals["lambda_float"] < 0
    assert res.residuals["min_eig_normalized"] > 1e-4


def test_search_sl3r_on_r2R_r3():
    L = direct_sum(catalog("r2R"), catalog("r3"))
    res = search.find_halfflat(L, "sl3r", restarts=500, seed=3)
    assert res.found
    assert res.residuals["lambda_float"] > 0
    assert res.residuals["signature"] == "(3,3)"


def test_search_not_found_on_obstructed_target():
    # the su3 target on r2R + r3 is obstructed: a generous budget must exhaust
    L = direct_sum(catalog("r2R"), catalog("r3"))
    res = search.find_halfflat(L, "su3", restarts=60, seed=0, max_iter=250)
    assert not res.found
    assert res.restarts_used == 60


def test_search_su12_on_r2R_r2R():
    L = direct_sum(catalog("r2R"), catalog("r2R"))
    res = search.find_halfflat(L, "su12", restarts=500, seed=3)
    assert res.found
    assert res.residuals["signature"] in ("(2,4)", "(4,2)")
    assert res.residuals["lambda_float"] < 0


def test_rationalize_recovers_table_row():
    """A float vector within 1e-12 of a known exact pair snaps back to it."""
    inst = corpus.row_t4_e2()
    b2, b3 = basis_masks(2), basis_masks(3)
    w = np.array([float(inst.omega.coeff(m)) for m in b2])
    r = np.array([float(inst.rho.coeff(m)) for m in b3])
    rng = np.random.default_rng(0)
    w += rng.uniform(-1e-12, 1e-12, size=15)
    r += rng.uniform(-1e-12, 1e-12, size=20)
    result = search.SearchResult(found=True, target="su3", omega=w, rho=r, seed=0)
    exact = search.rationalize(inst.algebra, result, max_den=4)
    assert exact is not None
    omega, rho = exact
    assert omega == inst.omega
    # rho is recovered up to the positive scale gauge used by the snapper
    rep = verify(inst.algebra, omega, rho)
    assert rep.half_flat and rep.structure.kind == "SU(3)"
    masks = [m for m in b3 if inst.rho.coeff(m) != 0]
    ratios = {rho.coeff(m) / inst.rho.coeff(m) for m in masks}
    assert len(ratios) == 1


def test_rationalize_simple_float():
    assert Fraction(0.333333333333).limit_denominator(3) == Fraction(1, 3)


def test_rationalize_fails_cleanly_on_generic_floats():
    L = direct_sum(catalog("su2"), catalog("su2"))
    rng = np.random.default_rng(1)
    result = search.SearchResult(
        found=True,
        target="su3",
        omega=rng.standard_normal(15),
        rho=rng.standard_normal(20),
        seed=1,
    )
    assert search.rationalize(L, result, max_den=8) is None
    assert result.rationalized is None


def _constructed_results() -> list:
    """Three results no search produced: not found; su12 found with float residuals and a signature; su3 found
    with row T4.1's pair as its rationalized pair."""
    t41 = corpus.row_t4_e2()
    return [
        search.SearchResult(found=False, target="su3", seed=7, restarts_used=12),
        search.SearchResult(
            found=True, target="su12", omega=np.linspace(-1, 1, 15), rho=np.linspace(0.5, -0.25, 20),
            residuals={"resid_drho": 1.25e-12, "resid_domega2": 3e-10, "resid_omega_rho": 0.0,
                       "lambda_float": -0.123456, "signature": "(2,4)"},
            seed=3, restarts_used=5,
        ),
        search.SearchResult(
            found=True, target="su3", omega=np.arange(15) / 7, rho=-np.arange(20) / 3,
            residuals={"resid_drho": 2e-9, "lambda_float": -4.0, "min_eig_normalized": 0.05},
            seed=1, restarts_used=2, rationalized=(t41.omega, t41.rho),
        ),
    ]


#: sha256 of the three ``to_text`` outputs of ``_constructed_results``, joined by NUL
SEARCH_TEXT_GOLDEN = "e51052c3d07b4f75758771b811fcf76ccd24e8701cab4cca5d34e452a59976cb"


def test_search_result_text_golden():
    texts = [r.to_text() for r in _constructed_results()]
    assert texts[0].splitlines()[0] == "found: false" and "float rho:   [" in texts[1]
    assert hashlib.sha256("\0".join(texts).encode()).hexdigest() == SEARCH_TEXT_GOLDEN

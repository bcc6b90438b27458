from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from halfflat import corpus, linalg, stable
from halfflat.errors import HalfFlatError, NotCompatibleError, NotStableError
from halfflat.exterior import KForm, basis_masks, contract, evaluate, form, volume_ratio, wedge
from halfflat.liealg import catalog
from halfflat.scalars import QuadExt, scalar_abs, scalar_sign, sqrt_scalar
from halfflat.stable import (
    MODEL_OMEGA,
    MODEL_RHO,
    MODEL_RHO_PARA,
    StablePair,
    induced_metric_raw,
    is_compatible,
    j_matrix_values,
    k_matrix,
    lambda_of,
    structure_type,
)
from halfflat.verify import ortho_type_I, ortho_type_II

from .conftest import basis, random_fraction, random_form
from .oracles import (
    dense_from_sparse,
    dense_k_matrix,
    dense_lambda,
    dense_phi_omega,
    dense_wedge,
    omega_matrix,
    oriented_metric_raw,
)

RHO_SPLIT = form(3, [("e123", 1), ("f123", 1)])


def col(K, j):
    return [K[i][j - 1] for i in range(6)]


def e_col(j, scale=1):
    return [Fraction(scale) if i == j - 1 else Fraction(0) for i in range(6)]


def test_k_matrix_split_volume_forms():
    K = k_matrix(RHO_SPLIT)
    assert col(K, 1) == e_col(1)
    assert col(K, 4) == e_col(4, -1)
    assert lambda_of(RHO_SPLIT) == 1


def test_k_matrix_decomposable_is_nilpotent():
    K = k_matrix(form(3, [("e123", 1)]))
    K2 = linalg.mat_mul(K, K)
    assert linalg.mat_eq(K2, linalg.zeros(6, 6))
    assert lambda_of(form(3, [("e123", 1)])) == 0


def test_k_matrix_model_frame_frozen_values():
    K = k_matrix(MODEL_RHO)
    assert col(K, 1) == e_col(4, 2)
    assert col(K, 4) == e_col(1, -2)
    assert lambda_of(MODEL_RHO) == -4


def test_lambda_quartic_scaling(rng):
    for _ in range(200):
        rho = random_form(rng, 3, span=4, density=0.4)
        c = random_fraction(rng, 5)
        if c == 0:
            c = Fraction(1)
        assert lambda_of(rho.scale(c)) == c**4 * lambda_of(rho)


def test_k_squared_is_lambda_identity(rng):
    for _ in range(200):
        rho = random_form(rng, 3, span=4, density=0.4)
        K = k_matrix(rho)
        lam = lambda_of(rho)
        expected = [[lam if i == j else Fraction(0) for j in range(6)] for i in range(6)]
        assert linalg.mat_eq(linalg.mat_mul(K, K), expected)


def test_epsilon_calibration_model_metric_identity():
    # the model frame must induce the identity metric with the stated sign
    g_raw, eps = induced_metric_raw(MODEL_OMEGA, MODEL_RHO)
    lam = lambda_of(MODEL_RHO)
    root = sqrt_scalar(scalar_abs(lam))
    g = [[x / root for x in row] for row in g_raw]
    assert linalg.mat_eq(g, linalg.identity(6))
    assert eps == stable.EPSILON
    assert StablePair(MODEL_OMEGA, MODEL_RHO).phi_omega == 1
    assert lam == -4


def test_epsilon_calibration_model_para_metric():
    # the para model frame must induce g(e_i, f_i) = 1, all else zero, with the stated sign
    g_raw, eps = induced_metric_raw(MODEL_OMEGA, MODEL_RHO_PARA)
    lam = lambda_of(MODEL_RHO_PARA)
    root = sqrt_scalar(scalar_abs(lam))
    g = [[x / root for x in row] for row in g_raw]
    assert g == [[Fraction(int(abs(i - j) == 3)) for j in range(6)] for i in range(6)]
    assert eps == stable.EPSILON_PARA
    assert lam == 1


def test_structure_type_model_is_su3():
    t = structure_type(MODEL_OMEGA, MODEL_RHO)
    assert t.kind == "SU(3)"
    assert t.signature == (6, 0, 0)


def test_structure_type_split_rho_is_sl3r():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    t = structure_type(omega, RHO_SPLIT)
    assert t.kind == "SL(3,R)"
    assert t.signature == (3, 3, 0)


def test_structure_type_not_stable():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    assert structure_type(omega, form(3, [("e123", 1)])).kind == "NotStable"
    # degenerate omega reported NotStable even though rho is stable
    assert structure_type(form(2, [("e12", 1)]), MODEL_RHO).kind == "NotStable"


def test_compatibility_examples():
    assert is_compatible(MODEL_OMEGA, MODEL_RHO)
    assert is_compatible(form(2, [("e12", 1)]), form(3, [("e123", 1)]))
    assert not is_compatible(form(2, [("e12", 1)]), form(3, [("f123", 1)]))


def test_symmetry_iff_compatible(rng):
    hits_sym = hits_asym = 0
    for _ in range(200):
        rho = random_form(rng, 3, span=3, density=0.4)
        if lambda_of(rho) == 0:
            continue
        omega = random_form(rng, 2, span=3, density=0.6)
        if dense_phi_omega(omega) == 0:
            continue
        K = k_matrix(rho)
        G = linalg.mat_mul(omega_matrix(omega), K)
        if is_compatible(omega, rho):
            assert linalg.is_symmetric(G)
            hits_sym += 1
        else:
            assert not linalg.is_symmetric(G)
            hits_asym += 1
    assert hits_asym > 50
    # sample the forward direction by solving the linear compatibility system
    from halfflat.exterior import basis_masks

    sampled = 0
    while sampled < 60:
        rho = random_form(rng, 3, span=3, density=0.5)
        if lambda_of(rho) == 0:
            continue
        masks2, masks5 = basis_masks(2), basis_masks(5)
        rows = []
        cols = []
        for m in masks2:
            w = wedge(KForm(2, {m: Fraction(1)}), rho)
            cols.append(w.coefficients(masks5))
        rows = linalg.transpose(cols)
        for vec in linalg.nullspace(rows):
            omega = KForm(2, dict(zip(masks2, vec)))
            if dense_phi_omega(omega) == 0:
                continue
            G = linalg.mat_mul(omega_matrix(omega), k_matrix(rho))
            assert linalg.is_symmetric(G)
            sampled += 1


def test_normalization_scale_model_and_scaling_law():
    pair = StablePair(MODEL_OMEGA, MODEL_RHO)
    assert pair.norm_c4 == 1 and pair.norm_sign == 1
    assert StablePair(MODEL_OMEGA, MODEL_RHO.scale(Fraction(3))).norm_c4 == Fraction(1, 81)
    # the orientation branch follows phi(omega)
    flipped = StablePair(MODEL_OMEGA.scale(Fraction(-1)), MODEL_RHO)
    assert flipped.norm_c4 == 1 and flipped.norm_sign == -1
    degenerate = StablePair(form(2, [("e12", 1)]), MODEL_RHO)
    assert degenerate.norm_c4 is None and degenerate.norm_sign == 0


def test_normalization_scale_table_shape():
    # omega = sum e^i f^i with rho of the half-sqrt2 shape: c^4 = 1/4
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    rho0 = form(
        3,
        [
            ("e123", 1),
            ("e1f23", -1),
            ("e2f31", -1),
            ("e3f12", -1),
            ("e12f3", 1),
            ("e31f2", 1),
            ("e23f1", 1),
            ("f123", -1),
        ],
    )
    assert StablePair(omega, rho0).norm_c4 == Fraction(1, 4)
    assert lambda_of(rho0) == -16


def _compatible_pairs(rng, count):
    """Stable compatible pairs (omega, rho): omega drawn from the solutions of omega ^ rho = 0."""
    masks2, masks5 = basis_masks(2), basis_masks(5)
    pairs = []
    while len(pairs) < count:
        rho = random_form(rng, 3, span=3, density=0.5)
        if lambda_of(rho) == 0:
            continue
        cols = [wedge(KForm(2, {m: Fraction(1)}), rho).coefficients(masks5) for m in masks2]
        null = linalg.nullspace(linalg.transpose(cols))
        if not null:
            continue
        coeffs = [random_fraction(rng, 3) for _ in null]
        vec = [sum(c * v[i] for c, v in zip(coeffs, null)) for i in range(len(masks2))]
        omega = KForm(2, dict(zip(masks2, vec)))
        if dense_phi_omega(omega) != 0:
            pairs.append((omega, rho))
    return pairs


def test_signature_examples(rng):
    # the signature of a pair is the inertia of its oriented G_raw, on either orientation branch
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    for o, rho, want in ((MODEL_OMEGA, MODEL_RHO, (6, 0, 0)), (omega, RHO_SPLIT, (3, 3, 0))):
        pair = StablePair(o, rho)
        assert linalg.is_symmetric(pair.G_raw)
        assert linalg.inertia(oriented_metric_raw(pair)) == want == pair.structure.signature
    pairs = [(inst.omega, inst.rho) for inst in corpus.iter_instances() + corpus.iter_instances(table=0)]
    pairs += _compatible_pairs(rng, 30)
    branches = set()
    for o, rho in pairs:
        signatures = set()
        for w in (o, o.scale(-1)):
            pair = StablePair(w, rho)
            assert pair.compatible and pair.norm_sign != 0
            branches.add(pair.norm_sign)
            signatures.add(pair.structure.signature)
            assert pair.structure.signature == linalg.inertia(oriented_metric_raw(pair))
        assert len(signatures) == 1
    assert branches == {1, -1}
    m = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(6):
        m[i][i] = Fraction(-1 if i < 4 else 1)
    assert linalg.inertia(m) == (2, 4, 0)


def test_j_apply_oneform_model():
    from halfflat.exterior import covector

    # (J* alpha)(v) = alpha(K_rho v) / sqrt|lambda|: J e^1 pairs e_4 with 1 up to sign
    root = sqrt_scalar(scalar_abs(lambda_of(MODEL_RHO)))
    row = j_matrix_values(k_matrix(MODEL_RHO), covector(1))
    assert row[3] / root in (Fraction(1), Fraction(-1))
    assert row[0] == 0
    # a decomposable rho has lambda = 0 and no J
    assert lambda_of(form(3, [("e123", 1)])) == 0


def test_j_values_define_involution_squares(rng):
    # K^2 = lambda id implies the phi-scaled J values reproduce lambda-scaled duals
    for _ in range(50):
        rho = random_form(rng, 3, span=3, density=0.4)
        lam = lambda_of(rho)
        if lam == 0:
            continue
        K = k_matrix(rho)
        from halfflat.exterior import covector

        for i in (1, 4):
            vals = j_matrix_values(K, covector(i))
            # vals[v-1] = sqrt|lam| (J* e^i)(e_v) = (e^i o K)(e_v) = K[i-1][v-1]
            assert vals == [K[i - 1][v] for v in range(6)]


def _wedge_j_value(rho, alpha, v):
    """alpha ^ (v -| rho) ^ rho / nu by contraction and wedges, without K."""
    return volume_ratio(wedge(wedge(alpha, contract(v, rho)), rho))


def _check_j_values_against_wedges(rng, rho):
    alpha = random_form(rng, 1, span=4, density=0.6)
    v = tuple(random_fraction(rng, 3) for _ in range(6))
    ref = [_wedge_j_value(rho, alpha, basis(i)) for i in range(1, 7)]
    row = j_matrix_values(k_matrix(rho), alpha)
    assert row == ref
    # linear in v: alpha(K_rho v) is the row applied to v
    assert sum((x * c for x, c in zip(row, v)), Fraction(0)) == _wedge_j_value(rho, alpha, v)


def test_j_values_match_wedge_formula(rng):
    # alpha ^ (v -| rho) ^ rho = alpha(K_rho v) nu, on rational and Q(sqrt D) forms
    for _ in range(60):
        _check_j_values_against_wedges(rng, random_form(rng, 3, span=4, density=rng.choice((0.3, 0.6))))
    rows = [inst for inst in corpus.iter_instances(table=5) if inst.label.startswith("T5.7[")]
    rows += [corpus.row_t5_sl2_r3mu_pos(Fraction(m, d)) for m, d in ((1, 3), (2, 3))]
    assert all(any(isinstance(c, QuadExt) for c in inst.rho.terms.values()) for inst in rows)
    for inst in rows:
        for _ in range(3):
            _check_j_values_against_wedges(rng, inst.rho)


def test_para_eigenspace_dimensions_for_positive_lambda(rng):
    found = 0
    while found < 20:
        rho = random_form(rng, 3, span=3, density=0.4)
        lam = lambda_of(rho)
        if lam == 0 or lam < 0:
            continue
        root = sqrt_scalar(lam)
        K = k_matrix(rho)
        for s in (root, -root):
            m = [[K[i][j] - (s if i == j else 0) for j in range(6)] for i in range(6)]
            assert 6 - linalg.rank(m) == 3
        found += 1


def test_stable_pair_caches():
    p = StablePair(MODEL_OMEGA, MODEL_RHO)
    assert p.lam == -4
    assert p.norm_c4 == 1
    assert p.structure.kind == "SU(3)"
    assert p.compatible
    assert linalg.mat_eq(oriented_metric_raw(p), [[2 * x for x in row] for row in linalg.identity(6)])


def test_oneform_metric_identity_on_verified_structures(rng):
    """alpha ^ J*beta ^ omega^2 = (1/3) g(alpha, beta) omega^3 in Q(sqrt|lam|)."""
    from halfflat.exterior import covector, volume_ratio

    pair = StablePair(MODEL_OMEGA, MODEL_RHO)
    _metric_identity_check(rng, pair, cases=40)
    # also on an indefinite exact structure: the split SL(3,R) pair
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    pair2 = StablePair(omega, RHO_SPLIT)
    _metric_identity_check(rng, pair2, cases=40)


def _metric_identity_check(rng, pair, cases):
    from halfflat.exterior import volume_ratio

    lam = pair.lam
    root = sqrt_scalar(scalar_abs(lam))
    o = pair.norm_sign
    ginv_raw = linalg.invert(oriented_metric_raw(pair))
    omega2 = wedge(pair.omega, pair.omega)
    omega3 = wedge(omega2, pair.omega)
    for _ in range(cases):
        alpha = random_form(rng, 1, span=4)
        beta = random_form(rng, 1, span=4)
        # J*beta with the orientation branch: components K^T beta / (o sqrt|lam|)
        vals = j_matrix_values(pair.K, beta)
        jbeta = KForm(1, {1 << v: vals[v] for v in range(6)})
        lhs = volume_ratio(wedge(wedge(alpha, jbeta), omega2)) / (o * root)
        # dual metric: g(alpha,beta) = sqrt|lam| * alpha^T Graw^{-1} beta (oriented)
        a = alpha.coefficients([1 << i for i in range(6)])
        b = beta.coefficients([1 << i for i in range(6)])
        gab = sum(
            a[i] * ginv_raw[i][j] * b[j] for i in range(6) for j in range(6)
        ) * root
        rhs = gab * volume_ratio(omega3) / 3
        assert lhs == rhs


# -- the quadratic K table against an independent K -----------------------------


def _quad_form(rng, radicand, density=0.5):
    terms = {}
    for mask in basis_masks(3):
        if rng.random() < density:
            terms[mask] = QuadExt.make(
                random_fraction(rng, 3), random_fraction(rng, 3), radicand
            )
    return KForm(3, terms)


def test_k_matrix_matches_dense_oracle_rational(rng):
    for _ in range(60):
        rho = random_form(rng, 3, span=5, density=rng.choice((0.3, 0.6, 1.0)))
        K = k_matrix(rho)
        assert K == dense_k_matrix(rho)
        assert lambda_of(rho) == dense_lambda(K)


def test_k_matrix_matches_dense_oracle_quadratic_extension(rng):
    # table 5 sl2 + r3mu (0 < mu <= 1): coefficients in Q(sqrt(2 mu + 1))
    rows = [inst for inst in corpus.iter_instances(table=5) if inst.label.startswith("T5.7[")]
    rows += [
        corpus.row_t5_sl2_r3mu_pos(Fraction(m, d)) for m, d in ((1, 3), (2, 3), (1, 5), (2, 5))
    ]
    rhos = [inst.rho for inst in rows]
    assert all(any(isinstance(c, QuadExt) for c in r.terms.values()) for r in rhos)
    rhos += [_quad_form(rng, D) for D in (2, 3, 5, Fraction(3, 2)) for _ in range(3)]
    assert len(rhos) >= 20
    for rho in rhos:
        K = k_matrix(rho)
        oracle = dense_k_matrix(rho)
        assert all(K[u][v] == oracle[u][v] for u in range(6) for v in range(6))
        assert lambda_of(rho) == dense_lambda(oracle)


def test_k_table_size_and_integer_path(rng):
    assert sum(len(entries) for entries in stable.K_TABLE.values()) == 240
    # on the unit three-forms the quadratic forms are the table itself: 180 of
    # its 240 entries come as (i, j), (j, i) in one entry of K and add up, so
    # 150 coefficients, none of them zero
    masks = basis_masks(3)
    forms = stable.k_on_basis([KForm(3, {m: Fraction(1)}) for m in masks])
    assert sum(len(q) for q in forms.values()) == 150
    assert all(type(c) is int for q in forms.values() for c in q.values())
    quartic = stable.trace_of_square_quartic(forms)
    for _ in range(50):
        n = [rng.randint(-24, 24) if rng.random() < 0.6 else 0 for _ in masks]
        rho = KForm(3, {m: Fraction(c) for m, c in zip(masks, n) if c})
        K_int = [[sum(c * n[a] * n[b] for (a, b), c in forms.get((u, v), {}).items()) for v in range(6)]
                 for u in range(6)]
        assert K_int == dense_k_matrix(rho) == k_matrix(rho)
        lam6 = sum(c * n[a] * n[b] * n[e] * n[f] for (a, b, e, f), c in quartic.items())
        assert Fraction(lam6, 6) == lambda_of(rho) == dense_lambda(K_int)


# -- StablePair is the one place the verdict is formed ---------------------------


def _pairs_of_this_file():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    return [
        (MODEL_OMEGA, MODEL_RHO),
        (omega, RHO_SPLIT),
        (omega, form(3, [("e123", 1)])),
        (form(2, [("e12", 1)]), MODEL_RHO),
        (form(2, [("e12", 1)]), form(3, [("f123", 1)])),
        (MODEL_OMEGA, MODEL_RHO_PARA),
    ]


def test_structure_type_equals_stable_pair_structure(rng):
    pairs = [(inst.omega, inst.rho) for inst in corpus.iter_instances() + corpus.iter_instances(table=0)]
    pairs += _pairs_of_this_file()
    for _ in range(40):
        pairs.append((random_form(rng, 2, span=3, density=0.5), random_form(rng, 3, span=3, density=0.4)))
    kinds = set()
    for omega, rho in pairs:
        t = structure_type(omega, rho)
        assert t == StablePair(omega, rho).structure
        kinds.add(t.kind)
    assert {"SU(3)", "SL(3,R)", "NotStable", "NotCompatible"} <= kinds


def test_wrong_degrees_not_stable():
    assert structure_type(MODEL_RHO, MODEL_OMEGA).kind == "NotStable"
    assert structure_type(MODEL_OMEGA, MODEL_OMEGA).kind == "NotStable"
    for omega, rho in ((MODEL_RHO, MODEL_RHO), (MODEL_OMEGA, MODEL_OMEGA)):
        with pytest.raises(NotStableError):
            StablePair(omega, rho)
        with pytest.raises(NotStableError):
            induced_metric_raw(omega, rho)
    # a three-form omega is refused before omega^2 is wedged
    with pytest.raises(NotStableError, match="two-forms"):
        StablePair(MODEL_RHO_PARA, MODEL_RHO)


def test_asymmetric_metric_raises_not_compatible():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    rho = form(3, [("e123", 1), ("f123", 1), ("e12f1", 1)])
    pair = StablePair(omega, rho)
    assert pair.norm_c4 is not None and not pair.symmetric and not pair.compatible
    assert pair.structure.kind == "NotCompatible"
    with pytest.raises(NotCompatibleError):
        induced_metric_raw(omega, rho)
    # the wrapper reads what the pair holds
    g, eps = induced_metric_raw(MODEL_OMEGA, MODEL_RHO)
    assert g == StablePair(MODEL_OMEGA, MODEL_RHO).G_raw and eps == stable.EPSILON


def test_sparse_metric_matches_dense_product(rng):
    for _ in range(60):
        omega = random_form(rng, 2, span=4, density=0.5)
        rho = random_form(rng, 3, span=4, density=0.5)
        pair = StablePair(omega, rho)
        dense = linalg.mat_mul(omega_matrix(omega), k_matrix(rho))
        assert pair.G_raw == [[pair.eps * x for x in row] for row in dense]


# -- StablePair on cleared denominators against the dense oracle -----------------


def _dense_pair(omega, rho):
    """Every StablePair field from the dense formulas; inertia reads the dense G."""
    K = dense_k_matrix(rho)
    lam = dense_lambda(K)
    phi = dense_phi_omega(omega)
    eps = stable.EPSILON_PARA if scalar_sign(lam) > 0 else stable.EPSILON
    W = omega_matrix(omega)
    G = [[eps * sum(W[u][w] * K[w][v] for w in range(6)) for v in range(6)] for u in range(6)]
    symmetric = all(G[u][v] == G[v][u] for u in range(6) for v in range(6))
    ka, da = dense_from_sparse(omega)
    kb, db = dense_from_sparse(rho)
    wedge_zero = not any(dense_wedge(ka, da, kb, db)[1].values())
    stable_pair = lam != 0 and phi != 0
    want = {
        "K": K, "lam": lam, "phi_omega": phi, "eps": eps, "G_raw": G, "symmetric": symmetric,
        "compatible": symmetric and wedge_zero,
        "norm_c4": 4 * phi * phi / scalar_abs(lam) if stable_pair else None,
        "norm_sign": scalar_sign(phi) if stable_pair else 0,
    }
    if stable_pair and wedge_zero and symmetric:
        oriented = G if scalar_sign(phi) > 0 else [[-x for x in row] for row in G]
        want["signature"] = linalg.inertia(oriented)
    return want


def _field_type(x):
    return QuadExt if isinstance(x, QuadExt) else Fraction


def _assert_pair_matches_oracle(omega, rho):
    pair = StablePair(omega, rho)
    want = _dense_pair(omega, rho)
    for name in ("lam", "phi_omega", "eps", "symmetric", "compatible", "norm_c4", "norm_sign"):
        assert getattr(pair, name) == want[name], name
    for name in ("lam", "phi_omega"):
        assert type(getattr(pair, name)) is _field_type(want[name]), name
    if pair.norm_c4 is not None:
        assert type(pair.norm_c4) is _field_type(want["norm_c4"])
    for name in ("K", "G_raw"):
        got = getattr(pair, name)
        assert got == want[name], name
        assert all(type(x) is _field_type(y) for row, wrow in zip(got, want[name]) for x, y in zip(row, wrow)), name
    if "signature" in want:
        assert pair.structure.signature == want["signature"]
    return pair


def _pullback(f, A):
    """The form f(A ., ..., A .) for a 6 x 6 matrix A; column i of A is the image of e_i."""
    cols = [[A[r][c] for r in range(6)] for c in range(6)]
    terms = {}
    for mask in basis_masks(f.degree):
        vectors = [cols[i] for i in range(6) if mask >> i & 1]
        terms[mask] = evaluate(f, vectors)
    return KForm(f.degree, terms)


def _sparse_gl6(rng, entry):
    """Upper triangular with a nonzero diagonal and three entries above it, all drawn by ``entry``."""
    A = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(6):
        while not A[i][i]:
            A[i][i] = entry()
    for _ in range(3):
        i, j = sorted(rng.sample(range(6), 2))
        A[i][j] = entry()
    return A


def test_stable_pair_equals_dense_oracle_rational(rng):
    big = lambda: random_fraction(rng, 3, max_den=10**4)
    pairs = [(random_form(rng, 2, density=0.5), random_form(rng, 3, density=0.4)) for _ in range(6)]
    for omega, rho in list(pairs):
        pairs.append((KForm(2, {m: big() for m in omega.terms}), KForm(3, {m: big() for m in rho.terms})))
    for omega, rho in ((MODEL_OMEGA, MODEL_RHO), (MODEL_OMEGA, MODEL_RHO_PARA)):
        for _ in range(3):
            A = _sparse_gl6(rng, big)
            pairs.append((_pullback(omega, A), _pullback(rho, A).scale(big())))
    pairs.append((MODEL_OMEGA.scale(Fraction(-7, 9999)), MODEL_RHO.scale(Fraction(3, 10**4))))
    # integer coefficients: nothing to clear, and still no int in the fields
    pairs += [(MODEL_OMEGA, MODEL_RHO), (MODEL_OMEGA.scale(-2), MODEL_RHO_PARA)]
    pairs.append((random_form(rng, 2, density=0.5, span=3).scale(12), random_form(rng, 3, density=0.4, span=3).scale(12)))
    kinds = {_assert_pair_matches_oracle(omega, rho).structure.kind for omega, rho in pairs}
    assert {"SU(3)", "SL(3,R)", "NotCompatible"} <= kinds


def test_stable_pair_equals_dense_oracle_quadratic_extension(rng):
    D = Fraction(3, 2)
    quad = lambda: QuadExt.make(random_fraction(rng, 3, max_den=50), random_fraction(rng, 3, max_den=50), D)
    pairs = [(random_form(rng, 2, density=0.5).scale(quad()), _quad_form(rng, D, density=0.4)) for _ in range(4)]
    for omega, rho in ((MODEL_OMEGA, MODEL_RHO), (MODEL_OMEGA, MODEL_RHO_PARA)):
        for _ in range(2):
            A = _sparse_gl6(rng, quad)
            pairs.append((_pullback(omega, A), _pullback(rho, A)))
    inst = corpus.row_t5_sl2_r3mu_pos(Fraction(1, 3))
    pairs.append((inst.omega, inst.rho))
    seen_quad = False
    for omega, rho in pairs:
        pair = _assert_pair_matches_oracle(omega, rho)
        seen_quad |= any(isinstance(x, QuadExt) for row in pair.G_raw for x in row)
    assert seen_quad


# -- the kind verdict, pinned ------------------------------------------------------


def _kind_record(omega, rho):
    """(kind, signature) of StablePair(omega, rho), or (exception type, message) where construction raises."""
    try:
        structure = StablePair(omega, rho).structure
    except HalfFlatError as exc:
        return type(exc).__name__, str(exc)
    return structure.kind, structure.signature


def _random_kind_pairs(rng, count):
    """Seeded (omega, rho) pairs over every reachable verdict.

    A third are random forms; every 60th rho is a two-form, which K refuses, and every 60th omega a
    three-form, which phi(omega) refuses.  The rest are omega = sum s_i e^i f^i with
    rho = a MODEL_RHO + b MODEL_RHO_PARA, compatible for all s, a and b, with f^1 and f^2 flipped in
    rho independently (one flip turns SU(3) into SU(1,2)).  Half of those are pulled back by a sparse
    GL(6, Q) matrix, and every tenth of these gets a term added to rho.
    """
    planes = [form(2, [(f"e{i}f{i}", 1)]) for i in (1, 2, 3)]
    small = lambda: Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
    pairs = []
    for n in range(count):
        if n % 3 == 0:
            omega = random_form(rng, 3 if n % 60 == 30 else 2, span=3, density=rng.choice((0.2, 0.5, 0.8)))
            rho = random_form(rng, 2 if n % 60 == 0 else 3, span=3, density=rng.choice((0.2, 0.5, 0.8)))
            pairs.append((omega, rho))
            continue
        omega = sum((e.scale(small() if rng.random() < 0.9 else 0) for e in planes), KForm(2))
        a, b = rng.choice(((small(), 0), (0, small()), (small(), small())))
        flipped = [i for i in (3, 4) if rng.random() < 0.5]
        D = [[Fraction(0 if i != j else -1 if i in flipped else 1) for j in range(6)] for i in range(6)]
        rho = _pullback(MODEL_RHO.scale(a) + MODEL_RHO_PARA.scale(b), D)
        if n % 3 == 2:
            A = _sparse_gl6(rng, lambda: Fraction(rng.randint(-2, 2)))
            omega, rho = _pullback(omega, A), _pullback(rho, A)
            if n % 10 == 2:
                rho = rho + random_form(rng, 3, span=2, density=0.1)
        pairs.append((omega, rho))
    return pairs


def test_kind_verdicts_golden():
    # (kind, signature) on the 54 corpus rows, type I on the 36 ordered unimodular pairs at six
    # (xi1, xi2), a grid of IIa pairs and 1200 seeded random pairs, as one sha256
    records = [_kind_record(inst.omega, inst.rho) for inst in corpus.iter_instances() + corpus.iter_instances(table=0)]
    assert len(records) == 54
    xis = ((1, 0), (0, 1), (1, 1), (1, -1), (2, Fraction(-1, 3)), (-3, 2))
    for h1, h2 in product(corpus.UNIMODULAR, repeat=2):
        records += [_kind_record(*ortho_type_I(catalog(h1), catalog(h2), *xi)) for xi in xis]
    for a, xi2, p, q in product((Fraction(3, 5), Fraction(-3, 5), Fraction(4, 5), Fraction(5, 13)),
                                (1, -1, 2, Fraction(-1, 3)), (-1, 0, 2), (-1, 0, 2)):
        records.append(_kind_record(*ortho_type_II("IIa", a=a, xi2=xi2, p=p, q=q)[1:]))
    records += [_kind_record(omega, rho) for omega, rho in _random_kind_pairs(random.Random(2028), 1200)]
    assert len(records) == 54 + 216 + 144 + 1200
    seen = {r[0] for r in records}
    # on the normalized orientation a definite metric is SU(3) and an indefinite one (2, 4): SU(2,1) and
    # SU(0,3) do not occur
    assert seen == {"SU(3)", "SU(1,2)", "SL(3,R)", "NotStable", "NotCompatible", "NotStableError"}, seen
    digest = hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()
    assert digest == "e9c22d0f8adad2f3e06e3d7f2bfff4c782555064d17417f54b0f80b3b9310cb8", digest

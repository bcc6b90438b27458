from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from halfflat import cli, linalg
from halfflat.classify3d import classify, milnor_L
from halfflat.liealg import LieAlgebra, catalog, catalog_classes, change_basis, direct_sum
from halfflat.exterior import form

from .conftest import mat_vec, random_fraction


def _reversed(m):
    """Milnor matrix for the reversed orientation of the cross product."""
    return [[-x for x in row] for row in m]


def test_milnor_su2_is_identity_after_orientation_flip():
    m = _reversed(milnor_L(catalog("su2")))
    assert linalg.mat_eq(m, linalg.identity(3))
    assert classify(catalog("su2")).eigen_signs == (1, 1, 1)


def test_milnor_e11_signs():
    c = classify(catalog("e11"))
    assert c.name == "e11"
    assert c.bianchi == "VI_0"
    assert c.eigen_signs == (1, -1, 0)


def test_milnor_symmetry_iff_unimodular(rng):
    for spec in catalog_classes():
        for L in spec.instances():
            for M in [L] + [change_basis(L, _random_change(rng)) for _ in range(3)]:
                assert linalg.is_symmetric(milnor_L(M)) == M.is_unimodular() == L.is_unimodular()


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _random_gl3(rng: random.Random):
    """A random invertible rational 3x3 matrix, entries in [-1, 1] with denominators up to 3."""
    while True:
        m = [[random_fraction(rng, 1, 3) for _ in range(3)] for _ in range(3)]
        if linalg.det(m) != 0:
            return m


def test_milnor_matrix_defines_the_bracket(rng):
    # L is read entry by entry from d; [u, v] = L(u x v) is its defining identity
    for spec in catalog_classes():
        for L in spec.instances():
            for M in [L] + [change_basis(L, _random_gl3(rng)) for _ in range(3)]:
                m = milnor_L(M)
                pairs = [(u, v) for u in linalg.identity(3) for v in linalg.identity(3)]
                vectors = [[random_fraction(rng) for _ in range(3)] for _ in range(8)]
                pairs += list(zip(vectors[::2], vectors[1::2]))
                for u, v in pairs:
                    assert list(M.bracket(u, v)) == mat_vec(m, _cross(u, v)), (spec.key, u, v)
                # tr(ad_{e_m}) = sum over k of [e_m, e_k]^k, also read from d
                basis = linalg.identity(3)
                assert M.trace_ad() == [sum(M.bracket(x, basis[k])[k] for k in range(3)) for x in basis]


def test_trace_ad_of_sums_is_the_bracket_trace(rng):
    specs = catalog_classes()
    basis = linalg.identity(6)
    for _ in range(12):
        L1, L2 = (change_basis(rng.choice(rng.choice(specs).instances()), _random_gl3(rng)) for _ in range(2))
        L = direct_sum(L1, L2)
        assert L.trace_ad() == [sum(L.bracket(x, basis[k])[k] for k in range(6)) for x in basis]
        assert L.trace_ad() == L1.trace_ad() + L2.trace_ad()


def _restricted_ad(L3: LieAlgebra):
    """ad_X on the unimodular kernel in a kernel basis, tr(ad_X) = 2: the nullspace of tau and two solves."""
    tau = L3.trace_ad()
    norm2 = sum((t * t for t in tau), Fraction(0))
    x = [2 * t / norm2 for t in tau]
    kernel = linalg.nullspace([tau])
    basis_mat = linalg.transpose(kernel)
    return linalg.transpose([linalg.solve(basis_mat, L3.bracket(x, k)) for k in kernel])


def test_non_unimodular_invariant_matches_the_kernel_restriction(rng):
    # D = (4 - tr(ad_X^2)) / 2 and ad_X^2 = ad_X against det and the identity test on the kernel
    seen = set()
    for spec in catalog_classes():
        for L in spec.instances():
            if L.is_unimodular():
                continue
            for M in [L] + [change_basis(L, _random_gl3(rng)) for _ in range(10)]:
                ltilde = _restricted_ad(M)
                c = classify(M)
                assert c.det_d == linalg.det(ltilde), (spec.key, M.diffs)
                assert (c.name == "r31") == (c.det_d == 1 and linalg.mat_eq(ltilde, linalg.identity(2)))
                seen.add(c.name)
    assert seen == {"r2R", "r3", "r31", "r3mu", "r3pmu"}


def test_classify_abelian():
    c = classify(catalog("R3"))
    assert c.name == "R3" and c.bianchi == "I"


def test_classify_r3mu_determinant():
    c = classify(catalog("r3mu", Fraction(1, 2)))
    assert c.det_d == Fraction(8, 9)
    assert c.name == "r3mu" and c.bianchi == "VI"
    assert c.mu == Fraction(1, 2)


def test_classify_r31_identity_restriction():
    c = classify(catalog("r31"))
    assert c.det_d == 1 and c.name == "r31" and c.bianchi == "V"
    # mu = 1 in the r3mu family lands in the same class
    c2 = classify(catalog("r3mu", 1))
    assert c2.name == "r31"


def test_classify_r3_not_identity():
    c = classify(catalog("r3"))
    assert c.det_d == 1 and c.name == "r3" and c.bianchi == "IV"


def test_classify_r3pmu():
    c = classify(catalog("r3pmu", 2))
    assert c.det_d == Fraction(5, 4)
    assert c.name == "r3pmu" and c.bianchi == "VII"
    assert c.mu == 2


_IRRATIONAL_MU = "dim 3\nbasis e1 e2 e3\nd e2 = -1 e1^e2 - 1 e1^e3\nd e3 = {} e1^e2 - 1 e1^e3\n"


def test_classify_irrational_mu(tmp_path):
    # D = 1/2 on r3,mu and D = 3 on r3',mu invert to irrational mu: D is printed, mu is not
    for c32, name, d, display in (("-1/2", "r3mu", Fraction(1, 2), "r3,mu"), ("2", "r3pmu", Fraction(3), "r3',mu")):
        text = _IRRATIONAL_MU.format(c32)
        c = classify(cli.parse(text)[0])
        assert (c.name, c.det_d, c.mu) == (name, d, None)
        p = tmp_path / f"{name}.alg"
        p.write_text(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(["classify3d", str(p)]) == cli.EXIT_POSITIVE
        assert out.getvalue().startswith(f"class: {display}\n") and f"D: {d}\n" in out.getvalue()
        assert "mu:" not in out.getvalue()


def test_classify_round_trip_all_classes():
    for spec in catalog_classes():
        for L in spec.instances():
            c = classify(L)
            assert c.name == (L.name if not (L.name == "r3mu" and L.params["mu"] == 1) else "r31")
            if c.mu is not None and L.name in ("r3mu", "r3pmu"):
                assert c.mu == L.params["mu"]


def test_case_iia_milnor_matrices():
    # solution family: d e1 = p e13 + t e23, d e2 = t e13 - p e23, d e3 = 0
    p, t = Fraction(2), Fraction(-3)
    L = LieAlgebra(
        3,
        [
            form(2, [("e13", p), ("e23", t)]),
            form(2, [("e13", t), ("e23", -p)]),
            form(2),
        ],
        name="iia-factor",
    )
    m = _reversed(milnor_L(L))
    expected = [[t, -p, Fraction(0)], [-p, -t, Fraction(0)], [Fraction(0)] * 3]
    assert linalg.mat_eq(m, expected)
    assert classify(L).name == "e11"


def test_classify_rejects_invalid(tmp_path):
    # constants violating d^2 = 0 never reach classify: the file is refused as input
    p = tmp_path / "bad.alg"
    p.write_text("dim 3\nbasis e1 e2 e3\nd e1 = 1 e2^e3\nd e2 = 1 e1^e2\n")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert cli.main(["classify3d", str(p)]) == cli.EXIT_INPUT_ERROR
    assert "invalid structure constants" in err.getvalue()


def test_classify_basis_change_invariance(rng):
    """Classification is invariant under 20 random triangular basis changes per class."""
    for spec in catalog_classes():
        L = spec.instances()[0]
        base = classify(L)
        for _ in range(20):
            b = _random_change(rng)
            M = change_basis(L, b)
            c = classify(M)
            assert c.name == base.name
            if base.det_d is not None:
                assert c.det_d == base.det_d
            if base.eigen_signs is not None:
                # sign pattern as a multiset is the class invariant
                assert sorted(c.eigen_signs) == sorted(base.eigen_signs)


def _random_change(rng: random.Random):
    lower = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    upper = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(i):
            lower[i][j] = random_fraction(rng, 2, 2)
            upper[j][i] = random_fraction(rng, 2, 2)
    return linalg.mat_mul(lower, upper)

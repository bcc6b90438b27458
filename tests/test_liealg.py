from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from halfflat import cli, liealg, linalg
from halfflat.classify3d import classify
from halfflat.errors import CatalogError, JacobiError
from halfflat.exterior import DIM, KForm, basis_masks, covector, evaluate, form, wedge
from halfflat.liealg import MU_SAMPLES, LieAlgebra, catalog, catalog_classes, change_basis, direct_sum
from halfflat.scalars import QuadExt, cleared, unscaled

from .conftest import basis, random_fraction, random_form
from . import oracles


def all_class_instances():
    out = []
    for spec in catalog_classes():
        out.extend(spec.instances())
    return out


def test_catalog_standard_differentials():
    su2 = catalog("su2")
    assert su2.d(covector(1)) == form(2, [("e23", 1)])
    r2R = catalog("r2R")
    assert r2R.d(covector(2)) == form(2, [("e21", 1)])
    e2 = catalog("e2")
    assert e2.d(covector(2)) == form(2, [("e31", 1)])
    assert e2.d(covector(3)) == form(2, [("e12", 1)])
    r3mu = catalog("r3mu", Fraction(1, 2))
    assert r3mu.d(covector(2)) == form(2, [("e21", 1)])
    assert r3mu.d(covector(3)) == form(2, [("e31", Fraction(1, 2))])
    r3pmu = catalog("r3pmu", 2)
    assert r3pmu.d(covector(2)) == form(2, [("e21", 2), ("e13", 1)])
    assert r3pmu.d(covector(3)) == form(2, [("e21", 1), ("e31", 2)])


def test_catalog_rejects_bad_parameters():
    with pytest.raises(CatalogError):
        catalog("nope")
    with pytest.raises(CatalogError):
        catalog("r3mu", 2)
    with pytest.raises(CatalogError):
        catalog("r3mu", 0)
    with pytest.raises(CatalogError):
        catalog("r3pmu", Fraction(-1, 2))
    with pytest.raises(CatalogError):
        catalog("su2", 1)
    for bad in ("abc", "1/0", "1/2/3"):
        with pytest.raises(CatalogError):
            catalog("r3mu", bad)


#: sha256 of json.dumps(_catalog_records()), computed before the classes were read from one table
CATALOG_GOLDEN = "c23063d395b1f7d29a6f2aa889ee892432ae034d35af5c9049a0e2351857b6b3"


def _catalog_records(rng):
    """What the catalog shows: every tag's algebra or refusal over a grid of mu, the listing, the classes, and
    ``classify`` on every class instance and on three seeded rational basis changes of each."""
    tags = ["su2", "sl2", "e2", "e11", "h3", "R3", "r2R", "r3", "r31", "r3mu", "r3pmu", "x" * 30]
    grid = []
    for tag in tags:
        for mu in [None, *MU_SAMPLES, -1, 0, 5, Fraction(-1, 3), "abc", "1/0"]:
            try:
                L = catalog(tag, mu)
            except Exception as exc:
                grid.append([type(exc).__name__, str(exc)])
            else:
                grid.append([cli.emit(L), repr(sorted(L.params.items())), L.name])
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["catalog"]) == cli.EXIT_POSITIVE
    classes = [[spec.key, spec.family, [str(m) for m in spec.mu_samples]] for spec in catalog_classes()]

    def gl3():
        while True:
            m = [[random_fraction(rng, 3, 3) for _ in range(3)] for _ in range(3)]
            if linalg.det(m) != 0:
                return m

    verdicts = []
    for L in all_class_instances():
        for M in [L] + [change_basis(L, gl3()) for _ in range(3)]:
            c = classify(M)
            verdicts.append(repr((c.name, c.display, c.bianchi, c.eigen_signs, c.det_d, c.mu)))
    return [grid, out.getvalue(), classes, verdicts]


def test_catalog_golden(rng):
    assert hashlib.sha256(json.dumps(_catalog_records(rng)).encode()).hexdigest() == CATALOG_GOLDEN


def test_abelian_d_vanishes(rng):
    L = catalog("R3")
    for k in range(0, 4):
        a = random_form(rng, k)
        # restrict to first three indices
        a = KForm(k, {m: c for m, c in a.terms.items() if not m >> 3})
        assert L.d(a).is_zero()


def test_jacobi_detects_invalid_constants():
    # d e1 = e23, d e2 = e12, d e3 = 0 violates d^2 = 0
    diffs = [form(2, [("e23", 1)]), form(2, [("e12", 1)]), form(2)]
    with pytest.raises(JacobiError):
        LieAlgebra(3, diffs, name="bad")


def test_jacobi_on_catalog():
    for L in all_class_instances():
        assert L.check_jacobi()


def test_unimodularity_table():
    assert catalog("e11").is_unimodular()
    assert not catalog("r2R").is_unimodular()
    assert catalog("R3").is_unimodular()
    for L in all_class_instances():
        expected = L.name in ("su2", "sl2", "e2", "e11", "h3", "R3")
        assert L.is_unimodular() == expected


def test_direct_sum_structure():
    s = direct_sum(catalog("h3"), catalog("r2R"))
    assert s.d(covector(6)).is_zero()  # f3 of the r2R factor is closed
    assert s.d(covector(3)) == form(2, [("e12", 1)])  # h3 side
    assert s.d(covector(5)) == form(2, [("f21", 1)])  # r2R side shifted
    assert not s.is_unimodular()
    u = direct_sum(catalog("su2"), catalog("sl2"))
    assert u.is_unimodular()
    ab = direct_sum(catalog("R3"), catalog("R3"))
    assert all(dk.is_zero() for dk in ab.diffs)


def test_d_squared_zero_all_degrees_catalog_sums(rng):
    pairs = [("su2", "sl2"), ("h3", "r2R"), ("e2", "r3"), ("R3", "r3pmu")]
    for n1, n2 in pairs:
        L1 = catalog(n1, 2) if n1 == "r3pmu" else catalog(n1)
        L2 = catalog(n2, 2) if n2 == "r3pmu" else catalog(n2)
        L = direct_sum(L1, L2)
        for k in range(0, 6):
            a = random_form(rng, k)
            assert L.d(L.d(a)).is_zero()


def test_d_matches_dense_oracle(rng):
    L = direct_sum(catalog("sl2"), catalog("r3"))
    brackets = oracles.brackets_of(L)
    for _ in range(40):
        k = rng.randint(1, 4)
        a = random_form(rng, k, density=0.4)
        kd, dense = oracles.dense_d(brackets, *oracles.dense_from_sparse(a))
        assert oracles.dense_equal_sparse(kd, dense, L.d(a))


def test_d_preserves_summand_factors():
    L = direct_sum(catalog("su2"), catalog("r3mu", Fraction(-1, 2)))
    for k in range(1, 3):
        for mask in basis_masks(k):
            if mask >> 3 == 0:  # pure first factor
                img = L.d(KForm(k, {mask: Fraction(1)}))
                assert all(m >> 3 == 0 for m in img.terms)
            elif mask & 0b111 == 0:  # pure second factor
                img = L.d(KForm(k, {mask: Fraction(1)}))
                assert all(m & 0b111 == 0 for m in img.terms)


def test_unimodular_trace_equals_five_form_condition():
    # on every ordered catalog sum: the trace condition, every five-form closed
    # (through the wedge-sum d) and both summands unimodular agree
    insts = all_class_instances()
    for L1, L2 in itertools.product(insts, insts):
        L = direct_sum(L1, L2)
        five_forms_closed = all(oracles.antiderivation_d(L, KForm(5, {m: Fraction(1)})).is_zero() for m in basis_masks(5))
        assert L.is_unimodular() == five_forms_closed == (L1.is_unimodular() and L2.is_unimodular()), L.name


def test_closed_forms_dimensions():
    ab = direct_sum(catalog("R3"), catalog("R3"))
    assert len(ab.closed_forms(3)) == 20
    L = direct_sum(catalog("r2R"), catalog("R3"))
    assert len(L.closed_forms(1)) == 5
    # every two-form on the h3 factor is closed inside h3 + r2R
    s = direct_sum(catalog("h3"), catalog("r2R"))
    for mask in [0b011, 0b101, 0b110]:
        assert s.d(KForm(2, {mask: Fraction(1)})).is_zero()


def test_closed_forms_are_closed_and_complete(rng):
    L = direct_sum(catalog("e11"), catalog("r3"))
    for k in (1, 2, 3, 4, 5):
        basis = L.closed_forms(k)
        for b in basis:
            assert L.d(b).is_zero()
        # completeness: rank of d on Lambda^k equals codimension
        masks = basis_masks(k)
        rows = [
            L.d(KForm(k, {m: Fraction(1)})).coefficients(basis_masks(k + 1))
            for m in masks
        ]
        assert len(basis) == len(masks) - linalg.rank(rows)
    # every basis is independent: rank = length, on all ordered catalog sums
    insts = all_class_instances()
    for L1, L2 in itertools.product(insts, insts):
        L = direct_sum(L1, L2)
        for k in range(DIM + 1):
            basis = L.closed_forms(k)
            assert linalg.rank([b.coefficients(basis_masks(k)) for b in basis]) == len(basis), (L.name, k)


def test_omega_squared_closed_iff_both_unimodular(rng):
    """d(omega^2) = 0 for nondegenerate omega in g1* x g2* iff both unimodular."""
    reps = [spec.instances()[0] for spec in catalog_classes()]
    checked = 0
    for L1, L2 in itertools.combinations_with_replacement(reps, 2):
        L = direct_sum(L1, L2)
        expected = L1.is_unimodular() and L2.is_unimodular()
        for attempt in range(20):
            terms = {}
            for i in range(3):
                for j in range(3, 6):
                    terms[(1 << i) | (1 << j)] = random_fraction(rng, 4)
            omega = KForm(2, terms)
            cube = wedge(wedge(omega, omega), omega)
            if cube.is_zero():
                continue
            assert L.d(wedge(omega, omega)).is_zero() == expected
            checked += 1
            break
        else:
            raise AssertionError("failed to draw a nondegenerate omega")
    assert checked == 78


def test_change_basis_preserves_jacobi_and_unimodularity(rng):
    for name in ("su2", "e11", "r3"):
        L = catalog(name)
        for _ in range(10):
            b = _random_unimodular_triangular(rng, 3)
            M = liealg.change_basis(L, b)
            assert M.check_jacobi()
            assert M.is_unimodular() == L.is_unimodular()


def test_change_basis_brackets_each_pair_once(rng, monkeypatch):
    """One bracket per pair i < j, and [b_i, b_j] is the new bracket of the new basis vectors."""
    real = LieAlgebra.bracket
    for L in (catalog("r3pmu", 2), direct_sum(catalog("sl2"), catalog("r3"))):
        b = _random_unimodular_triangular(rng, L.dim)
        calls = []
        monkeypatch.setattr(LieAlgebra, "bracket", lambda self, u, v: calls.append(1) or real(self, u, v))
        M = liealg.change_basis(L, b)
        monkeypatch.undo()
        assert len(calls) == L.dim * (L.dim - 1) // 2
        binv = linalg.invert(b)
        cols = linalg.transpose(b)
        for i, j in itertools.combinations(range(L.dim), 2):
            new = M.bracket(basis(i + 1), basis(j + 1))
            assert len(new) == L.dim
            assert list(new) == linalg.mat_vec(binv, L.bracket(cols[i], cols[j]))


def test_bracket_matches_evaluate(rng):
    # [u, v]_k = -(d e^k)(u, v), on random vectors
    for L in all_class_instances() + _oracle_algebras(rng):
        for _ in range(5):
            u, v = ([random_fraction(rng, 4) for _ in range(L.dim)] for _ in range(2))
            want = tuple(-evaluate(dk, [u, v]) for dk in L.diffs)
            assert L.bracket(u, v) == want and len(want) == L.dim, L.name


def _random_unimodular_triangular(rng: random.Random, n: int):
    lower = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = random_fraction(rng, 2, 2)
            upper[j][i] = random_fraction(rng, 2, 2)
    from halfflat import linalg

    return linalg.mat_mul(lower, upper)


def _quad_algebra(rng, dim):
    """Algebra with dense constants in Q(sqrt 3).

    A catalog algebra with its constants scaled by 1 + sqrt 3 (d^2 = 0 is
    homogeneous), then a random rational change of basis.
    """
    base = catalog("r3pmu", Fraction(1, 2)) if dim == 3 else direct_sum(catalog("sl2"), catalog("r3mu", Fraction(-1, 2)))
    scaled = LieAlgebra(dim, [dk.scale(QuadExt(1, 1, 3)) for dk in base.diffs], name="quad")
    return liealg.change_basis(scaled, _random_unimodular_triangular(rng, dim))


def _oracle_algebras(rng):
    return [
        catalog("su2"), catalog("r3pmu", 2), _quad_algebra(rng, 3),
        direct_sum(catalog("sl2"), catalog("r3")),
        direct_sum(catalog("e2"), catalog("r3mu", Fraction(1, 2))),
        _quad_algebra(rng, 6),
    ]


def test_d_matches_antiderivation_oracle(rng):
    r2 = QuadExt(0, 1, 2)
    for L in _oracle_algebras(rng):
        for k in range(DIM + 1):
            for _ in range(3):
                a = random_form(rng, k, density=0.5)
                quad = KForm(k, {m: c + random_fraction(rng, 3) * r2 for m, c in a.terms.items()})
                assert L.d(a) == oracles.antiderivation_d(L, a)
                if L.name != "quad":  # one radicand per computation
                    assert L.d(quad) == oracles.antiderivation_d(L, quad)


def test_d_matrix_matches_d_on_basis_monomials(rng):
    algebras = [catalog(n) for n in ("su2", "r3", "h3")] + _oracle_algebras(rng)
    algebras += [direct_sum(catalog("sl2"), catalog("r2R"))]
    for L in algebras:
        for k in range(L.dim + 1):
            masks = [m for m in basis_masks(k) if not m >> L.dim]
            out_masks = [m for m in basis_masks(k + 1) if not m >> L.dim]
            M = L.d_matrix(k)
            assert len(M) == len(out_masks)
            for j, m in enumerate(masks):
                image = oracles.antiderivation_d(L, KForm(k, {m: Fraction(1)}))
                assert L.d(KForm(k, {m: Fraction(1)})) == image
                # d_matrix is den * d, on the constants cleared at construction
                assert [row[j] for row in M] == [L.den * c for c in image.coefficients(out_masks)]


def test_scaled_d_and_d_matrix_match_d_on_every_monomial(rng):
    # the integer images read from the split table on cleared constants, divided by
    # den, and the columns of d_matrix, divided by den, equal the KForm d on every k-monomial, k = 0..5:
    # on the 400 ordered catalog sums, on sums of GL(3,Q)-conjugated factors and on
    # the Q(sqrt 3) algebras; the conjugated and Q(sqrt 3) ones against the oracle too
    insts = all_class_instances()
    sums = [direct_sum(L1, L2) for L1, L2 in itertools.product(insts, insts)]
    assert len(sums) == 400
    conjugated = [
        direct_sum(*(liealg.change_basis(L, _random_unimodular_triangular(rng, 3)) for L in pair))
        for pair in itertools.product(insts[::3], insts[1::3])
    ]
    quad = [_quad_algebra(rng, 3), _quad_algebra(rng, 6), _quad_algebra(rng, 6)]
    for n, L in enumerate(sums + conjugated + quad):
        den = cleared([c for dk in L.diffs for c in dk.terms.values()])[0]
        assert L.den == den
        for k in range(min(L.dim, 5) + 1):
            masks = [m for m in basis_masks(k) if not m >> L.dim]
            out_masks = [m for m in basis_masks(k + 1) if not m >> L.dim]
            M = L.d_matrix(k)
            for j, m in enumerate(masks):
                want = L.d(KForm(k, {m: Fraction(1)}))
                if n % 7 == 0 or n >= len(sums):
                    assert want == oracles.antiderivation_d(L, KForm(k, {m: Fraction(1)})), (L.name, k, m)
                scaled = L.scaled_d({m: 1})
                assert KForm(k + 1, {t: unscaled(c, den) for t, c in scaled.items()}) == want, (L.name, k, m)
                assert [row[j] for row in M] == [den * c for c in want.coefficients(out_masks)], (L.name, k, m)


def test_direct_sum_blocks_are_its_checked_factors():
    # the block algebras read back from d are the factors, and every sum passes
    # the Jacobi check that construction now runs on it
    instances = all_class_instances()
    assert len(instances) == 20
    for L1 in instances:
        for L2 in instances:
            L = direct_sum(L1, L2)
            assert [s.diffs for s in L.summands] == [L1.diffs, L2.diffs]
            assert L.check_jacobi()


def test_summands_follow_the_basis(rng):
    # a block-diagonal change of basis keeps the e/f split, one that mixes e1 into f1 loses it
    L = direct_sum(catalog("h3"), catalog("r2R"))
    a, b = _random_unimodular_triangular(rng, 3), _random_unimodular_triangular(rng, 3)
    zero = [Fraction(0)] * 3
    M = liealg.change_basis(L, [row + zero for row in a] + [zero + row for row in b])
    assert [s.diffs for s in M.summands] == [liealg.change_basis(s, m).diffs for s, m in zip(L.summands, (a, b))]
    mixing = linalg.identity(6)
    mixing[0][3] = Fraction(1)  # new f1 = e1 + f1
    assert liealg.change_basis(L, mixing).summands is None

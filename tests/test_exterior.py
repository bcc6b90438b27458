from __future__ import annotations

import random
from fractions import Fraction

import pytest

from halfflat.errors import DegreeError, RadicandMismatchError
from halfflat.exterior import (
    NU,
    KForm,
    basis_masks,
    contract,
    covector,
    form,
    kappa,
    mono,
    volume_ratio,
    wedge,
)
from halfflat.scalars import QuadExt, is_square, scalar_sign, sqrt_scalar

from .conftest import basis, random_form
from . import oracles


def test_wedge_basis_monomial():
    assert wedge(covector(1), covector(2)) == form(2, [("e12", 1)])


def test_wedge_alternation():
    assert wedge(covector(1), covector(1)).is_zero()


def test_omega_squared_matches_closed_formula():
    # (e1 f1 + e2 f2 + e3 f3)^2 = -2 (e12 f12 + e13 f13 + e23 f23)
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    expected = form(4, [("e12f12", -2), ("e13f13", -2), ("e23f23", -2)])
    assert wedge(omega, omega) == expected


def test_contract_leading_index():
    assert contract(basis(1), form(3, [("e123", 1)])) == form(2, [("e23", 1)])


def test_contract_one_transposition():
    assert contract(basis(2), form(3, [("e123", 1)])) == form(2, [("e13", -1)])


def test_contract_volume_sign_frozen_and_oracle():
    # e_4 -| nu = -e^12356, sign from three transpositions
    got = contract(basis(4), NU)
    assert got == form(5, [("e123f23", -1)])
    kd, dense = oracles.dense_contract(
        basis(4), *oracles.dense_from_sparse(NU)
    )
    assert oracles.dense_equal_sparse(kd, dense, got)


def test_contract_degree_zero_errors():
    with pytest.raises(DegreeError):
        contract(basis(1), KForm(0, {0: Fraction(1)}))


def test_kappa_basis():
    assert kappa(form(5, [("e23f123", 1)])) == basis(1)


def test_kappa_zero():
    assert kappa(KForm(5)) == (0,) * 6


def test_kappa_inverts_all_contractions():
    # oracle: enumerate all six contractions of nu
    for u in range(1, 7):
        xi = contract(basis(u), NU)
        assert kappa(xi) == basis(u)


def test_kappa_frozen_example():
    assert kappa(form(5, [("e123f23", -2)])) == tuple(2 * c for c in basis(4))


def test_wedge_degree_overflow():
    a = form(4, [("e12f12", 1)])
    with pytest.raises(DegreeError):
        wedge(a, a)


def test_wedge_graded_anticommutativity(rng):
    for _ in range(200):
        p = rng.randint(0, 3)
        q = rng.randint(0, 6 - p)
        a = random_form(rng, p)
        b = random_form(rng, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a).scale(Fraction((-1) ** (p * q)))
        assert lhs == rhs


def test_wedge_associativity_and_bilinearity(rng):
    for _ in range(100):
        a = random_form(rng, rng.randint(0, 2))
        b = random_form(rng, rng.randint(0, 2))
        c = random_form(rng, rng.randint(0, 2))
        if a.degree + b.degree + c.degree > 6:
            continue
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert wedge(a.scale(s) + a, b) == wedge(a, b).scale(s + 1)


def test_wedge_matches_dense_oracle(rng):
    for _ in range(60):
        p = rng.randint(1, 3)
        q = rng.randint(1, min(3, 6 - p))
        a = random_form(rng, p, density=0.5)
        b = random_form(rng, q, density=0.5)
        kd, dense = oracles.dense_wedge(*oracles.dense_from_sparse(a), *oracles.dense_from_sparse(b))
        assert oracles.dense_equal_sparse(kd, dense, wedge(a, b))


def test_contract_antiderivation(rng):
    for _ in range(200):
        p = rng.randint(1, 3)
        q = rng.randint(1, min(3, 6 - p))
        a = random_form(rng, p, density=0.5)
        b = random_form(rng, q, density=0.5)
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + wedge(a, contract(v, b)).scale(
            Fraction((-1) ** p)
        )
        assert lhs == rhs


def test_contract_matches_dense_oracle(rng):
    for _ in range(60):
        p = rng.randint(1, 4)
        a = random_form(rng, p, density=0.5)
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))
        kd, dense = oracles.dense_contract(v, *oracles.dense_from_sparse(a))
        assert oracles.dense_equal_sparse(kd, dense, contract(v, a))


def test_mono_written_order_signs():
    assert mono("e12") == (0b000011, 1)
    assert mono("e21") == (0b000011, -1)
    assert mono("e31f2") == (0b010101, -1)
    assert mono("f123") == (0b111000, 1)
    with pytest.raises(ValueError):
        mono("e11")


def test_volume_ratio():
    assert volume_ratio(NU.scale(Fraction(-7, 3))) == Fraction(-7, 3)


# -- exact scalar arithmetic ---------------------------------------------------


def test_scalar_arithmetic_randomized(rng):
    for _ in range(200):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        c = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_quadext_collapses_on_square_radicand():
    x = QuadExt.make(1, 2, Fraction(9, 4))
    assert isinstance(x, Fraction) and x == 4


def test_quadext_field_operations(rng):
    d = Fraction(2)
    for _ in range(100):
        a = QuadExt.make(random.Random(rng.random()).randint(-5, 5), rng.randint(1, 5), d)
        b = QuadExt.make(rng.randint(-5, 5), rng.randint(-5, -1), d)
        prod = a * b
        if not isinstance(prod, Fraction):
            assert (prod / b) == a
        assert (a + b) - b == a


def _no_square_radicand(x) -> bool:
    return not isinstance(x, QuadExt) or (x.b != 0 and not is_square(x.d))


def test_quadext_never_has_a_square_radicand(rng):
    radicands = [Fraction(n, d) for n in range(0, 13) for d in (1, 2, 4, 9)]
    assert any(is_square(d) for d in radicands) and not all(is_square(d) for d in radicands)
    for d in radicands:
        assert _no_square_radicand(sqrt_scalar(d))
        values = [QuadExt.make(rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 3)), d) for _ in range(8)]
        values += [QuadExt.make(1, 1, d), QuadExt.make(0, 1, d), Fraction(2, 3), 0, -1]
        assert all(_no_square_radicand(x) for x in values)
        for x in values:
            for y in values:
                results = [x + y, x - y, x * y, -x]
                if y != 0:
                    results.append(x / y)
                assert all(_no_square_radicand(r) for r in results), (x, y)
                # a value with its irrational part cancelled is a Fraction
                if isinstance(x, QuadExt):
                    assert type(x - x) is Fraction and type(x + QuadExt.make(0, -x.b, d)) is Fraction


def test_quadext_radicand_mismatch():
    with pytest.raises(RadicandMismatchError):
        QuadExt(0, 1, 2) * QuadExt(0, 1, 3)


def test_quadext_sign_decision():
    assert scalar_sign(QuadExt(-1, 1, 2)) == 1  # sqrt(2) > 1
    assert scalar_sign(QuadExt(-2, 1, 2)) == -1
    assert scalar_sign(QuadExt(3, -2, 2)) == 1  # 9 > 8
    assert scalar_sign(QuadExt(2, -1, 5)) == -1  # 4 < 5


def test_sqrt_scalar():
    assert sqrt_scalar(Fraction(9, 16)) == Fraction(3, 4)
    r = sqrt_scalar(Fraction(2))
    assert isinstance(r, QuadExt) and r * r == 2


def test_basis_masks_table_and_fresh_lists():
    for degree in range(-1, 8):
        expected = sorted(m for m in range(64) if bin(m).count("1") == degree)
        got = basis_masks(degree)
        assert got == expected
        got.append(-1)
        assert basis_masks(degree) == expected
    assert len(basis_masks(3)) == 20

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from halfflat import linalg
from halfflat.exterior import KForm, basis_masks


def basis(i: int) -> tuple[Fraction, ...]:
    """The standard basis vector e_i (1-based) of the six-dimensional space."""
    return tuple(Fraction(int(j == i)) for j in range(1, 7))


def random_fraction(rng: random.Random, span: int = 10, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def random_form(rng: random.Random, degree: int, span: int = 10, density: float = 0.7) -> KForm:
    terms = {}
    for mask in basis_masks(degree):
        if rng.random() < density:
            terms[mask] = random_fraction(rng, span)
    return KForm(degree, terms)


def random_unimodular_triangular(rng: random.Random, n: int) -> list[list[Fraction]]:
    """lower * upper for unitriangular factors with entries drawn by ``random_fraction(rng, 2, 2)``, lower first.

    Determinant 1, so always a basis of Q^n; the tests move algebras and forms into it with
    ``change_basis`` and ``exterior.pullback``.
    """
    lower = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = random_fraction(rng, 2, 2)
            upper[j][i] = random_fraction(rng, 2, 2)
    return linalg.mat_mul(lower, upper)


def sparse_gl6(rng: random.Random, entry) -> list[list]:
    """Upper triangular with a nonzero diagonal and three entries above it, all drawn by ``entry``."""
    A = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(6):
        while not A[i][i]:
            A[i][i] = entry()
    for _ in range(3):
        i, j = sorted(rng.sample(range(6), 2))
        A[i][j] = entry()
    return A


def mat_vec(a, v) -> list:
    """The matrix a times the column v."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)

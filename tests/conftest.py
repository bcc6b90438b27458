from __future__ import annotations

import random
from fractions import Fraction

import pytest

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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)

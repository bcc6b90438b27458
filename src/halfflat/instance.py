"""The corpus row model; ``t4`` and ``s2`` are explained in ``corpus``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from . import stable
from .exterior import KForm
from .liealg import LieAlgebra, catalog, direct_sum
from .scalars import Scalar

F = Fraction


@dataclass
class Instance:
    """One fully instantiated corpus row; ``t4`` and ``s2`` default to 1."""

    label: str
    factors: tuple[tuple[str, Fraction | None], tuple[str, Fraction | None]]
    omega: KForm
    rho: KForm
    g0: list[list[Scalar]]
    t4: Scalar = F(1)
    s2: Scalar = F(1)
    expected_kind: str = stable.KIND_SU3
    note: str = ""

    @cached_property
    def algebra(self) -> LieAlgebra:
        """The direct sum of the catalog brackets named by ``factors``."""
        f1, f2 = self.factors
        return direct_sum(catalog(*f1), catalog(*f2))


def metric_matrix(entries: Iterable[tuple[str, str, Scalar]]):
    """Symmetric matrix from printed terms: c x.y adds c/2 off-diagonal."""
    idx = {"e1": 0, "e2": 1, "e3": 2, "f1": 3, "f2": 4, "f3": 5}
    g = [[F(0)] * 6 for _ in range(6)]
    for x, y, c in entries:
        i, j = idx[x], idx[y]
        if i == j:
            g[i][i] = g[i][i] + c
        else:
            half = c * F(1, 2)  # exact for int, Fraction and QuadExt alike
            g[i][j] = g[i][j] + half
            g[j][i] = g[j][i] + half
    return g

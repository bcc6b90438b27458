"""Exact Bianchi/Milnor classification of three-dimensional Lie algebras.

Every invariant is read from the constants in ``LieAlgebra.diffs``.
Unimodular algebras are classified by the sign pattern of Milnor's matrix L
with [u, v] = L(u x v), computed as an exact inertia, with the orientation
flipped when needed so at most one eigenvalue is negative, and looked up in
the sign column of ``liealg.CATALOG_ROWS``.  Non-unimodular algebras are
classified by the determinant D of ad_X on the unimodular kernel, where
tr(ad_X) = 2, as D = (4 - tr(ad_X^2)) / 2, and r3,1 is the case
ad_X^2 = ad_X.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .liealg import CATALOG_ROWS, LieAlgebra
from .scalars import Scalar, is_square, rational_sqrt, scalar_is_zero


@dataclass(frozen=True)
class BianchiClass:
    """Classification result: catalog tag, Bianchi numeral and the invariant."""

    name: str
    eigen_signs: tuple[int, int, int] | None = None
    det_d: Scalar | None = None
    mu: Fraction | None = None

    @property
    def display(self) -> str:
        return CATALOG_ROWS[self.name].display

    @property
    def bianchi(self) -> str:
        return CATALOG_ROWS[self.name].bianchi


def milnor_L(L3: LieAlgebra) -> linalg.Matrix:
    """The unique matrix with [u, v] = L(u x v) in the declared basis.

    The basis is treated as orthonormal with the cross product e1 x e2 = e3;
    the reversed orientation gives -L.  L is symmetric exactly when the
    algebra is unimodular.
    """
    if L3.dim != 3:
        raise ValueError("Milnor endomorphism is defined for dimension three")
    # columns [e2, e3], [e3, e1] = -[e1, e3] and [e1, e2], with [e_a, e_b]^k = -c_ab^k read from d e^k
    return [[-dk.terms.get(0b110, 0), dk.terms.get(0b101, 0), -dk.terms.get(0b011, 0)] for dk in L3.diffs]


def classify(L3: LieAlgebra) -> BianchiClass:
    """Exact isomorphism class of a three-dimensional Lie algebra."""
    if L3.dim != 3:
        raise ValueError("classification is for three-dimensional algebras")
    if L3.is_unimodular():
        return _classify_unimodular(L3)
    return _classify_non_unimodular(L3)


def _classify_unimodular(L3: LieAlgebra) -> BianchiClass:
    m = milnor_L(L3)
    pos, neg, zero = linalg.inertia(m)
    if neg > pos:  # flip the orientation so at most one eigenvalue is negative
        pos, neg = neg, pos
    signs = tuple([1] * pos + [-1] * neg + [0] * zero)
    name = next(tag for tag, row in CATALOG_ROWS.items() if row.signs == (pos, neg))
    return BianchiClass(name=name, eigen_signs=signs)


def _classify_non_unimodular(L3: LieAlgebra) -> BianchiClass:
    """The class read from D = det(ad_X) on the unimodular kernel u, with tr(ad_X) = 2.

    The kernel u of tr(ad) is a plane since tr(ad) != 0.  Every ``LieAlgebra``
    satisfies d^2 = 0, and u is an abelian ideal containing [g, g] (Milnor
    1976, section 6).  So ad_X kills X and maps g into u: in a basis
    (X, u1, u2), ad_X = diag(0, A) with tr A = 2, hence
    tr(ad_X^2) = tr A^2 = 4 - 2 det A, and A = I exactly when ad_X^2 = ad_X.
    """
    tau = L3.trace_ad()
    norm2 = sum((t * t for t in tau), Fraction(0))
    x = [2 * t / norm2 for t in tau]
    ad = linalg.transpose([L3.bracket(x, e) for e in linalg.identity(3)])
    ad2 = linalg.mat_mul(ad, ad)
    d = (4 - sum(ad2[i][i] for i in range(3))) / 2
    if scalar_is_zero(d):
        name = "r2R"
    elif d == 1:
        name = "r31" if linalg.mat_eq(ad2, ad) else "r3"
    elif d < 1:
        name = "r3mu"
    else:
        name = "r3pmu"
    return BianchiClass(name=name, det_d=d, mu=_recover_mu(name, d))


def _recover_mu(name: str, d: Scalar) -> Fraction | None:
    """Invert D on the monotone branches, when the root is rational.

    D = 4 mu / (mu+1)^2 for r3mu and D = 1 + 1/mu^2 for r3pmu.
    """
    if name == "r31":
        return Fraction(1)
    if name == "r3mu":
        disc = 1 - d
        if not is_square(disc):
            return None
        return (2 - d - 2 * rational_sqrt(disc)) / d
    if name == "r3pmu":
        inv = 1 / (d - 1)
        if not is_square(inv):
            return None
        return rational_sqrt(inv)
    return None

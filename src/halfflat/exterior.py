"""Sparse exterior algebra on a fixed six-dimensional real vector space.

Basis covectors are e^1..e^6; on direct sums of three-dimensional algebras
the aliases f^1 = e^4, f^2 = e^5, f^3 = e^6 are used throughout.  A k-form
is stored as a map from index subsets (bitmasks, bit i-1 for index i) to
exact scalar coefficients, subsets always read in increasing order.  Every
ordering sign is read from ``_SIGN``, which ``_wedge_sign`` builds once by
exact transposition counting, so results are bit-for-bit reproducible;
``_D_SPLIT`` splits each monomial into one index and the rest.

The reference volume form is nu = e^123456; all Lambda^6-valued quantities
are reported as rational (or quadratic-extension) multiples of nu.  A vector
is a plain coordinate sequence over the basis e_1..e_6 dual to e^1..e^6.
``pullback(f, A)`` changes coordinates: column j of A is the new basis vector
b_j in old coordinates, and e^i pulls back to sum_j A[i][j] e^j.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import DegreeError
from .scalars import Scalar, scalar_is_zero

DIM = 6
NU_MASK = (1 << DIM) - 1


def _popcount(m: int) -> int:
    return bin(m).count("1")


def _mask_indices(mask: int) -> tuple[int, ...]:
    """Increasing 1-based indices of the set bits."""
    return tuple(i + 1 for i in range(DIM) if mask >> i & 1)


def _wedge_sign(a: int, b: int) -> int:
    """Sign of e^A ^ e^B relative to the sorted union, for disjoint masks."""
    sign = 1
    for i in range(DIM):
        if b >> i & 1:
            # transpositions needed to move index i past the larger ones in a
            if _popcount(a >> (i + 1)) & 1:
                sign = -sign
    return sign


# Precomputed sign table over all pairs of disjoint masks.
_SIGN: dict[tuple[int, int], int] = {}
for _a in range(1 << DIM):
    for _b in range(1 << DIM):
        if _a & _b == 0:
            _SIGN[(_a, _b)] = _wedge_sign(_a, _b)

#: mask M -> ((i, M - i, (-1)^pos), ...) over the bits i of M, pos the place of i in M: e^M = (-1)^pos e^i ^ e^(M - i)
#: and e_i -| e^M = (-1)^pos e^(M - i); d, ``contract``, ``kappa`` and ``stable.K_TABLE`` read it
_D_SPLIT = tuple(
    tuple((i, m ^ 1 << i, _SIGN[(1 << i, m ^ 1 << i)]) for i in range(DIM) if m >> i & 1) for m in range(1 << DIM)
)


class KForm:
    """Alternating k-form with exact sparse coefficients.

    Treated as immutable: no method mutates ``self``; algebra operations
    return fresh instances and zero coefficients are never stored.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[int, Scalar] | None = None):
        if not 0 <= degree <= DIM:
            raise DegreeError(f"degree {degree} out of range 0..{DIM}")
        clean: dict[int, Scalar] = {}
        for mask, coeff in (terms or {}).items():
            if _popcount(mask) != degree:
                raise DegreeError(
                    f"index set {_mask_indices(mask)} has size != {degree}"
                )
            if not scalar_is_zero(coeff):
                # keep plain ints out so that true division stays exact
                clean[mask] = Fraction(coeff) if isinstance(coeff, int) else coeff
        self.degree = degree
        self.terms = clean

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mask: int) -> Scalar:
        return self.terms.get(mask, Fraction(0))

    def coefficients(self, basis: Sequence[int]) -> list[Scalar]:
        return [self.coeff(m) for m in basis]

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return KForm(self.degree, terms)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm(self.degree, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "KForm":
        if scalar_is_zero(c):
            return KForm(self.degree)
        return KForm(self.degree, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, KForm)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            idx = "".join(str(i) for i in _mask_indices(mask))
            bits.append(f"({self.terms[mask]})e{idx}" if idx else f"({self.terms[mask]})")
        return " + ".join(bits)


#: degree -> the masks with that many bits, in increasing order
_MASKS_BY_DEGREE = {k: tuple(m for m in range(1 << DIM) if _popcount(m) == k) for k in range(DIM + 1)}


def basis_masks(degree: int) -> list[int]:
    """All degree-subsets of {1..6} as bitmasks, sorted; a fresh list per call."""
    return list(_MASKS_BY_DEGREE.get(degree, ()))


_MONO_RE = re.compile(r"([ef])(\d+)")


def mono(spec: str) -> tuple[int, int]:
    """Parse a monomial such as 'e23f1' or 'f31' into (mask, sign).

    The letters e and f select index blocks 1-3 and 4-6; digits are wedge
    factors in written order, so 'e31' = e^3 ^ e^1 = -e^13 yields sign -1.
    """
    pos = 0
    order: list[int] = []
    for m in _MONO_RE.finditer(spec):
        if m.start() != pos:
            raise ValueError(f"bad monomial {spec!r}")
        pos = m.end()
        off = 0 if m.group(1) == "e" else 3
        for ch in m.group(2):
            i = int(ch)
            if not 1 <= i <= 3:
                raise ValueError(f"index {i} out of range in {spec!r}")
            order.append(i + off)
    if pos != len(spec) or not order:
        raise ValueError(f"bad monomial {spec!r}")
    if len(set(order)) != len(order):
        raise ValueError(f"repeated index in {spec!r}")
    return sorted_monomial(order)


def sorted_monomial(indices: Sequence[int]) -> tuple[int, int]:
    """(mask, sign) with e^i1 ^ ... ^ e^ik = sign * e^mask, for distinct 1-based indices."""
    mask, sign = 0, 1
    for i in indices:
        bit = 1 << (i - 1)
        sign *= _SIGN[(mask, bit)]
        mask |= bit
    return mask, sign


def form(degree: int, terms: Iterable[tuple[str, Scalar]] = ()) -> KForm:
    """Build a form from (monomial spec, coefficient) pairs."""
    acc: dict[int, Scalar] = {}
    for spec, coeff in terms:
        mask, sign = mono(spec)
        if _popcount(mask) != degree:
            raise DegreeError(f"monomial {spec!r} has degree != {degree}")
        acc[mask] = acc.get(mask, 0) + sign * coeff
    return KForm(degree, acc)


def covector(i: int) -> KForm:
    """The basis one-form e^i."""
    return KForm(1, {1 << (i - 1): Fraction(1)})


NU = KForm(DIM, {NU_MASK: Fraction(1)})


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b."""
    degree = a.degree + b.degree
    if degree > DIM:
        raise DegreeError(f"wedge degree {degree} exceeds {DIM}")
    terms: dict[int, Scalar] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            terms[m] = terms.get(m, 0) + _SIGN[(ma, mb)] * ca * cb
    return KForm(degree, terms)


def wedge_all(forms: Sequence[KForm]) -> KForm:
    out = KForm(0, {0: Fraction(1)})
    for f in forms:
        out = wedge(out, f)
    return out


def pullback(f: KForm, A: Sequence[Sequence[Scalar]]) -> KForm:
    """A*f = f(A ., ..., A .) for a square A whose column j is b_j: e^i pulls back to sum_j A[i][j] e^j."""
    partial = {(mask, 0): c for mask, c in f.terms.items()}  # (factors left, wedge of the images so far): coefficient
    for _ in range(f.degree):  # wedge on the image of each monomial's lowest factor left, signs from _SIGN
        step: dict[tuple[int, int], Scalar] = {}
        for (rest, m), v in partial.items():
            for j, a in enumerate(A[(rest & -rest).bit_length() - 1]):
                if a and not m >> j & 1:
                    key = (rest & rest - 1, m | 1 << j)
                    step[key] = step.get(key, 0) + (v * a if _SIGN[(m, 1 << j)] > 0 else -(v * a))
        partial = step
    return KForm(f.degree, {m: v for (_, m), v in partial.items()})


def contract(v: Sequence[Scalar], a: KForm) -> KForm:
    """Interior product v -| a, an antiderivation of degree -1; v has six components."""
    if a.degree < 1:
        raise DegreeError("cannot contract a 0-form")
    terms: dict[int, Scalar] = {}
    for mask, coeff in a.terms.items():
        for i, rest, sign in _D_SPLIT[mask]:
            if not scalar_is_zero(v[i]):
                terms[rest] = terms.get(rest, 0) + sign * v[i] * coeff
    return KForm(a.degree - 1, terms)


def kappa(xi: KForm) -> tuple[Scalar, ...]:
    """Inverse of X |-> X -| nu on five-forms: the six components of X with X -| nu = xi."""
    if xi.degree != DIM - 1:
        raise DegreeError("kappa is defined on five-forms")
    return tuple(xi.coeff(m) if sign > 0 else -xi.coeff(m) for _, m, sign in _D_SPLIT[NU_MASK])


def volume_ratio(top: KForm) -> Scalar:
    """Coefficient of a six-form relative to nu."""
    if top.degree != DIM:
        raise DegreeError("not a top form")
    return top.coeff(NU_MASK)


def evaluate(a: KForm, vectors: Sequence[Sequence[Scalar]]) -> Scalar:
    """Evaluate a k-form on k vectors (one determinant per term)."""
    k = a.degree
    if len(vectors) != k:
        raise DegreeError("number of vectors must equal the degree")
    total: Scalar = Fraction(0)
    for mask, coeff in a.terms.items():
        rows = _mask_indices(mask)
        sub = [[vectors[c][r - 1] for c in range(k)] for r in rows]
        total = total + coeff * linalg.det(sub)
    return total

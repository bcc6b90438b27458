"""Lie algebras as structure constants with the induced exterior differential.

A Lie algebra of dimension three or six is stored through the differentials
d e^k of its basis covectors; the constants c_ij^k (i < j) are the e^ij
coefficients of d e^k, so antisymmetry is built in and the Jacobi identity
is d^2 = 0.  Construction clears the constants once, by their positive lcm
denominator ``den`` (``scalars.cleared``); every d reads that table through
``exterior._D_SPLIT``, and only ``LieAlgebra.d`` divides by den.  The module
provides the catalog of standard three-dimensional brackets, direct sums,
unimodularity tests, closed-form spaces and basis changes.

``CATALOG_ROWS`` is the catalog, one ``ClassRow`` per tag, and every reader
takes its facts from it: the display name and Bianchi type (``classify3d``'s
report and the ``halfflat catalog`` listing); Milnor's sign pattern, which
``classify3d`` inverts, None exactly for the non-unimodular tags; the terms
of d e^1, d e^2, d e^3 with ``MU`` for mu, which ``catalog`` builds; and for
the families r3mu and r3pmu the rule mu meets, the statement of that rule a
refusal prints, and the classes with their open mu intervals, from which
``catalog_classes`` draws its samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Callable, Mapping, NamedTuple, Sequence

from . import linalg
from .errors import CatalogError, DegreeError, JacobiError, _clipped
from .exterior import _D_SPLIT, _SIGN, DIM, KForm, basis_masks, form
from .scalars import Scalar, cleared, scalar_is_zero, unscaled

#: the e-block e^1..e^3 of a six-dimensional coframe as a monomial mask; the f-block is its shift by 3
E_BLOCK = 0b111


class LieAlgebra:
    """Lie algebra given by the differentials of its basis covectors.

    ``diffs[k-1]`` is d e^k as a two-form.  Every instance satisfies the
    Jacobi identity d^2 = 0: antisymmetry is structural, and construction
    raises ``JacobiError`` on constants that violate d^2 = 0.  ``summands``
    is read from d: in dimension six with no cross terms between the e-block
    e^1..e^3 and the f-block f^1..f^3 it holds the two three-dimensional block
    algebras, otherwise None.  ``den`` is the positive lcm of the constants'
    denominators; construction clears the constants by it once, and every d
    reads that table.  An instance does not change after construction, so
    the closed-form spaces are computed once per degree and cached.
    """

    __slots__ = ("dim", "diffs", "name", "params", "summands", "den", "_closed", "_table")

    def __init__(
        self,
        dim: int,
        diffs: Sequence[KForm],
        name: str = "",
        params: Mapping[str, Fraction] | None = None,
    ):
        if dim not in (3, 6):
            raise ValueError("only dimensions 3 and 6 are supported")
        if len(diffs) != dim:
            raise ValueError("need one differential per basis covector")
        for d in diffs:
            if d.degree != 2:
                raise DegreeError("d of a one-form must be a two-form")
            for mask in d.terms:
                if mask >> dim:
                    raise ValueError("differential uses indices beyond the dimension")
        self.dim = dim
        self.diffs = tuple(diffs)
        self.name = name
        self.params = dict(params or {})
        self._closed: dict[int, tuple[KForm, ...]] = {}
        self.den, values = cleared([c for dk in self.diffs for c in dk.terms.values()])
        it = iter(values)
        self._table = [{m: next(it) for m in dk.terms} for dk in self.diffs] + [{}] * (DIM - dim)
        if not self.check_jacobi():
            raise JacobiError(f"structure constants of {name or 'algebra'} violate d^2 = 0")
        self.summands: tuple[LieAlgebra, LieAlgebra] | None = None
        # row k of d lies in the block of e^k exactly when there are no cross terms
        if dim == 6 and not any(m & ~(E_BLOCK << 3 * (k // 3)) for k, dk in enumerate(diffs) for m in dk.terms):
            hi = [KForm(2, {m >> 3: c for m, c in dk.terms.items()}) for dk in diffs[3:]]
            self.summands = (LieAlgebra(3, diffs[:3]), LieAlgebra(3, hi))

    # -- structure constants ------------------------------------------------

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """[x, y] as its ``dim`` components, using d a (X, Y) = -a([X, Y]).

        x and y are coordinate sequences over e_1..e_dim.  Component k is
        -sum over i < j of c_ij^k (x_i y_j - x_j y_i), the 2x2 minors of
        (x, y) weighted by the constants of d e^k.
        """
        comps = []
        for dk in self.diffs:
            t: Scalar = Fraction(0)
            for mask, c in dk.terms.items():
                i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
                t -= c * (x[i] * y[j] - x[j] * y[i])
            comps.append(t)
        return tuple(comps)

    def trace_ad(self) -> list[Scalar]:
        """tr(ad_{e_m}) = sum_k c_km^k for each basis vector, read from d e^k; zero vector iff unimodular."""
        out: list[Scalar] = [Fraction(0)] * self.dim
        for k, dk in enumerate(self.diffs):
            for mask, c in dk.terms.items():
                if mask >> k & 1:
                    m = (mask & ~(1 << k)).bit_length() - 1
                    out[m] = out[m] + c if k < m else out[m] - c
        return out

    # -- differential --------------------------------------------------------

    def d(self, a: KForm) -> KForm:
        """Exterior differential, the antiderivation extending d on one-forms: ``scaled_d`` divided by den."""
        terms = {m: unscaled(c, self.den) for m, c in self.scaled_d(a.terms).items()}
        return KForm(min(a.degree + 1, DIM), terms)  # Lambda^7 = 0, reported as the zero top form

    def scaled_d(self, terms: Mapping[int, Scalar]) -> dict[int, Scalar]:
        """The terms of den * d a, zeros kept, for the form a with these terms.

        e^M = sign e^i ^ e^rest for each (i, rest, sign) in ``_D_SPLIT[M]``, so
        den * d e^M sums sign * (den * d e^i) ^ e^rest over the cleared table.
        """
        table = self._table
        out: dict[int, Scalar] = {}
        for mask, coeff in terms.items():
            for i, rest, sign in _D_SPLIT[mask]:
                for t, c in table[i].items():
                    if not t & rest:
                        v = c * coeff if sign * _SIGN[(t, rest)] > 0 else -(c * coeff)
                        m = t | rest
                        out[m] = out[m] + v if m in out else v
        return out

    def check_jacobi(self) -> bool:
        """d^2 = 0 on all basis one-forms."""
        return not any(any(self.scaled_d(dk).values()) for dk in self._table)

    # -- predicates ----------------------------------------------------------

    def is_unimodular(self) -> bool:
        """Trace condition: sum_k c_km^k = 0 for every m."""
        return all(scalar_is_zero(t) for t in self.trace_ad())

    # -- constructions -------------------------------------------------------

    def closed_forms(self, k: int) -> tuple[KForm, ...]:
        """Basis of the kernel of d on Lambda^k, by exact elimination of ``d_matrix(k)``.

        One form per free column of the elimination, so the basis is
        independent by construction.  Computed once per degree and shared
        between callers.
        """
        if k not in self._closed:
            masks = [m for m in basis_masks(k) if not m >> self.dim]
            rows = self.d_matrix(k) or [[0] * len(masks)]  # Lambda^(k+1) = 0: every k-form is closed
            self._closed[k] = tuple(KForm(k, {m: c for m, c in zip(masks, vec) if c}) for vec in linalg.nullspace(rows))
        return self._closed[k]

    def d_matrix(self, k: int) -> linalg.Matrix:
        """Matrix of den * d from Lambda^k to Lambda^(k+1), not cached: the images of ``scaled_d``.

        Column j is den * d of the j-th k-monomial and row i the coefficient
        on the i-th (k+1)-monomial, both over the sorted monomials within
        ``dim``: ints for rational constants, integral parts in Q(sqrt D).
        """
        images = [self.scaled_d({m: 1}) for m in basis_masks(k) if not m >> self.dim]
        return [[img.get(om, 0) for img in images] for om in basis_masks(k + 1) if not om >> self.dim]


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """Direct sum with basis order e1,e2,e3,f1,f2,f3 and no cross terms.

    Its ``summands`` are the block algebras read back from d, equal to L1 and
    L2 up to their names and parameters.
    """
    if L1.dim != 3 or L2.dim != 3:
        raise ValueError("direct sums are formed from three-dimensional algebras")
    params = {**{f"{k}1": v for k, v in L1.params.items()},
              **{f"{k}2": v for k, v in L2.params.items()}}
    return LieAlgebra(
        6,
        list(L1.diffs) + [to_block(dk, 1) for dk in L2.diffs],
        name=f"{L1.name}+{L2.name}" if L1.name and L2.name else "",
        params=params,
    )


def to_block(alpha: KForm, block: int) -> KForm:
    """A form of a three-dimensional summand moved to its block of the sum (0 for e, 1 for f)."""
    return KForm(alpha.degree, {m << 3 * block: c for m, c in alpha.terms.items()})


def change_basis(L: LieAlgebra, b_cols: Sequence[Sequence[Scalar]]) -> LieAlgebra:
    """Algebra expressed in the new basis b_j = sum_i b_cols[i][j] e_i.

    ``b_cols`` is the invertible matrix whose columns are the new basis
    vectors in old coordinates.
    """
    n = L.dim
    binv = linalg.invert([list(r) for r in b_cols])
    if binv is None:
        raise ValueError("basis change matrix is singular")
    new_basis = linalg.transpose(b_cols)
    # [b_i, b_j] in new coordinates, once per pair i < j
    brackets = {
        (1 << i) | (1 << j): linalg.mat_vec(binv, L.bracket(new_basis[i], new_basis[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    diffs = []
    for k in range(n):
        # new constants: c'_ij^k = -(new e^k)([b_i, b_j])
        terms: dict[int, Scalar] = {}
        for mask, newc in brackets.items():
            if not scalar_is_zero(newc[k]):
                terms[mask] = -newc[k]
        diffs.append(KForm(2, terms))
    return LieAlgebra(n, diffs, name=L.name, params=L.params)


# -- catalog of standard three-dimensional brackets ---------------------------

#: the placeholder for mu among the coefficients of ``ClassRow.d``
MU = "mu"


class ClassRow(NamedTuple):
    """Everything the catalog knows about one tag; the module docstring says which reader takes which column."""

    display: str
    bianchi: str
    signs: tuple[int, int] | None  # Milnor's sign pattern (n_pos, n_neg) of L; None: not unimodular
    d: tuple[list[tuple[str, int | str]], ...]  # the terms of d e1, d e2, d e3
    rule: Callable[[Fraction], bool] | None  # the mu a family takes; None for a tag without parameter
    statement: str | None  # the rule as its refusal states it
    classes: tuple[tuple[str, int, int | float], ...]  # (class key, open interval of mu) for a family


#: one row per catalog tag, in the listing's order; mu = 1 of r3mu coincides with r3,1
CATALOG_ROWS: dict[str, ClassRow] = {
    "su2": ClassRow("su(2)", "IX", (3, 0), ([("e23", 1)], [("e31", 1)], [("e12", 1)]), None, None, ()),
    "sl2": ClassRow("sl(2,R)", "VIII", (2, 1), ([("e23", 1)], [("e31", 1)], [("e21", 1)]), None, None, ()),
    "e2": ClassRow("e(2)", "VII_0", (2, 0), ([], [("e31", 1)], [("e12", 1)]), None, None, ()),
    "e11": ClassRow("e(1,1)", "VI_0", (1, 1), ([], [("e31", 1)], [("e21", 1)]), None, None, ()),
    "h3": ClassRow("h3", "II", (1, 0), ([], [], [("e12", 1)]), None, None, ()),
    "R3": ClassRow("R^3", "I", (0, 0), ([], [], []), None, None, ()),
    "r2R": ClassRow("r2+R", "III", None, ([], [("e21", 1)], []), None, None, ()),
    "r3": ClassRow("r3", "IV", None, ([], [("e21", 1), ("e31", 1)], [("e31", 1)]), None, None, ()),
    "r31": ClassRow("r3,1", "V", None, ([], [("e21", 1)], [("e31", 1)]), None, None, ()),
    "r3mu": ClassRow("r3,mu", "VI", None, ([], [("e21", 1)], [("e31", MU)]), lambda m: -1 < m < 0 or 0 < m <= 1,
                     "-1 < mu < 0 or 0 < mu <= 1", (("r3mu-", -1, 0), ("r3mu+", 0, 1))),
    "r3pmu": ClassRow("r3',mu", "VII", None, ([], [("e21", MU), ("e13", 1)], [("e21", 1), ("e31", MU)]),
                      lambda m: m > 0, "mu > 0", (("r3pmu", 0, inf),)),
}


def catalog(name: str, mu: Fraction | int | str | None = None) -> LieAlgebra:
    """Standard bracket of the named class, exactly as ``CATALOG_ROWS`` tabulates it.

    A tag with a mu rule requires a rational mu that meets it, and the others take no parameter.
    """
    row = CATALOG_ROWS.get(name)
    if row is None:
        raise CatalogError(f"unknown catalog name {_clipped(name)!r}")
    m = None
    if row.rule is None and mu is not None:
        raise CatalogError(f"{name} takes no parameter")
    if row.rule is not None:
        if mu is None:
            raise CatalogError(f"{name} requires a rational parameter mu")
        try:
            m = Fraction(mu)
        except (ValueError, ZeroDivisionError):
            raise CatalogError(f"{name} requires a rational parameter mu, got {_clipped(mu)!r}") from None
        if not row.rule(m):
            raise CatalogError(f"{name} requires {row.statement}")
    diffs = [form(2, [(mono, m if c == MU else c) for mono, c in terms]) for terms in row.d]
    return LieAlgebra(3, diffs, name=name, params=None if m is None else {"mu": m})


#: default rational sample set for parameterized families
MU_SAMPLES = tuple(
    Fraction(p, q) for p, q in [(-3, 4), (-1, 2), (-1, 4), (1, 4), (1, 2), (3, 4), (1, 1), (2, 1)]
)


@dataclass(frozen=True)
class ClassSpec:
    """One of the twelve isomorphism classes, with its mu sample points.

    The two continuously parameterized Bianchi types count as three classes:
    r3mu with mu < 0, r3mu with 0 < mu < 1, and r3pmu.  mu = 1 is the
    separate class r3,1.
    """

    key: str
    family: str
    mu_samples: tuple[Fraction, ...]

    def instances(self) -> list[LieAlgebra]:
        return [catalog(self.family, m) for m in self.mu_samples or (None,)]


def catalog_classes() -> list[ClassSpec]:
    """The twelve classes underlying the 78 direct-sum classes: a tag, or a family's ``MU_SAMPLES`` in one class."""
    specs = []
    for tag, row in CATALOG_ROWS.items():
        if not row.classes:
            specs.append(ClassSpec(tag, tag, ()))
        specs += [ClassSpec(key, tag, tuple(m for m in MU_SAMPLES if lo < m < hi)) for key, lo, hi in row.classes]
    return specs

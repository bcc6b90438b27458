"""Half-flat verdicts and constructive families of half-flat structures.

A pair (omega, rho) of stable forms on a six-dimensional Lie algebra is
half-flat when d rho = 0, d omega^2 = 0 and omega ^ rho = 0.  ``verify``
evaluates the full exact pipeline and reports stability, compatibility,
normalization, signature and the stabilizer kind.

The constructors cover the orthogonal ansatz on direct sums and the
para-complex construction with rho = e123 + f123 whose eigenspaces are the
two summands.  The ansatz has one frame, written once in ``_frame``:
omega = a e12 + b e1f1 + b e2f2 + e3f3 - a f12 with b = sqrt(1-a^2) and two
three-forms psi0, phi0.  Type I is its a = 0 frame, Hitchin's model pair of
``stable``, and builds the corpus rows T3.1 and T3.2.  The type II cases read
the frame at their a with rho = psi0 - xi2 phi0 (IIb: xi2 = 0) on summands
with d e1, d e2 in span(e13, e23) and d e3 in span(e12) (``_type_II``).

``report_text`` writes every ``name: value`` report of the package (verify,
obstruct, scan, search, classify3d) from its list of fields: a bool as
true/false, and a field whose value is None left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import linalg, stable
from .errors import DomainError, JacobiError, NotStableError
from .exterior import KForm, form, volume_ratio, wedge
from .liealg import E_BLOCK, LieAlgebra, direct_sum
from .scalars import Scalar, is_square, rational_sqrt, scalar_is_zero
from .stable import StructureType


@dataclass
class HalfFlatReport:
    """Machine-readable verdict for one candidate structure.

    The report holds the two closedness bits and the ``StablePair`` the
    type of the pair was read from; everything else reads ``pair``.
    """

    d_rho_zero: bool
    d_omega2_zero: bool
    pair: stable.StablePair

    @property
    def compatible(self) -> bool:
        return self.pair.compatible

    @property
    def structure(self) -> StructureType:
        return self.pair.structure

    @property
    def lam(self) -> Scalar:
        return self.pair.lam

    @property
    def norm_c4(self) -> Scalar | None:
        return self.pair.norm_c4

    @property
    def norm_sign(self) -> int:
        return self.pair.norm_sign

    @property
    def half_flat(self) -> bool:
        return self.d_rho_zero and self.d_omega2_zero and self.compatible and self.structure.is_stabilizer

    def to_text(self) -> str:
        sig = self.structure.signature
        return report_text([
            ("half_flat", self.half_flat),
            ("d_rho_zero", self.d_rho_zero),
            ("d_omega2_zero", self.d_omega2_zero),
            ("compatible", self.compatible),
            ("type", self.structure.kind),
            ("signature", None if sig is None else "({},{},{})".format(*sig)),
            ("lambda", self.lam),
            ("norm_c4", self.norm_c4),
            ("norm_sign", None if self.norm_c4 is None else "+" if self.norm_sign >= 0 else "-"),
        ])


def report_text(fields: Iterable[tuple[str, object]]) -> str:
    """The ``name: value`` lines of a report, one per field in order: a bool as true/false, a None value left out."""
    return "\n".join(f"{name}: {('true' if v else 'false') if isinstance(v, bool) else v}" for name, v in fields
                     if v is not None)


def verify(L: LieAlgebra, omega: KForm, rho: KForm) -> HalfFlatReport:
    """Exact half-flat verdict for (omega, rho) on L."""
    if L.dim != 6:
        raise ValueError("verification runs on six-dimensional algebras")
    pair = stable.StablePair(omega, rho)
    d_rho, d_omega2 = L.scaled_d(rho.terms), L.scaled_d(pair.omega2.terms)  # den * d: the same zero tests
    return HalfFlatReport(d_rho_zero=not any(d_rho.values()), d_omega2_zero=not any(d_omega2.values()), pair=pair)


def plane_checks(pair: stable.StablePair, plane: tuple[KForm, KForm]) -> tuple[bool, bool]:
    """Whether the span of two one-forms is isotropic for the induced metric, and J-invariant.

    ``pair`` is the ``pair`` of a ``verify`` report.  Both checks read the
    rows alpha^T K_rho = sqrt(|lambda|) J*alpha of the plane and stay
    rational by scaling with phi(rho).  Isotropy uses
    alpha ^ J*beta ^ omega^2 = (1/3) g(alpha, beta) omega^3;
    J-invariance checks alpha(K_rho v) = 0 for v annihilating the plane.
    """
    j_rows = [stable.j_matrix_values(pair.K, a) for a in plane]
    j_forms = [KForm(1, {1 << v: x for v, x in enumerate(row)}) for row in j_rows]
    isotropic = all(
        scalar_is_zero(volume_ratio(wedge(wedge(a, jb), pair.omega2))) for a in plane for jb in j_forms
    )
    ann = linalg.nullspace([[a.coeff(1 << i) for i in range(6)] for a in plane])
    invariant = all(
        scalar_is_zero(sum((x * c for x, c in zip(row, vec)), Fraction(0)))
        for vec in ann
        for row in j_rows
    )
    return isotropic, invariant


# -- orthogonal ansatz families -----------------------------------------------


def _frame(a: Fraction, b: Fraction) -> tuple[KForm, KForm, KForm]:
    """(omega, psi0, phi0) of the orthogonal ansatz; a = 0, b = 1 is the type I frame.

    omega = a e12 + b e1f1 + b e2f2 + e3f3 - a f12, and psi0, phi0 are the
    two three-forms the ansatz combines.  At a = 0 the frame is Hitchin's
    model pair with omega = -stable.MODEL_OMEGA and phi0 = -stable.MODEL_RHO.
    """
    omega = form(2, [("e12", a), ("e1f1", b), ("e2f2", b), ("e3f3", 1), ("f12", -a)])
    psi0 = form(
        3,
        [("f123", b), ("e12f3", -b), ("e13f2", 1), ("e23f1", -1), ("e1f13", a), ("e2f23", a)],
    )
    phi0 = form(
        3,
        [("e123", -b), ("e3f12", b), ("e2f13", -1), ("e1f23", 1), ("e13f1", -a), ("e23f2", -a)],
    )
    return omega, psi0, phi0


#: the type I frame (a = 0), built once; its omega is e1f1 + e2f2 + e3f3
_TYPE_I_FRAME = _frame(Fraction(0), Fraction(1))
OMEGA_TYPE_I = _TYPE_I_FRAME[0]


def ortho_type_I(
    L1: LieAlgebra, L2: LieAlgebra, xi1: Scalar, xi2: Scalar
) -> tuple[KForm, KForm]:
    """Type I orthogonal ansatz: omega = sum e^i f^i, psi = xi1 psi0 - xi2 phi0.

    Type I's psi0 = stable.MODEL_RHO and phi0 are -phi0 and psi0 of the
    frame at a = 0.  Requires both summands unimodular (otherwise
    d omega^2 != 0 from the start) and (xi1, xi2) != (0, 0).  The returned
    pair is half-flat exactly when the structure constants satisfy
    xi1 c(g1) = xi2 c(g2) slotwise.
    """
    if not (L1.is_unimodular() and L2.is_unimodular()):
        raise DomainError("type I requires unimodular summands")
    xi1, xi2 = Fraction(xi1), Fraction(xi2)
    if xi1 == 0 and xi2 == 0:
        raise DomainError("(xi1, xi2) must be nonzero")
    omega, psi0, phi0 = _TYPE_I_FRAME
    return omega, phi0.scale(-xi1) + psi0.scale(-xi2)


def type_I_closure_criterion(L1: LieAlgebra, L2: LieAlgebra, xi1, xi2) -> bool:
    """Slotwise criterion xi1 c_jk^i(g1) = xi2 c_jk^i(g2) for d psi = 0."""
    xi1, xi2 = Fraction(xi1), Fraction(xi2)
    return [dk.scale(xi1) for dk in L1.diffs] == [dk.scale(xi2) for dk in L2.diffs]


def _ortho_b(a: Fraction) -> Fraction:
    """b = sqrt(1 - a^2) of the orthogonal ansatz, for -1 < a <= 1 with 1 - a^2 a rational square."""
    if not Fraction(-1) < a <= 1:
        raise DomainError("a must satisfy -1 < a <= 1")
    if not is_square(1 - a * a):
        raise DomainError("1 - a^2 must be a rational square")
    return rational_sqrt(1 - a * a)


def ortho_type_II(case: str, **params) -> tuple[LieAlgebra, KForm, KForm]:
    """Fully substituted type II solutions of the orthogonal ansatz.

    Case IIa (0 < |a| < 1, xi2 != 0): free parameters p, q; both summands
    come out unimodular with eigenvalue pattern {0, +-sqrt(p^2+t^2)}.
    Case IIb (0 < |a| < 1, xi2 = 0): free parameters p, q, r.
    Case IIc (a = 1): free parameters p, q, r (= c_13^1), xi2 and s; the
    Jacobi identity demands one of the two derived constants to vanish.
    In every case both summands have d e1, d e2 in span(e13, e23) and d e3
    in span(e12), and rho = psi0 - xi2 phi0 on the frame at a (``_type_II``).
    """
    if case not in _TYPE_II_CASES:
        raise DomainError(f"unknown case {case!r}")
    return _TYPE_II_CASES[case](**params)


def _type_II(case: str, a: Fraction, b: Fraction, xi2: Fraction, c1, c2) -> tuple[LieAlgebra, KForm, KForm]:
    """(g1 + g2, omega, psi0 - xi2 phi0) on the frame at (a, b); names iia-g1 and so on.

    Each factor is given by its constants (c_13^1, c_23^1, c_13^2, c_23^2, c_12^3):
    d e1 = c_13^1 e13 + c_23^1 e23, d e2 = c_13^2 e13 + c_23^2 e23 and
    d e3 = c_12^3 e12.  Then d^2 e1 = d^2 e2 = 0 and
    d^2 e3 = -c_12^3 (c_13^1 + c_23^2) e123, which IIa (c_12^3 = 0) and IIb
    (c_13^1 + c_23^2 = r - r on g1, c_12^3 = 0 on g2) meet for every parameter.
    """
    try:
        g1, g2 = (
            LieAlgebra(
                3,
                [form(2, [("e13", x1), ("e23", y1)]), form(2, [("e13", x2), ("e23", y2)]), form(2, [("e12", z)])],
                name=f"{case.lower()}-g{k}",
            )
            for k, (x1, y1, x2, y2, z) in ((1, c1), (2, c2))
        )
    except JacobiError as exc:
        raise DomainError(f"case {case} parameters violate the Jacobi identity") from exc
    omega, psi0, phi0 = _frame(a, b)
    return direct_sum(g1, g2), omega, psi0 + phi0.scale(-xi2)


def _ortho_iia(a, xi2, p, q) -> tuple[LieAlgebra, KForm, KForm]:
    a, xi2, p, q = map(Fraction, (a, xi2, p, q))
    b = _ortho_b(a)
    if xi2 == 0 or not 0 < abs(a) < 1:
        raise DomainError("case IIa needs xi2 != 0 and 0 < |a| < 1")
    s = (a * (xi2 * xi2 - 1) * q - (a * a + xi2 * xi2) * p) / (xi2 * (a * a + 1))
    t = -((xi2 * xi2 * a * a + 1) * q + a * (1 - xi2 * xi2) * p) / (xi2 * (a * a + 1))
    return _type_II("IIa", a, b, xi2, (p, t, t, -p, 0), (s, q, q, -s, 0))


def _ortho_iib(a, p, q, r) -> tuple[LieAlgebra, KForm, KForm]:
    a, p, q, r = map(Fraction, (a, p, q, r))
    b = _ortho_b(a)
    if not 0 < abs(a) < 1:
        raise DomainError("case IIb needs 0 < |a| < 1")
    return _type_II("IIb", a, b, Fraction(0), (r, q, p, -r, q - p), (a * q, -a * r, -a * r, -a * p, 0))


def _ortho_iic(xi2, p, q, r, s) -> tuple[LieAlgebra, KForm, KForm]:
    """Case a = 1: constants c_13^1 = r, c_13^2 = p, c_46^4 = s, c_56^4 = q."""
    xi2, p, q, r, s = map(Fraction, (xi2, p, q, r, s))
    c231 = -xi2 * q + xi2 * r + s
    c123 = xi2 * r + s - xi2 * q - p
    c465 = -xi2 * p - xi2 * s - r
    c456 = xi2 * s + xi2 * p + q + r
    # d^2 e^3 = -c123 c456 e^123 on g1 and the same on g2; c_23^2 = a c_45^6 - c_13^1 with a = 1
    return _type_II("IIc", Fraction(1), Fraction(0), xi2, (r, c231, p, c456 - r, c123), (s, q, c465, c123 - s, c456))


_TYPE_II_CASES = {"IIa": _ortho_iia, "IIb": _ortho_iib, "IIc": _ortho_iic}


# -- para-complex construction -------------------------------------------------


def para_eigenspace_pair(
    L1: LieAlgebra, L2: LieAlgebra, omega: KForm
) -> tuple[KForm, KForm, HalfFlatReport]:
    """SL(3,R) pair with rho = e123 + f123 and the summands as eigenspaces.

    ``omega`` must be nondegenerate with zero projections on both
    Lambda^2 g_i*; the result is of kind SL(3,R), and half-flat exactly
    when both summands are unimodular.
    """
    for mask in omega.terms:
        lo, hi = mask & E_BLOCK, mask & ~E_BLOCK
        if lo and not hi or hi and not lo:
            raise DomainError("omega must live in g1* x g2*")
    report = verify(direct_sum(L1, L2), omega, stable.MODEL_RHO_PARA)
    if scalar_is_zero(report.pair.phi_omega):
        raise NotStableError("omega is degenerate")
    return omega, stable.MODEL_RHO_PARA, report

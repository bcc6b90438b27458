"""Stable two- and three-forms in dimension six and their induced geometry.

For a three-form rho the endomorphism K_rho(v) = kappa((v -| rho) ^ rho),
the quartic invariant lambda(rho) = tr(K_rho^2)/6 and, for stable rho
(lambda != 0), the (para-)complex structure J_rho = K_rho / phi(rho) are
computed exactly.  Here phi(rho) is represented as sqrt(|lambda|) times the
reference volume with the positive root; for lambda < 0 the literal square
root does not exist in Lambda^6 and this choice, together with the stated
sign constants EPSILON = -1 (lambda < 0) and EPSILON_PARA = +1 (lambda > 0)
and the orientation branch sign(phi(omega)), absorbs all orientation
conventions.  The tests derive both constants from the two model frames
below, which must induce their standard metrics.

K_rho is quadratic in the coefficients of rho.  ``K_TABLE`` holds that
quadratic map once, derived at import from the wedge sign table: for each
three-mask i and each bit v of i, the (mask j, row u, sign) with
K[u][v] += sign * c_i * c_j, 240 entries in all.  Every K reads it:
``k_matrix`` evaluates it on the coefficients of one form (``Fraction`` or
``QuadExt``); ``k_on_basis`` restricts it once to a span of rational forms,
giving K and, through ``trace_of_square_quartic``, 6 lambda as integer
polynomials in the coordinates on that span (the lambda scan and the
refined checks of ``obstruct`` read these); the float tensor of ``search``
is built from it.  The J values of one-forms read K as well:
alpha ^ (v -| rho) ^ rho = alpha(K_rho v) nu, so ``j_matrix_values`` is
the row alpha^T K.

A compatible (omega ^ rho = 0) pair of stable forms induces the metric
g = eps * omega(. , J_rho .).  The matrix G_raw with
G_raw[u][v] = eps * omega(e_u, K_rho e_v) satisfies g = G_raw/sqrt(|lambda|)
up to the orientation branch, so definiteness and signatures are decided
without leaving the field of the coefficients.  ``StablePair`` is the one
place where K, lambda, omega^2, phi(omega) = omega^2 ^ omega / 6, G_raw and
the structure verdict of a pair are formed, each once; ``structure_type``,
``induced_metric_raw`` and the checks of ``verify`` read them from it.  The
orientation branch is a sign: for norm_sign < 0 the oriented metric is
-G_raw, whose inertia is that of G_raw with p and q swapped.  ``KIND_SIGNS``
gives each kind's (sign of lambda, p, q); ``TARGET_KINDS`` each search target's.

The products of a pair run on integers.  A form f is cleared once by the
positive lcm den of its coefficient denominators (a Q(sqrt D) coefficient
keeps its type, with integral parts): K is formed as den^2 K_rho, and
``StablePair`` clears K once more for 6 lambda and, with omega cleared, for
G_raw.  Each value is divided by its positive scale once, at the end, so no
sign, zero test or symmetry test read from the scaled values changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import NotCompatibleError, NotStableError
from .exterior import _D_SPLIT, _SIGN, DIM, NU_MASK, KForm, basis_masks, form, volume_ratio, wedge
from .scalars import Scalar, cleared, scalar_abs, scalar_is_zero, scalar_sign, unscaled

KIND_SU3 = "SU(3)"
KIND_SU21 = "SU(2,1)"
KIND_SU12 = "SU(1,2)"
KIND_SU03 = "SU(0,3)"
KIND_SL3R = "SL(3,R)"
KIND_NOT_STABLE = "NotStable"
KIND_NOT_COMPATIBLE = "NotCompatible"
KIND_NOT_NORMALIZABLE = "NotNormalizable"

#: stabilizer kind -> (sign of lambda, p, q), the inertia (p, q, 0) of the oriented metric
KIND_SIGNS = {
    KIND_SU3: (-1, 6, 0),
    KIND_SU21: (-1, 4, 2),
    KIND_SU12: (-1, 2, 4),
    KIND_SU03: (-1, 0, 6),
    KIND_SL3R: (1, 3, 3),
}
STABILIZER_KINDS = tuple(KIND_SIGNS)
_KIND_BY_SIGNS = {signs: kind for kind, signs in KIND_SIGNS.items()}

#: search target -> the kinds it accepts; the float metric has no orientation, so su12 takes SU(1,2) either way
TARGET_KINDS = {"su3": (KIND_SU3,), "su12": (KIND_SU12, KIND_SU21), "sl3r": (KIND_SL3R,)}


@dataclass(frozen=True)
class StructureType:
    """Stabilizer kind of a pair of forms plus the exact metric signature."""

    kind: str
    signature: tuple[int, int, int] | None = None

    @property
    def is_stabilizer(self) -> bool:
        return self.kind in STABILIZER_KINDS


def _k_table() -> dict[int, tuple[tuple[int, int, int, int], ...]]:
    """Quadratic table of K_rho: mask i -> entries (v, j, u, sign).

    e_v -| e^i = s_v e^(i - v) and its wedge with a disjoint e^j misses index
    u only; kappa reads that coefficient with s_u.  ``_D_SPLIT`` and ``_SIGN`` give the signs.
    """
    table = {}
    for i in basis_masks(3):
        entries = []
        for v, rest, s_v in _D_SPLIT[i]:
            for j in basis_masks(3):
                if rest & j:
                    continue
                u = (NU_MASK & ~(rest | j)).bit_length() - 1
                s_u = _SIGN[(1 << u, rest | j)]
                entries.append((v, j, u, s_v * _SIGN[(rest, j)] * s_u))
        table[i] = tuple(entries)
    return table


#: K[u][v] = sum over i and (v, j, u, sign) in K_TABLE[i] of sign * c_i * c_j
K_TABLE = _k_table()


def k_matrix(rho: KForm) -> linalg.Matrix:
    """K_rho relative to the reference volume; column j is K_rho(e_j)."""
    if rho.degree != 3:
        raise NotStableError("K is defined for three-forms")
    den, values = cleared(list(rho.terms.values()))
    terms = dict(zip(rho.terms, values))
    K: linalg.Matrix = [[0] * DIM for _ in range(DIM)]
    get = terms.get
    for i, ci in terms.items():
        for v, j, u, sign in K_TABLE[i]:
            cj = get(j)
            if cj is not None:
                if sign > 0:
                    K[u][v] += ci * cj
                else:
                    K[u][v] -= ci * cj
    return [[unscaled(x, den * den) for x in row] for row in K]


def trace_of_square(K: linalg.Matrix) -> Scalar:
    """tr(K^2), which is 6 lambda for K = K_rho; an int for an int matrix."""
    diag = off = 0
    for i in range(DIM):
        row = K[i]
        diag += row[i] * row[i]
        for j in range(i + 1, DIM):
            off += row[j] * K[j][i]
    return diag + 2 * off


#: K_rho on rho = sum_a n_a z_a as integer quadratic forms {(u, v): {(a, b): c}}, a <= b
KQuadratic = dict[tuple[int, int], dict[tuple[int, int], int]]


def k_on_basis(basis: Sequence[KForm]) -> KQuadratic:
    """K_rho for rho = sum_a n_a basis[a], as exact integer quadratic forms in n.

    The rational three-forms of ``basis`` are cleared to integers by the
    positive lcm ``den`` of their denominators, so the forms give K of
    den * rho, which is den^2 K_rho: no sign and no zero test changes.
    Entry (u, v) maps (a, b) with a <= b to the coefficient of n_a n_b;
    zero coefficients and zero entries are left out.
    """
    values = iter(cleared([c for z in basis for c in z.terms.values()])[1])
    columns: dict[int, list[tuple[int, int]]] = {}
    for a, z in enumerate(basis):
        for m in z.terms:
            columns.setdefault(m, []).append((a, next(values)))
    forms: KQuadratic = {}
    for i, col_i in columns.items():
        for v, j, u, sign in K_TABLE[i]:
            col_j = columns.get(j)
            if col_j is None:
                continue
            q = forms.setdefault((u, v), {})
            for a, ca in col_i:
                for b, cb in col_j:
                    key = (a, b) if a <= b else (b, a)
                    q[key] = q.get(key, 0) + sign * ca * cb
    nonzero = {uv: {ab: c for ab, c in q.items() if c} for uv, q in forms.items()}
    return {uv: q for uv, q in nonzero.items() if q}


def trace_of_square_quartic(forms: KQuadratic) -> dict[tuple[int, int, int, int], int]:
    """tr(K^2) = sum over u, v of K[u][v] K[v][u] as one quartic in n.

    ``forms`` is a result of ``k_on_basis``; the quartic maps sorted index
    quadruples to their nonzero integer coefficients.
    """
    quartic: dict[tuple[int, int, int, int], int] = {}
    for (u, v), q in forms.items():
        if u > v:
            continue
        p = forms.get((v, u))
        if p is None:
            continue
        weight = 1 if u == v else 2
        for (a, b), x in q.items():
            for (c, d), y in p.items():
                key = tuple(sorted((a, b, c, d)))
                quartic[key] = quartic.get(key, 0) + weight * x * y
    return {key: c for key, c in quartic.items() if c}


def lambda_of(rho: KForm) -> Scalar:
    """Quartic invariant lambda(rho) = tr(K_rho^2)/6 relative to nu^2."""
    return trace_of_square(k_matrix(rho)) / 6


def _omega_times_k(omega: dict[int, Scalar], K: linalg.Matrix, eps: int) -> linalg.Matrix:
    """eps * Omega @ K for the antisymmetric Omega[u][v] = omega(e_u, e_v), summed over omega's terms."""
    G: linalg.Matrix = [[0] * DIM for _ in range(DIM)]
    for mask, c in omega.items():
        a = (mask & -mask).bit_length() - 1
        b = mask.bit_length() - 1
        if eps < 0:
            c = -c
        Ga, Gb, Ka, Kb = G[a], G[b], K[a], K[b]
        for v in range(DIM):
            Ga[v] += c * Kb[v]
            Gb[v] -= c * Ka[v]
    return G


MODEL_OMEGA = form(2, [("e1f1", Fraction(-1)), ("e2f2", Fraction(-1)), ("e3f3", Fraction(-1))])
#: real part of (e^1 + i f^1) ^ (e^2 + i f^2) ^ (e^3 + i f^3)
MODEL_RHO = form(
    3,
    [("e123", Fraction(1)), ("e3f12", Fraction(-1)), ("e2f13", Fraction(1)), ("e1f23", Fraction(-1))],
)
#: para-complex counterpart: e^123 + f^123 with the same fundamental two-form
MODEL_RHO_PARA = form(3, [("e123", Fraction(1)), ("f123", Fraction(1))])
#: metric sign for lambda < 0: the pseudo-Hermitian model frame (MODEL_OMEGA, MODEL_RHO) induces the identity
EPSILON = -1
#: metric sign for lambda > 0: the para-Hermitian model frame (MODEL_OMEGA, MODEL_RHO_PARA) induces g(e_i, f_i) = 1
EPSILON_PARA = 1


def is_compatible(omega: KForm, rho: KForm) -> bool:
    """Compatibility omega ^ rho = 0, checked exactly."""
    return wedge(omega, rho).is_zero()


def induced_metric_raw(omega: KForm, rho: KForm) -> tuple[linalg.Matrix, int]:
    """Rational metric matrix G_raw with g = G_raw / sqrt(|lambda|), plus EPSILON.

    Symmetry of G_raw is equivalent to compatibility; an asymmetric result
    raises NotCompatibleError.
    """
    pair = StablePair(omega, rho)
    if pair.norm_c4 is None:
        raise NotStableError("both forms must be stable")
    if not pair.symmetric:
        raise NotCompatibleError("omega(., K_rho .) is not symmetric: pair not compatible")
    return pair.G_raw, pair.eps


def structure_type(omega: KForm, rho: KForm) -> StructureType:
    """Full verdict: stability, compatibility, signature and stabilizer kind.

    The orientation is chosen so that phi(rho) = +2 phi(omega) holds after
    normalization; with that branch a positive-definite induced metric is
    reported as SU(3).
    """
    if omega.degree != 2 or rho.degree != 3:
        return StructureType(KIND_NOT_STABLE)
    return StablePair(omega, rho).structure


def j_matrix_values(K: linalg.Matrix, alpha: KForm) -> list[Scalar]:
    """phi-scaled values alpha(K_rho e_v) for v = 1..6: the row alpha^T K for K = K_rho.

    These are sqrt(|lambda|) * (J* alpha)(e_v) = alpha ^ (e_v -| rho) ^ rho / nu,
    rational whenever the inputs are, which lets invariance and isotropy
    checks stay in the base field.
    """
    return [
        sum((c * K[m.bit_length() - 1][v] for m, c in alpha.terms.items()), Fraction(0))
        for v in range(DIM)
    ]


class StablePair:
    """A candidate pair (omega, rho) with K, lambda, omega^2, G_raw and the verdict computed once.

    Wrong degrees raise NotStableError; omega ^ rho = 0 with an asymmetric
    G_raw raises NotCompatibleError.
    """

    __slots__ = (
        "omega",
        "rho",
        "lam",
        "omega2",
        "phi_omega",
        "K",
        "G_raw",
        "eps",
        "norm_c4",
        "norm_sign",
        "symmetric",
        "compatible",
        "structure",
    )

    def __init__(self, omega: KForm, rho: KForm):
        if omega.degree != 2:
            raise NotStableError("phi(omega) is defined for two-forms")
        self.omega = omega
        self.rho = rho
        self.K = k_matrix(rho)
        den_k, flat = cleared([x for row in self.K for x in row])
        K = [flat[i : i + DIM] for i in range(0, DIM * DIM, DIM)]
        den_w, w = cleared(list(omega.terms.values()))
        self.lam = unscaled(trace_of_square(K), 6 * den_k * den_k)
        self.omega2 = wedge(omega, omega)
        self.phi_omega = volume_ratio(wedge(self.omega2, omega)) / 6
        self.eps = EPSILON_PARA if scalar_sign(self.lam) > 0 else EPSILON
        stable = not (scalar_is_zero(self.lam) or scalar_is_zero(self.phi_omega))
        if stable:
            self.norm_c4 = 4 * self.phi_omega * self.phi_omega / scalar_abs(self.lam)
            self.norm_sign = scalar_sign(self.phi_omega)
        else:
            self.norm_c4 = None
            self.norm_sign = 0
        G = _omega_times_k(dict(zip(omega.terms, w)), K, self.eps)
        self.G_raw = [[unscaled(x, den_w * den_k) for x in row] for row in G]
        self.symmetric = linalg.is_symmetric(G)
        wedge_zero = is_compatible(omega, rho)
        self.compatible = self.symmetric and wedge_zero
        self.structure = self._verdict(stable, wedge_zero)

    def __repr__(self) -> str:
        return "StablePair(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def _verdict(self, stable: bool, wedge_zero: bool) -> StructureType:
        if not stable:
            return StructureType(KIND_NOT_STABLE)
        if not wedge_zero:
            return StructureType(KIND_NOT_COMPATIBLE)
        if not self.symmetric:
            raise NotCompatibleError("omega(., K_rho .) is not symmetric: pair not compatible")
        p, q, z = linalg.inertia(self.G_raw)
        if self.norm_sign < 0:
            p, q = q, p
        # z > 0 leaves p + q < 6, which no kind has
        return StructureType(_KIND_BY_SIGNS.get((scalar_sign(self.lam), p, q), KIND_NOT_NORMALIZABLE), (p, q, z))

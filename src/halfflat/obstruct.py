"""Non-existence machinery for half-flat structures on direct sums.

The core obstruction: if g* = V (+) W with dim V = 2 is a coherent
splitting (dV in Lambda^2 V, dW in Lambda^2 V (+) V^W) and every closed
three-form has zero Lambda^3 W component while every closed four-form has
zero Lambda^4 W component, then V is isotropic and J-invariant for every
half-flat pair, which rules out a definite metric.  On direct sums the
splittings come from factor one-forms alpha_i with im(d|g_i*) in
alpha_i ^ g_i*, and the two component conditions reduce to d being
injective on Lambda^3 W and Lambda^4 W.

Two algebras resist the direct rank argument and get refined checks, both
reading entries of K_rho on closed three-forms (alpha ^ (v -| rho) ^ rho is
alpha(K_rho v) nu): h3 (+) r2R through the isotropy of f^1 against every
closed (rho, sigma), and r2R (+) R^3 through K_rho(e_2) being proportional
to e_2 for every closed rho, which forces lambda(rho) >= 0 and rules out
every SU(p,q).
A seeded random scan certifies lambda >= 0 on sampled closed three-forms
for the nine class pairs where that argument applies; the scan falsifies,
it does not prove.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import linalg, stable
from .errors import HalfFlatError
from .exterior import DIM, KForm, Vector, basis_masks, covector, evaluate, mono, wedge, wedge_all
from .liealg import LieAlgebra, catalog
from .scalars import scalar_is_zero

VERDICT_OBSTRUCTED = "NoHalfFlatSU3"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass
class ObstructionReport:
    """Outcome of the splitting obstruction for one decomposition."""

    v_basis: tuple[KForm, KForm]
    w_basis: list[KForm]
    coherent: bool
    h03: bool
    h04: bool
    rank_d_lambda3_w: int
    rank_d_lambda4_w: int
    verdict: str
    detail: str = ""

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"coherent: {str(self.coherent).lower()}",
            f"h03: {str(self.h03).lower()}",
            f"h04: {str(self.h04).lower()}",
            f"rank_d_lambda3W: {self.rank_d_lambda3_w}",
            f"rank_d_lambda4W: {self.rank_d_lambda4_w}",
        ]
        if self.detail:
            lines.append(f"detail: {self.detail}")
        return "\n".join(lines)


def factor_alpha_candidates(L3: LieAlgebra) -> list[KForm]:
    """Closed one-forms alpha with im(d) contained in alpha ^ g*.

    Simple factors admit none; non-abelian solvable factors admit e^1 from
    the standard basis (unique projectively for most classes); for abelian
    factors every one-form qualifies and a small projective grid is
    returned.
    """
    if L3.dim != 3:
        raise ValueError("factor candidates are for three-dimensional algebras")
    if L3.is_abelian():
        grid = []
        coeffs = (Fraction(0), Fraction(1), Fraction(-1))
        for c1 in (Fraction(1),):
            for c2 in coeffs:
                for c3 in coeffs:
                    grid.append(KForm(1, {1: c1, 2: c2, 4: c3}))
        grid += [covector(2), covector(3), covector(2) + covector(3), covector(2) - covector(3)]
        return grid
    out = []
    for alpha in (covector(1), covector(2), covector(3)):
        if _alpha_works(L3, alpha):
            out.append(alpha)
    return out


def _alpha_works(L3: LieAlgebra, alpha: KForm) -> bool:
    if not L3.d(alpha).is_zero():
        return False
    # beta in alpha ^ g*  <=>  beta ^ alpha = 0 (two-forms on a 3-space)
    return all(wedge(dk, alpha).is_zero() for dk in L3.diffs)


def coherent_splittings(L: LieAlgebra) -> list[tuple[KForm, KForm]]:
    """Factor-wise coherent splittings V = span(alpha1, alpha2) of a direct sum.

    Nonempty exactly when both summands are solvable.
    """
    if L.summands is None:
        raise HalfFlatError("coherent splittings need the direct-sum structure")
    L1, L2 = L.summands
    out = []
    for a1 in factor_alpha_candidates(L1):
        for a2 in factor_alpha_candidates(L2):
            shifted = KForm(1, {m << 3: c for m, c in a2.terms.items()})
            pair = (a1, shifted)
            if is_coherent(L, pair):
                out.append(pair)
    return out


def is_coherent(L: LieAlgebra, v_pair: tuple[KForm, KForm]) -> bool:
    """Exact coherence of the splitting spanned by two one-forms.

    dV in Lambda^2 V and dW in Lambda^2 V (+) V ^ W, checked on an adapted
    basis; for V = span(alpha1, alpha2) this is closedness of the alphas
    plus d e^k ^ alpha1 ^ alpha2 = 0 for every generator.
    """
    a1, a2 = v_pair
    if not (L.d(a1).is_zero() and L.d(a2).is_zero()):
        return False
    vv = wedge(a1, a2)
    if vv.is_zero():
        return False
    return all(wedge(dk, vv).is_zero() for dk in L.diffs)


def _complete_to_basis(v_pair: tuple[KForm, KForm]) -> list[KForm]:
    """Standard coframe elements completing span(v_pair) to a basis."""
    rows = [[a.coeff(1 << i) for i in range(DIM)] for a in v_pair]
    _, pivots = linalg.rref(rows)
    return [covector(i + 1) for i in range(DIM) if i not in pivots]


def _dual_frame(coframe: list[KForm]) -> list[Vector]:
    """Vectors dual to a coframe, given as one-forms in the standard basis."""
    c_mat = [[c.coeff(1 << i) for i in range(DIM)] for c in coframe]
    inv = linalg.invert(c_mat)
    if inv is None:
        raise HalfFlatError("coframe is not a basis")
    return [Vector(tuple(col)) for col in linalg.transpose(inv)]


def _pure_w_vanishes(forms_in: list[KForm], duals: list[Vector]) -> bool:
    """True when every k-form has zero Lambda^k W component.

    W is spanned by the coframe elements after the first two (the V slots);
    the coefficient on w^I is the form evaluated on the dual vectors of I, so
    only the pure-W subsets of the last four slots are evaluated.
    """
    if not forms_in:
        return True
    subsets = list(combinations(duals[2:], forms_in[0].degree))
    return all(scalar_is_zero(evaluate(f, list(s))) for f in forms_in for s in subsets)


def check_obstruction(L: LieAlgebra, v_pair: tuple[KForm, KForm]) -> ObstructionReport:
    """Evaluate the splitting obstruction for V = span(v_pair).

    Computes both the component conditions on Z^3 and Z^4 directly and the
    equivalent injectivity ranks of d on Lambda^3 W and Lambda^4 W; the two
    routes are asserted to agree.
    """
    if not is_coherent(L, v_pair):
        raise HalfFlatError("splitting is not coherent")
    w_basis = _complete_to_basis(v_pair)

    # rank route: d restricted to Lambda^3 W and Lambda^4 W
    w3 = [wedge_all(list(t)) for t in combinations(w_basis, 3)]
    w4 = [wedge_all(list(t)) for t in combinations(w_basis, 4)]
    rank3 = _rank_of_images(L, w3, 4)
    rank4 = _rank_of_images(L, w4, 5)

    # direct route: closed forms must have zero pure-W components
    duals = _dual_frame(list(v_pair) + w_basis)
    h03 = _pure_w_vanishes(L.closed_forms(3).basis, duals)
    h04 = _pure_w_vanishes(L.closed_forms(4).basis, duals)
    assert h03 == (rank3 == len(w3)) and h04 == (rank4 == len(w4))

    verdict = VERDICT_OBSTRUCTED if (h03 and h04) else VERDICT_INCONCLUSIVE
    return ObstructionReport(
        v_basis=v_pair,
        w_basis=w_basis,
        coherent=True,
        h03=h03,
        h04=h04,
        rank_d_lambda3_w=rank3,
        rank_d_lambda4_w=rank4,
        verdict=verdict,
    )


def _rank_of_images(L: LieAlgebra, forms_in: list[KForm], out_degree: int) -> int:
    masks = basis_masks(out_degree)
    rows = [L.d(f).coefficients(masks) for f in forms_in]
    return linalg.rank(rows)


# -- refined arguments ----------------------------------------------------------


def _is_standard(L: LieAlgebra, names: tuple[str, str]) -> bool:
    if L.summands is None:
        return False
    want = [catalog(n) for n in names]
    return all(s.diffs == w.diffs for s, w in zip(L.summands, want))


def refined_h3_r2R(L: LieAlgebra) -> bool:
    """Isotropy obstruction specific to h3 (+) r2R.

    Returns True when (1) f^1 ^ sigma lies in span{f^1 e^12 f^23,
    f^1 e^123 f^3} for every closed four-form sigma and (2) f^1(K_rho e_3)
    and f^1(K_rho f_2) vanish for every closed rho; since
    f^1 ^ (v -| rho) ^ rho = f^1(K_rho v) nu, (2) is the vanishing of two
    entries of K.  Together those force f^1 to be isotropic for every
    half-flat pair, so no half-flat SU(3) exists.
    """
    if not _is_standard(L, ("h3", "r2R")):
        raise HalfFlatError("refined check expects h3 (+) r2R in the standard basis")
    f1 = covector(4)
    span_masks = {mono(s)[0] for s in ("f1e12f23", "f1e123f3")}
    for sigma in L.closed_forms(4).basis:
        prod = wedge(f1, sigma)
        if any(m not in span_masks for m in prod.terms):
            return False
    return _k_entries_vanish(L, ((3, 2), (3, 4)))


def refined_r2R_R3(L: LieAlgebra) -> bool:
    """K_rho(e_2) proportional to e_2 for every closed rho on r2R (+) R^3.

    Together with dim Z^1 = 5 (which the standard basis fixes) this forces
    lambda(rho) = c^2 >= 0 for every closed rho, so no SU(p,q) structure of
    any signature exists.
    """
    if not _is_standard(L, ("r2R", "R3")):
        raise HalfFlatError("refined check expects r2R (+) R^3 in the standard basis")
    return _k_entries_vanish(L, ((u, 1) for u in range(DIM) if u != 1))


def _k_entries_vanish(L: LieAlgebra, entries) -> bool:
    """K_rho[u][v] = 0 for every closed three-form rho and every (u, v) in ``entries``.

    K is quadratic in rho, so checking a basis z_i of Z^3 and all sums
    z_i + z_j polarizes the condition completely.
    """
    entries = tuple(entries)
    z3 = L.closed_forms(3).basis
    for i, j in combinations_with_replacement(range(len(z3)), 2):
        K = stable.k_matrix(z3[i] if i == j else z3[i] + z3[j])
        if not all(scalar_is_zero(K[u][v]) for u, v in entries):
            return False
    return True


# -- randomized certificates -----------------------------------------------------


@dataclass
class ScanReport:
    """Outcome of a seeded random lambda-sign scan; falsification, not proof."""

    algebra: str
    n_samples: int
    seed: int
    all_nonnegative: bool
    first_negative: int | None = None
    note: str = "randomized falsification scan, not a proof"

    def to_text(self) -> str:
        lines = [
            f"algebra: {self.algebra}",
            f"samples: {self.n_samples}",
            f"seed: {self.seed}",
            f"lambda_nonnegative: {str(self.all_nonnegative).lower()}",
        ]
        if self.first_negative is not None:
            lines.append(f"first_negative_sample: {self.first_negative}")
        lines.append(f"note: {self.note}")
        return "\n".join(lines)


def lambda_nonneg_scan(L: LieAlgebra, n_samples: int, seed: int) -> ScanReport:
    """Draw seeded random rational closed three-forms and test lambda >= 0.

    Coefficients are drawn from [-10, 10] rational with denominator 4, one
    per basis element of Z^3.  The basis is cleared to integers once, by
    the positive lcm D of its denominators, so each sample is taken as
    sum n_i * row_i in pure integers with n_i = randint(-40, 40): that is
    4 * D times the drawn rational form.  lambda scales by the fourth power
    of a factor, so the sign of the exact lambda is that of the drawn form.
    """
    rng = random.Random(seed)
    basis = L.closed_forms(3).basis
    masks = basis_masks(3)
    den = math.lcm(*(b.coeff(m).denominator for b in basis for m in masks))
    basis_rows = [[int(b.coeff(m) * den) for m in masks] for b in basis]
    all_nonneg = True
    first_neg = None
    for sample in range(n_samples):
        coeffs = [rng.randint(-10 * 4, 10 * 4) for _ in range(len(basis))]
        row = [sum(c * br[k] for c, br in zip(coeffs, basis_rows)) for k in range(len(masks))]
        K = stable.k_from_terms({m: c for m, c in zip(masks, row) if c}, 0)
        lam6 = stable.trace_of_square(K, 0)
        if lam6 < 0:
            all_nonneg = False
            first_neg = sample
            break
    return ScanReport(
        algebra=L.name or "direct sum",
        n_samples=n_samples,
        seed=seed,
        all_nonnegative=all_nonneg,
        first_negative=first_neg,
    )


def unimodular_no_splitting(L: LieAlgebra, k: int = 50, seed: int = 0) -> bool:
    """Randomized confirmation that no splitting satisfies both conditions.

    For k random decompositions g* = V (+) W exhibit a closed three-form
    with nonzero Lambda^3 W component or a closed four-form with nonzero
    Lambda^4 W component.  True when every sampled decomposition is
    defeated; intended for unimodular sums.
    """
    rng = random.Random(seed)
    z3 = L.closed_forms(3).basis
    z4 = L.closed_forms(4).basis
    defeated = 0
    trials = 0
    while defeated < k and trials < 20 * k:
        trials += 1
        coframe = _random_coframe(rng)
        if coframe is None:
            continue
        duals = _dual_frame(coframe)
        if not (_pure_w_vanishes(z3, duals) and _pure_w_vanishes(z4, duals)):
            defeated += 1
            continue
        return False  # a surviving decomposition: obstruction applies
    return defeated >= k


def _random_coframe(rng: random.Random) -> list[KForm] | None:
    rows = [
        [Fraction(rng.randint(-3, 3)) for _ in range(DIM)] for _ in range(DIM)
    ]
    if linalg.det(rows) == 0:
        return None
    return [KForm(1, {1 << i: r[i] for i in range(DIM)}) for r in rows]

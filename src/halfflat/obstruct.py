"""Non-existence machinery for half-flat structures on direct sums.

The core obstruction: if g* = V (+) W with dim V = 2 is a coherent
splitting (dV in Lambda^2 V, dW in Lambda^2 V (+) V^W) and every closed
three-form has zero Lambda^3 W component while every closed four-form has
zero Lambda^4 W component, then V is isotropic and J-invariant for every
half-flat pair, which rules out a definite metric.  The component
conditions depend on V only: a zero Lambda^k W component says that the
form lies in the ideal I(V) generated by V, whichever complement W is
taken.

On a direct sum g1 (+) g2 the factor-wise coherent splittings are
V = span(alpha1, alpha2) with alpha_i a nonzero element of

    A(g_i) = {alpha in g_i* : d alpha = 0 and d beta ^ alpha = 0 for all beta},

the closed one-forms with im(d) in alpha ^ g_i*.  It is read from the
structure constants alone: the nullspace of d on g_i* stacked with
Milnor's matrix L of g_i (as ``classify3d.milnor_L``), whose entry L[k][j]
is minus the e^123 coefficient of d e^k ^ e^j.  In every
three-dimensional class A(g) is 0 (su2, sl2), a line, span{e^1, e^2} (h3)
or all of g* (R^3), and Aut(g) acts transitively on its lines.  So one
splitting, from the first basis vector of each A(g_i), decides the
obstruction for every basis of either factor.

The ranks of d on Lambda^3 W and Lambda^4 W decide the component
conditions on such a splitting.  W is spanned by the e^i with i outside
the rref pivots of V, and Lambda^k W by the k-monomials on those indices.
As d beta lies in alpha_j ^ g_j* for beta in g_j*, V is closed and d maps
W into V ^ W.  Hence d(Lambda^k W) lies in V ^ Lambda^k W, while d(I(V))
lies in Lambda^2 V ^ Lambda, which meets V ^ Lambda^k W only in 0.  A
closed sigma = sigma_V + sigma_W (sigma_V in I(V), sigma_W in Lambda^k W)
thus has d sigma_W = 0, and every closed k-form has zero Lambda^k W
component exactly when d is injective on Lambda^k W.
``tests/test_obstruct.py`` checks the ranks against the components of a
basis of Z^3 and Z^4 in the adapted coframe.  Coherence, these ranks, A(g)
and every kernel read den * d (``LieAlgebra.scaled_d`` and ``d_matrix``) on
the constants cleared once, at construction, by their lcm denominator den.

Two class pairs resist the rank argument and get refined checks.  Both are
stated without coordinates, through Z^1, [g, g] = ann(Z^1) and entries of
K_rho on closed three-forms (alpha ^ (v -| rho) ^ rho is alpha(K_rho v) nu),
and each checks the hypotheses of its proof only:

- ``refined_h3_r2R(L, a)``, for a one-form a; ``decide`` passes the
  splitting's form of the r2R block of h3 (+) r2R, which spans A(r2R).
  (1) a ^ sigma ^ beta = 0 for every closed four-form sigma and beta in
  Z^1, that is a ^ sigma = X -| nu with X in [g, g]; (2) a(K_rho X) = 0
  for X in [g, g] and every closed rho.  Together they make a isotropic
  for all closed (rho, sigma), which rules out a definite metric.
- ``refined_r2R_R3(L)``, for dim [g, g] = 1, as on r2R (+) R^3:
  beta(K_rho X) = 0 for beta in Z^1 and X in [g, g], so K_rho keeps the
  line [g, g] for every closed rho.  Then K_rho X = c X, and
  K_rho^2 = lambda id (Hitchin) gives lambda(rho) = c^2 >= 0, which rules
  out every SU(p,q).

``decide`` is the whole decision: the splitting, its ranks, then the
refined check of the class pair, with each summand classified once, else
Inconclusive.

``lambda_nonneg_scan`` tests lambda >= 0 on seeded random samples of the
closed three-forms.  Acceptance criterion 4 runs it on 15 class pairs:
R^3, h3 and r2R, each with r3, r3,1, r3,mu for mu < 0 and for mu > 0, and
r3',mu, in 39 sums over the sampled mu.  It samples rather than certifies:
the scan falsifies, it does not prove.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import linalg, stable
from .classify3d import classify
from .errors import HalfFlatError
from .exterior import _SIGN, DIM, NU_MASK, KForm, basis_masks, wedge
from .liealg import LieAlgebra, to_block
from .scalars import Scalar, scalar_is_zero
from .verify import report_text

VERDICT_OBSTRUCTED = "NoHalfFlatSU3"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass
class ObstructionReport:
    """Outcome of the splitting obstruction for one coherent decomposition."""

    rank_d_lambda3_w: int
    rank_d_lambda4_w: int

    @property
    def h03(self) -> bool:
        """Every closed three-form has zero Lambda^3 W component: d is injective on Lambda^3 W."""
        return self.rank_d_lambda3_w == 4

    @property
    def h04(self) -> bool:
        """Every closed four-form has zero Lambda^4 W component: d is injective on Lambda^4 W."""
        return self.rank_d_lambda4_w == 1

    @property
    def verdict(self) -> str:
        return VERDICT_OBSTRUCTED if (self.h03 and self.h04) else VERDICT_INCONCLUSIVE

    def to_text(self) -> str:
        return report_text([
            ("verdict", self.verdict),
            ("coherent", True),
            ("h03", self.h03),
            ("h04", self.h04),
            ("rank_d_lambda3W", self.rank_d_lambda3_w),
            ("rank_d_lambda4W", self.rank_d_lambda4_w),
        ])


def annihilating_forms(L3: LieAlgebra) -> list[KForm]:
    """Basis of A(g) = {alpha : d alpha = 0 and d beta ^ alpha = 0 for every beta}.

    The nonzero elements are the one-forms that can be a factor of a
    coherent splitting.  A(g) is the nullspace of den * d on one-forms
    (``d_matrix(1)``) stacked with den * L, Milnor's matrix read from its
    rows: the e^123 coefficient of d e^k ^ e^j is -L[k][j], so the second
    block of rows spans the conditions d e^k ^ alpha = 0.
    """
    if L3.dim != 3:
        raise ValueError("annihilating forms are for three-dimensional algebras")
    d1 = L3.d_matrix(1)  # rows e^12, e^13, e^23; column k holds den * d e^k
    rows = d1 + [[-d1[2][k], d1[1][k], -d1[0][k]] for k in range(3)]
    return [KForm(1, {1 << i: c for i, c in enumerate(v)}) for v in linalg.nullspace(rows)]


def coherent_splittings(L: LieAlgebra) -> tuple[KForm, KForm] | None:
    """The factor-wise coherent splitting of a direct sum, or None.

    V = span(alpha1, alpha2) from the first basis vector of each A(g_i),
    g_i the e/f blocks of ``L.summands``; every other factor-wise coherent
    splitting gives the same verdict.  There is one exactly when both
    summands are solvable.
    """
    if L.summands is None:
        raise HalfFlatError("algebra is not split over the e/f blocks")
    a1, a2 = (annihilating_forms(s) for s in L.summands)
    if not (a1 and a2):
        return None
    return a1[0], to_block(a2[0], 1)


def is_coherent(L: LieAlgebra, v_pair: tuple[KForm, KForm]) -> bool:
    """Exact coherence of the splitting spanned by two one-forms.

    dV in Lambda^2 V and dW in Lambda^2 V (+) V ^ W, checked on an adapted
    basis; for V = span(alpha1, alpha2) this is closedness of the alphas
    plus d e^k ^ alpha1 ^ alpha2 = d(e^k ^ alpha1 ^ alpha2) = 0 for every
    generator, read from ``LieAlgebra.scaled_d`` and the 2x2 minors of V.
    """
    closed = not any(any(L.scaled_d(a.terms).values()) for a in v_pair)
    minors: dict[int, Scalar] = {}
    for (m1, c1), (m2, c2) in product(v_pair[0].terms.items(), v_pair[1].terms.items()):
        if m1 != m2:
            minors[m1 | m2] = minors.get(m1 | m2, 0) + _SIGN[(m1, m2)] * c1 * c2
    forms = ({m | 1 << k: _SIGN[(1 << k, m)] * c for m, c in minors.items() if not m >> k & 1} for k in range(DIM))
    return closed and any(minors.values()) and not any(any(L.scaled_d(terms).values()) for terms in forms)


def _w_indices(v_pair: tuple[KForm, KForm]) -> list[int]:
    """The 0-based indices i outside the rref pivots of V; their e^i complete V to a basis."""
    pivots = linalg.pivots([[a.coeff(1 << i) for i in range(DIM)] for a in v_pair])
    return [i for i in range(DIM) if i not in pivots]


def check_obstruction(L: LieAlgebra, v_pair: tuple[KForm, KForm]) -> ObstructionReport:
    """The ranks of d on Lambda^3 W and Lambda^4 W for V = span(v_pair).

    W is spanned by the e^i, i outside the rref pivots P of V, and
    Lambda^k W by the k-monomials on those i.  h03 and h04 hold when the
    ranks are full (4 and 1).  They decide only when d maps W into V ^ W, as
    on every factor-wise splitting; an e^P term in d e^i for some i in W,
    that is d e^i ^ e^W != 0, raises HalfFlatError.
    """
    if not is_coherent(L, v_pair):
        raise HalfFlatError("splitting is not coherent")
    w = _w_indices(v_pair)
    vol_w = sum(1 << i for i in w)
    if any(NU_MASK ^ vol_w in L.diffs[i].terms for i in w):
        raise HalfFlatError("d W has a Lambda^2 V component: the ranks do not decide")
    return ObstructionReport(
        rank_d_lambda3_w=_rank_of_d(L, [vol_w ^ (1 << i) for i in w], 3),
        rank_d_lambda4_w=_rank_of_d(L, [vol_w], 4),
    )


def _rank_of_d(L: LieAlgebra, masks: list[int], k: int) -> int:
    """Rank of d on the span of the k-monomials e^m, m in ``masks``, read from ``LieAlgebra.scaled_d``."""
    return linalg.rank([[img.get(m, 0) for m in basis_masks(k + 1)] for img in (L.scaled_d({m: 1}) for m in masks)])


# -- refined arguments ----------------------------------------------------------


def _derived_algebra(L: LieAlgebra) -> linalg.Matrix:
    """Basis of [g, g] = ann(Z^1), for an algebra with nonzero Z^1."""
    rows = [[beta.coeff(1 << i) for i in range(DIM)] for beta in L.closed_forms(1)]
    return linalg.nullspace(rows)


def refined_h3_r2R(L: LieAlgebra, a: KForm) -> bool:
    """Isotropy obstruction for the one-form a, in any basis of either factor.

    On h3 (+) r2R, a is the splitting's form of the r2R block, spanning
    A(r2R).  Returns True when (1) a ^ sigma ^ beta = 0 for every closed
    four-form sigma and beta in Z^1, so a ^ sigma = X -| nu with X in
    [g, g], and (2) a(K_rho X) vanishes for X in [g, g] and every closed
    rho; since a ^ (X -| rho) ^ rho = a(K_rho X) nu, (2) is the vanishing
    of entries of K.  Together those force a to be isotropic for every
    half-flat pair, so no half-flat SU(3) exists.
    """
    z1 = L.closed_forms(1)
    if any(not wedge(wedge(a, sigma), beta).is_zero() for sigma in L.closed_forms(4) for beta in z1):
        return False
    return _k_entries_vanish(L, [(a, x) for x in _derived_algebra(L)])


def refined_r2R_R3(L: LieAlgebra) -> bool:
    """K_rho keeps the line [g, g] for every closed rho, as on r2R (+) R^3.

    True when dim [g, g] = 1 and beta(K_rho X) = 0 for beta in
    Z^1 = ann[g, g] and X in [g, g].  Then K_rho X = c X, and
    K_rho^2 = lambda id forces lambda(rho) = c^2 >= 0 for every closed rho,
    so no SU(p,q) structure of any signature exists.
    """
    derived = _derived_algebra(L)
    return len(derived) == 1 and _k_entries_vanish(L, product(L.closed_forms(1), derived))


def _k_entries_vanish(L: LieAlgebra, entries) -> bool:
    """alpha(K_rho x) = 0 for every closed three-form rho and every (alpha, x) in ``entries``.

    ``entries`` holds (one-form, six-coordinate vector) pairs.  On rho =
    sum_a n_a z_a over a basis z of Z^3, alpha(K_rho x) = sum_{u,v} alpha_u
    x_v K[u][v] is a quadratic form in n (``stable.k_on_basis``); it vanishes
    on Z^3 exactly when each of its coefficients does.
    """
    forms = stable.k_on_basis(L.closed_forms(3))
    for alpha, x in entries:
        total = {}
        for (u, v), q in forms.items():
            w = alpha.coeff(1 << u) * x[v]
            if w:
                for ab, c in q.items():
                    total[ab] = total.get(ab, 0) + w * c
        if not all(scalar_is_zero(c) for c in total.values()):
            return False
    return True


def decide(L: LieAlgebra) -> tuple[str, str]:
    """The verdict on a direct sum and the text that explains it.

    The coherent splitting decides when its ranks are full; otherwise the
    summands are classified, once each, and the refined check of their
    class pair may still obstruct.
    """
    pair = coherent_splittings(L)
    if pair is None:  # both resistant class pairs are solvable
        return VERDICT_INCONCLUSIVE, report_text([("verdict", VERDICT_INCONCLUSIVE), ("coherent_splittings", 0)])
    rep = check_obstruction(L, pair)
    if rep.verdict == VERDICT_OBSTRUCTED:
        return rep.verdict, rep.to_text()
    names = [classify(s).name for s in L.summands]
    detail = None
    if set(names) == {"h3", "r2R"} and refined_h3_r2R(L, pair[names.index("r2R")]):
        detail = "refined isotropy argument for h3 (+) r2R"
    elif set(names) == {"r2R", "R3"} and refined_r2R_R3(L):
        detail = "K_rho(e_2) proportional to e_2, lambda >= 0"
    if detail:
        return VERDICT_OBSTRUCTED, report_text([("verdict", VERDICT_OBSTRUCTED), ("detail", detail)])
    return VERDICT_INCONCLUSIVE, report_text([("verdict", VERDICT_INCONCLUSIVE), ("coherent_splittings", 1)])


# -- randomized certificates -----------------------------------------------------


@dataclass
class ScanReport:
    """Outcome of a seeded random lambda-sign scan; falsification, not proof."""

    algebra: str
    n_samples: int
    seed: int
    first_negative: int | None

    @property
    def all_nonnegative(self) -> bool:
        return self.first_negative is None

    def to_text(self) -> str:
        return report_text([
            ("algebra", self.algebra),
            ("samples", self.n_samples),
            ("seed", self.seed),
            ("lambda_nonnegative", self.all_nonnegative),
            ("first_negative_sample", self.first_negative),
            ("note", "randomized falsification scan, not a proof"),
        ])


def lambda_nonneg_scan(L: LieAlgebra, n_samples: int, seed: int) -> ScanReport:
    """Draw seeded random rational closed three-forms and test lambda >= 0.

    Coefficients are drawn from [-10, 10] rational with denominator 4, one
    per basis element z_a of Z^3, as n_a = randint(-40, 40), read from the
    same stream by the local rejection loop of ``_draws``.  With D the
    positive lcm of the denominators of the basis, 6 lambda of
    sum n_a * D * z_a (that is 4 * D times the drawn rational form) is one
    integer quartic in n, expanded once per call from ``stable.k_on_basis``
    and evaluated on each sample.  lambda scales by the fourth power of a
    factor, so the sign of the quartic is that of lambda of the drawn form.
    A negative n_samples raises ValueError.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    rng = random.Random(seed)
    basis = L.closed_forms(3)
    quartic = list(stable.trace_of_square_quartic(stable.k_on_basis(basis)).items())
    first_neg = None
    for sample in range(n_samples):
        n = _draws(rng, len(basis))
        if sum(c * n[a] * n[b] * n[e] * n[f] for (a, b, e, f), c in quartic) < 0:
            first_neg = sample
            break
    return ScanReport(algebra=L.name or "direct sum", n_samples=n_samples, seed=seed, first_negative=first_neg)


def _draws(rng: random.Random, count: int) -> list[int]:
    """``count`` values of rng.randint(-40, 40) from its stream: getrandbits(7), drawn again from 81 up, minus 40."""
    bits, out = rng.getrandbits, []
    for _ in range(count):
        r = bits(7)
        while r >= 81:
            r = bits(7)
        out.append(r - 40)
    return out

"""Built-in corpus of explicit half-flat structures on direct sums.

Three tables of reference structures are bundled, organized the way the
construction splits the 35 admitting classes:

* table 3: unimodular direct sums (omega = e1f1 + e2f2 + e3f3 throughout,
  the type I frame of ``verify``; rows T3.1 and T3.2 are type I pairs),
* table 4: solvable non-unimodular direct sums,
* table 5: direct sums that are neither solvable nor unimodular,

plus one half-flat SU(1,2) example on r2+R (+) r2+R and one half-flat
SL(3,R) example on r2+R (+) r3.

Printed irrational scale factors on rho (fourth roots) cannot live in the
rational coefficient field, so each row stores rho with the factor
stripped, together with the exact fourth power ``t4`` of the factor; the
verifier then checks the normalization c^4 = t4 instead.  Likewise the
printed metric g = s * G0 (s an irrational positive prefactor, G0 exact)
is verified through the equivalent rational identity
oriented_G_raw = sqrt(|lambda| * s^2) * G0, using entrywise signs and
squares, so no fourth or square roots are ever materialized.  Entries of
table 5 row 7 live in Q(sqrt(2 mu + 1)) and are carried exactly as
quadratic-extension scalars.

The mu-row families of table 5 admit mu by the rule of their catalog tag,
``liealg.CATALOG_ROWS[tag].rule``; the sign of mu splits the rule of r3mu
between its two families.  The rows pairing su2, sl2 or e2 with e(2) or
e(1,1) come in two shapes, one table ``_T3_E_SHAPES`` of rho and metric terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from . import linalg, stable
from .errors import CatalogError
from .exterior import KForm, form
from .liealg import CATALOG_ROWS, MU_SAMPLES, LieAlgebra, catalog, direct_sum
from .scalars import Scalar, scalar_abs, scalar_is_zero, scalar_sign, sqrt_scalar
from .verify import OMEGA_TYPE_I, HalfFlatReport, ortho_type_I, verify

F = Fraction

UNIMODULAR = tuple(tag for tag, row in CATALOG_ROWS.items() if row.signs is not None)


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


@dataclass
class InstanceReport:
    """Exact verification outcome for one corpus instance.

    ``metric_sign`` is the orientation sign under which the printed metric
    matches, or 0 when it matches under none.
    """

    instance: Instance
    report: HalfFlatReport
    metric_sign: int

    @property
    def normalization_ok(self) -> bool:
        return self.report.norm_c4 == self.instance.t4

    @property
    def metric_ok(self) -> bool:
        return self.metric_sign != 0

    @property
    def ok(self) -> bool:
        """Half-flat, normalized, the printed metric, and the expected kind or another of its search target."""
        kinds = {self.report.structure.kind, self.instance.expected_kind}
        kind_ok = len(kinds) == 1 or any(kinds <= set(target) for target in stable.TARGET_KINDS.values())
        return self.report.half_flat and kind_ok and self.normalization_ok and self.metric_ok

    @property
    def residual(self) -> str:
        """What failed, with the offending values; empty when nothing did."""
        rep = self.report
        residuals = []
        if not self.normalization_ok:
            residuals.append(f"c4={rep.norm_c4} expected {self.instance.t4}")
        if not self.metric_ok:
            residuals.append("metric mismatch against printed g")
        if not rep.half_flat:
            residuals.append(
                f"half-flat system failed: drho=0 {rep.d_rho_zero}, "
                f"domega2=0 {rep.d_omega2_zero}, compatible {rep.compatible}, "
                f"type {rep.structure.kind}"
            )
        return "; ".join(residuals)


# -- row builders ---------------------------------------------------------------
# Each builder returns the Instance for given factor tags (and mu where the
# family is parameterized).  Forms are transcribed in written order; the
# monomial parser resolves the signs.

def row_t3_diagonal(h: str) -> Instance:
    L = catalog(h)
    omega, rho = ortho_type_I(L, L, 1, 1)
    return Instance(
        label=f"T3.1[{h}+{h}]",
        factors=((h, None), (h, None)),
        omega=omega,
        rho=rho,
        t4=F(1, 4),
        g0=linalg.identity(6),
    )


def row_t3_abelian(h: str) -> Instance:
    omega, rho = ortho_type_I(catalog(h), catalog("R3"), 0, 1)
    return Instance(
        label=f"T3.2[{h}+R3]",
        factors=((h, None), ("R3", None)),
        omega=omega,
        rho=rho,
        g0=linalg.identity(6),
    )


def row_t3_su2_sl2() -> Instance:
    rho = form(
        3,
        [
            ("e123", F(1, 2)),
            ("e23f1", 1),
            ("e31f2", 1),
            ("e12f3", 1),
            ("e1f23", -1),
            ("e2f31", -1),
            ("e3f12", 1),
            ("f123", -2),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(3, 2)),
            ("e2", "e2", F(3, 2)),
            ("e3", "e3", F(1, 2)),
            ("f1", "f1", F(1)),
            ("f2", "f2", F(1)),
            ("f3", "f3", F(3)),
            ("e1", "f1", F(2)),
            ("e2", "f2", F(2)),
            ("e3", "f3", F(-2)),
        ]
    )
    return Instance(
        label="T3.3[su2+sl2]",
        factors=(("su2", None), ("sl2", None)),
        omega=OMEGA_TYPE_I,
        rho=rho,
        t4=F(2),
        s2=F(2),
        g0=g0,
    )


#: the two shapes of the rows pairing su2, sl2 or e2 with e(2) or e(1,1): (rho terms, printed metric terms);
#: su2+e2 and sl2+e11 take the first, sl2+e2, su2+e11 and e2+e11 the second
_T3_E_SHAPES = (
    (
        [("e23f1", -1), ("e31f2", -1), ("e12f3", -1), ("e2f31", 1), ("e3f12", 1), ("f123", 1)],
        [("e1", "e1", F(1)), ("e2", "e2", F(1)), ("e3", "e3", F(1)), ("f1", "f1", F(2)), ("f2", "f2", F(1)),
         ("f3", "f3", F(1)), ("e1", "f1", F(-2))],
    ),
    (
        [("e23f1", -2), ("e31f2", -1), ("e12f3", -1), ("e2f31", 1), ("e3f12", -1), ("f123", 1)],
        [("e1", "e1", F(1)), ("e2", "e2", F(2)), ("e3", "e3", F(2)), ("f1", "f1", F(1)), ("f2", "f2", F(1)),
         ("f3", "f3", F(1)), ("e2", "f2", F(2)), ("e3", "f3", F(-2))],
    ),
)


def row_t3_simple_euclid(pair: tuple[str, str]) -> Instance:
    """Rows pairing a unimodular factor with e(2) or e(1,1), in the shape ``_T3_E_SHAPES`` gives the pair."""
    rho, g = _T3_E_SHAPES[pair not in (("su2", "e2"), ("sl2", "e11"))]
    return Instance(
        label=f"T3[{pair[0]}+{pair[1]}]",
        factors=((pair[0], None), (pair[1], None)),
        omega=OMEGA_TYPE_I,
        rho=form(3, rho),
        g0=metric_matrix(g),
    )


def row_t3_heisenberg(h: str, sign: int) -> Instance:
    """Rows h + h3: sign +1 for su2/e2, -1 for sl2/e11."""
    rho = form(
        3,
        [
            ("e23f1", -1),
            ("e31f2", F(-5, 4)),
            ("e12f3", -1),
            ("e3f12", sign),
            ("f123", 1),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(5, 4)),
            ("e2", "e2", F(1)),
            ("e3", "e3", F(5, 4)),
            ("f1", "f1", F(1)),
            ("f2", "f2", F(5, 4)),
            ("f3", "f3", F(1)),
            ("e1", "f1", -sign),
            ("e2", "f2", -sign),
            ("e3", "f3", sign),
        ]
    )
    return Instance(
        label=f"T3[{h}+h3]",
        factors=((h, None), ("h3", None)),
        omega=OMEGA_TYPE_I,
        rho=rho,
        g0=g0,
    )


def row_t4_e2() -> Instance:
    omega = form(2, [("e12", 1), ("e3f1", 1), ("f23", -1)])
    rho = form(3, [("e23f3", 1), ("e2f21", 1), ("e13f2", 1), ("e1f31", -1)])
    return Instance(
        label="T4.1[e2+r2R]",
        factors=(("e2", None), ("r2R", None)),
        omega=omega,
        rho=rho,
        g0=linalg.identity(6),
    )


def row_t4_e11() -> Instance:
    omega = form(2, [("e1f3", -1), ("e3f2", -1), ("e2f1", 1), ("f23", -1)])
    rho = form(
        3,
        [
            ("e23f3", 1),
            ("e31f1", -2),
            ("e12f2", 1),
            ("e1f31", -3),
            ("e3f12", -1),
            ("f123", 2),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(2)),
            ("e2", "e2", F(1)),
            ("e3", "e3", F(2)),
            ("f1", "f1", F(1)),
            ("f2", "f2", F(1)),
            ("f3", "f3", F(5)),
            ("e1", "f2", F(-2)),
            ("e3", "f3", F(-6)),
        ]
    )
    return Instance(
        label="T4.2[e11+r2R]",
        factors=(("e11", None), ("r2R", None)),
        omega=omega,
        rho=rho,
        g0=g0,
    )


def row_t5_simple_r2R(h: str) -> Instance:
    omega = form(2, [("e1f1", 1), ("f23", -1), ("e2f2", 1), ("e3f3", 1)])
    rho = form(
        3,
        [("e23f1", 1), ("e31f2", 1), ("e12f3", 1), ("e2f12", 1), ("f123", -1)],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(1)),
            ("e2", "e2", F(1)),
            ("e3", "e3", F(1)),
            ("f1", "f1", F(1)),
            ("f2", "f2", F(2)),
            ("f3", "f3", F(1)),
            ("e3", "f2", F(-2)),
        ]
    )
    return Instance(
        label=f"T5.1[{h}+r2R]",
        factors=((h, None), ("r2R", None)),
        omega=omega,
        rho=rho,
        g0=g0,
    )


def row_t5_su2_r3() -> Instance:
    omega = form(2, [("f23", 1), ("e23", 1), ("e1f1", 2)])
    rho = form(
        3,
        [("e31f2", 1), ("e12f3", -1), ("e2f31", -1), ("e3f31", 1), ("e2f12", 1)],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(2)),
            ("e2", "e2", F(1)),
            ("e3", "e3", F(1)),
            ("f1", "f1", F(2)),
            ("f2", "f2", F(1)),
            ("f3", "f3", F(1)),
            ("e1", "f1", F(2)),
            ("e2", "e3", F(-1)),
            ("f2", "f3", F(1)),
        ]
    )
    return Instance(
        label="T5.2[su2+r3]",
        factors=(("su2", None), ("r3", None)),
        omega=omega,
        rho=rho,
        t4=F(16, 3),
        s2=F(4, 3),
        g0=g0,
    )


def row_t5_sl2_r3() -> Instance:
    omega = form(2, [("e1f1", 1), ("f23", -2), ("e3f3", 1), ("e2f2", 1)])
    rho = form(
        3,
        [
            ("e23f1", F(1, 3)),
            ("e31f2", 3),
            ("e31f3", 1),
            ("e12f2", 1),
            ("e12f3", F(4, 3)),
            ("e2f31", -4),
            ("e3f31", F(7, 3)),
            ("e2f12", 3),
            ("e3f12", -1),
            ("f123", -26),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(3)),
            ("e2", "e2", F(4, 9)),
            ("e3", "e3", F(1)),
            ("f1", "f1", F(17, 3)),
            ("f2", "f2", F(94)),
            ("f3", "f3", F(328, 9)),
            ("e1", "f1", F(-8)),
            ("e2", "e3", F(-2, 3)),
            ("e2", "f2", F(34, 3)),
            ("e2", "f3", F(16, 9)),
            ("e3", "f2", F(-16)),
            ("e3", "f3", F(-34, 3)),
            ("f2", "f3", F(224, 3)),
        ]
    )
    return Instance(
        label="T5.3[sl2+r3]",
        factors=(("sl2", None), ("r3", None)),
        omega=omega,
        rho=rho,
        g0=g0,
    )


def row_t5_su2_r3mu_pos(mu: Fraction) -> Instance:
    """su2 + r3mu for a positive mu of the r3mu rule."""
    m = Fraction(mu)
    omega = form(2, [("e12", 1 / (m + 1)), ("e3f1", 1), ("f32", -1)])
    rho = form(
        3,
        [("e13f2", 1), ("e23f3", -1), ("e1f13", -m), ("e2f12", -1)],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", m / (m + 1)),
            ("e2", "e2", 1 / (m + 1)),
            ("e3", "e3", F(1)),
            ("f1", "f1", m),
            ("f2", "f2", F(1)),
            ("f3", "f3", m),
        ]
    )
    return Instance(
        label=f"T5.4[su2+r3mu({m})]",
        factors=(("su2", None), ("r3mu", m)),
        omega=omega,
        rho=rho,
        t4=1 / (m * (m + 1) ** 2),
        s2=1 / m,
        g0=g0,
    )


def row_t5_sl2_r3mu_neg(mu: Fraction) -> Instance:
    """sl2 + r3mu for a negative mu of the r3mu rule."""
    m = Fraction(mu)
    omega = form(2, [("e23", 1 / (m + 1)), ("e1f1", 1), ("f32", 1)])
    rho = form(
        3,
        [("e12f3", 1), ("e13f2", -1), ("e2f12", 1), ("e3f13", -m)],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(1)),
            ("e2", "e2", 1 / (m + 1)),
            ("e3", "e3", -m / (m + 1)),
            ("f1", "f1", -m),
            ("f2", "f2", F(1)),
            ("f3", "f3", -m),
        ]
    )
    return Instance(
        label=f"T5.5[sl2+r3mu({m})]",
        factors=(("sl2", None), ("r3mu", m)),
        omega=omega,
        rho=rho,
        t4=1 / (-m * (m + 1) ** 2),
        s2=-1 / m,
        g0=g0,
    )


def row_t5_su2_r3mu_neg(mu: Fraction) -> Instance:
    """su2 + r3mu for a negative mu of the r3mu rule; fully rational row."""
    m = Fraction(mu)
    c = m * (2 * m + 3) / (2 * (m + 1) ** 2)
    omega = form(
        2,
        [
            ("f23", 1),
            ("e3f1", 1),
            ("e23", -c),
            ("e1f1", -1),
            ("e1f3", 1),
            ("e12", c),
            ("e2f2", -(2 * m * m + m - 2) / (2 * (m + 1) ** 2)),
            ("e3f3", 1),
        ],
    )
    w = (2 * m * m + 3 * m + 2) / (2 * (m + 1) ** 2)
    rho = form(
        3,
        [
            ("e23f1", -w),
            ("e23f3", -1 / m),
            ("e13f2", -2),
            ("e12f1", w),
            ("e12f3", -1 / m),
            ("e1f13", -1),
            ("e3f13", -1),
            ("e2f12", 2),
            ("f123", 2),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", -(m * m + m + 1) / (m * (m + 1))),
            ("e2", "e2", -(4 * m**4 + 20 * m**3 + 29 * m * m + 16 * m + 4) / (4 * m * (m + 1) ** 3)),
            ("e3", "e3", -(m * m + m + 1) / (m * (m + 1))),
            ("f1", "f1", -m / (m + 1)),
            ("f2", "f2", (4 + 3 * m) / (m + 1)),
            ("f3", "f3", -(m + 1) / m),
            ("e1", "e3", 2 * (m * m + 1 + 3 * m) / (m * (m + 1))),
            ("e1", "f2", 2 * (m + 2) / (m + 1)),
            ("e2", "f3", -(2 * m * m + 5 * m + 2) / (m * (m + 1))),
            ("e3", "f2", 2 * (m + 2) / (m + 1)),
        ]
    )
    return Instance(
        label=f"T5.6[su2+r3mu({m})]",
        factors=(("su2", None), ("r3mu", m)),
        omega=omega,
        rho=rho,
        g0=g0,
    )


def row_t5_sl2_r3mu_pos(mu: Fraction) -> Instance:
    """sl2 + r3mu for a positive mu of the r3mu rule; coefficients in Q(sqrt(2 mu + 1))."""
    m = Fraction(mu)
    root = sqrt_scalar(2 * m + 1)  # quadratic-extension element for sampled mu
    k = 2 * root / ((m + 1) ** 2)
    omega = form(
        2,
        [
            ("e1f3", k),
            ("e2f1", 1),
            ("f23", 1),
            ("e13", m / (m + 1)),
            ("e1f2", 1),
            ("e3f3", 1),
        ],
    )
    # The e123 coefficient must equal the e1f3 coefficient of omega: that
    # value is pinned jointly by omega ^ rho = 0, by c^4 = 1 and by the
    # metric identity at every sampled mu.  A doubled value fails all three.
    rho = form(
        3,
        [
            ("e123", k),
            ("e23f2", 1),
            ("e13f1", -1),
            ("e12f3", 1 / m),
            ("e3f13", -1),
            ("e1f12", 1),
            ("f123", (m + 1) / m),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", (m**3 + 11 * m * m + 7 * m + 1) / (m * (m + 1) ** 3)),
            ("e2", "e2", (m + 1) / m),
            ("e3", "e3", 2 * m + 1),
            ("f1", "f1", (m + 1) / m),
            ("f3", "f3", (m + 1) / (m * m)),
            ("f2", "f2", (1 + 3 * m + 2 * m * m) / m),
            ("e1", "e3", 6 * root / (m + 1)),
            ("e1", "f2", 2 * root * (3 * m + 1) / (m * (m + 1))),
            ("e1", "f3", 4 * (2 * m + 1) / (m * (m + 1) ** 2)),
            ("e2", "f1", 2 * root / m),
            ("e3", "f2", 4 + 4 * m),
            ("e3", "f3", 2 * root / m),
            ("f2", "f3", 2 * root / m),
        ]
    )
    return Instance(
        label=f"T5.7[sl2+r3mu({m})]",
        factors=(("sl2", None), ("r3mu", m)),
        omega=omega,
        rho=rho,
        g0=g0,
        note=(
            "e123 coefficient of rho taken equal to the e1f3 coefficient of "
            "omega; the doubled value seen in some transcriptions fails "
            "compatibility, normalization and the metric identity"
        ),
    )


def row_t5_su2_r3pmu(mu: Fraction) -> Instance:
    m = Fraction(mu)
    omega = form(2, [("e2f2", 1), ("f23", -2 * m), ("e3f3", 1), ("e1f1", 1)])
    rho = form(
        3,
        [
            ("e23f1", 1),
            ("e31f2", 1),
            ("e12f3", 1),
            ("e2f31", 1),
            ("e3f31", -m),
            ("e2f12", m),
            ("e3f12", 1),
            ("f123", m * m - 1),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(1)),
            ("e2", "e2", F(1)),
            ("e3", "e3", F(1)),
            ("f1", "f1", F(2)),
            ("f2", "f2", m * m + 1),
            ("f3", "f3", m * m + 1),
            ("e1", "f1", F(2)),
            ("e2", "f3", 2 * m),
            ("e3", "f2", -2 * m),
        ]
    )
    return Instance(
        label=f"T5.8[su2+r3pmu({m})]",
        factors=(("su2", None), ("r3pmu", m)),
        omega=omega,
        rho=rho,
        g0=g0,
    )


def row_t5_sl2_r3pmu(mu: Fraction) -> Instance:
    m = Fraction(mu)
    omega = form(2, [("e2f2", 1), ("f23", -2 * m), ("e3f3", 1), ("e1f1", 1)])
    rho = form(
        3,
        [
            ("e23f1", F(1, 2)),
            ("e31f2", 2),
            ("e12f3", 1),
            ("e2f31", 2),
            ("e3f31", m),
            ("e2f12", 2 * m),
            ("e3f12", -1),
            ("f123", -(4 * m * m + F(29, 4))),
        ],
    )
    g0 = metric_matrix(
        [
            ("e1", "e1", F(2)),
            ("e2", "e2", F(1, 2)),
            ("e3", "e3", F(1)),
            ("f1", "f1", F(13, 8)),
            ("f2", "f2", 16 * m * m + F(29, 2)),
            ("f3", "f3", 2 * m * m + F(29, 4)),
            ("e1", "f1", F(3)),
            ("e2", "f2", F(-5)),
            ("e2", "f3", -2 * m),
            ("e3", "f2", -8 * m),
            ("e3", "f3", F(5)),
            ("f2", "f3", -10 * m),
        ]
    )
    return Instance(
        label=f"T5.9[sl2+r3pmu({m})]",
        factors=(("sl2", None), ("r3pmu", m)),
        omega=omega,
        rho=rho,
        g0=g0,
    )


def example_su12() -> Instance:
    """Half-flat SU(1,2) structure on r2R + r2R, signature (2,4) up to sign."""
    omega = form(
        2,
        [("e13", 1), ("e1f2", -1), ("e1f3", 1), ("e2f3", 1), ("f12", -1)],
    )
    rho = form(
        3,
        [
            ("e123", -1),
            ("e12f3", -1),
            ("e12f2", -1),
            ("e13f3", 2),
            ("e2f12", 1),
            ("e3f13", -1),
            ("f123", 1),
        ],
    )
    g0 = metric_matrix(
        [
            ("e2", "e2", F(-1)),
            ("f3", "f3", F(-2)),
            ("e1", "e3", F(2)),
            ("e1", "f2", F(2)),
            ("e1", "f3", F(2)),
            ("e2", "f3", F(-2)),
            ("e3", "f1", F(2)),
            ("f1", "f3", F(2)),
        ]
    )
    return Instance(
        label="EX[su12:r2R+r2R]",
        factors=(("r2R", None), ("r2R", None)),
        omega=omega,
        rho=rho,
        g0=g0,
        expected_kind=stable.KIND_SU12,
    )


def example_sl3r() -> Instance:
    """Half-flat SL(3,R) structure on r2R + r3."""
    omega = form(
        2,
        [("e13", 1), ("e23", -1), ("e1f3", 1), ("e2f2", 1), ("e3f1", -1), ("f13", 2)],
    )
    rho = form(
        3,
        [("e12f3", -2), ("e2f31", -2), ("e3f12", 1), ("e3f31", -1), ("f123", 1)],
    )
    g0 = metric_matrix(
        [
            ("e1", "e3", F(-2)),
            ("e2", "e3", F(2)),
            ("e1", "f3", F(-2)),
            ("e2", "f2", F(-2)),
            ("e3", "f1", F(-2)),
        ]
    )
    return Instance(
        label="EX[sl3r:r2R+r3]",
        factors=(("r2R", None), ("r3", None)),
        omega=omega,
        rho=rho,
        g0=g0,
        expected_kind=stable.KIND_SL3R,
    )


# -- enumeration -----------------------------------------------------------------


def _admits(tag: str, sign: int | None = None):
    """The mu that ``CATALOG_ROWS[tag].rule`` admits, of the given sign if there is one."""
    return lambda m: CATALOG_ROWS[tag].rule(m) and (sign is None or sign * m > 0)


#: the mu-row families of table 5: the mu each admits, by the rule of its catalog tag, and its two row builders;
#: the sign of mu splits the rule of r3mu between two families
_MU_FAMILIES = (
    (_admits("r3mu", 1), (row_t5_su2_r3mu_pos, row_t5_sl2_r3mu_pos)),
    (_admits("r3mu", -1), (row_t5_sl2_r3mu_neg, row_t5_su2_r3mu_neg)),
    (_admits("r3pmu"), (row_t5_su2_r3pmu, row_t5_sl2_r3pmu)),
)


def iter_instances(
    table: int | None = None, mu: Fraction | None = None
) -> list[Instance]:
    """All corpus instances, mu-families instantiated at ``MU_SAMPLES``.

    ``table`` filters on 3, 4 or 5 (0 selects the two worked examples);
    ``mu`` builds every mu-row family that admits it at mu alone, in place of
    the samples, and raises CatalogError when no family admits it or
    ``table`` selects no mu rows (only table 5 has them).
    """
    if mu is not None and table not in (None, 5):
        raise CatalogError(f"table {table} has no mu rows; mu goes with table 5")
    if mu is not None and not any(admits(mu) for admits, _ in _MU_FAMILIES):
        raise CatalogError(f"no mu-row family admits mu = {mu}")
    mus = MU_SAMPLES if mu is None else (mu,)
    out: list[Instance] = []
    if table in (None, 3):
        for h in UNIMODULAR:
            out.append(row_t3_diagonal(h))
            out.append(row_t3_abelian(h))
        out.append(row_t3_su2_sl2())
        for pair in (("su2", "e2"), ("sl2", "e2"), ("su2", "e11"), ("e2", "e11"), ("sl2", "e11")):
            out.append(row_t3_simple_euclid(pair))
        for h, sign in (("su2", 1), ("e2", 1), ("sl2", -1), ("e11", -1)):
            out.append(row_t3_heisenberg(h, sign))
    if table in (None, 4):
        out.append(row_t4_e2())
        out.append(row_t4_e11())
    if table in (None, 5):
        out.append(row_t5_simple_r2R("su2"))
        out.append(row_t5_simple_r2R("sl2"))
        out.append(row_t5_su2_r3())
        out.append(row_t5_sl2_r3())
        for admits, builders in _MU_FAMILIES:
            for m in filter(admits, mus):
                out.extend(build(m) for build in builders)
    if table == 0:
        out.append(example_su12())
        out.append(example_sl3r())
    return out


# -- verification -----------------------------------------------------------------


def verify_instance(inst: Instance) -> InstanceReport:
    """Exact verification of one corpus row.

    Checks the half-flat system, the stabilizer kind, the normalization
    c^4 = t4, and that the oriented rational metric matrix equals
    sqrt(|lambda| s^2) G0 via entrywise signs and squares.  A failure is
    reported with the offending residual rather than silently adjusted.
    """
    rep = verify(inst.algebra, inst.omega, inst.rho)
    return InstanceReport(instance=inst, report=rep, metric_sign=_metric_sign(rep.pair, inst))


def _metric_sign(pair: stable.StablePair, inst: Instance) -> int:
    """The sign under which sqrt(|lambda| s^2) G0 is the oriented G_raw, or 0.

    With c = |lambda| s^2 formed once, a zero G0 entry needs a zero raw entry;
    a nonzero one needs raw^2 = c G0^2 and branch sign(raw) sign(G0) equal to
    that of every other nonzero entry, where the orientation branch is -1 for
    norm_sign < 0.  SU(3) rows admit only +1.
    """
    c = scalar_abs(pair.lam) * inst.s2
    branch = -1 if pair.norm_sign < 0 else 1
    sign = 0
    for raw_row, g0_row in zip(pair.G_raw, inst.g0):
        for x, g in zip(raw_row, g0_row):
            if scalar_is_zero(g):
                if not scalar_is_zero(x):
                    return 0
                continue
            s = branch * scalar_sign(x) * scalar_sign(g)
            if s == 0 or s == -sign or x * x != c * g * g:
                return 0
            sign = s
    if sign < 0 and inst.expected_kind == stable.KIND_SU3:
        return 0
    return sign or 1

"""Corpus rows of table 5 and the two worked examples, re-exported by ``corpus``.

Kept apart from ``corpus.py``: compiled as one unit without a bytecode cache,
the two left about 1 MB of resident memory behind.
"""

from __future__ import annotations

from fractions import Fraction

from . import stable
from .exterior import form
from .instance import Instance, metric_matrix
from .scalars import sqrt_scalar

F = Fraction


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
    """su2 + r3mu for 0 < mu <= 1."""
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
    """sl2 + r3mu for -1 < mu < 0."""
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
    """su2 + r3mu for -1 < mu < 0; fully rational row."""
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
    """sl2 + r3mu for 0 < mu <= 1; coefficients in Q(sqrt(2 mu + 1))."""
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

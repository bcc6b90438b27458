from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from halfflat import corpus, linalg, obstruct, stable
from halfflat import verify as verify_module
from halfflat.classify3d import classify
from halfflat.errors import DomainError
from halfflat.exterior import KForm, contract, covector, form, volume_ratio, wedge
from halfflat.liealg import catalog, catalog_classes, direct_sum
from halfflat.verify import (
    ortho_type_I,
    ortho_type_II,
    para_eigenspace_pair,
    plane_checks,
    type_I_closure_criterion,
    verify,
)

from .conftest import basis

UNIMODULAR = ("su2", "sl2", "e2", "e11", "h3", "R3")


def test_verify_table_row_is_half_flat():
    inst = corpus.row_t4_e2()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    assert rep.half_flat and rep.structure.kind == "SU(3)"


def test_verify_model_pair_on_su2_su2_fails_closedness():
    # d(e1 f23) != 0 on su2 + su2, so the flat model pair is not half-flat
    from halfflat.stable import MODEL_OMEGA, MODEL_RHO

    L = direct_sum(catalog("su2"), catalog("su2"))
    rep = verify(L, MODEL_OMEGA, MODEL_RHO)
    assert not rep.d_rho_zero
    assert not rep.half_flat


def test_verify_report_text_golden():
    inst = corpus.row_t4_e2()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    assert rep.to_text() == (
        "half_flat: true\n"
        "d_rho_zero: true\n"
        "d_omega2_zero: true\n"
        "compatible: true\n"
        "type: SU(3)\n"
        "signature: (6,0,0)\n"
        "lambda: -4\n"
        "norm_c4: 1\n"
        "norm_sign: -"
    )


#: rho of the rows T3.1[h+h] and T3.2[h+R3] as printed in table 3
T3_1_RHO = form(
    3,
    [("e123", 1), ("e1f23", -1), ("e2f31", -1), ("e3f12", -1)]
    + [("e12f3", 1), ("e31f2", 1), ("e23f1", 1), ("f123", -1)],
)
T3_2_RHO = form(3, [("e12f3", 1), ("e31f2", 1), ("e23f1", 1), ("f123", -1)])


def test_type_I_frame_is_the_model_pair():
    su2 = catalog("su2")
    omega, rho = ortho_type_I(su2, su2, 1, 0)
    assert omega == -stable.MODEL_OMEGA and rho == stable.MODEL_RHO
    assert para_eigenspace_pair(su2, su2, omega)[1] == stable.MODEL_RHO_PARA == form(3, [("e123", 1), ("f123", 1)])


def test_ortho_type_I_equal_summands():
    L1 = L2 = catalog("su2")
    omega, rho = ortho_type_I(L1, L2, 1, 1)
    rep = verify(direct_sum(L1, L2), omega, rho)
    assert rep.half_flat and rep.structure.kind == "SU(3)"
    assert omega == form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)]) and rho == T3_1_RHO
    for h in UNIMODULAR:
        assert (corpus.row_t3_diagonal(h).omega, corpus.row_t3_diagonal(h).rho) == (omega, T3_1_RHO)


def test_ortho_type_I_abelian_branch():
    omega, rho = ortho_type_I(catalog("h3"), catalog("R3"), 0, 1)
    L = direct_sum(catalog("h3"), catalog("R3"))
    rep = verify(L, omega, rho)
    assert rep.half_flat
    assert rho == T3_2_RHO
    for h in UNIMODULAR:
        assert (corpus.row_t3_abelian(h).omega, corpus.row_t3_abelian(h).rho) == (omega, T3_2_RHO)


def test_ortho_type_I_different_simple_summands_fail():
    L1, L2 = catalog("su2"), catalog("sl2")
    omega, rho = ortho_type_I(L1, L2, 1, 1)
    rep = verify(direct_sum(L1, L2), omega, rho)
    assert not rep.d_rho_zero


def test_ortho_type_I_rejects_non_unimodular():
    with pytest.raises(DomainError):
        ortho_type_I(catalog("su2"), catalog("r2R"), 1, 1)
    with pytest.raises(DomainError):
        ortho_type_I(catalog("su2"), catalog("su2"), 0, 0)


def test_type_I_closure_criterion_matches_verify():
    xis = [(1, 1), (1, 0), (0, 1), (2, 3), (1, Fraction(-1, 2))]
    for n1, n2 in itertools.combinations_with_replacement(UNIMODULAR, 2):
        L1, L2 = catalog(n1), catalog(n2)
        L = direct_sum(L1, L2)
        for xi1, xi2 in xis:
            omega, rho = ortho_type_I(L1, L2, xi1, xi2)
            rep = verify(L, omega, rho)
            assert rep.half_flat == type_I_closure_criterion(L1, L2, xi1, xi2), (
                n1,
                n2,
                xi1,
                xi2,
            )


def test_ortho_iia_classifies_e11():
    for p, q in ((1, 0), (0, 1), (1, 1), (2, -1)):
        for xi2 in (1, Fraction(-1, 2), 2):
            L, omega, rho = ortho_type_II("IIa", a=Fraction(3, 5), xi2=xi2, p=p, q=q)
            rep = verify(L, omega, rho)
            assert rep.half_flat and rep.structure.kind == "SU(3)"
            g1, g2 = L.summands
            assert classify(g1).name == "e11"
            assert classify(g2).name == "e11"


def test_ortho_iia_abelian_when_pq_zero():
    L, omega, rho = ortho_type_II("IIa", a=Fraction(3, 5), xi2=1, p=0, q=0)
    assert all(dk.is_zero() for dk in L.diffs)
    assert verify(L, omega, rho).half_flat


def test_ortho_iia_domain_errors():
    with pytest.raises(DomainError):
        ortho_type_II("IIa", a=Fraction(3, 5), xi2=0, p=1, q=0)
    with pytest.raises(DomainError):
        ortho_type_II("IIa", a=1, xi2=1, p=1, q=0)
    with pytest.raises(DomainError):
        ortho_type_II("IIa", a=Fraction(1, 3), xi2=1, p=1, q=0)  # b irrational


def test_ortho_iib_d_zero_case():
    # p = q + 1 and r with q(q+1) + r^2 = 0 gives D = 0: g2 = r2R, g1 = e2
    q, r = Fraction(-1, 2), Fraction(1, 2)
    p = q + 1
    L, omega, rho = ortho_type_II("IIb", a=Fraction(3, 5), p=p, q=q, r=r)
    rep = verify(L, omega, rho)
    assert rep.half_flat and rep.structure.kind == "SU(3)"
    g1, g2 = L.summands
    c2 = classify(g2)
    assert c2.name == "r2R" and c2.det_d == 0
    c1 = classify(g1)
    assert c1.name == "e2" and c1.eigen_signs == (1, 1, 0)


def test_ortho_iib_unimodular_iff_p_equals_q():
    L, _, _ = ortho_type_II("IIb", a=Fraction(3, 5), p=2, q=2, r=1)
    g1, g2 = L.summands
    assert g1.is_unimodular() and g2.is_unimodular()
    L2, _, _ = ortho_type_II("IIb", a=Fraction(3, 5), p=2, q=1, r=1)
    assert not L2.summands[1].is_unimodular()


def test_ortho_iic_half_flat_on_jacobi_branch():
    # choose parameters with xi2 s + xi2 p + q + r = 0
    xi2, p, s = Fraction(1), Fraction(1), Fraction(2)
    r = Fraction(1)
    q = -(xi2 * s + xi2 * p + r)
    L, omega, rho = ortho_type_II("IIc", xi2=xi2, p=p, q=q, r=r, s=s)
    rep = verify(L, omega, rho)
    assert rep.half_flat and rep.structure.kind == "SU(3)"


def test_ortho_iic_rejects_non_jacobi_parameters():
    # both derived constants nonzero: c456 = 10, c123 = 4
    with pytest.raises(DomainError):
        ortho_type_II("IIc", xi2=1, p=1, q=2, r=3, s=4)


_NAMES = ("e1", "e2", "e3", "f1", "f2", "f3")


def _named_terms(f: KForm) -> list[tuple[str, str]]:
    """The terms of a form in their stored order, as (monomial, coefficient) strings."""
    return [("^".join(_NAMES[i] for i in range(6) if m >> i & 1), str(c)) for m, c in f.terms.items()]


@pytest.mark.parametrize(
    "case, params, name, diffs, omega, rho",
    [
        (
            "IIa", dict(a=Fraction(3, 5), xi2=2, p=2, q=-1), "iia-g1+iia-g2",
            [[("e1^e3", "2"), ("e2^e3", "151/68")], [("e1^e3", "151/68"), ("e2^e3", "-2")], [],
             [("f1^f3", "-263/68"), ("f2^f3", "-1")], [("f1^f3", "-1"), ("f2^f3", "263/68")], []],
            [("e1^e2", "3/5"), ("e1^f1", "4/5"), ("e2^f2", "4/5"), ("e3^f3", "1"), ("f1^f2", "-3/5")],
            [("f1^f2^f3", "4/5"), ("e1^e2^f3", "-4/5"), ("e1^e3^f2", "1"), ("e2^e3^f1", "-1"),
             ("e1^f1^f3", "3/5"), ("e2^f2^f3", "3/5"), ("e1^e2^e3", "8/5"), ("e3^f1^f2", "-8/5"),
             ("e2^f1^f3", "2"), ("e1^f2^f3", "-2"), ("e1^e3^f1", "6/5"), ("e2^e3^f2", "6/5")],
        ),
        (
            "IIb", dict(a=Fraction(3, 5), p=2, q=1, r=1), "iib-g1+iib-g2",
            [[("e1^e3", "1"), ("e2^e3", "1")], [("e1^e3", "2"), ("e2^e3", "-1")], [("e1^e2", "-1")],
             [("f1^f3", "3/5"), ("f2^f3", "-3/5")], [("f1^f3", "-3/5"), ("f2^f3", "-6/5")], []],
            [("e1^e2", "3/5"), ("e1^f1", "4/5"), ("e2^f2", "4/5"), ("e3^f3", "1"), ("f1^f2", "-3/5")],
            [("f1^f2^f3", "4/5"), ("e1^e2^f3", "-4/5"), ("e1^e3^f2", "1"), ("e2^e3^f1", "-1"),
             ("e1^f1^f3", "3/5"), ("e2^f2^f3", "3/5")],
        ),
        (
            "IIc", dict(xi2=1, p=1, q=-4, r=1, s=2), "iic-g1+iic-g2",
            [[("e1^e3", "1"), ("e2^e3", "7")], [("e1^e3", "1"), ("e2^e3", "-1")], [("e1^e2", "6")],
             [("f1^f3", "2"), ("f2^f3", "-4")], [("f1^f3", "-4"), ("f2^f3", "4")], []],
            [("e1^e2", "1"), ("e3^f3", "1"), ("f1^f2", "-1")],
            [("e1^e3^f2", "1"), ("e2^e3^f1", "-1"), ("e1^f1^f3", "1"), ("e2^f2^f3", "1"),
             ("e2^f1^f3", "1"), ("e1^f2^f3", "-1"), ("e1^e3^f1", "1"), ("e2^e3^f2", "1")],
        ),
    ],
    ids=["IIa", "IIb", "IIc"],
)
def test_ortho_type_II_terms_golden(case, params, name, diffs, omega, rho):
    L, om, rh = ortho_type_II(case, **params)
    assert L.name == name
    assert [_named_terms(dk) for dk in L.diffs] == diffs
    assert _named_terms(om) == omega
    assert _named_terms(rh) == rho


@pytest.mark.parametrize(
    "case, params, message",
    [
        ("IIa", dict(a=2, xi2=1, p=1, q=0), "a must satisfy -1 < a <= 1"),
        ("IIb", dict(a=2, p=1, q=0, r=1), "a must satisfy -1 < a <= 1"),
        ("IIa", dict(a=Fraction(1, 3), xi2=1, p=1, q=0), "1 - a^2 must be a rational square"),
        ("IIb", dict(a=Fraction(1, 3), p=1, q=0, r=1), "1 - a^2 must be a rational square"),
        ("IIa", dict(a=1, xi2=1, p=1, q=0), "case IIa needs xi2 != 0 and 0 < |a| < 1"),
        ("IIa", dict(a=2, xi2=0, p=1, q=0), "a must satisfy -1 < a <= 1"),  # _ortho_b is checked first
        ("IIb", dict(a=0, p=1, q=0, r=1), "case IIb needs 0 < |a| < 1"),
        ("IId", dict(a=Fraction(3, 5)), "unknown case 'IId'"),
        ("IIc", dict(xi2=1, p=1, q=2, r=3, s=4), "case IIc parameters violate the Jacobi identity"),
    ],
)
def test_ortho_type_II_domain_messages(case, params, message):
    with pytest.raises(DomainError) as exc:
        ortho_type_II(case, **params)
    assert str(exc.value) == message


def test_para_eigenspace_pair_unimodular():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    _, rho, rep = para_eigenspace_pair(catalog("su2"), catalog("e11"), omega)
    assert rep.half_flat and rep.structure.kind == "SL(3,R)"


def test_para_eigenspace_pair_non_unimodular_fails_omega2():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    _, _, rep = para_eigenspace_pair(catalog("su2"), catalog("r2R"), omega)
    assert not rep.d_omega2_zero
    assert not rep.half_flat


def test_para_eigenspace_pair_flat():
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    _, _, rep = para_eigenspace_pair(catalog("R3"), catalog("R3"), omega)
    assert rep.half_flat


def test_para_eigenspace_pair_over_all_class_pairs():
    # kind SL(3,R) always; half-flat exactly when both summands are unimodular
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    reps = [spec.instances()[0] for spec in catalog_classes()]
    pairs = list(itertools.product(reps, reps))
    assert len(pairs) == 144
    for L1, L2 in pairs:
        _, _, rep = para_eigenspace_pair(L1, L2, omega)
        assert rep.structure.kind == stable.KIND_SL3R, (L1.name, L2.name)
        assert rep.half_flat == (L1.is_unimodular() and L2.is_unimodular()), (L1.name, L2.name)


def test_para_eigenspace_rejects_bad_omega():
    with pytest.raises(DomainError):
        para_eigenspace_pair(catalog("su2"), catalog("su2"), form(2, [("e12", 1)]))


def test_su12_example_with_isotropic_plane():
    inst = corpus.example_su12()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    assert rep.half_flat
    assert rep.structure.kind in ("SU(1,2)", "SU(2,1)")
    assert rep.structure.signature in ((2, 4, 0), (4, 2, 0))
    assert plane_checks(rep.pair, (covector(1), covector(4))) == (True, True)


def test_sl3r_example():
    inst = corpus.example_sl3r()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    assert rep.half_flat and rep.structure.kind == "SL(3,R)"
    assert rep.structure.signature == (3, 3, 0)


# -- K_rho is formed once per pair ------------------------------------------------


def _count_k_matrix(monkeypatch):
    calls = []
    orig = stable.k_matrix

    def counting(rho):
        calls.append(rho)
        return orig(rho)

    monkeypatch.setattr(stable, "k_matrix", counting)
    return calls


def test_verify_forms_k_once(monkeypatch):
    calls = _count_k_matrix(monkeypatch)
    inst = corpus.row_t4_e2()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    assert rep.half_flat and calls == [inst.rho]
    calls.clear()
    L = direct_sum(catalog("su2"), catalog("su2"))
    omega, rho = ortho_type_I(catalog("su2"), catalog("su2"), 1, 1)
    plane_checks(verify(L, omega, rho).pair, (covector(1), covector(4)))
    assert len(calls) == 1


def test_verify_wedges_omega_squared_once(monkeypatch):
    # omega^2 serves d omega^2, phi(omega) and the plane checks: one wedge (omega, omega) per pair
    squares = []
    for module in (stable, verify_module):
        orig = module.wedge

        def counting(a, b, orig=orig):
            if a is b:
                squares.append(a)
            return orig(a, b)

        monkeypatch.setattr(module, "wedge", counting)
    inst = corpus.row_t4_e2()
    rep = verify(inst.algebra, inst.omega, inst.rho)
    plane_checks(rep.pair, (covector(1), covector(4)))
    assert rep.half_flat and squares == [inst.omega]


def test_verify_instance_forms_k_once(monkeypatch):
    calls = _count_k_matrix(monkeypatch)
    rows = corpus.iter_instances(table=5) + corpus.iter_instances(table=0)
    for inst in rows:
        calls.clear()
        res = corpus.verify_instance(inst)
        assert res.ok, inst.label
        assert calls == [inst.rho], inst.label


# -- plane checks read K_rho ------------------------------------------------------


def _plane_checks_reference(pair, plane):
    """Isotropy and J-invariance of a plane through contractions and wedges only."""
    rho = pair.rho
    omega2 = wedge(pair.omega, pair.omega)

    def j_value(a, v):
        return volume_ratio(wedge(wedge(a, contract(v, rho)), rho))

    isotropic = True
    for a in plane:
        for b in plane:
            jb = KForm(1, {1 << v: j_value(b, basis(v + 1)) for v in range(6)})
            if volume_ratio(wedge(wedge(a, jb), omega2)) != 0:
                isotropic = False
    ann = linalg.nullspace([[a.coeff(1 << i) for i in range(6)] for a in plane])
    invariant = all(j_value(a, vec) == 0 for vec in ann for a in plane)
    return isotropic, invariant


def test_plane_checks_match_wedge_reference():
    planes = [(covector(a), covector(b)) for a, b in ((1, 4), (1, 2), (2, 5), (3, 6), (4, 5))]
    planes += [(covector(1) + covector(4), covector(2) - covector(5)), (covector(1) + 2 * covector(3), covector(6))]
    seen = set()
    for inst in corpus.iter_instances() + corpus.iter_instances(table=0):
        pair = verify(inst.algebra, inst.omega, inst.rho).pair
        assert pair.structure.is_stabilizer, inst.label
        for plane in planes:
            got = plane_checks(pair, plane)
            assert got == _plane_checks_reference(pair, plane), (inst.label, plane)
            seen.add(got)
    # witness planes, invariant non-isotropic planes and neither all occur
    assert {(True, True), (False, True), (False, False)} <= seen


# -- printed reports ----------------------------------------------------------------


def _report_texts() -> list[str]:
    """``to_text`` of every corpus row's verdict, two negative verdicts and two scans."""
    texts = [
        verify(inst.algebra, inst.omega, inst.rho).to_text()
        for inst in corpus.iter_instances() + corpus.iter_instances(table=0)
    ]
    inst = corpus.row_t4_e2()
    # rho with 2 e1^e3^f2 in place of 1 e1^e3^f2 is not closed; e^123 alone is not stable
    texts.append(verify(inst.algebra, inst.omega, inst.rho + form(3, [("e13f2", 1)])).to_text())
    texts.append(verify(inst.algebra, inst.omega, form(3, [("e123", 1)])).to_text())
    for g1, g2 in (("su2", "su2"), ("h3", "r3")):
        L = direct_sum(catalog(g1), catalog(g2))
        texts.append(obstruct.lambda_nonneg_scan(L, 20, seed=1).to_text())
    return texts


#: sha256 of json.dumps(_report_texts()), computed before the reports derived their fields
REPORT_TEXT_GOLDEN = "829764f15976340602fb020ab04073dde1408f957eb9217b66ae2064a22e0b5c"


def test_report_text_golden():
    texts = _report_texts()
    assert len(texts) == 58
    assert "first_negative_sample: 1" in texts[-2] and "lambda_nonnegative: true" in texts[-1]
    assert hashlib.sha256(json.dumps(texts).encode()).hexdigest() == REPORT_TEXT_GOLDEN

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from fractions import Fraction

import pytest

from halfflat import corpus, stable
from halfflat.errors import CatalogError
from halfflat.exterior import form
from halfflat.scalars import QuadExt, scalar_abs, scalar_is_zero, scalar_sign

from .oracles import oriented_metric_raw


def test_all_table_instances_verify_exactly():
    t0 = time.time()
    instances = corpus.iter_instances()
    assert len(instances) == 52
    for inst in instances:
        rep = corpus.verify_instance(inst)
        assert rep.ok, f"{inst.label}: {rep.residual}"
        assert rep.report.structure.kind == "SU(3)"
        assert rep.metric_sign == 1
    assert time.time() - t0 < 10.0


def test_verify_instance_repr_is_reproducible():
    # repr of a report names the StablePair's slots, not an object address
    for inst in corpus.iter_instances()[:6] + corpus.iter_instances(table=0):
        first, second = repr(corpus.verify_instance(inst)), repr(corpus.verify_instance(inst))
        assert first == second and "object at" not in first, inst.label
        assert "StablePair(omega=" in first


def test_worked_examples_verify():
    for inst in corpus.iter_instances(table=0):
        rep = corpus.verify_instance(inst)
        assert rep.ok, f"{inst.label}: {rep.residual}"


def test_prefactor_fourth_powers():
    # the diagonal unimodular row carries (sqrt2/2)^4 = 1/4
    inst = corpus.row_t3_diagonal("su2")
    assert inst.t4 == Fraction(1, 4)
    # su2 + sl2 carries 2^(1/4) and su2 + r3 carries (2/3) 3^(3/4)
    assert corpus.row_t3_su2_sl2().t4 == 2
    assert corpus.row_t5_su2_r3().t4 == Fraction(16, 3)
    m = Fraction(1, 2)
    assert corpus.row_t5_su2_r3mu_pos(m).t4 == 1 / (m * (m + 1) ** 2)


def test_quadratic_extension_row_uses_irrational_field():
    inst = corpus.row_t5_sl2_r3mu_pos(Fraction(1, 2))
    assert any(isinstance(c, QuadExt) for c in inst.omega.terms.values())
    rep = corpus.verify_instance(inst)
    assert rep.ok


def test_mu_filter_and_table_filter():
    t3 = corpus.iter_instances(table=3)
    assert len(t3) == 22
    t4 = corpus.iter_instances(table=4)
    assert len(t4) == 2
    t5 = corpus.iter_instances(table=5)
    assert len(t5) == 28
    only = corpus.iter_instances(table=5, mu=Fraction(1, 2))
    labels = [i.label for i in only]
    assert any("r3mu(1/2)" in l for l in labels)
    assert not any("r3mu(1/4)" in l for l in labels)


#: the mu values whose table-5 rows (or refusal) the golden pins: both ends of each family's interval and beyond
_MU_PROBES = tuple(map(Fraction, ("-2", "-1", "-7/8", "-1/2", "0", "1/3", "1/2", "1", "3/2", "5")))


def _mu_rows() -> list:
    """For each probe mu the labels of ``iter_instances(table=5, mu=mu)``, or its CatalogError message."""
    rows = []
    for mu in _MU_PROBES:
        try:
            rows.append([inst.label for inst in corpus.iter_instances(table=5, mu=mu)])
        except CatalogError as exc:
            rows.append(str(exc))
    return rows


#: sha256 of json.dumps(_mu_rows())
MU_ROWS_GOLDEN = "6ba808a17c7a81bccaa114e950dc744ad6d0f8f84d64ac489b03bae260e3d6ce"


def test_mu_rows_golden():
    rows = _mu_rows()
    assert rows[0] == "no mu-row family admits mu = -2" and len(rows[-1]) == 6
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == MU_ROWS_GOLDEN
    with pytest.raises(CatalogError, match=r"^table 3 has no mu rows; mu goes with table 5$"):
        corpus.iter_instances(table=3, mu=Fraction(1, 2))


def _corpus_rows() -> list[list]:
    """Every ``verify_instance`` field on the 52 table rows and the 2 worked examples."""
    rows = []
    for inst in corpus.iter_instances() + corpus.iter_instances(table=0):
        rep = corpus.verify_instance(inst)
        hf = rep.report
        rows.append([
            inst.label, rep.ok, rep.normalization_ok, rep.metric_ok, rep.metric_sign, rep.residual,
            hf.half_flat, hf.d_rho_zero, hf.d_omega2_zero, hf.compatible,
            hf.structure.kind, hf.structure.signature, repr(hf.lam), repr(hf.norm_c4), hf.norm_sign,
            repr(inst.algebra.diffs),
        ])
    return rows


#: sha256 of json.dumps(_corpus_rows()): the verdict fields and the algebra of every row
CORPUS_GOLDEN = "2c692c3719cfb853c041be666252afdf19e7afb318e68e19cb7041c0d8fa8d3c"


def test_corpus_golden():
    rows = _corpus_rows()
    assert len(rows) == 54
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CORPUS_GOLDEN


def test_printed_metrics_are_exact():
    for table in (0, 3, 4, 5):
        for inst in corpus.iter_instances(table=table):
            assert not any(isinstance(x, float) for row in inst.g0 for x in row), inst.label


def _row_data() -> list[list]:
    """The transcribed literals of every row: all tables, the worked examples, three single mu."""
    instances = corpus.iter_instances() + corpus.iter_instances(table=0)
    for mu in (Fraction(5), Fraction(-7, 8), Fraction(1, 3)):
        instances += corpus.iter_instances(table=5, mu=mu)
    return [
        [
            inst.label, repr(inst.factors), repr(inst.omega), repr(inst.rho), repr(inst.g0),
            repr(inst.t4), repr(inst.s2), inst.expected_kind, inst.note,
        ]
        for inst in instances
    ]


#: sha256 of json.dumps(_row_data()): label, factors, forms, metric, t4, s2, kind and note
ROW_DATA_GOLDEN = "296fd5ab9c65c03464b22a2c639dd1f7b4295e0fd53249e542725fd32a61ee52"


def test_corpus_rows_golden():
    rows = _row_data()
    assert len(rows) == 74
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ROW_DATA_GOLDEN


def _planted(inst, **changes):
    return dataclasses.replace(inst, **changes)


def _metric_sign_reference(pair, inst):
    """The sign s with oriented G_raw = s sqrt(|lambda| s^2) G0, or 0, on the negated copy of G_raw."""
    G = oriented_metric_raw(pair)
    c = scalar_abs(pair.lam) * inst.s2
    signs = set()
    for u in range(6):
        for v in range(6):
            x, g = G[u][v], inst.g0[u][v]
            if scalar_is_zero(g) != scalar_is_zero(x) or x * x != c * g * g:
                return 0
            if not scalar_is_zero(g):
                signs.add(scalar_sign(x) * scalar_sign(g))
    if len(signs) > 1 or signs == {-1} and inst.expected_kind == stable.KIND_SU3:
        return 0
    return signs.pop() if signs else 1


def test_instance_report_residual_names_each_failure():
    inst = corpus.row_t4_e2()
    assert corpus.verify_instance(inst).residual == ""
    assert corpus.verify_instance(dataclasses.replace(inst, t4=2)).residual == "c4=1 expected 2"
    twice = [[2 * x for x in row] for row in inst.g0]
    assert corpus.verify_instance(dataclasses.replace(inst, g0=twice)).residual == "metric mismatch against printed g"
    rho = inst.rho.scale(2) + form(3, [("e123", 1)])
    assert corpus.verify_instance(dataclasses.replace(inst, rho=rho)).residual == (
        "c4=1/16 expected 1; metric mismatch against printed g; "
        "half-flat system failed: drho=0 True, domega2=0 True, compatible False, type NotCompatible"
    )


def test_metric_sign_rejects_planted_metrics():
    # on every row and with omega and -omega, so both orientation branches occur, the sign
    # read from G_raw with the branch as a sign equals the one read from the negated copy
    branches = set()
    for inst in corpus.iter_instances() + corpus.iter_instances(table=0):
        negated = [[-x for x in row] for row in inst.g0]
        for omega in (inst.omega, inst.omega.scale(-1)):
            pair = stable.StablePair(omega, inst.rho)
            branches.add(pair.norm_sign)
            for row in (inst, _planted(inst, g0=negated), _planted(inst, s2=4 * inst.s2)):
                assert corpus._metric_sign(pair, row) == _metric_sign_reference(pair, row), inst.label
            assert corpus._metric_sign(pair, inst) == 1, inst.label
    assert branches == {1, -1}
    rows = [
        corpus.row_t3_diagonal("su2"),
        corpus.row_t4_e2(),
        corpus.row_t5_su2_r3(),
        corpus.row_t5_sl2_r3mu_pos(Fraction(1, 2)),
        corpus.example_su12(),
        corpus.example_sl3r(),
    ]
    for inst in rows:
        pair = corpus.verify_instance(inst).report.pair
        assert corpus._metric_sign(pair, inst) != 0, inst.label
        g0 = inst.g0
        nonzero = [(u, v) for u in range(6) for v in range(6) if g0[u][v] != 0]
        raw_zero = [(u, v) for u in range(6) for v in range(6) if pair.G_raw[u][v] == 0]
        assert nonzero and raw_zero, inst.label
        u, v = nonzero[len(nonzero) // 2]
        flipped = [list(row) for row in g0]
        flipped[u][v] = -flipped[u][v]
        u, v = raw_zero[0]
        filled = [list(row) for row in g0]
        filled[u][v] = Fraction(1)
        u, v = nonzero[0]
        dropped = [list(row) for row in g0]
        dropped[u][v] = Fraction(0)
        planted = [_planted(inst, g0=g) for g in (flipped, filled, dropped)] + [_planted(inst, s2=4 * inst.s2)]
        for bad in planted:
            assert corpus._metric_sign(pair, bad) == 0, inst.label
    # the whole metric negated matches only rows whose kind allows the sign -1
    su3 = rows[0]
    negated = [[-x for x in row] for row in su3.g0]
    assert corpus._metric_sign(corpus.verify_instance(su3).report.pair, _planted(su3, g0=negated)) == 0
    sl3r = rows[-1]
    sign = corpus._metric_sign(corpus.verify_instance(sl3r).report.pair, sl3r)
    negated = [[-x for x in row] for row in sl3r.g0]
    assert corpus._metric_sign(corpus.verify_instance(sl3r).report.pair, _planted(sl3r, g0=negated)) == -sign

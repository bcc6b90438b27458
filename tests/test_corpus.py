from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

import pytest

from halfflat import corpus
from halfflat.scalars import QuadExt


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

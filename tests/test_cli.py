from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from halfflat import cli, corpus, linalg
from halfflat.errors import ParseError
from halfflat.exterior import form
from halfflat.liealg import LieAlgebra, catalog, catalog_classes, change_basis, direct_sum


def run_cli(argv, expect=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if expect is not None:
        assert code == expect, (code, out.getvalue(), err.getvalue())
    return code, out.getvalue(), err.getvalue()


SU2_TEXT = """# su(2) standard basis
dim 3
basis e1 e2 e3
d e1 = 1 e2^e3
d e2 = -1 e1^e3
d e3 = 1 e1^e2
"""


def test_parse_su2_round_trip():
    L, omega, rho = cli.parse(SU2_TEXT)
    assert omega is None and rho is None
    assert L.diffs == catalog("su2").diffs
    # canonical emit also parses back to the same algebra
    text = cli.emit(L)
    L2, _, _ = cli.parse(text)
    assert L2.diffs == L.diffs
    assert cli.emit(L2) == text


def test_parse_sign_normalization():
    a = cli.parse("dim 3\nbasis e1 e2 e3\nd e2 = 1 e2^e1\n")[0]
    b = cli.parse("dim 3\nbasis e1 e2 e3\nd e2 = -1 e1^e2\n")[0]
    assert a.diffs == b.diffs
    assert a.diffs == catalog("r2R").diffs
    # a repeated factor wedges to zero; a permuted three-form term picks up its sign
    c = cli.parse("dim 3\nbasis e1 e2 e3\nd e2 = 1 e2^e1 + 3 e1^e1\n")[0]
    assert c.diffs == a.diffs
    _, _, rho = cli.parse(
        "dim 6\nbasis e1 e2 e3 f1 f2 f3\nform rho = 2 f1^e3^e2 + 1 e1^e2^e3 + 5 e1^f2^e1\n"
    )
    assert rho == form(3, [("e23f1", -2), ("e123", 1)])


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        cli.parse("dim 5\n")
    with pytest.raises(ParseError):
        cli.parse("dim 3\nbasis e1 e2\n")
    with pytest.raises(ParseError):
        cli.parse("dim 3\nbasis e1 e2 e3\nd e9 = 1 e1^e2\n")
    with pytest.raises(ParseError):
        cli.parse("dim 3\nbasis e1 e2 e3\nnonsense\n")
    try:
        cli.parse("dim 3\nbasis e1 e2 e3\nd e2 = x e1^e2\n")
    except ParseError as exc:
        assert exc.line == 3


_BASIS3 = "dim 3\nbasis e1 e2 e3\n"


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        (_BASIS3 + "d e2 = 1 e1^e3 + x e1^e2\n", 3, 18, "expected a coefficient, got 'x'"),
        (_BASIS3 + "d e2 = 1 e1^e9\n", 3, 10, "unknown basis name 'e9'"),
        (_BASIS3 + "d e9 = 1 e1^e2\n", 3, 3, "unknown basis name 'e9'"),
        (_BASIS3 + "  d e2 = 1 e1^e3   # comment\n", 3, 3, None),
        (_BASIS3 + "\td e2 = 1 e1^e3 -\t2 e2^e1^e3\n", 3, 21, "degree mismatch"),
        ("dim 6\nbasis e1 e2 e3 f1 f2 f3\nform omega = 1 e1\n", 3, 16, "degree mismatch"),
        (_BASIS3 + "d e2 = 1\n", 3, 9, "coefficient without a monomial"),
        (_BASIS3 + "d e2 1 e1^e3\n", 3, 6, "expected 'd <name> = <terms>'"),
        (_BASIS3 + "param mu = 1/0\n", 3, 12, "bad rational '1/0'"),
        ("dim 5\n", 1, 5, "expected 'dim 3' or 'dim 6'"),
        ("dim 3\nbasis e1 e2 e1\n", 2, 13, "duplicate basis name"),
        ("dim 3\nbasis a^b c d\nd c = 1 a^b^d\n", 2, 7, "basis name 'a^b' contains '^'"),
        ("dim 3\nbasis e1 e2\n", 2, 12, "basis needs exactly 3 names"),
        (_BASIS3 + "\n   nonsense\n", 4, 4, "unknown directive 'nonsense'"),
        (_BASIS3 + "d e3 = 1 e1^e2 +\n", 3, 17, "sign without a term"),
        (_BASIS3 + "d e1 = +\n", 3, 9, "sign without a term"),
        (_BASIS3 + "d e3 = - - 1 e1^e2\n", 3, 10, "expected a coefficient, got '-'"),
        (_BASIS3 + "d e1 = 1 e1^e2 1 e1^e3\n", 3, 16, "expected '+' or '-' between terms, got '1'"),
        (_BASIS3 + "d e3 = - 1 e1^e2\n", 3, 0, None),
        (_BASIS3 + "d e2 = 1 e1^e3 + -1 e1^e2\n", 3, 0, None),
        (_BASIS3 + "d e1 = 0\n", 3, 0, None),
        ("dim 3\nd e1 = 1 e2^e3\n", 2, 3, "basis line must precede this line"),
        ("dim 6\nform omega = 1 e1^f1\n", 2, 16, "basis line must precede this line"),
        ("basis e1 e2 e3\n", 1, 1, "dim line must precede basis"),
        (_BASIS3 + "form phi = 1 e1^e2", 3, 6, "expected 'form omega|rho = <terms>'"),
        (_BASIS3 + "param mu 1/2", 3, 10, "expected 'param <name> = <rational>'"),
    ],
    ids=["coeff", "monomial", "target", "fine", "degree-tab", "degree", "no-monomial", "no-equals", "param", "dim",
         "duplicate", "caret-name", "short-basis", "directive", "dangling-sign", "sign-only", "double-sign",
         "no-sign-between", "leading-sign", "signed-coeff", "zero", "d-before-basis", "form-before-basis",
         "basis-before-dim", "form-name", "param-equals"],
)
def test_parse_error_column_is_the_token_character(tmp_path, text, line, column, message):
    # the column is the 1-based character position of the token at fault (past the end when one is missing)
    p = tmp_path / "f.alg"
    p.write_text(text)
    code, out, err = run_cli(["classify3d" if text.startswith("dim 3") else "verify", str(p)])
    if message is None:
        assert code == cli.EXIT_POSITIVE, err
        return
    assert code == cli.EXIT_INPUT_ERROR and out == ""
    assert err.startswith(f"parse error: line {line}, column {column}: {message}"), err


def test_parse_rejects_jacobi_violation(tmp_path):
    bad = "dim 3\nbasis e1 e2 e3\nd e1 = 1 e2^e3\nd e2 = 1 e1^e2\n"
    with pytest.raises(Exception):
        cli.parse(bad)
    p = tmp_path / "bad.alg"
    p.write_text(bad)
    code, _, err = run_cli(["verify", str(p)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "structure constants" in err or "parse error" in err


#: the interpreter's integer-digit limit (0: none); a literal one digit past it does not read
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_past_digits = pytest.mark.skipif(_DIGITS == 0, reason="no integer-digit limit")
#: literals inside the limit whose printed values are not: D = 4 mu / (1 + mu)^2 has twice the digits of mu,
#: and lambda is quartic in the coefficients of rho
_D_PAST_DIGITS = f"dim 3\nbasis e1 e2 e3\nd e2 = -1 e1^e2\nd e3 = -1/1{'0' * (_DIGITS * 2 // 3)} e1^e3\n"
_BIG = 10 ** (_DIGITS // 3)
_LAMBDA_PAST_DIGITS = (
    "dim 6\nbasis e1 e2 e3 f1 f2 f3\nform omega = 1 e1^f1 + 1 e2^f2 + 1 e3^f3\n"
    f"form rho = {_BIG} e1^e2^e3 - {_BIG} e1^f2^f3 - {_BIG} f1^e2^f3 - {_BIG} f1^f2^e3\n"
)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["catalog", "r3mu", "--mu", "abc"], None),
        (["catalog", "r3mu", "--mu", "1/0"], None),
        (["catalog", "su2", "--sum", "r3pmu", "--mu2", "x"], None),
        (["catalog", "su2", "--sum", "r3pmu", "--mu2", "2/0"], None),
        (["appendix", "--mu", "x"], None),
        (["appendix", "--mu", "1/0"], None),
        (["classify3d"], "dim 3\nbasis e1 e2 e3\nd e3 = 1/0 e1^e2\n"),
        (["classify3d"], "dim 3\nbasis e1 e2 e3\nd e3 = 1 e1^e2\nparam mu = 1/0\n"),
        pytest.param(["classify3d"], f"dim 3\nbasis e1 e2 e3\nd e3 = 1{'0' * _DIGITS} e1^e2\n", marks=_past_digits),
        pytest.param(["classify3d"], f"dim 3\nbasis e1 e2 e3\nparam mu = {'1' * (_DIGITS + 1)}\n", marks=_past_digits),
        pytest.param(["catalog", "r3mu", "--mu", f"1e-{_DIGITS}"], None, marks=_past_digits),
        pytest.param(["catalog", "su2", "--sum", "r3pmu", "--mu2", f"1e{_DIGITS}"], None, marks=_past_digits),
        pytest.param(["appendix", "--mu", f"1e-{_DIGITS}"], None, marks=_past_digits),
        pytest.param(["classify3d"], _D_PAST_DIGITS, marks=_past_digits),
        pytest.param(["verify"], _LAMBDA_PAST_DIGITS, marks=_past_digits),
    ],
    ids=["mu-abc", "mu-1/0", "mu2-x", "mu2-2/0", "appendix-mu-x", "appendix-mu-1/0", "file-coeff-1/0", "file-param-1/0",
         "file-coeff-digits", "file-param-digits", "mu-digits", "mu2-digits", "appendix-mu-digits",
         "classify3d-D-digits", "verify-lambda-digits"],
)
def test_cli_bad_rationals_are_input_errors(tmp_path, argv, text):
    if text is not None:
        p = tmp_path / "bad.alg"
        p.write_text(text)
        argv = argv + [str(p)]
    code, out, err = run_cli(argv)
    assert code == cli.EXIT_INPUT_ERROR and out == ""
    assert err.startswith(("error: ", "parse error: ")) and err.count("\n") == 1, err


def test_degree_mismatch_distinct_error(tmp_path):
    text = "dim 6\nbasis e1 e2 e3 f1 f2 f3\nform omega = 1 e1\n"
    p = tmp_path / "deg.alg"
    p.write_text(text)
    code, _, err = run_cli(["verify", str(p)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "degree mismatch" in err


def test_cli_verify_positive(tmp_path):
    inst = corpus.row_t4_e2()
    p = tmp_path / "t4.alg"
    p.write_text(cli.emit(inst.algebra, inst.omega, inst.rho))
    code, out, _ = run_cli(["verify", str(p)], expect=cli.EXIT_POSITIVE)
    assert "half_flat: true" in out
    assert "type: SU(3)" in out


def test_cli_verify_negative(tmp_path):
    L = direct_sum(catalog("su2"), catalog("su2"))
    omega = form(2, [("e1f1", 1), ("e2f2", 1), ("e3f3", 1)])
    rho = form(3, [("e123", 1), ("e1f23", -1)])
    p = tmp_path / "neg.alg"
    p.write_text(cli.emit(L, omega, rho))
    code, out, _ = run_cli(["verify", str(p)], expect=cli.EXIT_NEGATIVE)
    assert "half_flat: false" in out


def test_cli_classify3d(tmp_path):
    p = tmp_path / "e11.alg"
    _, out, _ = run_cli(["catalog", "e11"], expect=0)
    p.write_text(out)
    code, out, _ = run_cli(["classify3d", str(p)], expect=cli.EXIT_POSITIVE)
    assert "class: e(1,1)" in out
    assert "bianchi: VI_0" in out


def test_cli_classify3d_with_mu(tmp_path):
    _, out, _ = run_cli(["catalog", "r3mu", "--mu", "1/2"], expect=0)
    p = tmp_path / "r3mu.alg"
    p.write_text(out)
    code, out, _ = run_cli(["classify3d", str(p)], expect=cli.EXIT_POSITIVE)
    assert "D: 8/9" in out
    assert "mu: 1/2" in out


def test_cli_obstruct_negative_verdict(tmp_path):
    _, out, _ = run_cli(["catalog", "r2R", "--sum", "r3"], expect=0)
    p = tmp_path / "obs.alg"
    p.write_text(out)
    code, out, _ = run_cli(["obstruct", str(p)], expect=cli.EXIT_NEGATIVE)
    assert "verdict: NoHalfFlatSU3" in out


def test_cli_obstruct_refined(tmp_path):
    _, out, _ = run_cli(["catalog", "h3", "--sum", "r2R"], expect=0)
    p = tmp_path / "h3r2R.alg"
    p.write_text(out)
    code, out, _ = run_cli(["obstruct", str(p)], expect=cli.EXIT_NEGATIVE)
    assert "NoHalfFlatSU3" in out
    assert "refined" in out


@pytest.mark.parametrize(
    "g1, g2, detail",
    [
        ("h3", "r2R", "refined isotropy argument for h3 (+) r2R"),
        ("r2R", "h3", "refined isotropy argument for h3 (+) r2R"),
        ("r2R", "R3", "K_rho(e_2) proportional to e_2, lambda >= 0"),
        ("R3", "r2R", "K_rho(e_2) proportional to e_2, lambda >= 0"),
    ],
)
def test_cli_obstruct_refined_either_factor_order(tmp_path, g1, g2, detail):
    _, out, _ = run_cli(["catalog", g1, "--sum", g2], expect=0)
    p = tmp_path / "g.alg"
    p.write_text(out)
    code, out, _ = run_cli(["obstruct", str(p)], expect=cli.EXIT_NEGATIVE)
    assert out.splitlines() == ["verdict: NoHalfFlatSU3", f"detail: {detail}"]


def test_cli_obstruct_computes_closed_forms_once_per_degree(tmp_path, monkeypatch):
    # R3 + R3 is decided by the ranks of d alone and computes no closed-form space;
    # h3 + r2R goes on to its refined check, which reads Z^1, Z^3 and Z^4 once each
    # each closed-form space eliminates one d_matrix of the sum; the summands' d_matrix(1) feeds A(g)
    calls = []
    d_matrix = LieAlgebra.d_matrix

    def counted(self, k):
        if self.dim == 6:
            calls.append(k)
        return d_matrix(self, k)

    monkeypatch.setattr(LieAlgebra, "d_matrix", counted)
    p = tmp_path / "g.alg"
    for g1, g2, code, last, want in (
        ("R3", "R3", cli.EXIT_POSITIVE, "coherent_splittings: 1", []),
        ("h3", "r2R", cli.EXIT_NEGATIVE, "detail: refined isotropy argument for h3 (+) r2R", [1, 3, 4]),
    ):
        calls.clear()
        p.write_text(cli.emit(direct_sum(catalog(g1), catalog(g2))))
        _, out, _ = run_cli(["obstruct", str(p)], expect=code)
        assert out.splitlines()[-1] == last
        assert sorted(calls) == want, (g1, g2)


def test_cli_obstruct_mixed_blocks_is_input_error(tmp_path):
    # f2 has an e1^f2 term: the algebra is not split over e1-e3 / f1-f3
    p = tmp_path / "mixed.alg"
    p.write_text("dim 6\nbasis e1 e2 e3 f1 f2 f3\nd e3 = 1 e1^e2\nd f2 = -1 e1^f2 - 1 f1^f2\n")
    code, out, err = run_cli(["obstruct", str(p)], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and "not split over the e/f blocks" in err


#: sha256 of json.dumps([[exit code, stdout], ...]) of ``halfflat obstruct`` on the 400
#: ordered sums of catalog instances, the first summand in the outer loop
OBSTRUCT_GOLDEN = "f9a6e8b56635bab62cedb6fa706b99c08fc02947daa0a6047ecadf9dd8164e88"


def test_cli_obstruct_golden_over_catalog_sums(tmp_path):
    insts = [L for spec in catalog_classes() for L in spec.instances()]
    p = tmp_path / "g.alg"
    rows = []
    for L1 in insts:
        for L2 in insts:
            p.write_text(cli.emit(direct_sum(L1, L2)))
            code, out, _ = run_cli(["obstruct", str(p)])
            rows.append([code, out])
    assert len(rows) == 400
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == OBSTRUCT_GOLDEN


#: a fixed basis change for each factor, as columns of new basis vectors in old coordinates
_B1 = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(2)], [Fraction(1), Fraction(0), Fraction(1)]]
_B2 = [[Fraction(2), Fraction(0), Fraction(1)], [Fraction(1), Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]


@pytest.mark.parametrize(
    "g1, g2, detail",
    [
        ("h3", "r2R", "refined isotropy argument for h3 (+) r2R"),
        ("r2R", "R3", "K_rho(e_2) proportional to e_2, lambda >= 0"),
    ],
)
def test_cli_obstruct_refined_in_non_standard_basis(tmp_path, g1, g2, detail):
    L1, L2 = change_basis(catalog(g1), _B1), change_basis(catalog(g2), _B2)
    assert all(all(dk.is_zero() for dk in M.diffs) or M.diffs != catalog(g).diffs for M, g in ((L1, g1), (L2, g2)))
    p = tmp_path / "g.alg"
    p.write_text(cli.emit(direct_sum(L1, L2)))
    code, out, _ = run_cli(["obstruct", str(p)], expect=cli.EXIT_NEGATIVE)
    assert out.splitlines() == ["verdict: NoHalfFlatSU3", f"detail: {detail}"]


def _random_gl3(rng):
    """A random invertible rational 3x3 matrix: the rows of L U in random order.

    L is unit lower triangular with entries in [-1, 1]; U is upper triangular
    with diagonal in {+-1/2, +-1, +-2} and entries in [-1, 1] above it.
    """
    lo = [[Fraction(1 if i == j else rng.randint(-1, 1) if i > j else 0) for j in range(3)] for i in range(3)]
    up = [
        [Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))) if i == j else Fraction(rng.randint(-1, 1) if i < j else 0)
         for j in range(3)]
        for i in range(3)
    ]
    rows = linalg.mat_mul(lo, up)
    rng.shuffle(rows)
    return rows


def test_cli_obstruct_output_independent_of_basis_and_order(tmp_path):
    # 200 sums over the 78 class pairs: both factors in a random rational basis
    # (three drawn per catalog instance) and the summands in random order,
    # against the standard basis of the same instances in the standard order
    rng = random.Random(20240817)
    classes = [[(L, [change_basis(L, _random_gl3(rng)) for _ in range(3)]) for L in spec.instances()]
               for spec in catalog_classes()]
    pairs = [
        (rng.choice(classes[i]), rng.choice(classes[j]))
        for i, j in combinations_with_replacement(range(len(classes)), 2)
    ]
    p = tmp_path / "g.alg"

    def obstruct(L):
        p.write_text(cli.emit(L))
        code, out, _ = run_cli(["obstruct", str(p)])
        return code, out

    want = [obstruct(direct_sum(a, b)) for (a, _), (b, _) in pairs]
    seen = set()
    for case in range(200):
        (a, bases_a), (b, bases_b) = pairs[case % len(pairs)]
        ca, cb = rng.choice(bases_a), rng.choice(bases_b)
        swap = rng.random() < 0.5
        got = obstruct(direct_sum(cb, ca) if swap else direct_sum(ca, cb))
        assert got == want[case % len(pairs)], (a.name, a.params, b.name, b.params, swap)
        seen.add((swap, got[1].splitlines()[-1]))
    assert {line for _, line in seen} >= {
        "coherent_splittings: 0", "coherent_splittings: 1", "rank_d_lambda4W: 1",
        "detail: refined isotropy argument for h3 (+) r2R", "detail: K_rho(e_2) proportional to e_2, lambda >= 0",
    }
    assert {swap for swap, _ in seen} == {False, True}


def test_import_cli_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, halfflat.cli, halfflat.obstruct; sys.exit('scipy' in sys.modules or 'numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_parser_built_once_and_reused():
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(["catalog"], expect=0) == run_cli(["catalog"], expect=0)
    for argv in (["verify"], ["search", "x.alg", "--target", "g2"]):
        seen = []
        for _ in range(2):
            err = io.StringIO()
            with redirect_stderr(err), pytest.raises(SystemExit) as exc:
                cli.main(argv)
            seen.append((exc.value.code, err.getvalue()))
        assert seen[0] == seen[1] and seen[0][0] == 2


def test_cli_obstruct_inconclusive(tmp_path):
    _, out, _ = run_cli(["catalog", "e2", "--sum", "r2R"], expect=0)
    p = tmp_path / "adm.alg"
    p.write_text(out)
    code, out, _ = run_cli(["obstruct", str(p)], expect=cli.EXIT_POSITIVE)
    assert "Inconclusive" in out


def test_cli_appendix_table4():
    code, out, _ = run_cli(["appendix", "--table", "4"], expect=cli.EXIT_POSITIVE)
    assert "T4.1[e2+r2R]: ok" in out
    assert "failures: 0" in out


def test_cli_appendix_mu_filter():
    code, out, _ = run_cli(
        ["appendix", "--table", "5", "--mu", "1/2"], expect=cli.EXIT_POSITIVE
    )
    assert "r3mu(1/2)" in out
    assert "failures: 0" in out
    # no row of tables 0, 3 or 4 depends on mu, so mu there checks nothing
    for table in ("0", "3", "4"):
        code, out, err = run_cli(["appendix", "--table", table, "--mu", "5"], expect=cli.EXIT_INPUT_ERROR)
        assert out == "" and err.startswith("error: ") and "table 5" in err


def test_cli_negative_mu_as_its_own_argument():
    # argparse reads -7/8 as an option unless it is joined to --mu
    _, joined, _ = run_cli(["appendix", "--mu=-7/8"], expect=cli.EXIT_POSITIVE)
    code, out, _ = run_cli(["appendix", "--mu", "-7/8"], expect=cli.EXIT_POSITIVE)
    assert out == joined
    lines = out.splitlines()
    assert "T5.5[sl2+r3mu(-7/8)]: ok" in lines and "T5.6[su2+r3mu(-7/8)]: ok" in lines
    assert lines[-1] == "instances: 30  failures: 0"
    _, out, _ = run_cli(["catalog", "r3mu", "--mu", "-1/2"], expect=cli.EXIT_POSITIVE)
    assert "param mu = -1/2" in out.splitlines()
    _, out, _ = run_cli(["catalog", "su2", "--sum", "r3mu", "--mu2", "-1/2"], expect=cli.EXIT_POSITIVE)
    assert "param mu2 = -1/2" in out.splitlines()


def test_cli_appendix_mu_builds_every_admitting_family():
    # mu = 5 admits r3pmu only, mu = 1/3 admits r3mu (0 < mu <= 1) and r3pmu
    code, out, _ = run_cli(["appendix", "--mu", "5"], expect=cli.EXIT_POSITIVE)
    assert "T5.8[su2+r3pmu(5)]: ok" in out.splitlines()
    assert "T5.9[sl2+r3pmu(5)]: ok" in out.splitlines()
    assert out.splitlines()[-1] == "instances: 30  failures: 0"
    code, out, _ = run_cli(["appendix", "--mu", "1/3"], expect=cli.EXIT_POSITIVE)
    assert sum("(1/3)]: ok" in line for line in out.splitlines()) == 4
    assert out.splitlines()[-1] == "instances: 32  failures: 0"
    code, out, err = run_cli(["appendix", "--mu", "-2"], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and "mu" in err


def test_cli_search_exit_codes(tmp_path):
    _, out, _ = run_cli(["catalog", "su2", "--sum", "su2"], expect=0)
    p = tmp_path / "s.alg"
    p.write_text(out)
    code, out, _ = run_cli(
        ["search", str(p), "--target", "su3", "--restarts", "100", "--seed", "3"],
        expect=cli.EXIT_POSITIVE,
    )
    assert "found: true" in out
    _, out2, _ = run_cli(["catalog", "r2R", "--sum", "r3"], expect=0)
    p2 = tmp_path / "n.alg"
    p2.write_text(out2)
    code, out2, _ = run_cli(
        ["search", str(p2), "--target", "su3", "--restarts", "5", "--seed", "0"],
        expect=cli.EXIT_NEGATIVE,
    )
    assert "found: false" in out2


@pytest.mark.parametrize("restarts", ["-1", "0"])
def test_cli_search_restarts_below_one_is_input_error(tmp_path, restarts):
    _, out, _ = run_cli(["catalog", "su2", "--sum", "su2"], expect=0)
    p = tmp_path / "s.alg"
    p.write_text(out)
    code, out, err = run_cli(["search", str(p), "--restarts", restarts], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err.startswith("error: ") and "--restarts" in err


def _search_in_fresh_process(path, *options):
    """``halfflat search path options`` in a new interpreter: its stdout is the exit code and whether scipy loaded."""
    script = (
        "import sys; from halfflat import cli; code = cli.main(['search'] + sys.argv[1:]); "
        "print(code, 'scipy' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, str(path), *options], capture_output=True, text=True, env=env)


def test_cli_search_negative_max_den_is_input_error(tmp_path):
    # --max-den 0 skips the rationalization; a negative value is refused before scipy is loaded
    _, text, _ = run_cli(["catalog", "su2", "--sum", "su2"], expect=0)
    p = tmp_path / "s.alg"
    p.write_text(text)
    done = _search_in_fresh_process(p, "--max-den", "-5")
    assert done.stdout == f"{cli.EXIT_INPUT_ERROR} False\n", done.stderr
    assert done.stderr == "error: --max-den must be at least 0, got -5\n"


def test_cli_search_negative_seed_is_input_error(tmp_path):
    # numpy refuses a negative seed with a traceback, which would exit 1 ("nothing found")
    _, text, _ = run_cli(["catalog", "su2", "--sum", "su2"], expect=0)
    p = tmp_path / "s.alg"
    p.write_text(text)
    done = _search_in_fresh_process(p, "--seed", "-1")
    assert done.stdout == f"{cli.EXIT_INPUT_ERROR} False\n", done.stderr
    assert done.stderr == "error: --seed must be at least 0, got -1\n"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_search_tol_not_finite_nonnegative_is_input_error(tmp_path, tol):
    # -1 rejects every point, nan and inf would switch the residual gate off
    _, out, _ = run_cli(["catalog", "su2", "--sum", "su2"], expect=0)
    p = tmp_path / "s.alg"
    p.write_text(out)
    code, out, err = run_cli(["search", str(p), "--tol", tol], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err.startswith("error: ") and "--tol" in err


@pytest.mark.parametrize(
    "argv", [["catalog", "su2", "--mu2", "1/2"], ["catalog", "r3mu", "--mu", "1/2", "--mu2", "1/3"]]
)
def test_cli_catalog_mu2_without_sum_is_input_error(argv):
    code, out, err = run_cli(argv, expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err == "error: --mu2 needs --sum\n"


@pytest.mark.parametrize("flag, value", [("--mu", "1/2"), ("--sum", "su2")])
def test_cli_catalog_option_without_name_is_input_error(flag, value):
    code, out, err = run_cli(["catalog", flag, value], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err == f"error: {flag} needs a class name\n"


_BASIS6 = "dim 6\nbasis e1 e2 e3 f1 f2 f3\n"


@pytest.mark.parametrize(
    "command, text, line, what",
    [
        ("classify3d", _BASIS6 + "dim 3\nd e3 = 1 e1^f1\n", 3, "dim"),
        ("classify3d", _BASIS6 + "dim 3\n", 3, "dim"),
        ("obstruct", _BASIS6 + "basis e1 e2 e3 f1 f2 f3\n", 3, "basis"),
        ("obstruct", _BASIS6 + "d e3 = 1 e1^e2\nd e3 = 2 e1^e2\n", 4, "d e3"),
        ("verify", _BASIS6 + "form rho = 1 e1^e2^e3\n# comment\nform rho = 1 f1^f2^f3\n", 5, "form rho"),
        ("obstruct", _BASIS6 + "param mu = 1/2\nparam mu = 1/3\n", 4, "param mu"),
    ],
    ids=["dim-after-basis", "dim-after-basis-no-d", "basis", "d", "form", "param"],
)
def test_cli_repeated_directive_is_parse_error(tmp_path, command, text, line, what):
    p = tmp_path / "rep.alg"
    p.write_text(text)
    code, out, err = run_cli([command, str(p)], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err == f"parse error: line {line}, column 1: repeated {what} line\n"


def test_cli_missing_file():
    code, _, err = run_cli(["verify", "/nonexistent/file.alg"])
    assert code == cli.EXIT_INPUT_ERROR


_SU2_SU2 = "dim 6\nbasis e1 e2 e3 f1 f2 f3\nd e1 = 1 e2^e3\nd e2 = 1 e3^e1\nd e3 = 1 e1^e2\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("verify", SU2_TEXT, "verify needs a six-dimensional algebra"),
        ("verify", _SU2_SU2, "verify needs both omega and rho forms"),
        ("classify3d", _SU2_SU2, "classify3d needs a three-dimensional algebra"),
        ("obstruct", SU2_TEXT, "obstruct needs a six-dimensional algebra"),
        ("search", SU2_TEXT, "search needs a six-dimensional algebra"),
        ("obstruct", "# no declarations\n", "file must declare dim and basis"),
        ("classify3d", "dim 3\n", "file must declare dim and basis"),
        ("verify", None, "cannot read "),
    ],
    ids=["verify-dim", "verify-forms", "classify3d-dim", "obstruct-dim", "search-dim", "no-dim", "no-basis", "unreadable"],
)
def test_cli_errors_without_a_line_name_none(tmp_path, command, text, message):
    p = tmp_path / "f.alg"
    if text is not None:
        p.write_text(text)
    code, out, err = run_cli([command, str(p)], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err.startswith("error: " + message), err


@pytest.mark.parametrize("command", ["verify", "classify3d", "obstruct", "search"])
def test_cli_non_utf8_file_is_input_error(tmp_path, command):
    # a decoding error is an unreadable file; exit 1 would read as a verdict
    p = tmp_path / "bad.alg"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run_cli([command, str(p)], expect=cli.EXIT_INPUT_ERROR)
    assert out == "" and err.startswith(f"error: cannot read {p}: ") and "decode" in err, err


@pytest.mark.parametrize(
    "command, text",
    [("classify3d", SU2_TEXT), ("obstruct", cli.emit(direct_sum(catalog("h3"), catalog("r2R"))))],
    ids=["classify3d", "obstruct"],
)
def test_cli_byte_order_mark_is_not_text(tmp_path, command, text):
    # a file saved with a UTF-8 byte-order mark reads as the same file without it
    plain, marked = tmp_path / "plain.alg", tmp_path / "marked.alg"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    got, want = run_cli([command, str(marked)]), run_cli([command, str(plain)])
    assert got == want and got[2] == "", got


def test_cli_search_checks_its_file_before_loading_scipy(tmp_path):
    p = tmp_path / "su2.alg"
    p.write_text(SU2_TEXT)
    done = _search_in_fresh_process(p)
    assert done.stdout == f"{cli.EXIT_INPUT_ERROR} False\n", done.stderr
    assert done.stderr == "error: search needs a six-dimensional algebra\n"

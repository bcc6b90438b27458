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
from halfflat.errors import JacobiError, ParseError
from halfflat.exterior import form
from halfflat.liealg import LieAlgebra, catalog, catalog_classes, change_basis, direct_sum

from . import cli_cases
from .cli_cases import SU2_TEXT


def run_cli(argv, expect=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if expect is not None:
        assert code == expect, (code, out.getvalue(), err.getvalue())
    return code, out.getvalue(), err.getvalue()


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


def test_parse_rejects_jacobi_violation():
    with pytest.raises(JacobiError):
        cli.parse("dim 3\nbasis e1 e2 e3\nd e1 = 1 e2^e3\nd e2 = 1 e1^e2\n")


def test_degree_mismatch_distinct_error(tmp_path):
    text = "dim 6\nbasis e1 e2 e3 f1 f2 f3\nform omega = 1 e1\n"
    p = tmp_path / "deg.alg"
    p.write_text(text)
    code, _, err = run_cli(["verify", str(p)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "degree mismatch" in err


def _section(name):
    """The rows of one section of ``cli_cases.CASES`` as one test, each row under its id without the section."""
    rows = [case for case in cli_cases.CASES if case.id.startswith(name + "/")]

    @pytest.mark.parametrize("case", rows, ids=[case.id[len(name) + 1:] for case in rows])
    def test(tmp_path, case):
        assert cli_cases.check(case, tmp_path) == []

    return test


# one test per section, so each row is collected under the test name and id it has always had
test_parse_error_column_is_the_token_character = _section("column")
test_cli_bad_rationals_are_input_errors = _section("rational")
test_cli_repeated_directive_is_parse_error = _section("repeated")
test_cli_errors_without_a_line_name_none = _section("no-line")
test_cli_non_utf8_file_is_input_error = _section("utf8")
test_cli_catalog_option_without_name_is_input_error = _section("no-name")
test_cli_search_restarts_below_one_is_input_error = _section("restarts")
test_cli_search_tol_not_finite_nonnegative_is_input_error = _section("tol")
test_cli_exit_codes = _section("exit")


def test_cli_cases_run_once_each():
    ids = [case.id for case in cli_cases.CASES]
    assert len(set(ids)) == len(ids)
    sections = {"column", "rational", "repeated", "no-line", "utf8", "no-name", "restarts", "tol", "exit"}
    assert {row_id.partition("/")[0] for row_id in ids} == sections


def test_cli_cases_check_reads_every_field(tmp_path, monkeypatch):
    # one passing row with one field changed at a time: a check that ignored the field would still pass it
    case = next(case for case in cli_cases.CASES if case.id == "exit/obstruct-refined")
    assert cli_cases.check(case, tmp_path) == []
    assert cli_cases.check(case._replace(code=0), tmp_path) == ["exit 1, expected 0"]
    assert cli_cases.check(case._replace(stderr="error: .*\n"), tmp_path) == [r"stderr '' does not match 'error: .*\n'"]
    assert [p.endswith(" is not empty") for p in cli_cases.check(case._replace(quiet=True), tmp_path)] == [True]
    # argparse's SystemExit is an exit code; any other exception is a problem
    usage = case._replace(argv="obstruct", code=2, stderr=r"(?s)usage: .*", quiet=False)
    assert cli_cases.check(usage, tmp_path) == []
    monkeypatch.setattr(cli, "main", lambda argv: {}["main"])
    assert cli_cases.check(case, tmp_path) == ["raised KeyError('main')"]


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


#: sha256 of json.dumps of ``halfflat classify3d`` stdout on each of the 20 class instances and on two seeded
#: GL(3,Q) changes of each (entries in {-3..3}/{1,2}, singular draws skipped)
CLASSIFY3D_GOLDEN = "1e4f32c75943a73174c2166f2ece04639d2853b5ec5ae79c9e1fbf7eb866367a"


def test_cli_classify3d_golden_over_class_instances(tmp_path):
    rng = random.Random(3486)
    p = tmp_path / "c.alg"
    outs = []
    for L in (L for spec in catalog_classes() for L in spec.instances()):
        algebras = [L]
        while len(algebras) < 3:
            b = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3)] for _ in range(3)]
            if linalg.invert(b) is not None:
                algebras.append(change_basis(L, b))
        for M in algebras:
            p.write_text(cli.emit(M))
            outs.append(run_cli(["classify3d", str(p)], expect=cli.EXIT_POSITIVE)[1])
    assert len(outs) == 60
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == CLASSIFY3D_GOLDEN


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

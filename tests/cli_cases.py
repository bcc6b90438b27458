"""Command-line cases of ``halfflat``: one table, run by the test suite and on its own.

Each row gives an argv, the file it reads, the exit code (0 admits, 1
obstructed or not half-flat, 2 input error), a regular expression that must
match the whole of stderr and whether stdout must be empty.  The module
imports only the standard library and ``halfflat``, so it runs on an
interpreter with nothing installed:

    PYTHONPATH=src python tests/cli_cases.py

prints one line per failing row and ``N cases, M failed``, and exits 1 if a
row failed.  ``tests/test_cli.py`` runs the same rows through ``check``.
"""

from __future__ import annotations

import io
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from halfflat import cli
from halfflat.liealg import catalog, direct_sum


class Case(NamedTuple):
    """One run of ``halfflat``; ``{file}`` in argv and stderr stands for the path of the case's file."""

    id: str  # "<section>/<name>"; tests/test_cli.py runs each section as one test
    argv: str  # split on whitespace
    file: str | bytes | None  # the file's text or bytes; None leaves no file at the path
    code: int  # the exit code
    stderr: str  # a regular expression for the whole of stderr, with {file} as the escaped path
    quiet: bool = True  # stdout must be empty


def check(case: Case, directory: str) -> list[str]:
    """The problems with one row, run in-process with its file written into ``directory``; [] if it passes."""
    path = os.path.join(directory, "case.alg")
    if case.file is not None:
        with open(path, "wb") as fh:
            fh.write(case.file.encode() if isinstance(case.file, str) else case.file)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([arg.replace("{file}", path) for arg in case.argv.split()])
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    except Exception as exc:
        return [f"raised {exc!r:.200}"]
    problems = []
    if code != case.code:
        problems.append(f"exit {code}, expected {case.code}")
    if not re.fullmatch(case.stderr.replace("{file}", re.escape(path)), err.getvalue()):
        problems.append(f"stderr {err.getvalue()!r:.200} does not match {case.stderr!r:.200}")
    if case.quiet and out.getvalue():
        problems.append(f"stdout {out.getvalue()!r:.200} is not empty")
    return problems


def _column(name: str, text: str, line: int, column: int, message: str | None) -> Case:
    """A parse-error row; the column is the 1-based character position of the token at fault (past the end when
    one is missing).  With message None, the file parses."""
    argv = ("classify3d" if text.startswith("dim 3") else "verify") + " {file}"
    if message is None:
        return Case(f"column/{name}", argv, text, 0, "", quiet=False)
    stderr = rf"parse error: line {line}, column {column}: {re.escape(message)}\n"
    return Case(f"column/{name}", argv, text, 2, stderr)


_BASIS3 = "dim 3\nbasis e1 e2 e3\n"
_BASIS6 = "dim 6\nbasis e1 e2 e3 f1 f2 f3\n"
SU2_TEXT = "# su(2) standard basis\n" + _BASIS3 + "d e1 = 1 e2^e3\nd e2 = -1 e1^e3\nd e3 = 1 e1^e2\n"
_SU2_R3 = _BASIS6 + "d e1 = 1 e2^e3\nd e2 = 1 e3^e1\nd e3 = 1 e1^e2\n"
_SU2_SU2 = cli.emit(direct_sum(catalog("su2"), catalog("su2")))
_H3_R2R = cli.emit(direct_sum(catalog("h3"), catalog("r2R")))
#: row T4.1 on e(2) + r2+R, as cli.emit(corpus.row_t4_e2()) writes it, and with rho no longer closed
_T41 = (_BASIS6 + "d e2 = -1 e1^e3\nd e3 = 1 e1^e2\nd f2 = -1 f1^f2\nform omega = 1 e1^e2 + 1 e3^f1 - 1 f2^f3\n"
        "form rho = 1 e1^e3^f2 - 1 e2^f1^f2 + 1 e2^e3^f3 + 1 e1^f1^f3\n")
_T41_OPEN = _T41.replace("form rho = 1 e1^e3^f2", "form rho = 2 e1^e3^f2")
#: e1 enters d f2, so the algebra is not split over the e/f blocks
_MIXED = _BASIS6 + "d e3 = 1 e1^e2\nd f2 = -1 e1^f2 - 1 f1^f2\n"

CASES = [
    _column("coeff", _BASIS3 + "d e2 = 1 e1^e3 + x e1^e2\n", 3, 18, "expected a coefficient, got 'x'"),
    _column("monomial", _BASIS3 + "d e2 = 1 e1^e9\n", 3, 10, "unknown basis name 'e9'"),
    _column("target", _BASIS3 + "d e9 = 1 e1^e2\n", 3, 3, "unknown basis name 'e9'"),
    _column("fine", _BASIS3 + "  d e2 = 1 e1^e3   # comment\n", 3, 3, None),
    _column("degree-tab", _BASIS3 + "\td e2 = 1 e1^e3 -\t2 e2^e1^e3\n", 3, 21,
            "degree mismatch: monomial of degree 3, expected 2"),
    _column("degree", _BASIS6 + "form omega = 1 e1\n", 3, 16, "degree mismatch: monomial of degree 1, expected 2"),
    _column("no-monomial", _BASIS3 + "d e2 = 1\n", 3, 9, "coefficient without a monomial"),
    _column("no-equals", _BASIS3 + "d e2 1 e1^e3\n", 3, 6, "expected 'd <name> = <terms>'"),
    _column("param", _BASIS3 + "param mu = 1/0\n", 3, 12, "bad rational '1/0'"),
    _column("dim", "dim 5\n", 1, 5, "expected 'dim 3' or 'dim 6'"),
    _column("duplicate", "dim 3\nbasis e1 e2 e1\n", 2, 13, "duplicate basis name"),
    _column("caret-name", "dim 3\nbasis a^b c d\nd c = 1 a^b^d\n", 2, 7, "basis name 'a^b' contains '^'"),
    _column("short-basis", "dim 3\nbasis e1 e2\n", 2, 12, "basis needs exactly 3 names"),
    _column("directive", _BASIS3 + "\n   nonsense\n", 4, 4, "unknown directive 'nonsense'"),
    _column("dangling-sign", _BASIS3 + "d e3 = 1 e1^e2 +\n", 3, 17, "sign without a term"),
    _column("sign-only", _BASIS3 + "d e1 = +\n", 3, 9, "sign without a term"),
    _column("double-sign", _BASIS3 + "d e3 = - - 1 e1^e2\n", 3, 10, "expected a coefficient, got '-'"),
    _column("no-sign-between", _BASIS3 + "d e1 = 1 e1^e2 1 e1^e3\n", 3, 16,
            "expected '+' or '-' between terms, got '1'"),
    _column("leading-sign", _BASIS3 + "d e3 = - 1 e1^e2\n", 3, 0, None),
    _column("signed-coeff", _BASIS3 + "d e2 = 1 e1^e3 + -1 e1^e2\n", 3, 0, None),
    _column("zero", _BASIS3 + "d e1 = 0\n", 3, 0, None),
    _column("d-before-basis", "dim 3\nd e1 = 1 e2^e3\n", 2, 3, "basis line must precede this line"),
    _column("form-before-basis", "dim 6\nform omega = 1 e1^f1\n", 2, 16, "basis line must precede this line"),
    _column("basis-before-dim", "basis e1 e2 e3\n", 1, 1, "dim line must precede basis"),
    _column("form-name", _BASIS3 + "form phi = 1 e1^e2", 3, 6, "expected 'form omega|rho = <terms>'"),
    _column("param-equals", _BASIS3 + "param mu 1/2", 3, 10, "expected 'param <name> = <rational>'"),
    # an echoed token or name is cut to its first 20 characters
    _column("directive-long", _BASIS3 + f"{'x' * 30}\n", 3, 1, f"unknown directive '{'x' * 20}...'"),
    _column("target-long", _BASIS3 + f"d {'e' * 30} = 1 e1^e2\n", 3, 3, f"unknown basis name '{'e' * 20}...'"),
    _column("monomial-long", _BASIS3 + f"d e2 = 1 e1^{'e' * 30}\n", 3, 10, f"unknown basis name '{'e' * 20}...'"),
    _column("caret-name-long", f"dim 3\nbasis {'a^' * 15} c d\n", 2, 7, f"basis name '{'a^' * 10}...' contains '^'"),
    _column("coeff-long", _BASIS3 + f"d e2 = {'x' * 30} e1^e3\n", 3, 8, f"expected a coefficient, got '{'x' * 20}...'"),
    _column("no-sign-between-long", _BASIS3 + f"d e1 = 1 e1^e2 {'1' * 30} e1^e3\n", 3, 16,
            f"expected '+' or '-' between terms, got '{'1' * 20}...'"),
    _column("param-long", _BASIS3 + f"param mu = {'x' * 30}\n", 3, 12, f"bad rational '{'x' * 20}...'"),
    _column("repeated-d-long", f"dim 3\nbasis {'a' * 30} e2 e3\n" + f"d {'a' * 30} = 1 e2^e3\n" * 2, 4, 1,
            f"repeated d {'a' * 20}... line"),
    _column("repeated-param-long", _BASIS3 + f"param {'m' * 30} = 1/2\nparam {'m' * 30} = 1/3\n", 4, 1,
            f"repeated param {'m' * 20}... line"),

    Case("rational/mu-abc", "catalog r3mu --mu abc", None, 2,
         r"error: r3mu requires a rational parameter mu, got 'abc'\n"),
    Case("rational/mu-1/0", "catalog r3mu --mu 1/0", None, 2,
         r"error: r3mu requires a rational parameter mu, got '1/0'\n"),
    Case("rational/mu2-x", "catalog su2 --sum r3pmu --mu2 x", None, 2,
         r"error: r3pmu requires a rational parameter mu, got 'x'\n"),
    Case("rational/mu2-2/0", "catalog su2 --sum r3pmu --mu2 2/0", None, 2,
         r"error: r3pmu requires a rational parameter mu, got '2/0'\n"),
    Case("rational/appendix-mu-x", "appendix --mu x", None, 2, r"error: --mu must be a rational number, got 'x'\n"),
    # an echoed value is cut to its first 20 characters
    Case("rational/mu-long-1/0", f"catalog r3mu --mu 1/{'0' * 30}", None, 2,
         rf"error: r3mu requires a rational parameter mu, got '1/{'0' * 18}\.\.\.'\n"),
    Case("rational/appendix-mu-long-x", f"appendix --mu {'x' * 30}", None, 2,
         rf"error: --mu must be a rational number, got '{'x' * 20}\.\.\.'\n"),
    Case("rational/appendix-mu-1/0", "appendix --mu 1/0", None, 2,
         r"error: --mu must be a rational number, got '1/0'\n"),
    Case("rational/file-coeff-1/0", "classify3d {file}", _BASIS3 + "d e3 = 1/0 e1^e2\n", 2,
         r"parse error: line 3, column 8: expected a coefficient, got '1/0'\n"),
    Case("rational/file-param-1/0", "classify3d {file}", _BASIS3 + "d e3 = 1 e1^e2\nparam mu = 1/0\n", 2,
         r"parse error: line 4, column 12: bad rational '1/0'\n"),

    Case("repeated/dim-after-basis", "classify3d {file}", _BASIS6 + "dim 3\nd e3 = 1 e1^f1\n", 2,
         r"parse error: line 3, column 1: repeated dim line\n"),
    Case("repeated/dim-after-basis-obstruct", "obstruct {file}", _BASIS6 + "dim 3\nd e3 = 1 e1^f1\n", 2,
         r"parse error: line 3, column 1: repeated dim line\n"),
    Case("repeated/dim-after-basis-no-d", "classify3d {file}", _BASIS6 + "dim 3\n", 2,
         r"parse error: line 3, column 1: repeated dim line\n"),
    Case("repeated/basis", "obstruct {file}", _BASIS6 + "basis e1 e2 e3 f1 f2 f3\n", 2,
         r"parse error: line 3, column 1: repeated basis line\n"),
    Case("repeated/d", "obstruct {file}", _BASIS6 + "d e3 = 1 e1^e2\nd e3 = 2 e1^e2\n", 2,
         r"parse error: line 4, column 1: repeated d e3 line\n"),
    Case("repeated/form", "verify {file}", _BASIS6 + "form rho = 1 e1^e2^e3\n# comment\nform rho = 1 f1^f2^f3\n", 2,
         r"parse error: line 5, column 1: repeated form rho line\n"),
    Case("repeated/param", "obstruct {file}", _BASIS6 + "param mu = 1/2\nparam mu = 1/3\n", 2,
         r"parse error: line 4, column 1: repeated param mu line\n"),

    Case("no-line/verify-dim", "verify {file}", SU2_TEXT, 2, r"error: verify needs a six-dimensional algebra\n"),
    Case("no-line/verify-forms", "verify {file}", _SU2_R3, 2, r"error: verify needs both omega and rho forms\n"),
    Case("no-line/classify3d-dim", "classify3d {file}", _SU2_R3, 2,
         r"error: classify3d needs a three-dimensional algebra\n"),
    Case("no-line/obstruct-dim", "obstruct {file}", SU2_TEXT, 2, r"error: obstruct needs a six-dimensional algebra\n"),
    Case("no-line/search-dim", "search {file}", SU2_TEXT, 2, r"error: search needs a six-dimensional algebra\n"),
    Case("no-line/no-dim", "obstruct {file}", "# no declarations\n", 2, r"error: file must declare dim and basis\n"),
    Case("no-line/no-basis", "classify3d {file}", "dim 3\n", 2, r"error: file must declare dim and basis\n"),
    Case("no-line/unreadable", "verify {file}", None, 2, r"error: cannot read {file}: .*\n"),

    # a decoding error is an unreadable file; exit 1 would read as a verdict
    *(Case(f"utf8/{command}", f"{command} {{file}}", b"\xff\xfe", 2, r"error: cannot read {file}: .*decode.*\n")
      for command in ("verify", "classify3d", "obstruct", "search")),

    Case("no-name/--mu-1/2", "catalog --mu 1/2", None, 2, r"error: --mu needs a class name\n"),
    Case("no-name/--sum-su2", "catalog --sum su2", None, 2, r"error: --sum needs a class name\n"),

    Case("restarts/-1", "search {file} --restarts -1", _SU2_SU2, 2,
         r"error: --restarts must be at least 1, got -1\n"),
    Case("restarts/0", "search {file} --restarts 0", _SU2_SU2, 2,
         r"error: --restarts must be at least 1, got 0\n"),
    Case("restarts/long", f"search {{file}} --restarts -{'1' * 30}", _SU2_SU2, 2,
         rf"error: --restarts must be at least 1, got -{'1' * 19}\.\.\.\n"),
    # -1 rejects every point, nan and inf would switch the residual gate off
    *(Case(f"tol/{tol}", f"search {{file}} --tol {tol}", _SU2_SU2, 2,
           rf"error: --tol must be a finite nonnegative number, got {shown}\n")
      for tol, shown in (("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"))),

    Case("exit/appendix", "appendix", None, 0, "", quiet=False),
    Case("exit/appendix-table-0", "appendix --table 0", None, 0, "", quiet=False),
    Case("exit/appendix-mu-5", "appendix --mu 5", None, 0, "", quiet=False),
    Case("exit/appendix-mu-negative", "appendix --mu -7/8", None, 0, "", quiet=False),
    Case("exit/appendix-table-4-mu", "appendix --table 4 --mu 5", None, 2,
         r"error: table 4 has no mu rows; mu goes with table 5\n"),
    Case("exit/catalog-negative-mu", "catalog r3mu --mu -1/2", None, 0, "", quiet=False),
    Case("exit/catalog-sum", "catalog h3 --sum r2R", None, 0, "", quiet=False),
    Case("exit/catalog-long-name", f"catalog {'x' * 30}", None, 2, rf"error: unknown catalog name '{'x' * 20}\.\.\.'\n"),
    Case("exit/catalog-su2-mu", "catalog su2 --mu 1/2", None, 2, r"error: su2 takes no parameter\n"),
    *(Case(f"exit/catalog-r3mu-mu-{mu}", f"catalog r3mu --mu {mu}", None, 2,
           r"error: r3mu requires -1 < mu < 0 or 0 < mu <= 1\n") for mu in ("0", "2")),
    Case("exit/catalog-r3pmu-negative-mu", "catalog r3pmu --mu -1/2", None, 2, r"error: r3pmu requires mu > 0\n"),
    *(Case(f"exit/catalog-{tag}-no-mu", f"catalog {tag}", None, 2, rf"error: {tag} requires a rational parameter mu\n")
      for tag in ("r3mu", "r3pmu")),
    Case("exit/mu2-without-sum", "catalog su2 --mu2 1/2", None, 2, r"error: --mu2 needs --sum\n"),
    Case("exit/mu2-without-sum-with-mu", "catalog r3mu --mu 1/2 --mu2 1/3", None, 2, r"error: --mu2 needs --sum\n"),
    Case("exit/obstruct-refined", "obstruct {file}", _H3_R2R, 1, "", quiet=False),
    Case("exit/obstruct-mixed", "obstruct {file}", _MIXED, 2, r"error: algebra is not split over the e/f blocks\n"),
    Case("exit/classify3d-mixed", "classify3d {file}", _MIXED, 2,
         r"error: classify3d needs a three-dimensional algebra\n"),
    Case("exit/verify-t41", "verify {file}", _T41, 0, "", quiet=False),
    Case("exit/verify-t41-open", "verify {file}", _T41_OPEN, 1, "", quiet=False),
    Case("exit/jacobi", "verify {file}", _BASIS3 + "d e1 = 1 e2^e3\nd e2 = 1 e1^e2\n", 2,
         r"invalid structure constants: structure constants of file violate d\^2 = 0\n"),
    Case("exit/missing-file", "verify /nonexistent/file.alg", None, 2,
         r"error: cannot read /nonexistent/file\.alg: .*\n"),
    # numpy refuses a negative seed with a traceback, which would exit 1 ("nothing found")
    Case("exit/search-seed", "search {file} --seed -1", _T41, 2, r"error: --seed must be at least 0, got -1\n"),
    Case("exit/search-seed-long", f"search {{file}} --seed -{'1' * 30}", _T41, 2,
         rf"error: --seed must be at least 0, got -{'1' * 19}\.\.\.\n"),
    Case("exit/search-max-den-long", f"search {{file}} --max-den -{'1' * 30}", _T41, 2,
         rf"error: --max-den must be at least 0, got -{'1' * 19}\.\.\.\n"),
    # argparse's own refusals cut an echoed value too, after the usage line; the choice lists vary across versions
    Case("exit/search-restarts-not-int", f"search {{file}} --restarts {'x' * 30}", None, 2,
         rf"(?s)usage: halfflat search .*\nhalfflat search: error: argument --restarts: invalid int value: "
         rf"'{'x' * 20}\.\.\.'\n"),
    Case("exit/search-tol-not-float", f"search {{file}} --tol {'x' * 30}", None, 2,
         rf"(?s)usage: halfflat search .*\nhalfflat search: error: argument --tol: invalid float value: "
         rf"'{'x' * 20}\.\.\.'\n"),
    Case("exit/search-target-long", f"search {{file}} --target {'x' * 30}", None, 2,
         rf"(?s)usage: halfflat search .*\nhalfflat search: error: argument --target: invalid choice: "
         rf"'{'x' * 20}\.\.\.' \(choose from [^\n]*\)\n"),
    Case("exit/appendix-table-long", f"appendix --table {'9' * 30}", None, 2,
         rf"(?s)usage: halfflat appendix .*\nhalfflat appendix: error: argument --table: invalid choice: "
         rf"{'9' * 20}\.\.\. \(choose from [^\n]*\)\n"),
    Case("exit/command-long", f"{'x' * 30} {{file}}", None, 2,
         rf"(?s)usage: halfflat .*\nhalfflat: error: argument command: invalid choice: "
         rf"'{'x' * 20}\.\.\.' \(choose from [^\n]*\)\n"),
    Case("exit/catalog-extra-argument-long", f"catalog su2 {'q' * 30}", None, 2,
         rf"(?s)usage: halfflat .*\nhalfflat: error: unrecognized arguments: {'q' * 20}\.\.\.\n"),
]

#: the interpreter's integer-digit limit, which a literal one digit longer exceeds; with none (0), no row needs it
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
if _DIGITS:
    _TOO_LONG = "1" * (_DIGITS + 1)
    _SHOWN = "1" * 20 + r"\.\.\."  # --mu values are echoed to 20 characters
    _TOO_MANY = f"rational with more than {_DIGITS} digits in a numerator or denominator"
    #: literals inside the limit whose printed values are not: D = 4 mu / (1 + mu)^2 has twice the digits
    #: of mu, and lambda is quartic in the coefficients of rho
    _BIG = 10 ** (_DIGITS // 3)
    CASES += [
        Case("rational/file-coeff-digits", "classify3d {file}", _BASIS3 + f"d e3 = 1{'0' * _DIGITS} e1^e2\n", 2,
             rf"parse error: line 3, column 8: {_TOO_MANY}\n"),
        Case("rational/file-param-digits", "classify3d {file}", _BASIS3 + f"param mu = {_TOO_LONG}\n", 2,
             rf"parse error: line 3, column 12: {_TOO_MANY}\n"),
        Case("rational/mu-digits", f"catalog r3mu --mu 1e-{_DIGITS}", None, 2,
             rf"error: --mu 1e-{_DIGITS} needs more than {_DIGITS} digits to print\n"),
        Case("rational/mu2-digits", f"catalog su2 --sum r3pmu --mu2 1e{_DIGITS}", None, 2,
             rf"error: --mu2 1e{_DIGITS} needs more than {_DIGITS} digits to print\n"),
        Case("rational/appendix-mu-digits", f"appendix --mu 1e-{_DIGITS}", None, 2,
             rf"error: --mu 1e-{_DIGITS} needs more than {_DIGITS} digits to print\n"),
        Case("rational/mu-integer-digits", f"catalog r3pmu --mu {_TOO_LONG}", None, 2,
             rf"error: --mu {_SHOWN} needs more than {_DIGITS} digits to print\n"),
        Case("rational/mu2-integer-digits", f"catalog su2 --sum r3pmu --mu2 {_TOO_LONG}", None, 2,
             rf"error: --mu2 {_SHOWN} needs more than {_DIGITS} digits to print\n"),
        Case("rational/appendix-mu-integer-digits", f"appendix --mu {_TOO_LONG}", None, 2,
             rf"error: --mu {_SHOWN} needs more than {_DIGITS} digits to print\n"),
        Case("rational/classify3d-D-digits", "classify3d {file}",
             _BASIS3 + f"d e2 = -1 e1^e2\nd e3 = -1/1{'0' * (_DIGITS * 2 // 3)} e1^e3\n", 2,
             rf"error: a value of the classify3d report needs more than {_DIGITS} digits to print\n"),
        Case("rational/verify-lambda-digits", "verify {file}",
             _BASIS6 + "form omega = 1 e1^f1 + 1 e2^f2 + 1 e3^f3\n"
             f"form rho = {_BIG} e1^e2^e3 - {_BIG} e1^f2^f3 - {_BIG} f1^e2^f3 - {_BIG} f1^f2^e3\n", 2,
             rf"error: a value of the verify report needs more than {_DIGITS} digits to print\n"),
    ]


def main() -> int:
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            problems = check(case, directory)
        if problems:
            failed += 1
            print(f"{case.id}: {'; '.join(problems)}")
    print(f"{len(CASES)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

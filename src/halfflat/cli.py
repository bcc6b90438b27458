"""Command-line front end and the text exchange format for algebras and forms.

The file grammar is line oriented; rationals only, `#` starts a comment:

    dim 6
    basis e1 e2 e3 f1 f2 f3
    d e3 = 1 e1^e2
    d f2 = 1 f2^f1
    form omega = 1 e1^f1 + 1 e2^f2 + 1 e3^f3
    form rho = 1 e1^e2^e3 + -1 f1^f2^f3
    param mu = 1/2

Exit codes: 0 positive verdict or success, 1 negative verdict (not
half-flat / obstructed / nothing found), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import corpus, obstruct
from .classify3d import classify
from .errors import HalfFlatError, JacobiError, ParseError, _clipped
from .exterior import DIM, KForm, sorted_monomial
from .liealg import CATALOG_ROWS, LieAlgebra, catalog, direct_sum
from .stable import TARGET_KINDS
from .verify import report_text, verify

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2


# -- parsing --------------------------------------------------------------------

#: an integer or a fraction with a nonzero denominator
_TOKEN_RAT = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?$")


def parse(text: str) -> tuple[LieAlgebra, KForm | None, KForm | None]:
    """Parse the structure-file format into an algebra and optional forms."""
    dim: int | None = None
    index: dict[str, int] = {}  # basis name -> 1-based index, from the basis line
    diffs: dict[int, KForm] = {}
    forms: dict[str, KForm] = {}
    params: dict[str, Fraction] = {}
    seen: set[tuple[str, str]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        # dim and basis, and d, form and param per name, may each be given once
        key = (head, tokens[1] if head in ("d", "form", "param") and len(tokens) > 1 else "")
        if key in seen:
            raise ParseError(f"repeated {' '.join(map(_clipped, key)).strip()} line", line_no, _column(line, 0))
        seen.add(key)
        if head == "dim":
            if len(tokens) != 2 or tokens[1] not in ("3", "6"):
                raise _shape_error("expected 'dim 3' or 'dim 6'", line_no, line, [None, ("3", "6")])
            dim = int(tokens[1])
        elif head == "basis":
            if dim is None:
                raise ParseError("dim line must precede basis", line_no, _column(line, 0))
            if len(tokens) != dim + 1:
                raise _shape_error(f"basis needs exactly {dim} names", line_no, line, [None] * (dim + 1))
            if any("^" in name for name in tokens[1:]):  # no monomial could name it
                k = next(k for k in range(1, dim + 1) if "^" in tokens[k])
                raise ParseError(f"basis name {_clipped(tokens[k])!r} contains '^'", line_no, _column(line, k))
            index = {name: k for k, name in enumerate(tokens[1:], start=1)}
            if len(index) != dim:
                k = next(k for k in range(2, dim + 1) if tokens[k] in tokens[1:k])
                raise ParseError("duplicate basis name", line_no, _column(line, k))
        elif head == "d":
            if len(tokens) < 4 or tokens[2] != "=":
                raise _shape_error("expected 'd <name> = <terms>'", line_no, line, [None, None, ("=",), None])
            target = _index_of(index, tokens[1], line_no, line, 1)
            diffs[target] = _parse_terms(tokens, line, index, line_no, 2)
        elif head == "form":
            if len(tokens) < 4 or tokens[1] not in ("omega", "rho") or tokens[2] != "=":
                allowed = [None, ("omega", "rho"), ("=",), None]
                raise _shape_error("expected 'form omega|rho = <terms>'", line_no, line, allowed)
            forms[tokens[1]] = _parse_terms(tokens, line, index, line_no, 2 if tokens[1] == "omega" else 3)
        elif head == "param":
            if len(tokens) != 4 or tokens[2] != "=":
                allowed = [None, None, ("=",), None]
                raise _shape_error("expected 'param <name> = <rational>'", line_no, line, allowed)
            params[tokens[1]] = _rational(tokens, 3, line_no, line, "bad rational ")
        else:
            raise ParseError(f"unknown directive {_clipped(head)!r}", line_no, _column(line, 0))

    if dim is None or not index:
        raise HalfFlatError("file must declare dim and basis")
    L = LieAlgebra(dim, [diffs.get(k, KForm(2)) for k in range(1, dim + 1)], name="file", params=params)
    return L, forms.get("omega"), forms.get("rho")


def _column(line: str, k: int) -> int:
    """1-based column of token k of a line (just past its last token for k past them); read on errors only."""
    spans = [m.span() for m in re.finditer(r"\S+", line)]
    return spans[k][0] + 1 if k < len(spans) else spans[-1][1] + 1


def _shape_error(message: str, line_no: int, line: str, allowed: list) -> ParseError:
    """A ParseError at the first token outside its allowed values (None allows any), or past them."""
    tokens = line.split()
    bad = (k for k, ok in enumerate(allowed) if k >= len(tokens) or ok is not None and tokens[k] not in ok)
    return ParseError(message, line_no, _column(line, next(bad, len(allowed))))


def _index_of(index: dict[str, int], name: str, line_no: int, line: str, k: int) -> int:
    """1-based index of a basis name, read in token k; a ParseError at that token's column without one."""
    if name not in index:  # an empty index: no basis line yet
        message = f"unknown basis name {_clipped(name)!r}" if index else "basis line must precede this line"
        raise ParseError(message, line_no, _column(line, k))
    return index[name]


def _rational(tokens: list[str], k: int, line_no: int, line: str, refusal: str) -> Fraction:
    """The rational token k spells, an integer or p/q, signed; else a ParseError '<refusal><token>' at its column."""
    try:
        if _TOKEN_RAT.match(tokens[k]):
            return Fraction(tokens[k])
        message = f"{refusal}{_clipped(tokens[k])!r}"
    except ValueError:  # an integer past the interpreter's digit limit, which Fraction reads with int()
        message = f"rational with more than {sys.get_int_max_str_digits()} digits in a numerator or denominator"
    raise ParseError(message, line_no, _column(line, k))


def _parse_terms(tokens: list[str], line: str, index: dict[str, int], line_no: int, degree: int) -> KForm:
    """The form that tokens[3:] spell: terms 'coeff name^name^...' joined by '+'/'-' tokens; the first may carry one."""
    acc: dict[int, Fraction] = {}
    i = 3
    if tokens[3:] == ["0"]:
        return KForm(degree)
    while i < len(tokens):
        sign = -1 if tokens[i] == "-" else 1
        if tokens[i] in ("+", "-"):
            i += 1
            if i >= len(tokens):
                raise ParseError("sign without a term", line_no, _column(line, i))
        elif i > 3:
            message = f"expected '+' or '-' between terms, got {_clipped(tokens[i])!r}"
            raise ParseError(message, line_no, _column(line, i))
        coeff = sign * _rational(tokens, i, line_no, line, "expected a coefficient, got ")
        i += 1
        if i >= len(tokens):
            raise ParseError("coefficient without a monomial", line_no, _column(line, i))
        idx = [_index_of(index, name, line_no, line, i) for name in tokens[i].split("^")]
        if len(idx) != degree:
            message = f"degree mismatch: monomial of degree {len(idx)}, expected {degree}"
            raise ParseError(message, line_no, _column(line, i))
        if len(set(idx)) == degree:  # a repeated factor wedges to zero
            mask, mono_sign = sorted_monomial(idx)
            acc[mask] = acc.get(mask, 0) + mono_sign * coeff
        i += 1
    return KForm(degree, acc)


def emit(L: LieAlgebra, omega: KForm | None = None, rho: KForm | None = None) -> str:
    """Canonical serialization; parse(emit(...)) is the identity."""
    names = ["e1", "e2", "e3", "f1", "f2", "f3"][: L.dim]
    lines = [f"dim {L.dim}", "basis " + " ".join(names)]
    for k in range(1, L.dim + 1):
        dk = L.diffs[k - 1]
        if dk.is_zero():
            continue
        lines.append(f"d {names[k - 1]} = " + _emit_terms(dk, names))
    if omega is not None:
        lines.append("form omega = " + _emit_terms(omega, names))
    if rho is not None:
        lines.append("form rho = " + _emit_terms(rho, names))
    for key in sorted(L.params):
        lines.append(f"param {key} = {L.params[key]}")
    return "\n".join(lines) + "\n"


def _emit_terms(form: KForm, names: list[str]) -> str:
    bits = []
    for mask in sorted(form.terms):
        coeff = form.terms[mask]
        mono = "^".join(names[i] for i in range(DIM) if mask >> i & 1)
        if not bits:
            bits.append(f"{coeff} {mono}")
        elif coeff < 0:
            bits.append(f"- {-coeff} {mono}")
        else:
            bits.append(f"+ {coeff} {mono}")
    return " ".join(bits) if bits else "0"


# -- subcommands -----------------------------------------------------------------


def _cmd_verify(args) -> int:
    L, omega, rho = _load(args, 6)
    if omega is None or rho is None:
        raise HalfFlatError("verify needs both omega and rho forms")
    report = verify(L, omega, rho)
    print(_printed("a value of the verify report", report.to_text))
    return EXIT_POSITIVE if report.half_flat else EXIT_NEGATIVE


def _cmd_classify3d(args) -> int:
    L, _, _ = _load(args, 3)
    c = classify(L)
    signs = None if c.eigen_signs is None else "".join("+0-"[1 - s] for s in c.eigen_signs)
    rows = [("class", c.display), ("bianchi", c.bianchi), ("eigen_signs", signs), ("D", c.det_d), ("mu", c.mu)]
    print(_printed("a value of the classify3d report", lambda: report_text(rows)))
    return EXIT_POSITIVE


def _cmd_obstruct(args) -> int:
    L, _, _ = _load(args, 6)
    verdict, text = obstruct.decide(L)
    print(text)
    return EXIT_NEGATIVE if verdict == obstruct.VERDICT_OBSTRUCTED else EXIT_POSITIVE


def _cmd_search(args) -> int:
    if args.restarts < 1:
        raise HalfFlatError(f"--restarts must be at least 1, got {_clipped(str(args.restarts))}")
    if not 0 <= args.tol < float("inf"):  # nan or inf would switch the residual gate off
        raise HalfFlatError(f"--tol must be a finite nonnegative number, got {args.tol}")
    if args.max_den < 0:  # 0 skips the rationalization; a negative one would skip it silently
        raise HalfFlatError(f"--max-den must be at least 0, got {_clipped(str(args.max_den))}")
    if args.seed < 0:  # numpy's generator refuses a negative seed with a traceback
        raise HalfFlatError(f"--seed must be at least 0, got {_clipped(str(args.seed))}")
    L, _, _ = _load(args, 6)
    from . import search  # scipy is loaded only for this command, once its input is checked

    result = search.find_halfflat(
        L,
        target=args.target,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
    )
    if result.found and args.max_den > 0:
        search.rationalize(L, result, max_den=args.max_den)
    print(result.to_text())
    return EXIT_POSITIVE if result.found else EXIT_NEGATIVE


def _cmd_catalog(args) -> int:
    if args.sum is None and args.mu2 is not None:
        raise HalfFlatError("--mu2 needs --sum")
    if args.name is None and args.mu is not None:
        raise HalfFlatError("--mu needs a class name")
    if args.name is None and args.sum is not None:
        raise HalfFlatError("--sum needs a class name")
    if args.name is None:
        for tag, row in CATALOG_ROWS.items():
            kind = "non-unimodular" if row.signs is None else "unimodular"
            print(f"{tag}: {row.display} (Bianchi {row.bianchi}, {kind})")
        return EXIT_POSITIVE
    L1 = catalog(args.name, _printable("--mu", args.mu))
    if args.sum is None:
        print(emit(L1), end="")
        return EXIT_POSITIVE
    L2 = catalog(args.sum, _printable("--mu2", args.mu2))
    print(emit(direct_sum(L1, L2)), end="")
    return EXIT_POSITIVE


def _cmd_appendix(args) -> int:
    try:
        mu = Fraction(_printable("--mu", args.mu)) if args.mu is not None else None
    except (ValueError, ZeroDivisionError):
        raise HalfFlatError(f"--mu must be a rational number, got {_clipped(args.mu)!r}") from None
    instances = corpus.iter_instances(table=args.table, mu=mu)
    failures = 0
    for inst in instances:
        rep = corpus.verify_instance(inst)
        status = "ok" if rep.ok else f"FAIL ({rep.residual})"
        print(f"{inst.label}: {status}")
        if inst.note:
            print(f"  note: {inst.note}")
        if not rep.ok:
            failures += 1
    print(f"instances: {len(instances)}  failures: {failures}")
    return EXIT_POSITIVE if failures == 0 else EXIT_NEGATIVE


def _printable(flag: str, value: str | None) -> str | None:
    """A --mu flag's value, refused (echoing 20 characters) if it is a rational ``str`` cannot read or print.

    Others pass as given.  Fraction raises one ValueError for a malformed value and a digit run past the interpreter's
    limit, so the shape is read with each run of digits cut to its first significant digit (0 if none).
    """
    try:
        Fraction(re.sub(r"0*(\d)\d*", r"\1", value))
    except (TypeError, ValueError, ZeroDivisionError):  # None or not a rational: the command names it
        return value
    _printed(f"{flag} {_clipped(value)}", lambda: str(Fraction(value)))
    return value


def _printed(what: str, render) -> str:
    """The text render() formats, or an input error naming ``what`` if it holds a rational ``str`` cannot print.

    Only formatting runs inside: an integer past the interpreter's digit limit
    (``sys.get_int_max_str_digits()``) raises ValueError in ``int.__str__``.
    """
    try:
        return render()
    except ValueError:
        raise HalfFlatError(f"{what} needs more than {sys.get_int_max_str_digits()} digits to print") from None


def _load(args, dim: int):
    """Parse ``args.file``, which ``args.command`` needs to hold an algebra of dimension ``dim``."""
    try:
        with open(args.file, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not part of the text
            L, omega, rho = parse(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise HalfFlatError(f"cannot read {args.file}: {exc}") from None
    if L.dim != dim:
        raise HalfFlatError(f"{args.command} needs a {'three' if dim == 3 else 'six'}-dimensional algebra")
    return L, omega, rho


class _Parser(argparse.ArgumentParser):
    """argparse, whose refusals cut each token past 20 characters as ``_clipped`` does, a quoted one inside its quotes.

    Subparsers are built of the same class.
    """

    def error(self, message):
        cut = lambda m: _clipped(m[0]) if m[1] is None else f"'{_clipped(m[1])}'"
        super().error(re.sub(r"'([^']*)'|\S+", cut, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call."""
    p = _Parser(
        prog="halfflat",
        description="Exact verification, classification, obstruction and search "
        "of half-flat structures on six-dimensional Lie algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify a (omega, rho) pair from a file")
    v.add_argument("file")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("classify3d", help="Bianchi classification of a 3D algebra")
    c.add_argument("file")
    c.set_defaults(func=_cmd_classify3d)

    o = sub.add_parser("obstruct", help="run the non-existence obstructions")
    o.add_argument("file")
    o.set_defaults(func=_cmd_obstruct)

    s = sub.add_parser("search", help="float search for a half-flat structure")
    s.add_argument("file")
    s.add_argument("--target", choices=tuple(TARGET_KINDS), default="su3")
    s.add_argument("--restarts", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--max-den", type=int, default=64)
    s.set_defaults(func=_cmd_search)

    k = sub.add_parser("catalog", help="list catalog classes or emit a standard basis")
    k.add_argument("name", nargs="?", default=None)
    k.add_argument("--mu", default=None)
    k.add_argument("--sum", default=None, help="second summand for a direct sum")
    k.add_argument("--mu2", default=None)
    k.set_defaults(func=_cmd_catalog)

    a = sub.add_parser("appendix", help="run the built-in corpus of structures")
    a.add_argument("--table", type=int, choices=(0, 3, 4, 5), default=None)
    a.add_argument("--mu", default=None)
    a.set_defaults(func=_cmd_appendix)

    return p


def _join_mu(argv: list[str]) -> list[str]:
    """``--mu v`` and ``--mu2 v`` as ``--mu=v``: argparse takes a value like -7/8 for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--mu", "--mu2"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_mu(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except JacobiError as exc:
        print(f"invalid structure constants: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HalfFlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

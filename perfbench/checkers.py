"""Checks of halfflat outputs that share no code with the library.

Forms are held densely as ``{sorted index tuple: coefficient}`` over the
0-based coframe e^0..e^5, with the determinant convention
e^I(e_I) = 1.  Wedge, interior product and the Chevalley-Eilenberg
differential follow the textbook permutation formulas, so no sign table,
bitmask or routine of the library is reused.  The same generic code runs on
``Fraction``, on :class:`Q2` (the quadratic field Q(sqrt r) some corpus
rows live in) and on ``float`` (the search results).

Every ``check_*`` function returns ``None`` when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

DIM = 6
TOP = tuple(range(DIM))


# -- scalars ---------------------------------------------------------------------


class Q2:
    """a + b*sqrt(r) with rational a, b and a rational radicand r (0 when rational)."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b=0, r=0):
        self.a, self.b, self.r = Fraction(a), Fraction(b), Fraction(r)

    def _other(self, o):
        if isinstance(o, Q2):
            if self.r and o.r and self.r != o.r:
                raise ValueError("mixed radicands")
            return o.a, o.b, self.r or o.r
        return Fraction(o), Fraction(0), self.r

    def __add__(self, o):
        a, b, r = self._other(o)
        return Q2(self.a + a, self.b + b, r)

    __radd__ = __add__

    def __neg__(self):
        return Q2(-self.a, -self.b, self.r)

    def __sub__(self, o):
        return self + (-Q2(*self._other(o)))

    def __rsub__(self, o):
        return Q2(*self._other(o)) - self

    def __mul__(self, o):
        a, b, r = self._other(o)
        return Q2(self.a * a + self.b * b * r, self.a * b + self.b * a, r)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, o):
        return not (self - o)

    __hash__ = None

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or self.r == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        d = self.a * self.a - self.b * self.b * self.r
        return sa * ((d > 0) - (d < 0))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.r))


def exact(c) -> Q2:
    """Library scalar (int, Fraction or a+b*sqrt(d) object) as a Q2.

    A float is taken at its exact binary value: some printed metrics hold
    halves of ints as floats.
    """
    if isinstance(c, (int, Fraction, float)):
        return Q2(c)
    return Q2(c.a, c.b, c.d)


def sign_of(x) -> int:
    if isinstance(x, Q2):
        return x.sign()
    return (x > 0) - (x < 0)


# -- dense forms -------------------------------------------------------------------


def perm_sign(seq) -> int:
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def dense(kform, convert=exact) -> tuple[int, dict]:
    """(degree, {sorted 0-based index tuple: coefficient}) from a library form."""
    out = {}
    for mask, coeff in kform.terms.items():
        out[tuple(i for i in range(DIM) if mask >> i & 1)] = convert(coeff)
    return kform.degree, out


def dense_float(degree: int, coeffs) -> tuple[int, dict]:
    """Dense form from a search result's coefficient vector.

    The vector runs over the monomials e^I ordered by the integer
    sum(2^i for i in I), the order ``SearchResult`` documents.
    """
    order = sorted(combinations(range(DIM), degree), key=lambda idx: sum(1 << i for i in idx))
    return degree, dict(zip(order, map(float, coeffs)))


def value(form: dict, idx: tuple):
    """Value of a form on the basis vectors e_idx, in any order."""
    if len(set(idx)) < len(idx):
        return 0
    c = form.get(tuple(sorted(idx)))
    if c is None:
        return 0
    return c * perm_sign(idx)


def wedge(a, b):
    """(a ^ b)(e_I) = sum over (p, q)-shuffles of sign * a(e_left) * b(e_right)."""
    (ka, da), (kb, db) = a, b
    k = ka + kb
    out = {}
    for idx in combinations(range(DIM), k):
        total = 0
        for left in combinations(range(k), ka):
            right = tuple(i for i in range(k) if i not in left)
            term = value(da, tuple(idx[i] for i in left))
            if term:
                term = term * value(db, tuple(idx[i] for i in right))
                if term:
                    total = total + perm_sign(left + right) * term
        if total:
            out[idx] = total
    return k, out


def contract(v, a):
    """(v -| a)(e_I) = a(v, e_I)."""
    k, da = a
    out = {}
    for idx in combinations(range(DIM), k - 1):
        total = 0
        for i in range(DIM):
            if v[i] and i not in idx:
                total = total + v[i] * value(da, (i,) + idx)
        if total:
            out[idx] = total
    return k - 1, out


def brackets(L, convert=exact) -> dict:
    """[e_i, e_j] for i < j from the stored structure constants.

    d e^k (e_i, e_j) = -e^k([e_i, e_j]), so [e_i, e_j] = -sum_k c_ij^k e_k
    where c_ij^k is the e^ij coefficient of d e^k.
    """
    out = {}
    for k, dk in enumerate(L.diffs):
        for mask, c in dk.terms.items():
            i, j = (n for n in range(DIM) if mask >> n & 1)
            out.setdefault((i, j), [0] * DIM)[k] = -convert(c)
    return out


def d(br: dict, a):
    """d a(X_0..X_k) = sum_{i<j} (-1)^(i+j) a([X_i, X_j], X_0..^i..^j..X_k)."""
    k, da = a
    out = {}
    for idx in combinations(range(DIM), k + 1):
        total = 0
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                comps = br.get((idx[p], idx[q]))
                if comps is None:
                    continue
                rest = tuple(idx[m] for m in range(k + 1) if m not in (p, q))
                sgn = -1 if (p + q) & 1 else 1
                for c, coeff in enumerate(comps):
                    if coeff:
                        val = value(da, (c,) + rest)
                        if val:
                            total = total + sgn * coeff * val
        if total:
            out[idx] = total
    return k + 1, out


def k_matrix(rho) -> list[list]:
    """K_rho with column j = X where X -| e^012345 = (e_j -| rho) ^ rho.

    (X -| e^012345)(e_{TOP minus u}) = (-1)^u X_u, which inverts kappa.
    """
    cols = []
    for j in range(DIM):
        v = [1 if i == j else 0 for i in range(DIM)]
        _, xi = wedge(contract(v, rho), rho)
        col = []
        for u in range(DIM):
            c = xi.get(TOP[:u] + TOP[u + 1 :], 0)
            col.append(-c if u & 1 else c)
        cols.append(col)
    return [[cols[j][i] for j in range(DIM)] for i in range(DIM)]


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for m in range(n):
                if a[i][m] and b[m][j]:
                    s = s + a[i][m] * b[m][j]
            row.append(s)
        out.append(row)
    return out


def omega_matrix(omega) -> list[list]:
    _, dw = omega
    return [[value(dw, (u, v)) if u != v else 0 for v in range(DIM)] for u in range(DIM)]


def is_zero(form) -> bool:
    return not any(form[1].values())


def norm(form) -> float:
    return math.sqrt(sum(float(c) ** 2 for c in form[1].values()))


def float_signature(g) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of the symmetric part."""
    m = np.array([[float(x) for x in row] for row in g])
    ev = np.linalg.eigvalsh(0.5 * (m + m.T))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(ev))))
    return int(np.sum(ev > tol)), int(np.sum(ev < -tol)), int(np.sum(np.abs(ev) <= tol))


#: signatures, up to the overall sign, that each stabilizer kind requires
KIND_SIGNATURES = {
    "SU(3)": {(6, 0)},
    "SU(1,2)": {(4, 2)},
    "SL(3,R)": {(3, 3)},
}
TARGET_KIND = {"su3": "SU(3)", "su12": "SU(1,2)", "sl3r": "SL(3,R)"}


def unsigned(sig) -> tuple[int, int]:
    p, q = sig[0], sig[1]
    return (max(p, q), min(p, q))


# -- half-flat verdicts -------------------------------------------------------------


def structure(L, omega, rho, convert=exact) -> dict:
    """Everything the verdict depends on, recomputed by brute force."""
    br = brackets(L, convert)
    w = dense(omega, convert) if hasattr(omega, "terms") else omega
    r = dense(rho, convert) if hasattr(rho, "terms") else rho
    sixth = Fraction(1, 6) if convert is exact else 1 / 6
    w2 = wedge(w, w)
    K = k_matrix(r)
    K2 = mat_mul(K, K)
    lam = sum((K2[i][i] for i in range(DIM)), 0) * sixth
    top = wedge(w2, w)[1].get(TOP, 0)
    return {
        "d_rho": d(br, r),
        "d_omega2": d(br, w2),
        "omega_rho": wedge(w, r),
        "K2": K2,
        "lam": lam,
        "phi_omega": top * sixth,
        "G": mat_mul(omega_matrix(w), K),
    }


def check_report(L, omega, rho, report, expect_kind: str | None = None) -> str | None:
    """Recheck a ``verify`` report: closedness, compatibility, lambda, signature.

    With ``expect_kind`` the pair must also be half-flat of that kind.
    """
    s = structure(L, omega, rho)
    if report.d_rho_zero != is_zero(s["d_rho"]):
        return f"d_rho_zero={report.d_rho_zero} but brute force disagrees"
    if report.d_omega2_zero != is_zero(s["d_omega2"]):
        return f"d_omega2_zero={report.d_omega2_zero} but brute force disagrees"
    wr_zero = is_zero(s["omega_rho"])
    lam = s["lam"]
    for i in range(DIM):
        for j in range(DIM):
            want = lam if i == j else 0
            if s["K2"][i][j] != want:
                return "K_rho^2 != lambda*id"
    if report.lam is None or exact(report.lam) != lam:
        return f"lambda {report.lam} != brute force {float(lam):.6g}"
    stable = bool(lam) and bool(s["phi_omega"])
    sig = None
    if stable and wr_zero:
        sig = float_signature(s["G"])
        if report.structure.signature is None or unsigned(report.structure.signature) != unsigned(sig):
            return f"signature {report.structure.signature} != float {sig}"
    if report.compatible != wr_zero:
        return f"compatible={report.compatible} but omega^rho zero is {wr_zero}"
    want_kind = None
    if sig is not None and sig[2] == 0:
        for kind, sigs in KIND_SIGNATURES.items():
            if unsigned(sig) in sigs and (sign_of(lam) > 0) == (kind == "SL(3,R)"):
                want_kind = kind
                break
    half_flat = is_zero(s["d_rho"]) and is_zero(s["d_omega2"]) and wr_zero and want_kind is not None
    if report.half_flat != half_flat:
        return f"half_flat={report.half_flat} but brute force says {half_flat}"
    if half_flat and _kind_class(report.structure.kind) != _kind_class(want_kind):
        return f"kind {report.structure.kind} != {want_kind}"
    if expect_kind is not None:
        if not half_flat:
            return "expected a half-flat pair"
        if _kind_class(report.structure.kind) != _kind_class(expect_kind):
            return f"kind {report.structure.kind}, paper gives {expect_kind}"
    return None


def _kind_class(kind):
    """Kinds up to orientation: SU(0,3) is SU(3) and SU(2,1) is SU(1,2) reversed."""
    return {"SU(2,1)": "SU(1,2)", "SU(0,3)": "SU(3)"}.get(kind, kind)


def check_instance(inst, rep) -> str | None:
    """Recheck a corpus row against the paper's printed data.

    Beyond :func:`check_report`: c^4 = 4 phi(omega)^2/|lambda| equals the
    printed t4, and G = omega K_rho matches the printed metric s*G0 through
    entrywise G^2 = |lambda| s^2 G0^2 with one overall sign.
    """
    why = check_report(inst.algebra, inst.omega, inst.rho, rep.report, inst.expected_kind)
    if why:
        return why
    s = structure(inst.algebra, inst.omega, inst.rho)
    lam, phi = s["lam"], s["phi_omega"]
    lam_abs = lam if sign_of(lam) > 0 else -lam
    if 4 * phi * phi != exact(inst.t4) * lam_abs:
        return f"c^4 != printed t4 {inst.t4}"
    s2 = exact(inst.s2)
    signs = set()
    for u in range(DIM):
        for v in range(DIM):
            g, g0 = s["G"][u][v], exact(inst.g0[u][v])
            if g * g != lam_abs * s2 * g0 * g0:
                return f"metric entry ({u},{v}) off the printed metric"
            if g0:
                signs.add(sign_of(g) * sign_of(g0))
    if len(signs) > 1:
        return "metric signs differ from the printed metric"
    if not (rep.ok and rep.normalization_ok and rep.metric_ok):
        return f"verify_instance rejected a printed row: {rep.residual}"
    return None


# -- obstructions and classification ---------------------------------------------

#: The 35 classes of g1 (+) g2 with a half-flat SU(3) structure (the paper's
#: existence tables 3-5), unordered.  r3mu- and r3mu+ are r3,mu with mu < 0
#: and 0 < mu < 1; r3pmu is r3',mu.
ADMITTING = frozenset(
    frozenset(p.split(":"))
    for p in """
    su2:su2 su2:sl2 su2:e2 su2:e11 su2:h3 su2:R3
    sl2:sl2 sl2:e2 sl2:e11 sl2:h3 sl2:R3
    e2:e2 e2:e11 e2:h3 e2:R3
    e11:e11 e11:h3 e11:R3
    h3:h3 h3:R3
    R3:R3
    su2:r2R su2:r3 su2:r31 su2:r3mu- su2:r3mu+ su2:r3pmu
    sl2:r2R sl2:r3 sl2:r31 sl2:r3mu- sl2:r3mu+ sl2:r3pmu
    e2:r2R e11:r2R
    """.split()
)
assert len(ADMITTING) == 35

#: Bianchi type of each class, for the classify3d checks
BIANCHI = {
    "su2": "IX", "sl2": "VIII", "e2": "VII_0", "e11": "VI_0", "h3": "II", "R3": "I",
    "r2R": "III", "r3": "IV", "r31": "V", "r3mu": "VI", "r3pmu": "VII",
}


def check_obstruct(k1: str, k2: str, code: int, text: str) -> str | None:
    """``halfflat obstruct`` must obstruct exactly the classes the paper excludes."""
    lines = text.splitlines()
    admits = frozenset((k1, k2)) in ADMITTING
    want_code, want_line = (0, "verdict: Inconclusive") if admits else (1, "verdict: NoHalfFlatSU3")
    if code != want_code or want_line not in lines:
        got = next((ln for ln in lines if ln.startswith("verdict:")), "no verdict")
        return f"{k1}+{k2}: exit {code}, {got}; paper says {'admits' if admits else 'excluded'}"
    ranks = [ln for ln in lines if ln.startswith("rank_d_")]
    if ranks and ranks != ["rank_d_lambda3W: 4", "rank_d_lambda4W: 1"]:
        return f"{k1}+{k2}: ranks {ranks} are not (4, 1)"
    return None


def check_classify(family: str, mu, c) -> str | None:
    if c.name != family or c.bianchi != BIANCHI[family]:
        return f"classified {family} as {c.name} ({c.bianchi})"
    if mu is not None and c.mu != mu:
        return f"{family}: mu {c.mu} != {mu}"
    return None


def check_scan(eligible: bool, n: int, rep) -> str | None:
    if eligible and not (rep.all_nonnegative and rep.n_samples == n):
        return f"lambda < 0 at sample {rep.first_negative} where the paper proves lambda >= 0"
    if not eligible and rep.all_nonnegative:
        return "control su2+su2 found no lambda < 0"
    return None


# -- search -------------------------------------------------------------------------


def float_residuals(L, w, r) -> dict:
    """Residuals and signature of float (omega, rho) coefficient vectors."""
    s = structure(L, dense_float(2, w), dense_float(3, r), convert=float)
    return {
        "d_rho": norm(s["d_rho"]),
        "d_omega2": norm(s["d_omega2"]),
        "omega_rho": norm(s["omega_rho"]),
        "lam": s["lam"],
        "signature": float_signature(s["G"]),
    }


def check_search(L, target: str, positive: bool, restarts: int, res) -> str | None:
    if not positive:
        if res.found or res.restarts_used != restarts:
            return f"found={res.found} after {res.restarts_used} restarts on a target the paper excludes"
        return None
    if not res.found:
        return "search found nothing"
    f = float_residuals(L, res.omega, res.rho)
    worst = max(f["d_rho"], f["d_omega2"], f["omega_rho"])
    if worst >= 1e-8:
        return f"recomputed residual {worst:.3e}"
    kind = TARGET_KIND[target]
    if (f["lam"] > 0) != (kind == "SL(3,R)") or f["signature"][2]:
        return f"lambda {f['lam']:.3e} or degenerate metric {f['signature']}"
    if unsigned(f["signature"]) not in KIND_SIGNATURES[kind]:
        return f"signature {f['signature']} is not that of {kind}"
    return None


def check_snap(L, target: str, snapped) -> str | None:
    """A rationalized pair must be an exact half-flat structure of the target kind."""
    if snapped is None:
        return "rationalize returned no exactly verified pair"
    s = structure(L, *snapped)
    if not (is_zero(s["d_rho"]) and is_zero(s["d_omega2"]) and is_zero(s["omega_rho"])):
        return "snapped pair is not half-flat"
    sig = float_signature(s["G"])
    kind = TARGET_KIND[target]
    if sig[2] or unsigned(sig) not in KIND_SIGNATURES[kind] or (sign_of(s["lam"]) > 0) != (kind == "SL(3,R)"):
        return f"snapped pair has signature {sig}, not {kind}"
    return None


# -- command line ----------------------------------------------------------------------


def check_cli(code: int, out: str, want_code: int, want_lines) -> str | None:
    """Exit code and required output lines of one ``halfflat`` invocation."""
    if code != want_code:
        return f"exit code {code}, documented {want_code}"
    lines = out.splitlines()
    for want in want_lines:
        if want not in lines:
            return f"missing line {want!r}"
    return None

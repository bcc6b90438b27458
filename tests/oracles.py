"""Independent brute-force implementations used as test oracles.

Forms are represented densely: a k-form is a dict mapping every ordered
k-tuple of indices to its value, fully antisymmetrized.  Products and
differentials follow the textbook permutation formulas directly, so these
paths share no code (and no sign table) with the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

DIM = 6


def perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def dense_from_sparse(form):
    """Expand a library KForm into the dense ordered-tuple representation."""
    dense = {}
    for mask, coeff in form.terms.items():
        idx = tuple(i + 1 for i in range(DIM) if mask >> i & 1)
        for p in permutations(idx):
            dense[p] = coeff * perm_sign(p)
    return form.degree, dense


def dense_value(dense, tup):
    return dense.get(tup, Fraction(0))


def dense_wedge(ka, da, kb, db):
    """(a ^ b)(v_1..v_{p+q}) = sum over (p,q)-shuffles of signed products."""
    k = ka + kb
    out = {}
    for idx in combinations(range(1, DIM + 1), k):
        total = Fraction(0)
        for left in combinations(range(k), ka):
            right = tuple(i for i in range(k) if i not in left)
            shuffle = left + right
            s = perm_sign(shuffle)
            va = tuple(idx[i] for i in left)
            vb = tuple(idx[i] for i in right)
            total += s * dense_value(da, va) * dense_value(db, vb)
        if total:
            for p in permutations(idx):
                out[p] = total * perm_sign(p)
    return k, out


def dense_contract(v_components, k, dense):
    """(v -| a)(v_2..v_k) = a(v, v_2, .., v_k)."""
    out = {}
    for idx in combinations(range(1, DIM + 1), k - 1):
        total = Fraction(0)
        for i in range(1, DIM + 1):
            if i in idx:
                continue
            total += v_components[i - 1] * dense_value(dense, (i,) + idx)
        if total:
            for p in permutations(idx):
                out[p] = total * perm_sign(p)
    return k - 1, out


def dense_k_matrix(form):
    """K_rho with column v = kappa((e_v -| rho) ^ rho), from the dense formulas.

    kappa by hand: X -| e^123456 evaluated on the increasing tuple missing u
    is X_u times the sign of the permutation (u, rest), so X_u is the
    five-form's value there times that sign.
    """
    k, dense = dense_from_sparse(form)
    cols = []
    for v in range(1, DIM + 1):
        e_v = [Fraction(int(i == v)) for i in range(1, DIM + 1)]
        kc, dc = dense_contract(e_v, k, dense)
        _, five = dense_wedge(kc, dc, k, dense)
        col = []
        for u in range(1, DIM + 1):
            rest = tuple(i for i in range(1, DIM + 1) if i != u)
            col.append(dense_value(five, rest) * perm_sign((u,) + rest))
        cols.append(col)
    return [[cols[v][u] for v in range(DIM)] for u in range(DIM)]


def dense_lambda(K):
    """tr(K^2) / 6 by the plain double sum."""
    return sum(K[i][j] * K[j][i] for i in range(DIM) for j in range(DIM)) / 6


def dense_phi_omega(omega):
    """phi(omega) = omega^3 / 6 relative to e^1 ^ ... ^ e^6, from dense wedges."""
    k, d = dense_from_sparse(omega)
    k4, d4 = dense_wedge(k, d, k, d)
    _, d6 = dense_wedge(k4, d4, k, d)
    return d6.get(tuple(range(1, DIM + 1)), Fraction(0)) / 6


def omega_matrix(omega):
    """Antisymmetric matrix of omega(e_u, e_v) for a two-form omega."""
    _, dense = dense_from_sparse(omega)
    return [[dense_value(dense, (u, v)) for v in range(1, DIM + 1)] for u in range(1, DIM + 1)]


def oriented_metric_raw(pair):
    """G_raw of a ``StablePair`` with its orientation branch applied: a negated copy for norm_sign < 0."""
    if pair.norm_sign >= 0:
        return pair.G_raw
    return [[-x for x in row] for row in pair.G_raw]


def dense_equal_sparse(kd, dense, form) -> bool:
    fk, fd = dense_from_sparse(form)
    if fk != kd:
        return False
    keys = set(dense) | set(fd)
    return all(dense_value(dense, t) == dense_value(fd, t) for t in keys)


def dense_d(brackets, k, dense):
    """Chevalley-Eilenberg differential via the classical alternating formula.

    ``brackets[(i, j)]`` is [e_i, e_j] as a component list, i < j.
    Uses d a(X_0..X_k) = sum_{i<j} (-1)^(i+j) a([X_i,X_j], X_0..^i..^j..X_k).
    """
    def bracket(i, j):
        if i == j:
            return [Fraction(0)] * DIM
        if i < j:
            return brackets.get((i, j), [Fraction(0)] * DIM)
        return [-c for c in brackets.get((j, i), [Fraction(0)] * DIM)]

    out = {}
    for idx in combinations(range(1, DIM + 1), k + 1):
        total = Fraction(0)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                rest = tuple(idx[m] for m in range(k + 1) if m not in (a, b))
                br = bracket(idx[a], idx[b])
                sgn = (-1) ** (a + b)
                # a([X_a, X_b], rest) expanded over the bracket components
                for comp in range(1, DIM + 1):
                    c = br[comp - 1]
                    if c:
                        total += sgn * c * dense_value(dense, (comp,) + rest)
        if total:
            for p in permutations(idx):
                out[p] = total * perm_sign(p)
    return k + 1, out


def brackets_of(L):
    """Bracket table [(i,j) -> components] from a library LieAlgebra."""
    from .conftest import basis

    out = {}
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            out[(i, j)] = list(L.bracket(basis(i), basis(j)))
    return out


def dense_rref(mat):
    """Gauss-Jordan elimination on dense rows, first nonzero row as pivot.

    Reference for the sparse ``linalg.rref``: the reduced form is unique, so
    both must return equal matrices and pivots.
    """
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_nullspace(mat):
    """Kernel basis read from ``dense_rref``, one vector per free column: the
    division-based reference for the fraction-free ``linalg.nullspace``."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = dense_rref(mat)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def antiderivation_d(L, a):
    """d a as a sum of wedge products, one ``KForm`` per term.

    Reference for the one-pass ``LieAlgebra.d``: e^I = sign e^i ^ e^rest for
    each index i of I, so d e^I = sum of sign d e^i ^ e^rest.
    """
    from halfflat.exterior import KForm, wedge

    if a.degree == DIM:
        return KForm(DIM)
    out = KForm(a.degree + 1)
    for mask, coeff in a.terms.items():
        sign = 1
        for i in range(DIM):
            if mask >> i & 1:
                if i < L.dim:
                    rest = KForm(a.degree - 1, {mask & ~(1 << i): coeff * sign})
                    out = out + wedge(L.diffs[i], rest)
                sign = -sign
    return out


def pullback_by_evaluation(f, A):
    """The form f(A ., ..., A .) for a 6 x 6 matrix A, one ``exterior.evaluate`` per coefficient.

    Column i of A is the image of e_i, so the coefficient on e^J is f evaluated on the
    columns indexed by J: one determinant per term of f, the definition of the pullback.
    """
    from halfflat.exterior import KForm, basis_masks, evaluate

    cols = [[A[r][c] for r in range(6)] for c in range(6)]
    terms = {}
    for mask in basis_masks(f.degree):
        vectors = [cols[i] for i in range(6) if mask >> i & 1]
        terms[mask] = evaluate(f, vectors)
    return KForm(f.degree, terms)

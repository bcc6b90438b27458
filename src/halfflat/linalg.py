"""Exact linear algebra over Q or a quadratic extension.

Matrices are lists of row lists holding exact scalars.  Elimination is
division-based, so entries stay in the field of the input; ``rref`` keeps
its rows sparse, as ``{column: value}`` maps without zeros, and touches
only the nonzeros of each pivot row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import Scalar, scalar_is_zero, scalar_sign

Matrix = list[list[Scalar]]


def zeros(n: int, m: int) -> Matrix:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def copy(m: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(r) for r in m]


def transpose(m: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    bt = transpose(b)
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
        for row in a
    ]


def mat_vec(a: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list[Scalar]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def mat_eq(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> bool:
    return all(
        scalar_is_zero(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_symmetric(m: Sequence[Sequence[Scalar]]) -> bool:
    n = len(m)
    return all(
        scalar_is_zero(m[i][j] - m[j][i]) for i in range(n) for j in range(i + 1, n)
    )


def _field(pivot: Scalar) -> Scalar:
    """A pivot to divide by: an int becomes a Fraction, so int input stays exact."""
    return Fraction(pivot) if isinstance(pivot, int) else pivot


def rref(mat: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices.

    The reduced form is unique, so any pivot row gives the same result; the
    sparsest candidate is taken, which keeps fill-in down.
    """
    cols = len(mat[0]) if mat else 0
    live = [{j: x for j, x in enumerate(row) if not scalar_is_zero(x)} for row in mat]
    done: list[dict[int, Scalar]] = []
    pivots: list[int] = []
    for c in range(cols):
        with_c = [i for i, row in enumerate(live) if c in row]
        if not with_c:
            continue
        piv = live.pop(min(with_c, key=lambda i: len(live[i])))
        inv = _field(piv.pop(c))
        piv = {j: x / inv for j, x in piv.items()}
        for row in done + live:
            f = row.pop(c, None)
            if f is None:
                continue
            for j, y in piv.items():
                x = row.get(j, 0) - f * y
                if scalar_is_zero(x):
                    del row[j]
                else:
                    row[j] = x
        piv[c] = Fraction(1)
        done.append(piv)
        pivots.append(c)
    zero = Fraction(0)
    red = [[row.get(j, zero) for j in range(cols)] for row in done]
    return red + zeros(len(mat) - len(done), cols), pivots


def rank(mat: Sequence[Sequence[Scalar]]) -> int:
    if not mat:
        return 0
    return len(rref(mat)[1])


def nullspace(mat: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Basis of the kernel, one vector per free column."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    basis: list[list[Scalar]] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v: list[Scalar] = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(mat: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> list[Scalar] | None:
    """One solution of mat x = rhs, or None if inconsistent."""
    rows = len(mat)
    if rows == 0:
        return []
    aug = [list(r) + [b] for r, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    cols = len(mat[0])
    if cols in pivots:
        return None
    x: list[Scalar] = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def invert(mat: Sequence[Sequence[Scalar]]) -> Matrix | None:
    n = len(mat)
    aug = [list(r) + list(e) for r, e in zip(mat, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def det(mat: Sequence[Sequence[Scalar]]) -> Scalar:
    m = copy(mat)
    n = len(m)
    out: Scalar = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if not scalar_is_zero(m[i][c])), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out = out * m[c][c]
        inv = _field(m[c][c])
        for i in range(c + 1, n):
            if not scalar_is_zero(m[i][c]):
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def inertia(mat: Sequence[Sequence[Scalar]]) -> tuple[int, int, int]:
    """Exact inertia (n_pos, n_neg, n_zero) of a symmetric matrix.

    Symmetric reduction with congruence transformations only; no root
    extraction, valid over any ordered field the scalars live in.
    """
    m = copy(mat)
    n = len(m)
    pos = neg = 0
    live = list(range(n))
    while live:
        # prefer a nonzero diagonal pivot
        piv = next((i for i in live if not scalar_is_zero(m[i][i])), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for i in live
                    for j in live
                    if i < j and not scalar_is_zero(m[i][j])
                ),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # congruence: add row/col j to i, producing 2*m[i][j] on the diagonal
            for k in range(n):
                m[i][k] = m[i][k] + m[j][k]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            piv = i
        d = _field(m[piv][piv])
        if scalar_sign(d) > 0:
            pos += 1
        else:
            neg += 1
        live.remove(piv)
        for i in live:
            if scalar_is_zero(m[i][piv]):
                continue
            f = m[i][piv] / d
            for k in live:
                m[i][k] = m[i][k] - f * m[piv][k]
            m[i][piv] = Fraction(0)
        for i in live:
            m[piv][i] = Fraction(0)
    zero = n - pos - neg
    return pos, neg, zero

"""Exact linear algebra over Q or a quadratic extension.

Matrices are lists of row lists holding exact scalars.  ``rref``, ``rank`` and
``nullspace`` eliminate fraction-free on sparse ``{column: value}`` rows of
integral entries without a common factor; ``rref`` and ``nullspace`` divide by
the pivots once at the end, so entries stay in the field of the input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import Scalar, primitive, scalar_is_zero, scalar_sign, unscaled

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


def _eliminate(mat: Sequence[Sequence[Scalar]]) -> tuple[list[dict[int, Scalar]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on primitive rows: p * row - f * pivot row, then ``primitive``.

    Row i of the result has its pivot at column pivots[i] and zeros in the
    other pivot columns; the sparsest candidate pivot row keeps fill-in down.
    """
    cols = len(mat[0]) if mat else 0
    live = [dict(zip(r, primitive(list(r.values())))) for r in ({j: x for j, x in enumerate(row) if x} for row in mat)]
    done: list[dict[int, Scalar]] = []
    pivots: list[int] = []
    for c in range(cols):
        with_c = [i for i, row in enumerate(live) if c in row]
        if not with_c:
            continue
        piv = live.pop(min(with_c, key=lambda i: len(live[i])))
        p = piv[c]
        for row in done + live:
            f = row.get(c)
            if f is None:
                continue
            for j in row:
                row[j] *= p
            for j, y in piv.items():
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            row.update(zip(list(row), primitive(list(row.values()))))
        done.append(piv)
        pivots.append(c)
    return done, pivots


def rref(mat: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices: the rows of ``_eliminate``, each divided by its pivot."""
    cols = len(mat[0]) if mat else 0
    rows, pivots = _eliminate(mat)
    red = [[unscaled(row[j], row[c]) if j in row else Fraction(0) for j in range(cols)] for row, c in zip(rows, pivots)]
    return red + zeros(len(mat) - len(rows), cols), pivots


def rank(mat: Sequence[Sequence[Scalar]]) -> int:
    return len(_eliminate(mat)[1])


def nullspace(mat: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Basis of the kernel, one vector per free column, from the rows of ``_eliminate``."""
    cols = len(mat[0]) if mat else 0
    rows, pivots = _eliminate(mat)
    basis: list[list[Scalar]] = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v: list[Scalar] = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, pc in zip(rows, pivots):
            if free in row:
                v[pc] = -unscaled(row[free], row[pc])
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
        for i in range(c + 1, n):
            if not scalar_is_zero(m[i][c]):
                f = unscaled(m[i][c], m[c][c])
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
        d = m[piv][piv]
        if scalar_sign(d) > 0:
            pos += 1
        else:
            neg += 1
        live.remove(piv)
        for i in live:
            if scalar_is_zero(m[i][piv]):
                continue
            f = unscaled(m[i][piv], d)
            for k in live:
                m[i][k] = m[i][k] - f * m[piv][k]
            m[i][piv] = Fraction(0)
        for i in live:
            m[piv][i] = Fraction(0)
    zero = n - pos - neg
    return pos, neg, zero

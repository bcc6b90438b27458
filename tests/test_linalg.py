from __future__ import annotations

from fractions import Fraction

from halfflat import linalg
from halfflat.scalars import QuadExt

from .conftest import mat_vec, random_fraction
from . import oracles


def test_rref_rank_nullspace(rng):
    for _ in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 8)
        mat = [[random_fraction(rng, 5) for _ in range(m)] for _ in range(n)]
        ker = linalg.nullspace(mat)
        assert linalg.rank(mat) + len(ker) == m
        for v in ker:
            assert all(x == 0 for x in mat_vec(mat, v))


def test_solve_consistency(rng):
    for _ in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        mat = [[random_fraction(rng, 5) for _ in range(m)] for _ in range(n)]
        x0 = [random_fraction(rng, 5) for _ in range(m)]
        rhs = mat_vec(mat, x0)
        x = linalg.solve(mat, rhs)
        assert x is not None
        assert mat_vec(mat, x) == rhs


def test_invert_round_trip(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        mat = [[random_fraction(rng, 4) for _ in range(n)] for _ in range(n)]
        inv = linalg.invert(mat)
        if inv is None:
            assert linalg.det(mat) == 0
            continue
        assert linalg.mat_eq(linalg.mat_mul(mat, inv), linalg.identity(n))


def test_inertia_identity_and_diag():
    assert linalg.inertia(linalg.identity(6)) == (6, 0, 0)
    d = [[Fraction(x if i == j else 0) for j in range(4)] for i, x in enumerate([3, -2, 0, -1])]
    assert linalg.inertia(d) == (1, 2, 1)


def test_inertia_congruence_invariance(rng):
    # Sylvester: inertia of B^T A B equals inertia of A for invertible B
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[random_fraction(rng, 4) for _ in range(n)] for _ in range(n)]
        sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        b = [[random_fraction(rng, 3) for _ in range(n)] for _ in range(n)]
        if linalg.det(b) == 0:
            continue
        congruent = linalg.mat_mul(linalg.transpose(b), linalg.mat_mul(sym, b))
        assert linalg.inertia(congruent) == linalg.inertia(sym)


def test_inertia_hyperbolic_block():
    h = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert linalg.inertia(h) == (1, 1, 0)


def test_inertia_over_quadratic_extension():
    r2 = QuadExt(0, 1, 2)
    m = [[r2, Fraction(1)], [Fraction(1), r2]]  # eigenvalues sqrt2 +- 1 > 0
    assert linalg.inertia(m) == (2, 0, 0)
    m2 = [[r2 - 2, Fraction(0)], [Fraction(0), r2]]  # sqrt2 - 2 < 0
    assert linalg.inertia(m2) == (1, 1, 0)


def _sparse(rng, n, m, density, entry):
    return [[entry() if rng.random() < density else Fraction(0) for _ in range(m)] for _ in range(n)]


def _oracle_matrices(rng, entry, count):
    """Tall, wide, sparse, rank-deficient, zero-padded, all-zero, empty and up to 15 x 20 matrices."""
    out = [[], [[]], [[Fraction(0)] * 4 for _ in range(3)]]
    for _ in range(count):
        out.append(_sparse(rng, rng.randint(5, 8), rng.randint(1, 4), 0.7, entry))  # tall
        out.append(_sparse(rng, rng.randint(1, 4), rng.randint(5, 9), 0.7, entry))  # wide
        out.append(_sparse(rng, rng.randint(3, 7), rng.randint(3, 9), 0.3, entry))  # sparse like d
        n, m, r = rng.randint(3, 6), rng.randint(3, 6), rng.randint(1, 2)
        low = linalg.mat_mul(_sparse(rng, n, r, 0.9, entry), _sparse(rng, r, m, 0.9, entry))
        out.append(low)  # rank at most r
        padded = _sparse(rng, rng.randint(2, 6), rng.randint(2, 6), 0.8, entry)
        zero_col = rng.randrange(len(padded[0]))
        for row in padded:
            row[zero_col] = Fraction(0)
        padded.insert(rng.randrange(len(padded) + 1), [Fraction(0)] * len(padded[0]))
        out.append(padded)
        k = rng.randint(1, 5)
        out.append(_sparse(rng, k, k, 0.8, entry))  # square, sometimes singular
        out.append(linalg.mat_mul(_sparse(rng, k, 1, 1.0, entry), _sparse(rng, 1, k, 1.0, entry)))
        out.append(_sparse(rng, rng.randint(8, 15), rng.randint(10, 20), rng.choice((0.15, 0.4)), entry))  # d-sized
    return out


def _reference(monkeypatch, fn, *args):
    """``fn`` evaluated with the dense oracle in place of ``linalg.rref``."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rref", oracles.dense_rref)
        return fn(*args)


def _kinds(mat):
    return [[(isinstance(x, QuadExt), x) for x in row] for row in mat]


def _check_against_oracle(monkeypatch, mat, entry):
    red, pivots = linalg.rref(mat)
    want_red, want_pivots = oracles.dense_rref(mat)
    assert pivots == want_pivots
    assert _kinds(red) == _kinds(want_red)
    assert linalg.rank(mat) == len(want_pivots)
    assert linalg.nullspace(mat) == oracles.dense_nullspace(mat)
    if mat and mat[0]:
        consistent = mat_vec(mat, [entry() for _ in mat[0]])
        arbitrary = [entry() for _ in mat]
        for rhs in (consistent, arbitrary):
            assert linalg.solve(mat, rhs) == _reference(monkeypatch, linalg.solve, mat, rhs)
    if len(mat) == len(mat[0] if mat else []):
        assert linalg.invert(mat) == _reference(monkeypatch, linalg.invert, mat)


def test_rref_matches_dense_oracle(rng, monkeypatch):
    entry = lambda: random_fraction(rng, 5)
    mats = _oracle_matrices(rng, entry, 25)
    assert any(linalg.rank(m) < min(len(m), len(m[0])) for m in mats if m and m[0])
    for mat in mats:
        _check_against_oracle(monkeypatch, mat, entry)


def test_rref_matches_dense_oracle_over_quadratic_extensions(rng, monkeypatch):
    for d in (2, 3, 5):
        entry = lambda: QuadExt.make(random_fraction(rng, 3), random_fraction(rng, 2), d)
        for mat in _oracle_matrices(rng, entry, 4):
            _check_against_oracle(monkeypatch, mat, entry)


def _no_floats(x) -> bool:
    if isinstance(x, (list, tuple)):
        return all(_no_floats(y) for y in x)
    return not isinstance(x, float)


def test_int_input_stays_exact(rng):
    # int and Fraction entries give equal, float-free results: an int pivot divides as a Fraction
    from halfflat.liealg import catalog, change_basis

    cases = [[[2, 1, 1]], [[2, 1], [1, 3]], [[0, 3, 1], [3, 0, 2], [1, 2, 0]]]
    for _ in range(20):
        n = rng.randint(1, 4)
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    for mat in cases:
        fmat = [[Fraction(x) for x in row] for row in mat]
        got = [
            linalg.rref(mat), linalg.nullspace(mat), linalg.solve(mat, [1] * len(mat)),
            linalg.invert(mat) if len(mat) == len(mat[0]) else None,
            linalg.det(mat) if len(mat) == len(mat[0]) else None,
        ]
        want = [
            linalg.rref(fmat), linalg.nullspace(fmat), linalg.solve(fmat, [Fraction(1)] * len(mat)),
            linalg.invert(fmat) if len(mat) == len(mat[0]) else None,
            linalg.det(fmat) if len(mat) == len(mat[0]) else None,
        ]
        assert got == want and _no_floats(got), mat
        if len(mat) == len(mat[0]):
            sym = [[mat[i][j] + mat[j][i] for j in range(len(mat))] for i in range(len(mat))]
            assert linalg.inertia(sym) == linalg.inertia([[Fraction(x) for x in row] for row in sym])
    assert linalg.nullspace([[2, 1, 1]])[0][0] == Fraction(-1, 2)
    # det 3: a Fraction basis change and its int copy give the same bracket
    M = [[1, 1, 0], [0, 1, 2], [1, 0, 1]]
    L = catalog("r3mu", Fraction(1, 2))
    got = change_basis(L, M)
    assert got.diffs == change_basis(L, [[Fraction(x) for x in row] for row in M]).diffs
    assert _no_floats([c for f in got.diffs for c in f.terms.values()])

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lieq.exactnum import GaussRat, ONE, ZERO
from lieq.linalg import SparseMatrix, Subspace, nullspace, rank, rref


def g(x):
    return GaussRat(x)


def test_rref_known_matrix():
    rows = [{0: g(1), 1: g(2)}, {0: g(2), 1: g(4)}, {1: g(1), 2: g(1)}]
    pivots, reduced = rref(rows, 3)
    assert pivots == [0, 1]
    assert reduced[0] == {0: ONE, 2: g(-2)}
    assert reduced[1] == {1: ONE, 2: ONE}


def test_rank_and_nullspace():
    rows = [{0: g(1), 1: g(1)}, {1: g(1), 2: g(1)}]
    assert rank(rows, 3) == 2
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    for row in rows:
        total = ZERO
        for c, v in row.items():
            total = total + v * basis[0].get(c, ZERO)
        assert total == ZERO


@pytest.mark.parametrize("seed", range(5))
def test_nullspace_annihilates_random(seed):
    rng = random.Random(seed)
    ncols = rng.randint(2, 8)
    rows = []
    for _ in range(rng.randint(1, 6)):
        row = {c: g(rng.randint(-4, 4)) for c in range(ncols) if rng.random() < 0.6}
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - rank(rows, ncols)
    for vec in basis:
        for row in rows:
            total = ZERO
            for c, v in row.items():
                total = total + v * vec.get(c, ZERO)
            assert total == ZERO


def test_subspace_membership_and_coordinates():
    space = Subspace(3, [{0: g(1), 1: g(1)}, {2: g(2)}])
    assert space.dim == 2
    assert space.contains({0: g(3), 1: g(3), 2: g(5)})
    assert not space.contains({0: g(1)})
    coords = space.coordinates({0: g(3), 1: g(3), 2: g(5)})
    assert coords == [g(3), g(5)]
    assert space.coordinates({0: g(1)}) is None


def test_subspace_equality_is_canonical():
    a = Subspace(2, [{0: g(1), 1: g(2)}])
    b = Subspace(2, [{0: g(3), 1: g(6)}])
    assert a == b
    assert a.sum_with(Subspace(2, [{1: g(1)}])) == Subspace.full(2)


def test_inverse():
    mat = SparseMatrix.from_rows([{0: g(1), 1: g(2)}, {0: g(3), 1: g(7)}], 2)
    prod = (mat @ mat.inverse()).rows
    assert prod[0] == {0: ONE} and prod[1] == {1: ONE}
    assert SparseMatrix.from_rows([{0: g(1), 1: g(2)}, {0: g(2), 1: g(4)}], 2).inverse() is None


def test_apply_both_orders():
    mat = SparseMatrix.from_rows([{0: g(2)}, {0: g(1), 1: g(1)}], 2)
    dense_v = {0: g(3), 1: g(4)}
    assert mat.apply(dense_v) == {0: g(6), 1: g(7)}
    sparse_v = {1: g(5)}
    assert mat.apply(sparse_v) == {1: g(5)}


def test_sparse_matrix_algebra():
    a = SparseMatrix(3, {(0, 1): g(2), (2, 2): g(1)})
    b = SparseMatrix(3, {(1, 0): g(3), (2, 2): g(4)})
    assert (a @ b).get(0, 0) == g(6)
    assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()
    eye = SparseMatrix.identity(3)
    assert a @ eye == a and eye @ a == a
    assert (a - a).is_zero()
    assert a.apply({1: g(1)}) == {0: g(2)}


def test_sparse_conj_transpose_and_inverse():
    i = GaussRat(0, 1)
    a = SparseMatrix(2, {(0, 0): g(1), (0, 1): i})
    assert a.conj_transpose().get(1, 0) == -i
    t = SparseMatrix(2, {(0, 0): g(1), (0, 1): g(2), (1, 0): g(3), (1, 1): g(7)})
    assert t @ t.inverse() == SparseMatrix.identity(2)
    singular = SparseMatrix(2, {(0, 0): g(1), (1, 0): g(2)})
    assert singular.inverse() is None


gauss_ints = st.builds(GaussRat, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def dense_rows(draw, n: int, width: int):
    """n rows of the given width; a drawn level sets the share of entries
    drawn (0 to 4 quarters), the rest are zero."""
    level = draw(st.integers(0, 4))
    return [
        [draw(gauss_ints) if draw(st.integers(0, 3)) < level else ZERO for _ in range(width)]
        for _ in range(n)
    ]


def to_sparse(dense):
    return SparseMatrix(
        len(dense), {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)}
    )


def to_dense(mat):
    return [[mat.get(r, c) for c in range(mat.n)] for r in range(mat.n)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_matrix_matches_dense_oracle(data):
    n = data.draw(st.integers(1, 6))
    a_dense = data.draw(dense_rows(n, n))
    b_dense = data.draw(dense_rows(n, n))
    column = data.draw(dense_rows(n, 1))
    factor = data.draw(gauss_ints)
    a, b = to_sparse(a_dense), to_sparse(b_dense)
    results = {
        "matmul": (a @ b, oracles.dense_matmul(a_dense, b_dense)),
        "add": (a + b, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a_dense, b_dense)]),
        "sub": (a - b, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a_dense, b_dense)]),
        "scale": (a.scale(factor), [[factor * x for x in row] for row in a_dense]),
        "conj_transpose": (
            a.conj_transpose(),
            [[a_dense[c][r].conj() for c in range(n)] for r in range(n)],
        ),
    }
    for name, (got, expected) in results.items():
        assert to_dense(got) == expected, name
        assert got == to_sparse(expected), name
        assert all(v for row in got.rows for v in row.values()), name
    product = oracles.dense_matmul(a_dense, column)
    vec = {r: row[0] for r, row in enumerate(column) if row[0]}
    assert a.apply(vec) == {r: row[0] for r, row in enumerate(product) if row[0]}
    inverse = a.inverse()
    if oracles.dense_rank(a_dense) < n:
        assert inverse is None
    else:
        assert a @ inverse == SparseMatrix.identity(n)

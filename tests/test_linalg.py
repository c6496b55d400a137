import copy
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lieq import linalg
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


small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def rref_inputs(draw):
    """Sparse rows over Q(i): real or complex entries with small
    denominators, some rows zero and some combinations of earlier rows."""
    ncols = draw(st.integers(0, 7))
    imaginary = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.integers(0, 3)) == 0:
            # a combination of two earlier rows
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            fa, fb = GaussRat(draw(small_fractions)), GaussRat(draw(small_fractions))
            row = {}
            for c in set(a) | set(b):
                value = fa * a.get(c, ZERO) + fb * b.get(c, ZERO)
                if value:
                    row[c] = value
            rows.append(row)
            continue
        row = {}
        for c in range(ncols):
            if draw(st.integers(0, 2)) == 0:
                im = draw(small_fractions) if imaginary else 0
                value = GaussRat(draw(small_fractions), im)
                if value:
                    row[c] = value
        rows.append(row)
    return rows, ncols


@given(rref_inputs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_rref_matches_oracle(case, as_generator):
    rows, ncols = case
    expected = oracles.oracle_rref(rows, ncols)
    got = rref((dict(r) for r in rows) if as_generator else rows, ncols)
    assert got == expected
    for row in got[1]:
        assert list(row) == sorted(row)
        assert all(row.values())


def times_gaussian(row, a, b):
    """(a + bi) * row for a Z[i] row with the parts of column c at 2c and 2c + 1."""
    out = {}
    for c in {key >> 1 for key in row}:
        x, y = row.get(2 * c, 0), row.get(2 * c + 1, 0)
        out[2 * c], out[2 * c + 1] = a * x - b * y, a * y + b * x
    return {c: v for c, v in out.items() if v}


nonzero_gaussian_ints = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)


@given(rref_inputs(), st.lists(nonzero_gaussian_ints, min_size=7, max_size=7))
@example(([], 3), [(1, 0)] * 7)
@example(([{}, {}, {}], 4), [(1, 0)] * 7)
@settings(max_examples=200, deadline=None)
def test_rref_of_gaussian_multiples_matches_rref(case, factors):
    """Each row scaled by its own nonzero Gaussian integer spans the same
    space, so rref gives the same pivots and rows."""
    rows, ncols = case
    scaled = [{c: GaussRat(a, b) * v for c, v in row.items()} for row, (a, b) in zip(rows, factors)]
    assert rref(scaled, ncols) == rref(rows, ncols)


def dense(rows, ncols):
    return [[row.get(c, ZERO) for c in range(ncols)] for row in rows]


@given(rref_inputs(), st.lists(nonzero_gaussian_ints, min_size=7, max_size=7))
@example(([{0: GaussRat(0, 1)}, {0: g(1)}], 1), [(1, 0)] * 7)
@settings(max_examples=300, deadline=None)
def test_integer_rank_matches_dense_oracle(case, factors):
    """rank, and integer_rank on cleared rows each scaled by its own nonzero
    Gaussian integer, agree with a dense elimination over Q(i)."""
    rows, ncols = case
    expected = oracles.dense_rank(dense(rows, ncols))
    assert rank(rows, ncols) == expected
    cleared = linalg._clear_denominators(rows, ncols)
    scaled = [times_gaussian(row, a, b) for row, (a, b) in zip(cleared, factors)]
    assert linalg.integer_rank(scaled) == expected


@st.composite
def singleton_heavy_rows(draw):
    """Z[i] rows in the cleared layout, most with one nonzero entry: keys
    drawn from a few columns so that they repeat, imaginary keys among
    them (whose i-multiples are real singletons), zero rows, and a few
    longer rows across the singleton keys."""
    ncols = draw(st.integers(1, 5))
    keys = st.integers(0, 2 * ncols - 1)
    values = st.integers(-4, 4).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            rows.append({})
        elif kind == 1:
            rows.append(draw(st.dictionaries(keys, values, min_size=2, max_size=2 * ncols)))
        else:
            rows.append({draw(keys): draw(values)})
    return rows, ncols


@given(singleton_heavy_rows())
@example(([{1: 3}, {0: 2, 1: 5}], 1))
@example(([{0: 1}, {0: -2}, {}, {0: 1, 2: 1}, {2: 3, 3: 1}], 2))
@settings(max_examples=300, deadline=None)
def test_integer_rank_of_singleton_heavy_rows(case):
    """The singleton sweep of integer_rank, checked against a dense
    elimination over Q(i) on rows that are mostly one-entry rows; the
    caller's rows are left as they were."""
    rows, ncols = case
    before = copy.deepcopy(rows)
    gaussian = [[GaussRat(row.get(2 * c, 0), row.get(2 * c + 1, 0)) for c in range(ncols)] for row in rows]
    assert linalg.integer_rank(rows) == oracles.dense_rank(gaussian)
    assert rows == before


@given(rref_inputs(), nonzero_gaussian_ints, st.booleans())
@example(([{0: GaussRat(Fraction(1, 2), Fraction(-3, 4)), 2: GaussRat(0, 5)}], 3), (2, -1), True)
@settings(max_examples=200, deadline=None)
def test_exact_view_and_add_multiple_read_the_cleared_layout(case, factor, imag):
    """Each cleared row holds s * row, s the lcm of the row's denominators:
    exact_view reads it back, and add_multiple adds x * s * row, or
    x * i * s * row when imag, for a Gaussian integer x = p + qi taken as
    its integer parts p and q."""
    rows, ncols = case
    (p, q), x = factor, GaussRat(*factor)
    if imag:
        x = x * GaussRat(0, 1)
    nonzero = [row for row in rows if row]
    cleared = linalg._clear_denominators(rows, ncols)
    assert len(cleared) == len(nonzero)
    for row, num in zip(nonzero, cleared):
        s = lcm(*(Fraction(part).denominator for v in row.values() for part in (v.re, v.im)))
        assert linalg.exact_view(num, 1, {}) == {c: s * v for c, v in row.items()}
        acc = {}
        linalg.add_multiple(acc, p, imag, num)
        # x = p + q i, and x i = p i - q
        linalg.add_multiple(acc, -q if imag else q, not imag, num)
        assert linalg.exact_view(acc, 1, {}) == {c: x * s * v for c, v in row.items()}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_integer_rank_of_low_rank_products(data):
    """L R, for integer L and R with entries up to +-100 and an inner size
    below both outer ones, is rank deficient; a drawn factor (1, i or
    2 - 3i) scales every row."""
    nrows, ncols = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9))
    inner = data.draw(st.integers(0, min(nrows, ncols) - 1))
    entries = st.integers(-100, 100)
    left = [[data.draw(entries) for _ in range(inner)] for _ in range(nrows)]
    right = [[data.draw(entries) for _ in range(ncols)] for _ in range(inner)]
    factor = GaussRat(*data.draw(st.sampled_from([(1, 0), (0, 1), (2, -3)])))
    rows = [
        {c: factor * g(x) for c in range(ncols) if (x := sum(a * b[c] for a, b in zip(row, right)))}
        for row in left
    ]
    expected = oracles.dense_rank(dense(rows, ncols))
    assert rank(rows, ncols) == expected <= inner


def test_rref_zero_columns_and_rows():
    assert rref([], 0) == ([], [])
    assert rref([{}, {}], 0) == ([], [])
    assert rref([{}, {}], 3) == ([], [])
    with pytest.raises(ValueError):
        rref([{3: g(1)}], 3)


@pytest.mark.parametrize(
    "rows",
    [
        [{0: "P", 1: "1"}, {1: "1"}],
        [{0: "P", 1: "1"}],
        [{0: "P", 1: "Pi"}, {0: "1"}],
    ],
)
def test_rref_of_large_prime_multiples(rows):
    """Entries that are multiples of the prime 1073741789."""
    rows = [{c: GaussRat(v.replace("P", "1073741789")) for c, v in r.items()} for r in rows]
    assert rref(rows, 2) == oracles.oracle_rref(rows, 2)


def test_rref_of_300_bit_entries():
    """Entries above 2^300 give reduced entries of about 900 bits."""
    rng = random.Random(300)
    big = [rng.getrandbits(300) | (1 << 300) for _ in range(6)]
    rows = [
        {0: g(big[0]), 1: g(big[1]), 2: g(1)},
        {0: g(big[2]), 1: g(big[3]), 3: GaussRat(big[4], 1)},
        {1: g(1), 2: g(big[5]), 3: g(-1)},
    ]
    assert rref(rows, 4) == oracles.oracle_rref(rows, 4)


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


def _nullspace_column_by_column(rows, ncols):
    """The reference kernel basis: every free column looked up in every
    reduced row."""
    pivots, reduced = rref(rows, ncols)
    basis, free_cols = [], []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: ONE}
        for pcol, row in zip(pivots, reduced):
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
        free_cols.append(free)
    return basis, free_cols


@given(rref_inputs())
@settings(max_examples=300, deadline=None)
def test_nullspace_with_free_matches_the_column_by_column_reference(case):
    rows, ncols = case
    expected, expected_free = _nullspace_column_by_column([dict(r) for r in rows], ncols)
    basis, free_cols = linalg.nullspace_with_free([dict(r) for r in rows], ncols)
    assert free_cols == expected_free
    assert basis == expected
    # the same key order: the free column, then the pivots ascending
    assert [list(vec) for vec in basis] == [list(vec) for vec in expected]


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

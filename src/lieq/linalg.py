"""Sparse exact linear algebra over Q(i).

Vectors are dicts from coordinate index to nonzero GaussRat.  rref,
nullspace and Subspace take a list of such row dicts plus an explicit column
count; SparseMatrix, the one square-matrix type, stores exactly such a list.
Everything here is deterministic: the RREF of a row span is unique, so
reduced forms (and hence every Subspace) are canonical.

There is one elimination, _echelon: fraction-free elimination in integer
arithmetic alone (E. H. Bareiss, Math. Comp. 22 (1968) 565-578), each
updated row divided by the gcd of its entries.  Rows are first scaled to
Z[i] by the lcm of their denominators (_clear_denominators), in the one
Z[i] layout: the real part of column c at key 2c and the imaginary part at
key 2c + 1.  A Gaussian row a + bi is eliminated together with its
i-multiple -b + ai (_with_i_multiples): the Q-span of those integer rows is
the Q(i)-span of the rows seen over Q.

* rref eliminates keys in natural order and back-substitutes, then divides
  each row by its pivot entry.  Pivots come in pairs 2c, 2c + 1 for Gaussian
  rows and sit at even keys alone for real rows; either way the Q(i) row
  with pivot c is the integer row with pivot 2c.
* rank and integer_rank first pivot on every one-entry row's key, in one
  sweep, then renumber the other keys by ascending count of nonzero
  entries, which keeps fill-in low, and only count pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .exactnum import ONE as _ONE, GaussRat, ZERO, gauss

Vec = dict  # {index: GaussRat}

_MINUS_ONE = GaussRat(-1)


def vec_add(dst: Vec, src: Vec, factor: GaussRat | None = None) -> None:
    """In-place dst += factor * src (factor None means 1)."""
    for idx, value in src.items():
        term = value if factor is None else factor * value
        acc = dst.get(idx)
        acc = term if acc is None else acc + term
        if acc:
            dst[idx] = acc
        else:
            dst.pop(idx, None)


def vec_from_seq(values: Sequence) -> Vec:
    out = {}
    for idx, value in enumerate(values):
        scalar = gauss(value)
        if scalar:
            out[idx] = scalar
    return out


def rref(rows: Iterable[Vec], ncols: int) -> tuple[list[int], list[Vec]]:
    """Reduced row echelon form.  Returns (pivot columns, reduced rows).

    Every entry of rows must lie in columns 0..ncols-1.  The result is the
    canonical RREF of the row span: pivots ascend, each reduced row has a 1
    at its pivot, zeros at the other pivots, and its entries in ascending
    column order."""
    integer_rows = _with_i_multiples(_clear_denominators(rows, ncols))
    pivots, prows = _echelon(integer_rows, 2 * ncols, reduced=True)
    out = [(pkey, row) for pkey, row in zip(pivots, prows) if not pkey & 1]
    return [pkey >> 1 for pkey, _ in out], [_divided(row, pkey) for pkey, row in out]


def _divided(row: dict, pkey: int) -> Vec:
    """The Z[i] row, whose entry at the even key pkey is its pivot entry,
    divided by that entry, in ascending column order."""
    head = row.pop(pkey)
    return {pkey >> 1: _ONE, **exact_view(row, head, {})}


def _clear_denominators(rows: Iterable[Vec], ncols: int) -> list[dict]:
    """The nonzero rows, each scaled to Z[i] by the lcm of its denominators,
    as int dicts: the real part of column c at key 2c, the imaginary part
    at key 2c + 1."""
    cleared = []
    for row in rows:
        if not row:
            continue
        if min(row) < 0 or max(row) >= ncols:
            raise ValueError(f"row entry outside columns 0..{ncols - 1}")
        parts = (x for v in row.values() for x in (v.re, v.im))
        den = lcm(1, *(x.denominator for x in parts if type(x) is not int))
        out = {}
        for c, v in row.items():
            if v.re:
                out[2 * c] = int(v.re * den)
            if v.im:
                out[2 * c + 1] = int(v.im * den)
        cleared.append(out)
    return cleared


def _with_i_multiples(cleared: list[dict]) -> list[dict]:
    """The Z[i] rows followed by i times each row when some row is not
    real, else the caller's list itself, so only rows the caller owns may
    go on to _echelon.  i * (a + bi) = -b + ai moves each key c to c ^ 1
    and negates the imaginary parts."""
    if not any(c & 1 for row in cleared for c in row):
        return cleared
    return cleared + [{c ^ 1: -x if c & 1 else x for c, x in row.items()} for row in cleared]


def add_multiple(acc: dict, x: int, imag: bool, vec: dict) -> None:
    """In-place acc += x * vec, or acc += x * i * vec when imag, for Z[i]
    vectors in the layout of _clear_denominators."""
    get = acc.get
    if not imag:
        for key, v in vec.items():
            acc[key] = get(key, 0) + x * v
        return
    for key, v in vec.items():
        acc[key ^ 1] = get(key ^ 1, 0) + (-x * v if key & 1 else x * v)


def exact_view(num: dict, den: int, memo: dict) -> Vec:
    """num / den in ascending column order, for num in the Z[i] layout of
    _clear_denominators; memo maps (re, im) numerators to their GaussRat."""
    row: Vec = {}
    for c in sorted({key >> 1 for key in num}):
        key = (num.get(2 * c, 0), num.get(2 * c + 1, 0))
        value = memo.get(key)
        if value is None:
            re, im = key
            if den != 1:
                re, im = Fraction(re, den), Fraction(im, den)
            value = memo[key] = GaussRat(re, im)
        row[c] = value
    return row


def rank(rows: Iterable[Vec], ncols: int) -> int:
    """The rank over Q(i) of GaussRat rows in columns 0..ncols-1."""
    return integer_rank(_clear_denominators(rows, ncols))


def integer_rank(cleared: list[dict]) -> int:
    """The rank over Q(i) of Z[i] rows in the layout of _clear_denominators,
    zero rows allowed, which it does not modify.  A Gaussian rank is half
    the integer rank of the rows and their i-multiples.  One sweep pivots
    on the key of every one-entry row: the rank is the number of those keys
    plus the rank of the rows with them dropped, whose keys are renumbered
    by ascending count of nonzero entries, which keeps fill-in low; a rank
    needs no back substitution."""
    rows = _with_i_multiples(cleared)
    singles = {c for row in rows if len(row) == 1 for c in row}
    counts: dict[int, int] = {}
    for row in rows:
        for c in row:
            counts[c] = counts.get(c, 0) + 1
    for c in singles:
        del counts[c]
    order = {c: k for k, c in enumerate(sorted(counts, key=counts.__getitem__))}
    renumbered = [{order[c]: x for c, x in row.items() if c in order}
                  for row in rows if len(row) > 1]
    found = len(singles) + len(_echelon(renumbered, len(order), reduced=False)[0])
    return found // 2 if rows is not cleared else found


def _echelon(rows: list[dict], width: int, reduced: bool) -> tuple[list[int], list[dict]]:
    """Echelon form of integer rows in columns 0..width-1, which it
    consumes: (pivot columns, ascending; the pivot rows, each holding its
    pivot entry).  With reduced, every row is also free of the other rows'
    pivot columns, so dividing each by its pivot entry gives the RREF.

    Rows are bucketed by their first column.  The shortest row of a bucket
    becomes the pivot, which keeps fill-in low; every other row of it is
    cancelled against the pivot row and rebucketed.  Back substitution runs
    from the last pivot row up, with the same update: the rows below are
    already free of every pivot column but their own, so it adds no pivot
    entries."""
    buckets: dict[int, list[dict]] = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    pivots: list[int] = []
    prows: list[dict] = []
    for col in range(width):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        pick = 0
        if len(bucket) > 1:
            pick = min(range(len(bucket)), key=lambda k: len(bucket[k]))
        prow = bucket.pop(pick)
        _cancel(bucket, col, prow)
        for row in bucket:
            if row:
                buckets.setdefault(min(row), []).append(row)
        pivots.append(col)
        prows.append(prow)
        if not buckets:
            break
    if reduced:
        where = {}
        for pcol, row in zip(reversed(pivots), reversed(prows)):
            for col in [c for c in row if c in where]:
                _cancel([row], col, where[col])
            where[pcol] = row
    return pivots, prows


def _cancel(rows: list[dict], col: int, prow: dict) -> None:
    """Replace each row, in place, by a row - b prow divided by the gcd of
    its entries, where a/b = p/x in lowest terms with a > 0, for the
    entries p of prow and x of the row at col: the entry at col cancels and
    no fraction arises.  That is fraction-free elimination with each row
    divided by its own content instead of by the previous pivot, which
    would tie every row to one elimination order."""
    p = prow[col]
    for row in rows:
        x = row[col]
        g = gcd(p, x)
        a, b = p // g, x // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for c in row:
                row[c] *= a
        get = row.get
        for c, v in prow.items():
            y = get(c, 0) - b * v
            if y:
                row[c] = y
            else:
                del row[c]
        if row:
            g = gcd(*row.values())
            if g != 1:
                for c in row:
                    row[c] //= g


def nullspace_with_free(rows: Iterable[Vec], ncols: int) -> tuple[list[Vec], list[int]]:
    """Kernel basis plus the free column each basis vector is keyed to.

    Each basis vector carries a 1 at its own free column and 0 at every
    other free column, so coefficients in this basis can be read off.
    Each reduced row is walked once: its entry c at a free column puts
    -c at the row's pivot into that column's vector.  The rows come in
    ascending pivot order, so every vector lists its free column first
    and then its pivots in ascending order."""
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [col for col in range(ncols) if col not in pivot_set]
    by_free: dict[int, Vec] = {free: {free: GaussRat(1)} for free in free_cols}
    for pcol, row in zip(pivots, reduced):
        for col, coeff in row.items():
            if col != pcol and coeff:
                by_free[col][pcol] = -coeff
    return list(by_free.values()), free_cols


def nullspace(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Basis of the right kernel, one vector per free column, ascending."""
    return nullspace_with_free(rows, ncols)[0]


class Subspace:
    """A subspace of Q(i)^ambient held as a canonical RREF row basis."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: Sequence[Vec] = (), pivots: Sequence[int] | None = None):
        self.ambient = ambient
        if pivots is None:
            pivots, rows = rref(rows, ambient)
        self.rows = tuple(dict(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        rows = [{i: GaussRat(1)} for i in range(ambient)]
        return cls(ambient, rows, list(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v modulo the subspace (zero iff v belongs to it)."""
        out = dict(v)
        for pcol, row in zip(self.pivots, self.rows):
            factor = out.get(pcol)
            if factor is not None:
                vec_add(out, row, -factor)
        return out

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def coordinates(self, v: Vec) -> list[GaussRat] | None:
        """Coefficients of v in the RREF basis, or None when outside."""
        residual = dict(v)
        coords = []
        for pcol, row in zip(self.pivots, self.rows):
            factor = residual.get(pcol, ZERO)
            coords.append(factor)
            if factor:
                vec_add(residual, row, -factor)
        return None if residual else coords

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class SparseMatrix:
    """Square n x n matrix over Q(i), stored as ``rows``: n row dicts
    {col: GaussRat} with zeros dropped.  That is the format rref, nullspace
    and Subspace consume, so ``mat.rows`` goes to them unconverted.

    Matrices are values: no method changes one in place."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, data: dict | None = None):
        """From a {(row, col): scalar} dict; zero scalars are dropped."""
        self.n = n
        self.rows: list[Vec] = [{} for _ in range(n)]
        for (r, c), value in (data or {}).items():
            scalar = gauss(value)
            if scalar:
                self.rows[r][c] = scalar

    @classmethod
    def from_rows(cls, rows: Sequence[Vec], n: int) -> "SparseMatrix":
        """From n row dicts of GaussRat (copied; zero entries dropped)."""
        return cls._adopt(n, [{c: v for c, v in row.items() if v} for row in rows])

    @classmethod
    def _adopt(cls, n: int, rows: list[Vec]) -> "SparseMatrix":
        """Wrap rows that are already clean, without copying them."""
        mat = cls.__new__(cls)
        mat.n = n
        mat.rows = rows
        return mat

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls._adopt(n, [{i: GaussRat(1)} for i in range(n)])

    def get(self, r: int, c: int) -> GaussRat:
        return self.rows[r].get(c, ZERO)

    def entries(self):
        """(row, col, value) for every nonzero entry, in (row, col) order."""
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                yield r, c, row[c]

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(other, None)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(other, _MINUS_ONE)

    def _plus(self, other: "SparseMatrix", factor: GaussRat | None) -> "SparseMatrix":
        """self + factor * other (factor None means 1)."""
        out = []
        for ra, rb in zip(self.rows, other.rows):
            acc = dict(ra)
            vec_add(acc, rb, factor)
            out.append(acc)
        return SparseMatrix._adopt(self.n, out)

    def scale(self, factor) -> "SparseMatrix":
        factor = gauss(factor)
        if not factor:
            return SparseMatrix(self.n)
        rows = [{c: factor * v for c, v in row.items()} for row in self.rows]
        return SparseMatrix._adopt(self.n, rows)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        out = []
        for row in self.rows:
            acc: Vec = {}
            for k, coeff in row.items():
                vec_add(acc, other.rows[k], coeff)
            out.append(acc)
        return SparseMatrix._adopt(self.n, out)

    def apply(self, v: Vec) -> Vec:
        """The matrix times a sparse vector; each row walks whichever of
        itself and v has fewer entries."""
        out: Vec = {}
        for r, row in enumerate(self.rows):
            total = ZERO
            if len(row) > len(v):
                for c, value in v.items():
                    coeff = row.get(c)
                    if coeff is not None:
                        total = total + coeff * value
            else:
                for c, coeff in row.items():
                    value = v.get(c)
                    if value is not None:
                        total = total + coeff * value
            if total:
                out[r] = total
        return out

    def conj_transpose(self) -> "SparseMatrix":
        out: list[Vec] = [{} for _ in range(self.n)]
        for r, row in enumerate(self.rows):
            for c, value in row.items():
                out[c][r] = value.conj()
        return SparseMatrix._adopt(self.n, out)

    def diagonal(self) -> list[GaussRat]:
        return [self.get(i, i) for i in range(self.n)]

    def is_zero(self) -> bool:
        return not any(self.rows)

    def inverse(self) -> "SparseMatrix | None":
        """Inverse by rref of the augmented [M | I], or None when singular."""
        n = self.n
        aug = []
        for i, row in enumerate(self.rows):
            wide = dict(row)
            wide[n + i] = GaussRat(1)
            aug.append(wide)
        pivots, reduced = rref(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            return None
        rows = [{c - n: v for c, v in row.items() if c >= n} for row in reduced[:n]]
        return SparseMatrix._adopt(n, rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix(n={self.n}, nnz={sum(len(row) for row in self.rows)})"

"""Sparse exact linear algebra over Q(i).

Vectors are dicts from coordinate index to nonzero GaussRat.  rref,
nullspace and Subspace take a list of such row dicts plus an explicit column
count; SparseMatrix, the one square-matrix type, stores exactly such a list.
Everything here is deterministic: pivot columns are taken left to right and
the first row with a nonzero entry wins, so reduced forms (and hence every
Subspace) are canonical.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exactnum import GaussRat, ZERO, gauss

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
    """Reduced row echelon form.  Returns (pivot columns, reduced rows)."""
    work = [dict(r) for r in rows if r]
    pivots: list[int] = []
    reduced: list[Vec] = []
    for col in range(ncols):
        hit = None
        for k, row in enumerate(work):
            if col in row:
                hit = k
                break
        if hit is None:
            continue
        pivot_row = work.pop(hit)
        inv = pivot_row[col].inv()
        pivot_row = {i: inv * c for i, c in pivot_row.items()}
        for row in work:
            factor = row.get(col)
            if factor is not None:
                vec_add(row, pivot_row, -factor)
        for row in reduced:
            factor = row.get(col)
            if factor is not None:
                vec_add(row, pivot_row, -factor)
        pivots.append(col)
        reduced.append(pivot_row)
        work = [r for r in work if r]
        if not work:
            break
    return pivots, reduced


def rank(rows: Iterable[Vec], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def nullspace_with_free(rows: Iterable[Vec], ncols: int) -> tuple[list[Vec], list[int]]:
    """Kernel basis plus the free column each basis vector is keyed to.

    Each basis vector carries a 1 at its own free column and 0 at every
    other free column, so coefficients in this basis can be read off."""
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    free_cols = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: Vec = {free: GaussRat(1)}
        for pcol, row in zip(pivots, reduced):
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
        free_cols.append(free)
    return basis, free_cols


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

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ambient, list(self.rows) + list(other.rows))

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

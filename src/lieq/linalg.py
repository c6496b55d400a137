"""Sparse exact linear algebra over Q(i).

Vectors are dicts from coordinate index to nonzero GaussRat; matrices are
lists of such row dicts plus an explicit column count.  Everything here is
deterministic: pivot columns are taken left to right and the first row
with a nonzero entry wins, so reduced forms (and hence every Subspace) are
canonical.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exactnum import GaussRat, ZERO, gauss

Vec = dict  # {index: GaussRat}


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


# -- small dense-style helpers (rows-of-dicts with explicit width) ----------


def mat_vec(rows: Sequence[Vec], v: Vec) -> Vec:
    out: Vec = {}
    for r, row in enumerate(rows):
        if len(row) > len(v):
            total = ZERO
            for c, value in v.items():
                coeff = row.get(c)
                if coeff is not None:
                    total = total + coeff * value
        else:
            total = ZERO
            for c, coeff in row.items():
                value = v.get(c)
                if value is not None:
                    total = total + coeff * value
        if total:
            out[r] = total
    return out


def mat_mul(a_rows: Sequence[Vec], b_rows: Sequence[Vec]) -> list[Vec]:
    out = []
    for row in a_rows:
        acc: Vec = {}
        for k, coeff in row.items():
            vec_add(acc, b_rows[k], coeff)
        out.append(acc)
    return out


def mat_sub(a_rows: Sequence[Vec], b_rows: Sequence[Vec]) -> list[Vec]:
    out = []
    for ra, rb in zip(a_rows, b_rows):
        acc = dict(ra)
        vec_add(acc, rb, GaussRat(-1))
        out.append(acc)
    return out


def mat_inverse(rows: Sequence[Vec], n: int) -> list[Vec] | None:
    """Inverse of a square matrix given as n rows, or None when singular."""
    aug = []
    for i, row in enumerate(rows):
        wide = dict(row)
        wide[n + i] = GaussRat(1)
        aug.append(wide)
    pivots, reduced = rref(aug, 2 * n)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    inverse = []
    for row in reduced[:n]:
        inverse.append({c - n: v for c, v in row.items() if c >= n})
    return inverse


class SparseMatrix:
    """Square sparse matrix over Q(i) used by the operator-truncation code."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: dict | None = None):
        self.n = n
        clean = {}
        if data:
            for (r, c), value in data.items():
                scalar = gauss(value)
                if scalar:
                    clean[(r, c)] = scalar
        self.data = clean

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, {(i, i): GaussRat(1) for i in range(n)})

    @classmethod
    def zero(cls, n: int) -> "SparseMatrix":
        return cls(n, {})

    def get(self, r: int, c: int) -> GaussRat:
        return self.data.get((r, c), ZERO)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        out = dict(self.data)
        for key, value in other.data.items():
            acc = out.get(key)
            acc = value if acc is None else acc + value
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return SparseMatrix(self.n, out)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(self.n, {k: -v for k, v in self.data.items()})

    def scale(self, factor) -> "SparseMatrix":
        factor = gauss(factor)
        if not factor:
            return SparseMatrix.zero(self.n)
        return SparseMatrix(self.n, {k: factor * v for k, v in self.data.items()})

    def __rmul__(self, factor):
        return self.scale(factor)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        by_row: dict[int, list] = {}
        for (r, c), value in other.data.items():
            by_row.setdefault(r, []).append((c, value))
        out: dict[tuple[int, int], GaussRat] = {}
        for (i, k), a in self.data.items():
            hits = by_row.get(k)
            if not hits:
                continue
            for j, b in hits:
                key = (i, j)
                term = a * b
                acc = out.get(key)
                acc = term if acc is None else acc + term
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return SparseMatrix(self.n, out)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.n, {(c, r): v for (r, c), v in self.data.items()})

    def conj_transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.n, {(c, r): v.conj() for (r, c), v in self.data.items()})

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for (r, c), value in self.data.items():
            x = v.get(c)
            if x is None:
                continue
            acc = out.get(r)
            acc = value * x if acc is None else acc + value * x
            if acc:
                out[r] = acc
            else:
                out.pop(r, None)
        return out

    def diagonal(self) -> list[GaussRat]:
        return [self.get(i, i) for i in range(self.n)]

    def is_zero(self) -> bool:
        return not self.data

    def to_rows(self) -> list[Vec]:
        rows: list[Vec] = [dict() for _ in range(self.n)]
        for (r, c), value in self.data.items():
            rows[r][c] = value
        return rows

    @classmethod
    def from_rows(cls, rows: Sequence[Vec], n: int) -> "SparseMatrix":
        data = {}
        for r, row in enumerate(rows):
            for c, value in row.items():
                data[(r, c)] = value
        return cls(n, data)

    def inverse(self) -> "SparseMatrix | None":
        inv_rows = mat_inverse(self.to_rows(), self.n)
        if inv_rows is None:
            return None
        return SparseMatrix.from_rows(inv_rows, self.n)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.n == other.n and self.data == other.data

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix(n={self.n}, nnz={len(self.data)})"

"""Chevalley-Eilenberg cochains, the differential, cocycles and coboundaries.

Conventions, fixed once:

* The differential raises degree, d : C^k -> C^{k+1}, with

      (dc)(x_1..x_{k+1}) = sum_i (-1)^{i+1} rho(x_i) c(.. x_i-hat ..)
                         + sum_{i<j} (-1)^{i+j} c([x_i, x_j], .. hats ..)

  which is the only direction under which d*d = 0 and ker/im make sense.
* Cochain coordinates are indexed by strictly increasing basis tuples in
  lexicographic order; inside a tuple slot, module coordinates run 0..m-1.
  That ordering is part of the wire format, so matrices of d are
  reproducible across runs.
* d_k is built once, as D * d_k over Z[i] (D the common denominator of the
  structure constants and of rho's matrices), as integer columns in the one
  Z[i] layout of linalg: the real part of row r at key 2r, the imaginary
  part at key 2r + 1.  Ranks (linalg.integer_rank, on those columns) and
  d^2 = 0 never leave the integers.
* d is pushed forward slot by slot (_scatter_key) from an index of the
  nonzero structure constants and entries of rho (_term_index), so a d_k,
  and d of a cochain, cost what their nonzero terms cost.  D and the index
  are built once per representation, which holds them (Representation.terms).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Mapping, Sequence

from .exactnum import GaussRat, LieqError, SizeCap, ZERO, gauss, size_cap
from .liealg import LieAlgebra, doc_field, doc_index, doc_value
from .linalg import (
    SparseMatrix,
    Subspace,
    Vec,
    add_multiple,
    exact_view,
    integer_rank,
    nullspace,
    nullspace_with_free,
    vec_add,
)


class SourceMismatch(LieqError):
    """Cochain and representation disagree on algebra or module."""


class NotARepresentation(LieqError):
    """Matrices fail the bracket-preservation law."""


class Representation:
    """A Lie algebra homomorphism into gl(m), one matrix per basis vector.

    Matrices are SparseMatrix values.  kind is one of "adjoint", "trivial",
    "explicit"; explicit matrices are checked against the bracket law
    rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) at construction.
    """

    def __init__(
        self,
        source: LieAlgebra,
        matrices: Sequence[SparseMatrix],
        kind: str = "explicit",
        module_dim: int | None = None,
    ):
        if len(matrices) != source.dim:
            raise SourceMismatch("need one matrix per basis vector")
        self.source = source
        self.matrices = tuple(matrices)
        if module_dim is None:
            module_dim = self.matrices[0].n if self.matrices else 0
        self.module_dim = module_dim
        self.kind = kind
        self._terms: tuple[int, dict, dict] | None = None
        if kind == "explicit":
            self._check_preserves_bracket()

    def _check_preserves_bracket(self):
        for i in range(self.source.dim):
            for j in range(i + 1, self.source.dim):
                lhs = SparseMatrix(self.module_dim)
                for k, coeff in self.source.pair(i, j).items():
                    lhs = lhs + self.matrices[k].scale(coeff)
                a, b = self.matrices[i], self.matrices[j]
                if lhs != a @ b - b @ a:
                    raise NotARepresentation(f"bracket law fails on pair ({i + 1}, {j + 1})")

    def apply(self, i: int, v: Vec) -> Vec:
        """rho(e_i) applied to a sparse module vector."""
        return self.matrices[i].apply(v)

    def terms(self, g: LieAlgebra) -> tuple[int, dict, dict]:
        """(D, _term_index(self, D)) for D = _common_denominator(self), built
        on first use and held, like g's Jacobi witness, for this object's
        life; g must have the source's constants (else SourceMismatch)."""
        if g is not self.source and not g.same_constants(self.source):
            raise SourceMismatch("the representation lives on a different algebra")
        if self._terms is None:
            den = _common_denominator(self)
            self._terms = (den, *_term_index(self, den))
        return self._terms


def require_jacobi(g: LieAlgebra) -> None:
    """Raise NotARepresentation, naming the first failing basis triple
    counted from 1, unless g satisfies the Jacobi identity."""
    witness = g.check_jacobi()
    if witness is not None:
        raise NotARepresentation(f"Jacobi fails at triple {tuple(x + 1 for x in witness.triple)}")


def adjoint_rep(g: LieAlgebra) -> Representation:
    """ad(e_i) with columns [e_i, e_j]; a representation exactly when
    Jacobi holds, so unverified algebras are rejected.  Read off the
    bracket table, c^l_ab = ad(e_a)[l][b] = -ad(e_b)[l][a], in ascending
    pair order, so each row fills in ascending column order."""
    require_jacobi(g)
    entries: list[dict] = [{} for _ in range(g.dim)]
    for (a, b), vec in sorted(g.brackets.items()):
        for l, value in vec.items():
            entries[a][l, b] = value
            entries[b][l, a] = -value
    return Representation(g, [SparseMatrix(g.dim, ad) for ad in entries], kind="adjoint", module_dim=g.dim)


def trivial_rep(g: LieAlgebra, module_dim: int = 1) -> Representation:
    matrices = [SparseMatrix(module_dim) for _ in range(g.dim)]
    return Representation(g, matrices, kind="trivial", module_dim=module_dim)


class Cochain:
    """Alternating k-linear map in coordinates: strictly increasing index
    tuples to sparse module vectors.  Degree 0 is the single ()-slot."""

    def __init__(self, source: LieAlgebra, degree: int, module_dim: int, coords: Mapping | None = None):
        if not 0 <= degree <= source.dim:
            raise ValueError(f"degree {degree} outside 0..{source.dim}")
        self.source = source
        self.degree = degree
        self.module_dim = module_dim
        clean: dict[tuple[int, ...], Vec] = {}
        for key, value in (coords or {}).items():
            key = tuple(int(x) for x in key)
            if len(key) != degree or any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"tuple {key} is not strictly increasing of length {degree}")
            if key and (key[0] < 0 or key[-1] >= source.dim):
                raise ValueError(f"tuple {key} outside basis range")
            if isinstance(value, dict):
                items = value.items()
            elif isinstance(value, (list, tuple)):
                items = enumerate(value)
            else:
                raise TypeError("coords values must be sparse dicts or sequences")
            vec: Vec = {}
            for i, raw in items:
                scalar = gauss(raw)
                if scalar is None:
                    raise TypeError(f"bad module scalar {raw!r}")
                i = int(i)
                if not 0 <= i < module_dim:
                    raise ValueError("module coordinate out of range")
                if scalar:
                    vec[i] = scalar
            if vec:
                clean[key] = vec
        self.coords = clean

    def value(self, key: tuple[int, ...]) -> Vec:
        return dict(self.coords.get(tuple(key), {}))

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.module_dim == other.module_dim
            and self.coords == other.coords
        )

    __hash__ = None

    def __repr__(self):
        return f"Cochain(k={self.degree}, m={self.module_dim}, nnz={len(self.coords)})"

    def to_doc(self) -> dict:
        coords = {}
        for key in sorted(self.coords):
            vec = self.coords[key]
            coords[",".join(str(i + 1) for i in key)] = [
                str(vec.get(i, ZERO)) for i in range(self.module_dim)
            ]
        return {
            "format": "lieq-1",
            "degree": self.degree,
            "module_dim": self.module_dim,
            "coords": coords,
        }

    @classmethod
    def from_doc(cls, source: LieAlgebra, doc: Mapping) -> "Cochain":
        raw, coords = doc_field(doc, "coords", dict, "cochain document", {}), {}
        for key in raw:
            idx = tuple(doc_index(part, source.dim, f"cochain coords key {key!r} index")
                        for part in str(key).split(",")) if str(key) else ()
            values = doc_field(raw, key, list, "cochain coords")
            coords[idx] = {i: doc_value(s, GaussRat, "cochain coordinate")
                           for i, s in enumerate(values)}
        dims = (doc_field(doc, key, int, "cochain document") for key in ("degree", "module_dim"))
        return cls(source, *dims, coords)


def _term_index(rep: Representation, den: int) -> tuple[dict, dict]:
    """The nonzero structure constants of g = rep.source and entries of
    rho, times den, as Z[i] pairs (re, im), indexed for _scatter_key:
    action maps each a with rho(e_a) != 0, ascending, to [(2r, i, re, im)]
    for the nonzero entries rho(e_a)[r][i]; by_output maps l to
    [(a, b, re, im)] for the pairs a < b with c^l_ab != 0, in bracket-table
    order.  Built once per representation, by Representation.terms."""
    action = {}
    for a, mat in enumerate(rep.matrices):
        entries = [(2 * r, i, int(v.re * den), int(v.im * den))
                   for r, row in enumerate(mat.rows) for i, v in row.items()]
        if entries:
            action[a] = entries
    by_output: dict[int, list] = {}
    for (a, b), vec in rep.source.brackets.items():
        for l, v in vec.items():
            by_output.setdefault(l, []).append((a, b, int(v.re * den), int(v.im * den)))
    return action, by_output


def _scatter_key(key: tuple[int, ...], action: Mapping, by_output: Mapping, offset: Mapping,
                 cols: list[dict]) -> None:
    """Add D * d of the slot key to cols, the integer columns of the
    coordinates (key, i), i = 0..m-1, with module coordinate r of target t
    at row keys offset[t] + 2r and + 2r + 1 (see differential_matrix).

    A module-action term inserts a fresh index a with rho(e_a) != 0 and
    lands on rho(e_a)'s nonzero entries.  A bracket term replaces one slot
    l of key by a pair (a, b) with c^l_ab != 0 and lands on all m columns.
    Only the index of _term_index is read, so the cost tracks the nonzero
    terms, not the basis pairs or the (column, acting index) pairs."""
    for a, entries in action.items():
        if a in key:
            continue
        pos = bisect_left(key, a)
        base = offset[key[:pos] + (a,) + key[pos:]]
        sign = -1 if pos & 1 else 1
        for r, i, re, im in entries:
            col = cols[i]
            r += base
            if re:
                col[r] = col.get(r, 0) + sign * re
            if im:
                col[r + 1] = col.get(r + 1, 0) + sign * im
    for pos_l, l in enumerate(key):
        rest = key[:pos_l] + key[pos_l + 1 :]
        for a, b, re, im in by_output.get(l, ()):
            if a in rest or b in rest:
                continue
            pa, pb = bisect_left(rest, a), bisect_left(rest, b)
            # (-1)^pos_l for the slot, (-1)^(i + j) for a and b at 1-based i < j
            if not (pos_l + pa + pb) & 1:
                re, im = -re, -im
            r = offset[rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]]
            for col in cols:
                if re:
                    col[r] = col.get(r, 0) + re
                if im:
                    col[r + 1] = col.get(r + 1, 0) + im
                r += 2


def differential(c: Cochain, rep: Representation) -> Cochain:
    """The degree-raising differential of a cochain: the columns of
    differential_matrix at the slots of c, built by the same _scatter_key,
    combined with c's values and divided by D."""
    den, action, by_output = rep.terms(c.source)
    if c.module_dim != rep.module_dim:
        raise SourceMismatch("module dimensions differ")
    if c.degree >= c.source.dim:
        raise ValueError("top-degree cochains map into the zero space")
    g, m = c.source, c.module_dim
    offset = _RowOffsets(g.dim, c.degree + 1, 2 * m)
    flat: Vec = {}
    for key, vec in c.coords.items():
        cols = [{} for _ in range(m)]
        _scatter_key(key, action, by_output, offset, cols)
        for i, x in vec.items():
            vec_add(flat, exact_view(cols[i], den, {}), x)
    target = {base: key for key, base in offset.items()}
    coords: dict[tuple[int, ...], Vec] = {}
    for row, value in flat.items():
        coords.setdefault(target[2 * (row - row % m)], {})[row % m] = value
    return Cochain(g, c.degree + 1, m, coords)


# -- coordinate bookkeeping ---------------------------------------------------


def cochain_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), k))


class _RowOffsets(dict):
    """scale * r for each strictly increasing tuple of size k looked up, r
    its position in cochain_tuples(n, k), computed on first lookup as the
    lexicographic rank C(n, k) - 1 - sum_i C(n - 1 - t_i, k - i) (i from
    0), so that no list of all C(n, k) tuples is built."""

    def __init__(self, n: int, k: int, scale: int):
        super().__init__()
        self.n, self.k, self.scale = n, k, scale
        self.last = math.comb(n, k) - 1

    def __missing__(self, key: tuple[int, ...]) -> int:
        n, k = self.n, self.k
        rank = self.last - sum(math.comb(n - 1 - t, k - i) for i, t in enumerate(key))
        self[key] = offset = self.scale * rank
        return offset


def cochain_space_dim(n: int, k: int, m: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) * m


def cochain_from_coordinates(g: LieAlgebra, k: int, m: int, flat: Vec) -> Cochain:
    tuples = cochain_tuples(g.dim, k)
    coords: dict[tuple[int, ...], dict] = {}
    for pos, value in flat.items():
        key = tuples[pos // m]
        coords.setdefault(key, {})[pos % m] = value
    return Cochain(g, k, m, coords)


def _common_denominator(rep: Representation) -> int:
    """D: the lcm of the denominators of g's constants and rho's entries."""
    values = [v for vec in rep.source.brackets.values() for v in vec.values()]
    values += [v for mat in rep.matrices for row in mat.rows for v in row.values()]
    return math.lcm(1, *(x.denominator for v in values for x in (v.re, v.im) if type(x) is not int))


def differential_matrix(k: int, g: LieAlgebra, rep: Representation) -> list[dict]:
    """D * d_k, for d_k : C^k -> C^{k+1} and D = _common_denominator(rep),
    as integer columns, one per coordinate of C^k in the canonical ordering.
    The real part of row r sits at key 2r and the imaginary part at key
    2r + 1, the Z[i] layout of linalg._clear_denominators.

    Every d_k is built here, so this is where its size is bounded: more
    than LIEQ_SIZE_CAP columns, C(n, k) * m, raise SizeCap before anything
    is allocated."""
    n, m = g.dim, rep.module_dim
    width, cap = cochain_space_dim(n, k, m), size_cap()
    if width > cap:
        raise SizeCap(f"d_{k} with C({n},{k})*{m} = {width} columns exceeds LIEQ_SIZE_CAP = {cap}")
    _, action, by_output = rep.terms(g)
    if k >= n:
        # C^{k+1} vanishes, so d is the zero map
        return [{} for _ in range(width)]
    # the first row of each target's block: listed when C^{k+1} has no more
    # tuples than C^k has coordinates (so the cap bounds the list too),
    # otherwise computed for the targets that occur; where most targets
    # occur, as in every adjoint d_k, the list is the cheaper of the two
    if math.comb(n, k + 1) <= width:
        offset = {key: 2 * pos * m for pos, key in enumerate(cochain_tuples(n, k + 1))}
    else:
        offset = _RowOffsets(n, k + 1, 2 * m)
    columns: list[dict] = [{} for _ in range(width)]
    for c, key in enumerate(cochain_tuples(n, k)):
        _scatter_key(key, action, by_output, offset, columns[c * m : (c + 1) * m])
    return [{r: x for r, x in col.items() if x} if 0 in col.values() else col for col in columns]


class CochainComplex:
    """The Chevalley-Eilenberg complex C^*(g; rep) for the span of one call.

    Each d_k is built at most once, by differential_matrix, and its rank is
    computed at most once, so every dimension read off the same complex
    shares that work.  The object caches nothing beyond its own lifetime.
    It is a complex (d^2 = 0) only over a Lie algebra, so g must pass
    require_jacobi whatever the coefficients.
    """

    def __init__(self, g: LieAlgebra, rep: Representation):
        require_jacobi(g)
        self.g = g
        self.rep = rep
        self.den = rep.terms(g)[0]
        self._columns: dict[int, list[dict]] = {}
        self._ranks: dict[int, int] = {}
        self._memo: dict[tuple[int, int], GaussRat] = {}

    def dim(self, k: int) -> int:
        """dim C^k."""
        return cochain_space_dim(self.g.dim, k, self.rep.module_dim)

    def columns(self, k: int) -> list[dict]:
        """D * d_k as integer columns, one per coordinate of C^k, each with
        the real and imaginary parts of row r at keys 2r and 2r + 1 (see
        differential_matrix).  Callers read them and never modify them."""
        if k not in self._columns:
            self._columns[k] = differential_matrix(k, self.g, self.rep)
        return self._columns[k]

    def _integer_rows(self, k: int) -> list[dict]:
        """The nonzero rows of D * d_k in ascending row order."""
        by_row: dict[int, dict] = {}
        for c, col in enumerate(self.columns(k)):
            for r, x in col.items():
                by_row.setdefault(r >> 1, {})[2 * c | r & 1] = x
        return [by_row[r] for r in sorted(by_row)]

    def rows(self, k: int) -> list[Vec]:
        """The nonzero rows of d_k in ascending row order, over Q(i)."""
        return [exact_view(row, self.den, self._memo) for row in self._integer_rows(k)]

    def rank(self, k: int) -> int:
        """rank d_k, which is zero from the top degree on.  It is taken on
        the columns, untransposed, which eliminates faster than the rows."""
        if k >= self.g.dim:
            return 0
        if k not in self._ranks:
            self._ranks[k] = integer_rank(self.columns(k))
        return self._ranks[k]

    def cocycle_dim(self, k: int) -> int:
        return self.dim(k) - self.rank(k)

    def coboundary_dim(self, k: int) -> int:
        return self.rank(k - 1) if k > 0 else 0

    def cohomology_dim(self, k: int) -> int:
        return self.cocycle_dim(k) - self.coboundary_dim(k)

    def cocycles(self, k: int) -> Subspace:
        """Z^k as a subspace of the coordinate space of k-cochains."""
        if k >= self.g.dim:
            return Subspace.full(self.dim(k))
        return Subspace(self.dim(k), nullspace(self.rows(k), self.dim(k)))

    def coboundaries(self, k: int) -> Subspace:
        """B^k = image of d on C^{k-1}; B^0 = 0."""
        if k == 0:
            return Subspace.zero(self.dim(k))
        cols = [exact_view(col, self.den, self._memo) for col in self.columns(k - 1) if col]
        return Subspace(self.dim(k), cols)

    def d_squared_zero(self, k: int) -> bool:
        """Compose D * d at degrees k and k+1 and test for the zero matrix."""
        if k + 1 > self.g.dim:
            return True
        second = self.columns(k + 1)
        for col in self.columns(k):
            composed: dict[int, int] = {}
            for r, x in col.items():
                add_multiple(composed, x, r & 1, second[r >> 1])
            if any(composed.values()):
                return False
        return True


def cocycle_space(k: int, g: LieAlgebra, rep: Representation) -> Subspace:
    return CochainComplex(g, rep).cocycles(k)


def cohomology_dim(k: int, g: LieAlgebra, rep: Representation) -> int:
    return CochainComplex(g, rep).cohomology_dim(k)


def d_squared_check(g: LieAlgebra, rep: Representation, k: int) -> bool:
    return CochainComplex(g, rep).d_squared_zero(k)


# -- derivations -----------------------------------------------------------------
#
# A derivation D of g is exactly a 1-cocycle with adjoint coefficients:
# (dD)(x, y) = [x, Dy] - [y, Dx] - D[x, y], so Der(g) = Z^1(g; ad).


def derivation_dims(g: LieAlgebra) -> tuple[int, int]:
    """(dim Der(g), dim Inn(g)), with dim Der = dim Z^1(g; ad) = n^2 - rank d_1."""
    der_dim = CochainComplex(g, adjoint_rep(g)).cocycle_dim(1)
    inn_dim = g.dim - g.center().dim
    return der_dim, inn_dim


class DerivationAlgebra:
    """Der(g) with its commutator structure constants, the matrices of a
    chosen basis, and the inner derivations as a subspace of gl(n)."""

    def __init__(self, algebra: LieAlgebra, matrices: list[SparseMatrix], inner: Subspace):
        self.algebra = algebra
        self.matrices = matrices
        self.inner = inner

    @property
    def dim(self) -> int:
        return len(self.matrices)

    @property
    def h1_dim(self) -> int:
        return self.dim - self.inner.dim


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """Der(g) = Z^1(g; ad), with the matrix commutator as its bracket.

    Matrices are flattened row-major (D[r][c] at r*n + c), so the cochain
    coordinate i*n + r of D, which holds D[r][i], moves to r*n + i before
    the kernel is taken.  Inn(g) = B^1(g; ad), moved the same way."""
    n = g.dim
    complex_ = CochainComplex(g, adjoint_rep(g))

    def row_major(vec: Vec) -> Vec:
        return {(c % n) * n + c // n: value for c, value in vec.items()}

    basis_flat, free_cols = nullspace_with_free([row_major(row) for row in complex_.rows(1)], n * n)
    matrices = [
        SparseMatrix(n, {(idx // n, idx % n): value for idx, value in flat.items()})
        for flat in basis_flat
    ]

    brackets: dict[tuple[int, int], Vec] = {}
    for a in range(len(matrices)):
        for b in range(a + 1, len(matrices)):
            comm = matrices[a] @ matrices[b] - matrices[b] @ matrices[a]
            flat: Vec = {}
            for r, row in enumerate(comm.rows):
                for c, value in row.items():
                    flat[r * n + c] = value
            coeffs: Vec = {}
            residual = dict(flat)
            for pos, col in enumerate(free_cols):
                value = residual.get(col)
                if value:
                    coeffs[pos] = value
            for pos, value in coeffs.items():
                vec_add(residual, basis_flat[pos], -value)
            if residual:
                raise LieqError("derivation commutator escaped Der(g)")
            if coeffs:
                brackets[(a, b)] = coeffs
    der = LieAlgebra(len(matrices), brackets, [f"D{k + 1}" for k in range(len(matrices))])
    inner = Subspace(n * n, [row_major(vec) for vec in complex_.coboundaries(1).rows])
    return DerivationAlgebra(der, matrices, inner)


def trivial_cocycle_failure(g: LieAlgebra, module_dim: int, values: Mapping) -> tuple[int, int, int] | None:
    """The least basis triple on which the alternating 2-form ``values``
    ({(i, j): vector} on pairs i < j, in a module_dim-dimensional module
    with trivial action) has d theta != 0, or None when it is a 2-cocycle.

    Vacuous when dim g < 3, where C^3 is zero; this also covers dim g < 2,
    where a degree-2 Cochain cannot be built."""
    if g.dim < 3:
        return None
    d_theta = differential(Cochain(g, 2, module_dim, values), trivial_rep(g, module_dim))
    return min(d_theta.coords, default=None)


def is_two_cocycle_trivial_coeffs(theta: Cochain) -> bool:
    """d theta = 0 for trivial coefficients in theta's module."""
    if theta.degree != 2:
        raise ValueError("needs a degree-2 cochain")
    return trivial_cocycle_failure(theta.source, theta.module_dim, theta.coords) is None

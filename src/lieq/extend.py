"""Central extensions of Lie algebras and their coboundary equivalence.

Only the central case is implemented: the adjoined space V sits inside the
center of the extension, and the new bracket is [x+u, y+v] = [x,y] + theta(x,y)
for a 2-cocycle theta with values in V and trivial action.  Any algebra with
nontrivial center arises this way from its central quotient, and the
construction only moves by a coboundary when the complement section changes.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .cohomology import Cochain, differential, trivial_cocycle_failure, trivial_rep
from .exactnum import GaussRat, LieqError, gauss
from .liealg import LieAlgebra, Quotient, doc_field, pairs_from_doc, pairs_to_doc, signed_pair
from .linalg import SparseMatrix, Vec, vec_add


class CocycleViolation(LieqError):
    """Values fail the cyclic 2-cocycle condition or break the extension."""


class TrivialCenter(LieqError):
    """Reconstruction requested for an algebra with zero center."""


class CentralCocycle:
    """Alternating bilinear map g x g -> V given on basis pairs i < j,
    verified to be a 2-cocycle for the trivial action at construction."""

    def __init__(self, source: LieAlgebra, target_dim: int, values: Mapping[tuple[int, int], Mapping] | None):
        if target_dim < 1:
            raise ValueError("target dimension must be at least 1")
        self.source = source
        self.target_dim = target_dim
        clean: dict[tuple[int, int], Vec] = {}
        for (i, j), raw in (values or {}).items():
            i, j = int(i), int(j)
            if not 0 <= i < j < source.dim:
                raise ValueError(f"pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec: Vec = {}
            for k, scalar in raw.items():
                s = gauss(scalar)
                if s is None:
                    raise TypeError(f"bad scalar {scalar!r}")
                k = int(k)
                if not 0 <= k < target_dim:
                    raise ValueError("target coordinate out of range")
                if s:
                    vec[k] = s
            if vec:
                clean[(i, j)] = vec
        failure = trivial_cocycle_failure(source, target_dim, clean)
        if failure is not None:
            raise CocycleViolation(f"cyclic condition fails on triple {tuple(x + 1 for x in failure)}")
        self.values = clean

    def pair(self, i: int, j: int) -> Vec:
        return signed_pair(self.values, i, j)

    def to_doc(self) -> dict:
        return {"format": "lieq-1", "target_dim": self.target_dim, "values": pairs_to_doc(self.values)}

    @classmethod
    def from_doc(cls, source: LieAlgebra, doc: Mapping) -> "CentralCocycle":
        target_dim = doc_field(doc, "target_dim", int, "cocycle document")
        values = doc_field(doc, "values", list, "cocycle document", [])
        return cls(source, target_dim, pairs_from_doc(values, source.dim, target_dim))


def central_extension(g: LieAlgebra, theta: CentralCocycle) -> LieAlgebra:
    """The algebra g + V with bracket [x+u, y+v] = [x,y] + theta(x,y).

    The V coordinates are central by construction; the output is Jacobi
    checked, so a theta built around the constructor verification cannot
    slip through."""
    if theta.source is not g and not theta.source.same_constants(g):
        raise CocycleViolation("cocycle attached to a different algebra")
    n, v = g.dim, theta.target_dim
    brackets: dict[tuple[int, int], Vec] = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec: Vec = dict(g.brackets.get((i, j), {}))
            for k, value in theta.pair(i, j).items():
                vec[n + k] = value
            if vec:
                brackets[(i, j)] = vec
    labels = list(g.labels) + [f"w{k + 1}" for k in range(v)]
    out = LieAlgebra(n + v, brackets, labels)
    if out.check_jacobi() is not None:
        raise CocycleViolation("extension failed the Jacobi identity")
    return out


class ShiftIso(NamedTuple):
    """Explicit isomorphism g_theta' -> g_theta, theta' = theta - c' o bracket,
    given by (x, v) -> (x, v + c'(x))."""

    source_algebra: LieAlgebra
    target_algebra: LieAlgebra
    shifted: CentralCocycle
    matrix: SparseMatrix

    def apply(self, vec: Vec) -> Vec:
        return self.matrix.apply(vec)


def coboundary_shift_iso(g: LieAlgebra, theta: CentralCocycle, c_prime: Cochain) -> ShiftIso:
    """Shift theta by the coboundary of a degree-1 cochain with values in V
    and return the linear map identifying the two extensions.

    The map is verified to intertwine the brackets on every basis pair of
    the extended algebras; this is an identity, so failure is a bug."""
    if c_prime.degree != 1 or c_prime.module_dim != theta.target_dim:
        raise ValueError("shift needs a degree-1 cochain with values in V")
    n, v = g.dim, theta.target_dim
    # theta' = theta + d c'; C^2 is zero when dim g < 2, and so is d c'
    d_c = differential(c_prime, trivial_rep(g, v)).coords if n > 1 else {}
    shifted_values = {pair: dict(vec) for pair, vec in theta.values.items()}
    for pair, vec in d_c.items():
        vec_add(shifted_values.setdefault(pair, {}), vec)
    shifted = CentralCocycle(g, v, shifted_values)
    g_theta = central_extension(g, theta)
    g_shifted = central_extension(g, shifted)

    entries = {(i, i): 1 for i in range(n + v)}
    for i in range(n):
        for k, value in c_prime.value((i,)).items():
            entries[(n + k, i)] = value

    iso = ShiftIso(g_shifted, g_theta, shifted, SparseMatrix(n + v, entries))
    for i in range(n + v):
        for j in range(i + 1, n + v):
            lhs = iso.apply(g_shifted.pair(i, j))
            rhs = g_theta.bracket(iso.apply({i: GaussRat(1)}), iso.apply({j: GaussRat(1)}))
            if lhs != rhs:
                raise LieqError(f"shift map failed to intertwine on pair ({i + 1}, {j + 1})")
    return iso


def induced_cocycle(g: LieAlgebra) -> tuple[Quotient, CentralCocycle]:
    """Present g as a central extension of g/Z(g): quotient, echelon section s,
    and theta(x, y) = Z-component of [s(x), s(y)] with values in Z(g)."""
    center = g.center()
    if center.dim == 0:
        raise TrivialCenter("algebra has no center to peel off")
    quotient = g.quotient(center)
    q = quotient.algebra
    values: dict[tuple[int, int], Vec] = {}
    for a in range(q.dim):
        for b in range(a + 1, q.dim):
            w = g.pair(quotient.complement[a], quotient.complement[b])
            # split w = s(projection) + central part
            central_part = dict(w)
            vec_add(central_part, quotient.section(quotient.project(w)), GaussRat(-1))
            coords = center.coordinates(central_part)
            if coords is None:
                raise LieqError("central part escaped the center")
            vec = {k: c for k, c in enumerate(coords) if c}
            if vec:
                values[(a, b)] = vec
    theta = CentralCocycle(q, center.dim, values)
    return quotient, theta


def round_trip(g: LieAlgebra):
    """(quotient, theta, ok): g / Z(g) with the induced cocycle, and whether
    the central extension they define has the signature of g."""
    quot, theta = induced_cocycle(g)
    rebuilt = central_extension(quot.algebra, theta)
    return quot, theta, rebuilt.invariant_signature() == g.invariant_signature()

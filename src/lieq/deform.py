"""Linear and k-deformations of Lie brackets, graded Jacobi checks, rigidity.

A deformed bracket is the base bracket plus perturbation cochains graded by
powers of a formal parameter t.  The graded Jacobi expansion keeps every
cross term mu(x, phi(y,z)) + phi(x, mu(y,z)) and so on; nothing is assumed
to cancel, every coefficient of t is computed and reported as-is.  It
walks the same bounded candidate triples as LieAlgebra.check_jacobi.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import Cochain, CochainComplex, SourceMismatch, adjoint_rep
from .exactnum import LieqError, gauss
from .liealg import LieAlgebra, jacobi_candidates, jacobi_sum
from .linalg import Vec, vec_add


class NotLieAtParameter(LieqError):
    """Requested specialization is not a Lie bracket and no override given."""


class DeformationDefect(NamedTuple):
    triple: tuple[int, int, int]
    degree: int
    residual: Vec


class DeformedBracket:
    """mu_t = mu + t phi_1 + ... + t^k phi_k, held as the tables
    (mu, phi_1, ..., phi_k) of its graded components."""

    def __init__(self, base: LieAlgebra, perturbations: tuple[Cochain, ...]):
        if not perturbations:
            raise ValueError("need at least one perturbation cochain")
        for phi in perturbations:
            if phi.degree != 2:
                raise SourceMismatch(f"perturbations must be degree-2 cochains, not {phi.degree}")
            if phi.module_dim != base.dim:
                raise SourceMismatch(f"perturbation module_dim {phi.module_dim} is not dim g = {base.dim}")
            if phi.source is not base and not phi.source.same_constants(base):
                raise SourceMismatch("perturbation attached to a different algebra")
        self.base = base
        self.tables = (base.brackets,) + tuple(phi.coords for phi in perturbations)

    @property
    def order(self) -> int:
        return len(self.tables) - 1


def make_linear_deformation(g: LieAlgebra, phi: Cochain) -> DeformedBracket:
    """The k = 1 family mu + t*phi; no Jacobi claim is made here."""
    return DeformedBracket(g, (phi,))


def jacobi_polynomial(d: DeformedBracket) -> dict[tuple[int, int, int], dict[int, Vec]]:
    """Full graded expansion of the Jacobi sum of mu_t on every basis triple,
    as {triple: {c: vector}}: the coefficient of t^c is the sum of
    jacobi_sum(mu_a, mu_b) over a + b = c, so every cross term between
    grading levels is retained.  Only nonzero coefficients are kept, degrees
    ascending, triples in combinations order; only the jacobi_candidates of
    the tables are walked, as every other triple sums to zero."""
    out: dict[tuple[int, int, int], dict[int, Vec]] = {}
    for triple in jacobi_candidates(d.tables):
        by_degree: dict[int, Vec] = {}  # a + b first reaches each c in ascending order
        for a, outer in enumerate(d.tables):
            for b, inner in enumerate(d.tables):
                vec_add(by_degree.setdefault(a + b, {}), jacobi_sum(outer, inner, *triple))
        nonzero = {c: vec for c, vec in by_degree.items() if vec}
        if nonzero:
            out[triple] = nonzero
    return out


def _least_defect(expansion: dict) -> DeformationDefect | None:
    """The least triple of a jacobi_polynomial table with its least degree and
    the residual there (coordinates ascending), or None for an empty table."""
    if not expansion:
        return None
    triple, by_degree = next(iter(expansion.items()))
    degree, residual = next(iter(by_degree.items()))
    return DeformationDefect(triple, degree, dict(sorted(residual.items())))


def deformation_is_lie(d: DeformedBracket) -> DeformationDefect | None:
    """None when the graded Jacobi polynomial vanishes identically, else the
    first offending triple with its t-degree and residual vector."""
    return _least_defect(jacobi_polynomial(d))


def evaluate_at(d: DeformedBracket, t0, allow_non_lie: bool = False) -> LieAlgebra:
    """Structure constants mu + sum t0^a phi_a.  Unless the override flag is
    set, a Jacobi failure of that bracket, whose Jacobi sums are the graded
    Jacobi polynomial at t0, raises NotLieAtParameter naming the least
    failing basis triple, counted from 1."""
    t0 = gauss(t0)
    brackets: dict[tuple[int, int], Vec] = {}
    for a, table in enumerate(d.tables):
        for pair, vec in table.items():
            vec_add(brackets.setdefault(pair, {}), vec, t0 ** a)
    evaluated = LieAlgebra(d.base.dim, brackets, d.base.labels)
    witness = None if allow_non_lie else evaluated.check_jacobi()
    if witness is not None:
        raise NotLieAtParameter(
            f"Jacobi residual at triple {tuple(x + 1 for x in witness.triple)} for t = {t0}"
        )
    return evaluated


class RigidityReport(NamedTuple):
    orbit_tangent_dim: int
    dim_b2: int
    dim_h2: int
    nr_rigid: bool
    tangent_equals_b2: bool

    def to_doc(self) -> dict:
        return self._asdict()


def rigidity_report(g: LieAlgebra) -> RigidityReport:
    """Exact dimension bookkeeping behind the two rigidity detectors:
    orbit-tangent dim n^2 - dim Der versus dim B^2, and triviality of the
    deformation cohomology H^2.  The first two always agree, abelian
    algebras included: Der(g) = Z^1(g; ad), so n^2 - dim Der = rank d_1 =
    dim B^2."""
    complex_ = CochainComplex(g, adjoint_rep(g))
    tangent = b2 = complex_.coboundary_dim(2)
    h2 = complex_.cohomology_dim(2)
    return RigidityReport(
        orbit_tangent_dim=tangent,
        dim_b2=b2,
        dim_h2=h2,
        nr_rigid=h2 == 0,
        tangent_equals_b2=tangent == b2,
    )


def characteristically_nilpotent(g: LieAlgebra) -> bool:
    """True when Der(g) is nilpotent as a Lie algebra."""
    from .cohomology import derivation_algebra

    return derivation_algebra(g).algebra.is_nilpotent() is not None

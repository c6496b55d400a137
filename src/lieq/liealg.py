"""Finite-dimensional Lie algebras as sparse structure constants over Q(i).

Brackets are stored only for ordered basis pairs i < j; antisymmetry and
the vanishing diagonal are structural, not data.  The center, the series
and quotients read only the nonzero constants; they are canonical because
they are built from the deterministic RREF of :mod:`lieq.linalg`.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .exactnum import GaussRat, LieqError, SizeCap, gauss, size_cap
from .linalg import Subspace, Vec, nullspace, vec_add, vec_from_seq


class DimensionMismatch(LieqError, ValueError):
    """Vector length does not match the algebra dimension (a usage error)."""


class NotAnIdeal(LieqError):
    """Quotient requested by a subspace that is not an ideal."""


class JacobiWitness(NamedTuple):
    triple: tuple[int, int, int]
    residual: Vec


class Signature(NamedTuple):
    """Isomorphism-necessary invariant tuple (equal tuples do not prove
    isomorphism, unequal tuples disprove it)."""

    dim: int
    lower_central_dims: tuple[int, ...]
    upper_central_dims: tuple[int, ...]
    derived_series_dims: tuple[int, ...]
    center_dim: int
    derivation_dim: int
    h1_dim: int
    h2_dim: int
    nilpotency_class: int  # -1 if not nilpotent
    solvable_length: int  # -1 if not solvable
    abelian: bool

    def to_doc(self) -> dict:
        doc = self._asdict()
        for key in ("lower_central_dims", "upper_central_dims", "derived_series_dims"):
            doc[key] = list(doc[key])
        return doc


def _coerce_vec(value, dim: int) -> Vec:
    if isinstance(value, dict):
        out = {}
        for idx, scalar in value.items():
            idx = int(idx)
            if not 0 <= idx < dim:
                raise DimensionMismatch(f"coordinate {idx} outside 0..{dim - 1}")
            s = gauss(scalar)
            if s is None:
                raise TypeError(f"bad scalar {scalar!r}")
            if s:
                out[idx] = s
        return out
    if isinstance(value, (list, tuple)):
        if len(value) != dim:
            raise DimensionMismatch(f"vector length {len(value)} != dim {dim}")
        return vec_from_seq(value)
    raise TypeError(f"cannot interpret {value!r} as a vector")


def signed_pair(table: Mapping[tuple[int, int], Vec], i: int, j: int) -> Vec:
    """Value on (e_i, e_j) of the alternating bilinear map stored in
    ``table`` on basis pairs i < j; a fresh dict the caller may modify."""
    if i == j:
        return {}
    if i < j:
        return dict(table.get((i, j), {}))
    flipped = table.get((j, i))
    return {k: -v for k, v in flipped.items()} if flipped else {}


def jacobi_sum(outer: Mapping, inner: Mapping, i: int, j: int, k: int) -> Vec:
    """Sum over the cyclic orders (a, b, c) of (i, j, k) of
    outer(e_a, inner(e_b, e_c)), for alternating bilinear maps stored as
    {(i, j): Vec} tables on basis pairs i < j.  With outer = inner = the
    bracket this is the Jacobi sum; in general it is the Gerstenhaber
    composition of two 2-cochains, evaluated on one basis triple."""
    out: Vec = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l, coeff in signed_pair(inner, b, c).items():
            vec_add(out, signed_pair(outer, a, l), coeff)
    return out


def jacobi_candidates(tables: Sequence[Mapping[tuple[int, int], Vec]]) -> list[tuple[int, int, int]]:
    """The triples {a, b, c}, in combinations order, with a term
    outer(e_a, inner(e_b, e_c)) != 0 for two of the given {(i, j): Vec}
    tables: e_l occurs in a value on (b, c) and (a, l) is a pair of some
    table; jacobi_sum is zero on every other triple.  More than
    LIEQ_SIZE_CAP candidates raise SizeCap.  h(n) has none."""
    partners: dict[int, set[int]] = {}
    for table in tables:
        for a, b in table:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
    candidates = {tuple(sorted((a, b, c)))
                  for table in tables for (b, c), vec in table.items() for l in vec
                  for a in partners.get(l, ()) if a != b and a != c}
    if len(candidates) > (cap := size_cap()):
        raise SizeCap(f"Jacobi check of {len(candidates)} candidate triple(s) "
                      f"exceeds LIEQ_SIZE_CAP = {cap}")
    return sorted(candidates)


def _series_dims(series: Sequence[Subspace]) -> tuple[int, ...]:
    """The dimensions of a structural series; (0,) for the zero algebra,
    whose series are empty."""
    return tuple(s.dim for s in series) or (0,)


def _steps_to_zero(dims: Sequence[int]) -> int | None:
    """The number of steps a descending series takes down to 0 (the
    nilpotency class of the lower central series, the solvable length of
    the derived series), or None when it stops above 0."""
    return len(dims) - 1 if dims[-1] == 0 else None


class LieAlgebra:
    """Structure-constant presentation of a finite-dimensional Lie algebra."""

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], object] | None = None,
        labels: Sequence[str] | None = None,
    ):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{k + 1}" for k in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise DimensionMismatch("label count != dim")
        self.labels = labels
        clean: dict[tuple[int, int], Vec] = {}
        for (i, j), value in (brackets or {}).items():
            i, j = int(i), int(j)
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec = _coerce_vec(value, dim)
            if vec:
                clean[(i, j)] = vec
        self.brackets = clean
        self._jacobi: JacobiWitness | None | str = "unchecked"
        self._signature: Signature | None = None

    # -- bracket evaluation ------------------------------------------------

    def pair(self, i: int, j: int) -> Vec:
        """[e_i, e_j] for basis indices, with the sign handled."""
        return signed_pair(self.brackets, i, j)

    def bracket(self, x, y) -> Vec:
        """Bilinear extension of the structure constants to vectors."""
        xv = _coerce_vec(x, self.dim)
        yv = _coerce_vec(y, self.dim)
        out: Vec = {}
        for i, a in xv.items():
            for j, b in yv.items():
                if i == j:
                    continue
                vec_add(out, self.pair(i, j), a * b)
        return out

    # -- verification --------------------------------------------------------

    def check_jacobi(self) -> JacobiWitness | None:
        """None when the Jacobi identity holds on every basis triple,
        otherwise the first failing (i, j, k) with its residual vector.
        Only the jacobi_candidates triples are walked, in combinations
        order, so the witness is that of a walk over all triples."""
        if self._jacobi != "unchecked":
            return self._jacobi  # type: ignore[return-value]
        candidates = jacobi_candidates([self.brackets])  # SizeCap leaves it unchecked
        self._jacobi = None
        for triple in candidates:
            residual = jacobi_sum(self.brackets, self.brackets, *triple)
            if residual:
                self._jacobi = JacobiWitness(triple, residual)
                break
        return self._jacobi

    @property
    def verified(self) -> bool:
        return self.check_jacobi() is None

    # -- canonical subspaces ---------------------------------------------------

    def center(self) -> Subspace:
        """Nullspace of the stacked ad-matrices."""
        return self._centralizer_mod(Subspace.zero(self.dim))

    def _ad_images(self, u: Vec) -> dict[int, Vec]:
        """{j: [u, e_j]} for the j where it is nonzero, ascending."""
        images: dict[int, Vec] = {}
        for (a, b), vec in self.brackets.items():
            if a in u:
                vec_add(images.setdefault(b, {}), vec, u[a])
            if b in u:
                vec_add(images.setdefault(a, {}), vec, -u[b])
        return {j: images[j] for j in sorted(images) if images[j]}

    def _centralizer_mod(self, current: Subspace) -> Subspace:
        """{x : [x, g] inside current}: the nullspace of the ad-matrices
        taken modulo current, with each nonzero constant reduced once."""
        rows: dict[tuple[int, int], Vec] = {}
        for (a, b), vec in self.brackets.items():
            for r, value in current.reduce(vec).items():
                rows.setdefault((b, r), {})[a] = value
                rows.setdefault((a, r), {})[b] = -value
        return Subspace(self.dim, nullspace([rows[key] for key in sorted(rows)], self.dim))

    def _bracket_span(self, left: Subspace, right: Subspace) -> Subspace:
        """The span of [u, w] = sum_j w_j [u, e_j], u in left, w in right."""
        vectors = []
        for u in left.rows:
            images = self._ad_images(u)
            for w in right.rows if images else ():
                v: Vec = {}
                for j, coeff in w.items():
                    vec_add(v, images.get(j, {}), coeff)
                if v:
                    vectors.append(v)
        return Subspace(self.dim, vectors)

    def _series(self, first: Subspace, step) -> list[Subspace]:
        """first, step(first), step(step(first)), ... up to the last term
        that step changes; [] for the zero algebra."""
        if self.dim == 0:
            return []
        series = [first]
        while (nxt := step(series[-1])) != series[-1]:
            series.append(nxt)
        return series

    def lower_central_series(self) -> list[Subspace]:
        full = Subspace.full(self.dim)
        return self._series(full, lambda s: self._bracket_span(s, full))

    def upper_central_series(self) -> list[Subspace]:
        """Ascending i-th centers; Z_{i+1} = {x : [x, g] inside Z_i}, which is
        the pullback of the center of g / Z_i."""
        return self._series(Subspace.zero(self.dim), self._centralizer_mod)

    def derived_series(self) -> list[Subspace]:
        return self._series(Subspace.full(self.dim), lambda s: self._bracket_span(s, s))

    def is_nilpotent(self) -> int | None:
        """Nilpotency class, or None."""
        return _steps_to_zero(_series_dims(self.lower_central_series()))

    def is_solvable(self) -> int | None:
        """Solvable length, or None."""
        return _steps_to_zero(_series_dims(self.derived_series()))

    def is_abelian(self) -> bool:
        return not self.brackets

    # -- constructions -------------------------------------------------------

    def quotient(self, ideal: Subspace) -> "Quotient":
        """Quotient by a verified ideal, with the projection onto the
        echelon complement (non-pivot coordinates, lowest index first)."""
        if ideal.ambient != self.dim:
            raise DimensionMismatch("ideal lives in a different ambient space")
        for u in ideal.rows:
            for j, w in self._ad_images(u).items():
                if not ideal.contains(w):
                    raise NotAnIdeal(f"[ideal, e{j + 1}] escapes the subspace")
        complement = tuple(c for c in range(self.dim) if c not in set(ideal.pivots))
        pos = {c: a for a, c in enumerate(complement)}

        def project(v: Vec) -> Vec:
            return {pos[c]: value for c, value in ideal.reduce(v).items()}

        brackets: dict[tuple[int, int], Vec] = {}
        for (i, j), vec in sorted(self.brackets.items()):
            if i in pos and j in pos and (img := project(vec)):
                brackets[(pos[i], pos[j])] = img
        algebra = LieAlgebra(len(complement), brackets, [self.labels[c] for c in complement])
        return Quotient(algebra, self, ideal, complement, project)

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        labels = list(self.labels)
        seen = set(labels)
        for name in other.labels:
            fresh = name
            while fresh in seen:
                fresh += "'"
            labels.append(fresh)
            seen.add(fresh)
        brackets: dict[tuple[int, int], Vec] = {
            pair: dict(vec) for pair, vec in self.brackets.items()
        }
        shift = self.dim
        for (i, j), vec in other.brackets.items():
            brackets[(i + shift, j + shift)] = {k + shift: v for k, v in vec.items()}
        return LieAlgebra(self.dim + other.dim, brackets, labels)

    # -- invariants ------------------------------------------------------------

    def invariant_signature(self) -> Signature:
        if self._signature is not None:
            return self._signature
        from . import cohomology  # deferred: cohomology builds on liealg

        # Der(g) = Z^1(g; ad), Inn(g) = g / Z(g); d_1 and d_2 first, so their caps refuse before the series
        ad_complex = cohomology.CochainComplex(self, cohomology.adjoint_rep(self))
        der_dim, h2_dim = ad_complex.cocycle_dim(1), ad_complex.cohomology_dim(2)
        lcs = _series_dims(self.lower_central_series())
        ucs = _series_dims(self.upper_central_series())
        der = _series_dims(self.derived_series())
        nil, sol = _steps_to_zero(lcs), _steps_to_zero(der)
        # Z(g) is the first step of the upper series
        center_dim = ucs[1] if len(ucs) > 1 else 0
        sig = Signature(
            dim=self.dim,
            lower_central_dims=lcs,
            upper_central_dims=ucs,
            derived_series_dims=der,
            center_dim=center_dim,
            derivation_dim=der_dim,
            h1_dim=der_dim - (self.dim - center_dim),
            h2_dim=h2_dim,
            nilpotency_class=-1 if nil is None else nil,
            solvable_length=-1 if sol is None else sol,
            abelian=self.is_abelian(),
        )
        self._signature = sig
        return sig

    # -- equality and wire format ------------------------------------------------

    def same_constants(self, other: "LieAlgebra") -> bool:
        return self.dim == other.dim and self.brackets == other.brackets

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.same_constants(other) and self.labels == other.labels

    __hash__ = None

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, pairs={len(self.brackets)})"

    def to_doc(self) -> dict:
        return {
            "format": "lieq-1",
            "dim": self.dim,
            "labels": list(self.labels),
            "brackets": pairs_to_doc(self.brackets),
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "LieAlgebra":
        dim = doc_field(doc, "dim", int, "algebra document")
        brackets = pairs_from_doc(doc_field(doc, "brackets", list, "algebra document", []), dim, dim)
        labels = doc.get("labels")
        if labels is not None:
            labels = [doc_value(label, str, "algebra label")
                      for label in doc_value(labels, list, "algebra document field 'labels'")]
        return cls(dim, brackets, labels)


def doc_field(doc, key: str, kind: type, what: str, default=None):
    """doc[key] of a lieq-1 document checked by ``doc_value``, or default
    when the key is absent.

    Raises ValueError, which the CLI reports as a usage error, when doc is
    not a JSON object, when the key is absent and there is no default, or
    when the value is not a kind."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    if key not in doc:
        if default is None:
            raise ValueError(f"{what} has no {key!r} field")
        return default
    return doc_value(doc[key], kind, f"{what} field {key!r}")


_JSON_KINDS = {int: "integer", dict: "object", list: "array", str: "string",
               GaussRat: "scalar string or integer"}


def doc_value(value, kind: type, what: str):
    """value of a lieq-1 document as a kind: int (a JSON integer), dict,
    list, str, or GaussRat (a scalar string such as "1/2-i", or a JSON
    integer; returned parsed).  Raises ValueError otherwise: JSON booleans
    are not integers, and a JSON number with a fraction or an exponent is
    refused rather than rounded."""
    if kind is GaussRat:
        if type(value) in (str, int):
            return GaussRat(value)
    elif type(value) is kind:
        return value
    hint = '; write it as a string such as "1/10"' if kind is GaussRat and type(value) is float else ""
    raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, not {type(value).__name__}{hint}")


def doc_index(value, size: int, what: str) -> int:
    """A basis index of a lieq-1 document, which counts from 1, checked
    against 1..size and returned counting from 0.  value is an int or the
    decimal text of a JSON object key; raises ValueError otherwise."""
    if type(value) is str and value.isdecimal():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not a basis index")
    if not 1 <= value <= size:
        raise ValueError(f"{what} {value} outside 1..{size}")
    return value - 1


def pairs_from_doc(entries: list, dim: int, out_dim: int) -> dict[tuple[int, int], Vec]:
    """{(i, j): vector} from lieq-1 entries {"i": .., "j": .., "out": {..}},
    whose basis indices count from 1: 1 <= i < j <= dim, and the keys of
    out in 1..out_dim.  Raises ValueError on any other index."""
    pairs = {}
    for entry in entries:
        i, j = (doc_index(doc_field(entry, key, int, "bracket entry"), dim, f"bracket entry {key!r}")
                for key in ("i", "j"))
        out = doc_field(entry, "out", dict, "bracket entry")
        if i >= j:
            raise ValueError(f"bracket entry ({i + 1}, {j + 1}) needs i < j")
        if (i, j) in pairs:
            raise ValueError(f"duplicate bracket pair ({i + 1}, {j + 1})")
        pairs[(i, j)] = {doc_index(k, out_dim, "bracket entry 'out' key"):
                         doc_value(s, GaussRat, "bracket entry 'out' value")
                         for k, s in out.items()}
    return pairs


def pairs_to_doc(pairs: Mapping[tuple[int, int], Vec]) -> list[dict]:
    """The lieq-1 entries {"i": .., "j": .., "out": {..}} of a {(i, j): vector}
    table, in pair order, with basis indices counting from 1; the inverse
    of pairs_from_doc."""
    return [{"i": i + 1, "j": j + 1, "out": {str(k + 1): str(vec[k]) for k in sorted(vec)}}
            for (i, j), vec in sorted(pairs.items())]


class Quotient:
    """Result of LieAlgebra.quotient: the quotient algebra plus the maps
    needed to move vectors both ways."""

    def __init__(self, algebra, parent, ideal, complement, project):
        self.algebra: LieAlgebra = algebra
        self.parent: LieAlgebra = parent
        self.ideal: Subspace = ideal
        self.complement: tuple[int, ...] = complement
        self._project = project

    def project(self, v: Vec) -> Vec:
        """Image of a parent vector in quotient coordinates."""
        return self._project(v)

    def section(self, v: Vec) -> Vec:
        """Echelon-complement section: quotient coordinates back into the parent."""
        return {self.complement[a]: value for a, value in v.items()}

    def __repr__(self):
        return f"Quotient(dim={self.algebra.dim} of {self.parent.dim})"


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, [f"e{k + 1}" for k in range(n)])

"""Truncated matrix realizations of ladder operators: single-mode q-pairs,
shifted pseudoboson pairs, biorthogonal systems, similarity transport of
q-CCR families, and multi-mode q = 0 (Cuntz-Toeplitz) isometries.

Exact computations use the "monomial" basis, where the raising operator is
a plain shift and the lowering operator carries the whole weight {m}_q.
The textbook orthonormal picture needs square roots, so it exists only in
the float mode, which never mixes with the exact paths and returns plain
floats.  Truncation defects are part of every contract here: the
single-mode relation fails exactly at the top corner with value -{N}_q, and
nowhere else.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import GaussRat, LieqError, ONE, SizeCap, ZERO, gauss, size_cap
from .linalg import SparseMatrix, Vec
from .qheis import q_integers_at


class SingularWeight(LieqError):
    """A q-integer weight vanishes, so the weighted adjoint does not exist."""


class NonpositiveWeight(LieqError):
    """Biorthogonal weights must be positive rationals."""


class SingularT(LieqError):
    """Similarity transport with a non-invertible matrix."""


class NegativeWeight(LieqError):
    """beta^2 went negative, impossible for q in [-1, 1]."""


class AlphaEqualsBeta(UserWarning):
    """Shifted pair with alpha = beta collapses to B = A-dagger."""


def _check_size(n: int) -> None:
    """Refuse an n x n truncation past LIEQ_SIZE_CAP entries or below 2 x 2."""
    if n * n > size_cap():
        raise SizeCap(f"{n}x{n} matrix exceeds LIEQ_SIZE_CAP")
    if n < 2:
        raise ValueError("need at least a 2-dimensional truncation")


def monomial_rep(q0, n: int) -> tuple[SparseMatrix, SparseMatrix]:
    """(A, B) on the truncated number basis: B is the raising shift
    B e_m = e_{m+1} (annihilating the top), A e_m = {m}_q e_{m-1}."""
    q0 = gauss(q0)
    _check_size(n)
    weights = q_integers_at(n - 1, q0)
    lower = {(m - 1, m): weights[m] for m in range(1, n)}
    raise_ = {(m + 1, m): ONE for m in range(n - 1)}
    return SparseMatrix(n, lower), SparseMatrix(n, raise_)


def qccr_defect(a: SparseMatrix, b: SparseMatrix, q0) -> SparseMatrix:
    """AB - q BA - I; for the monomial pair this is zero except the
    (N-1, N-1) corner, where it equals -{N}_q."""
    q0 = gauss(q0)
    n = a.n
    return (a @ b) - (b @ a).scale(q0) - SparseMatrix.identity(n)


def defect_is_corner_only(defect: SparseMatrix, q0) -> bool:
    """Contract check: support contained in the corner with value -{N}_q."""
    q0 = gauss(q0)
    n = defect.n
    expected = -q_integers_at(n, q0)[-1]
    for r, c, _ in defect.entries():
        if (r, c) != (n - 1, n - 1):
            return False
    return defect.get(n - 1, n - 1) == expected


def number_operator_spectrum(a: SparseMatrix, b: SparseMatrix) -> list[GaussRat]:
    """Diagonal of BA in the monomial basis; raises if anything leaks off
    the diagonal."""
    product = b @ a
    for r, c, _ in product.entries():
        if r != c:
            raise LieqError("number operator is not diagonal")
    return product.diagonal()


def spectrum_closed_form(q0, n: int) -> list[GaussRat]:
    """(1 - q^m)/(1 - q) for q != 1, and m at q = 1, for m = 0..N-1."""
    q0 = gauss(q0)
    if q0 == ONE:
        return [GaussRat(m) for m in range(n)]
    denom = (ONE - q0).inv()
    return [(ONE - q0 ** m) * denom for m in range(n)]


def weighted_adjoint(x: SparseMatrix, q0, n: int) -> SparseMatrix:
    """Adjoint with respect to the weighted pairing that makes the monomial
    basis orthogonal: X-dagger = W^{-1} X^H W with W = diag({m}_q!).

    Undefined when some {j}_q vanishes (q = -1 at even j); the float mode
    is the fallback there."""
    q0 = gauss(q0)
    steps = q_integers_at(n - 1, q0)
    weights = [ONE]
    for j in range(1, n):
        if not steps[j]:
            raise SingularWeight(f"{{{j}}}_q = 0 at q = {q0}")
        weights.append(weights[-1] * steps[j])
    data = {}
    for r, c, value in x.entries():
        # (W^{-1} X^H W)[c, r] uses entry X[r, c]
        data[(c, r)] = weights[c].inv() * value.conj() * weights[r]
    return SparseMatrix(n, data)


class ShiftedPair(NamedTuple):
    """The pseudoboson quadruple A = C - alpha, B = C-dagger - conj(beta)
    plus the two weighted adjoints, with its full commutator table.

    interior_mask marks the rows/columns below N-1 where the table is an
    exact copy of the five-dimensional shifted-oscillator algebra (it is a
    truncation artifact that the corner row deviates)."""

    n: int
    alpha: GaussRat
    beta: GaussRat
    operators: dict  # name -> SparseMatrix, names v1..v4 and v (identity)
    commutators: dict  # (name_i, name_j) -> SparseMatrix

    BASIS = ("v1", "v2", "v3", "v4", "v")

    def interior_commutator_scalar(self, left: str, right: str) -> GaussRat | None:
        """The interior part of [left, right] as a multiple of the identity,
        or None when it is not scalar there."""
        mat = self.commutators[(left, right)]
        scalar = None
        for m in range(self.n - 1):
            value = mat.get(m, m)
            if scalar is None:
                scalar = value
            elif value != scalar:
                return None
        for r, c, _ in mat.entries():
            if r != c and r < self.n - 1 and c < self.n - 1:
                return None
        return scalar if scalar is not None else ZERO

    def extracted_constants(self) -> dict[tuple[int, int], GaussRat] | None:
        """Structure constants on span{v1..v4, v} read off the interior:
        (i, j) -> coefficient of v, for i < j (0-based)."""
        out = {}
        for i in range(5):
            for j in range(i + 1, 5):
                scalar = self.interior_commutator_scalar(self.BASIS[i], self.BASIS[j])
                if scalar is None:
                    return None
                if scalar:
                    out[(i, j)] = scalar
        return out


def shifted_pair(alpha, beta, n: int) -> ShiftedPair:
    """Shift the exact q = 1 monomial pair by two different constants.

    With alpha != beta the five operators {A, B, B+, A+, I} close, on the
    truncation interior, onto the shifted-oscillator algebra: the four
    mixed brackets give the identity and everything else commutes."""
    alpha = gauss(alpha)
    beta = gauss(beta)
    if alpha == beta:
        warnings.warn("alpha = beta collapses B to the true adjoint of A", AlphaEqualsBeta)
    c_low, c_raise = monomial_rep(ONE, n)
    eye = SparseMatrix.identity(n)
    a_op = c_low - eye.scale(alpha)
    b_op = c_raise - eye.scale(beta.conj())
    b_dag = weighted_adjoint(b_op, ONE, n)
    a_dag = weighted_adjoint(a_op, ONE, n)
    ops = {"v1": a_op, "v2": b_op, "v3": b_dag, "v4": a_dag, "v": eye}
    comms = {}
    names = ShiftedPair.BASIS
    for i in range(5):
        for j in range(i + 1, 5):
            x, y = ops[names[i]], ops[names[j]]
            comms[(names[i], names[j])] = (x @ y) - (y @ x)
    return ShiftedPair(n=n, alpha=alpha, beta=beta, operators=ops, commutators=comms)


class BiorthogonalSystem(NamedTuple):
    """Vector families phi_n = t_n e_n and psi_n = e_n / t_n together with
    the ladder pair transported by T = diag(t)."""

    n: int
    q0: GaussRat
    weights: list[GaussRat]
    phi: list[Vec]
    psi: list[Vec]
    lowering: SparseMatrix  # T A T^{-1}
    raising: SparseMatrix  # T B T^{-1}

    def pairing_matrix(self) -> SparseMatrix:
        """<phi_n, psi_m>, exactly; the identity by construction."""
        data = {}
        for a in range(self.n):
            for b in range(self.n):
                total = _pair(self.phi[a], self.psi[b])
                if total:
                    data[(a, b)] = total
        return SparseMatrix(self.n, data)

    def squared_ladder_coefficients(self) -> list[GaussRat]:
        """<psi_{n+1}, B phi_n> * <psi_n, A phi_{n+1}> for each rung: the
        biorthogonal expansion coefficients of B phi_n on phi_{n+1} and of
        A phi_{n+1} on phi_n (the pairing conjugates its first argument, the
        dual vector).  They are the exact monomial-picture transition
        amplitudes whose product is beta_n^2 = {n+1}_q, for complex q too
        (the individual beta_n are square roots and exist only in float
        mode)."""
        out = []
        for m in range(self.n - 1):
            up = _pair(self.psi[m + 1], self.raising.apply(self.phi[m]))
            down = _pair(self.psi[m], self.lowering.apply(self.phi[m + 1]))
            out.append(up * down)
        return out


def _pair(u: Vec, v: Vec) -> GaussRat:
    total = ZERO
    for idx, value in u.items():
        other = v.get(idx)
        if other is not None:
            total = total + value.conj() * other
    return total


def biorthogonal_pair(weights: Sequence, q0) -> BiorthogonalSystem:
    """Diagonal-similarity biorthogonal system of size len(weights), with
    positive rational weights; the pairing matrix is exactly the identity."""
    q0 = gauss(q0)
    tvals = []
    for w in weights:
        value = gauss(w)
        if value is None or value.im or value.re <= 0:
            raise NonpositiveWeight(f"weight {w!r} is not a positive rational")
        tvals.append(value)
    n = len(tvals)
    if n < 2:
        raise ValueError("need one positive weight per basis vector, at least two")
    a_mon, b_mon = monomial_rep(q0, n)
    t_mat = SparseMatrix(n, {(i, i): tvals[i] for i in range(n)})
    t_inv = SparseMatrix(n, {(i, i): tvals[i].inv() for i in range(n)})
    phi = [{m: tvals[m]} for m in range(n)]
    psi = [{m: tvals[m].inv()} for m in range(n)]
    return BiorthogonalSystem(
        n=n,
        q0=q0,
        weights=tvals,
        phi=phi,
        psi=psi,
        lowering=t_mat @ a_mon @ t_inv,
        raising=t_mat @ b_mon @ t_inv,
    )


class TransportResult(NamedTuple):
    transported: list[tuple[SparseMatrix, SparseMatrix]]
    defects_source: dict
    defects_transported: dict
    conjugation_exact: bool


def similarity_transport(
    pairs: Sequence[tuple[SparseMatrix, SparseMatrix]], t_mat: SparseMatrix, q0
) -> TransportResult:
    """Conjugate a family (U_i, U_i-dagger) by an invertible T and verify the
    defect identity D_V(i,j) = T D_U(i,j) T^{-1} exactly, where

        D(i,j) = X_i X_j-dagger - q X_j-dagger X_i - delta_ij I.

    When the source family satisfies its q-CCR exactly (zero defect), the
    transported family does too; on truncations the defect transports."""
    q0 = gauss(q0)
    t_inv = t_mat.inverse()
    if t_inv is None:
        raise SingularT("similarity matrix is not invertible")
    n = t_mat.n
    eye = SparseMatrix.identity(n)
    transported = [(t_mat @ u @ t_inv, t_mat @ udag @ t_inv) for (u, udag) in pairs]

    def defect(family, i, j):
        u_i, _ = family[i]
        _, udag_j = family[j]
        out = (u_i @ udag_j) - (udag_j @ u_i).scale(q0)
        if i == j:
            out = out - eye
        return out

    defects_u = {}
    defects_v = {}
    exact = True
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            d_u = defect(pairs, i, j)
            d_v = defect(transported, i, j)
            defects_u[(i, j)] = d_u
            defects_v[(i, j)] = d_v
            if d_v != t_mat @ d_u @ t_inv:
                exact = False
    return TransportResult(transported, defects_u, defects_v, exact)


class CuntzToeplitz(NamedTuple):
    """Truncated creation operators on the full Fock space over d letters,
    words of length <= depth; the isometry relation l_i+ l_j = delta_ij I
    holds on words shorter than the depth, the defect sits on top-degree
    words only."""

    d: int
    depth: int
    words: list[str]
    operators: list[SparseMatrix]

    @property
    def dim(self) -> int:
        return len(self.words)

    def isometry_defect(self, i: int, j: int) -> SparseMatrix:
        eye = SparseMatrix.identity(self.dim)
        out = self.operators[i].conj_transpose() @ self.operators[j]
        if i == j:
            out = out - eye
        return out

    def defect_supported_on_top_degree(self, i: int, j: int) -> bool:
        defect = self.isometry_defect(i, j)
        for r, c, _ in defect.entries():
            if len(self.words[r]) < self.depth or len(self.words[c]) < self.depth:
                return False
        return True


def cuntz_toeplitz(d: int, depth: int) -> CuntzToeplitz:
    """d creation operators at q = 0: l_i sends the word w to i.w when the
    result still fits, and kills top-degree words.  A dim x dim truncation
    past LIEQ_SIZE_CAP entries raises SizeCap before it is built."""
    if d < 1 or depth < 1:
        raise ValueError("need d >= 1 and depth >= 1")
    if d > 9:
        raise ValueError("letters are single digits; d <= 9")
    dim = sum(d ** l for l in range(depth + 1))
    if dim * dim > size_cap():
        raise SizeCap(f"dimension {dim} exceeds the configured cap")
    # deterministic basis: words grouped by length, lexicographic inside
    words: list[str] = []
    level = [""]
    words.extend(level)
    for _ in range(depth):
        level = [w + str(letter + 1) for w in level for letter in range(d)]
        level.sort()
        words.extend(level)
    index = {w: i for i, w in enumerate(words)}
    operators = []
    for letter in range(d):
        data = {}
        for w in words:
            if len(w) < depth:
                data[(index[str(letter + 1) + w], index[w])] = ONE
        operators.append(SparseMatrix(len(words), data))
    return CuntzToeplitz(d=d, depth=depth, words=words, operators=operators)


def orthonormal_rep_float(q0: float, n: int) -> list[float]:
    """Float-mode orthonormal lowering operator C, given by its superdiagonal
    beta_m = sqrt({m+1}_q) for m = 0..N-2: C e_{m+1} = beta_m e_m, every
    other entry is zero, and C-dagger is the transpose.  Exact weights are
    computed first, so a negative beta^2 (impossible for q in [-1, 1]) is
    caught, not silently sqrt'd."""
    if not -1.0 <= q0 <= 1.0:
        raise ValueError("float mode is specified for q in [-1, 1]")
    _check_size(n)
    q_exact = GaussRat(Fraction(q0))  # floats are exact dyadic rationals
    superdiagonal = []
    for beta_sq in q_integers_at(n - 1, q_exact)[1:]:
        if beta_sq.re < 0:
            raise NegativeWeight(f"beta^2 = {beta_sq} < 0")
        superdiagonal.append(float(beta_sq.re) ** 0.5)
    return superdiagonal

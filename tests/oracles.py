"""Independent slow-path implementations used to cross-check the library.

Everything here recomputes results from definitions with dense data and
direct evaluation: the differential is evaluated tuple by tuple from its
formula (not pushed forward), ranks come from a plain dense elimination,
reduced row echelon forms from exact GaussRat elimination (the library
eliminates fraction-free over the integers), normal ordering rewrites a randomly chosen
inversion instead of the first one, and Laurent polynomials are sparse
{exponent: GaussRat} dicts with term-by-term arithmetic.  None of this shares code paths with src/lieq
beyond the scalar type, except the reference canonical subspaces, which
walk the whole basis on linalg's Subspace, and the reference graded Jacobi
table, which sums liealg.jacobi_sum over every basis triple."""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from lieq.exactnum import GaussRat, ZERO
from lieq.laurent import LaurentPoly
from lieq.liealg import LieAlgebra, NotAnIdeal, jacobi_sum
from lieq.linalg import Subspace, nullspace, vec_add


def dense_rank(rows: list[list[GaussRat]]) -> int:
    """Textbook Gaussian elimination on dense rows."""
    if not rows:
        return 0
    work = [list(r) for r in rows]
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col].inv()
        work[rank] = [inv * x for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def _vec_add(dst: dict, src: dict, factor: GaussRat | None = None) -> None:
    """In-place dst += factor * src (factor None means 1)."""
    for idx, value in src.items():
        term = value if factor is None else factor * value
        acc = dst.get(idx)
        acc = term if acc is None else acc + term
        if acc:
            dst[idx] = acc
        else:
            dst.pop(idx, None)


def oracle_rref(rows, ncols: int) -> tuple[list[int], list[dict]]:
    """Reduced row echelon form by exact GaussRat elimination on sparse
    rows.  Returns (pivot columns, reduced rows)."""
    work = [dict(r) for r in rows if r]
    pivots: list[int] = []
    reduced: list[dict] = []
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
                _vec_add(row, pivot_row, -factor)
        for row in reduced:
            factor = row.get(col)
            if factor is not None:
                _vec_add(row, pivot_row, -factor)
        pivots.append(col)
        reduced.append(pivot_row)
        work = [r for r in work if r]
        if not work:
            break
    return pivots, reduced


def dense_nullity(rows: list[list[GaussRat]], ncols: int) -> int:
    return ncols - dense_rank(rows) if rows else ncols


def dense_matmul(a: list[list[GaussRat]], b: list[list[GaussRat]]) -> list[list[GaussRat]]:
    """Textbook row-by-column product of dense matrices."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def bracket_dense(g: LieAlgebra, x: list[GaussRat], y: list[GaussRat]) -> list[GaussRat]:
    out = [ZERO] * g.dim
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b or i == j:
                continue
            for k, c in g.pair(i, j).items():
                out[k] = out[k] + a * b * c
    return out


def basis_vector(n: int, i: int) -> list[GaussRat]:
    out = [ZERO] * n
    out[i] = GaussRat(1)
    return out


def eval_alternating(
    coords: dict[tuple[int, ...], list[GaussRat]],
    module_dim: int,
    vectors: Sequence[list[GaussRat]],
) -> list[GaussRat]:
    """Fully multilinear alternating evaluation of a cochain given by its
    values on increasing basis tuples."""
    k = len(vectors)
    n = len(vectors[0]) if vectors else 0
    out = [ZERO] * module_dim
    if k == 0:
        stored = coords.get((), None)
        return list(stored) if stored else out
    for combo in itertools.product(range(n), repeat=k):
        if len(set(combo)) != k:
            continue
        coeff = None
        for vec, idx in zip(vectors, combo):
            value = vec[idx]
            if not value:
                coeff = None
                break
            coeff = value if coeff is None else coeff * value
        if coeff is None:
            continue
        order = tuple(sorted(combo))
        stored = coords.get(order)
        if not stored:
            continue
        sign = _perm_sign(combo)
        for pos, value in enumerate(stored):
            if value:
                out[pos] = out[pos] + coeff * value * sign
    return out


def _perm_sign(combo: tuple[int, ...]) -> int:
    sign = 1
    items = list(combo)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                sign = -sign
    return sign


def dense_differential_value(
    g: LieAlgebra,
    rho: Callable[[int, list[GaussRat]], list[GaussRat]],
    coords: dict[tuple[int, ...], list[GaussRat]],
    module_dim: int,
    target: tuple[int, ...],
) -> list[GaussRat]:
    """(dc)(e_{t_1}, ..., e_{t_{k+1}}) straight from the formula."""
    k1 = len(target)
    out = [ZERO] * module_dim
    for i in range(k1):
        rest = target[:i] + target[i + 1 :]
        inner = eval_alternating(coords, module_dim, [basis_vector(g.dim, t) for t in rest])
        if any(inner):
            moved = rho(target[i], inner)
            sign = 1 if i % 2 == 0 else -1  # (-1)^{(i+1)+1} with 1-based i
            for pos, value in enumerate(moved):
                if value:
                    out[pos] = out[pos] + value * sign
    for i in range(k1):
        for j in range(i + 1, k1):
            rest = tuple(t for pos, t in enumerate(target) if pos not in (i, j))
            w = [ZERO] * g.dim
            for idx, value in g.pair(target[i], target[j]).items():
                w[idx] = value
            args = [w] + [basis_vector(g.dim, t) for t in rest]
            inner = eval_alternating(coords, module_dim, args)
            sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^{(i+1)+(j+1)}
            for pos, value in enumerate(inner):
                if value:
                    out[pos] = out[pos] + value * sign
    return out


def _module_dim(g: LieAlgebra, rho_kind: str, module_dim: int, matrices) -> int:
    if rho_kind == "adjoint":
        return g.dim
    return len(matrices[0]) if rho_kind == "explicit" else module_dim


def dense_differential_matrix(
    k: int, g: LieAlgebra, rho_kind: str, module_dim: int = 1, matrices=None
) -> list[list[GaussRat]]:
    """Rows = coordinates of C^{k+1}, columns = coordinates of C^k.

    rho_kind is "adjoint", "trivial" (on a module of dimension module_dim)
    or "explicit": matrices[i] is rho(e_i) as a dense list of rows."""
    n = g.dim
    m = _module_dim(g, rho_kind, module_dim, matrices)

    def rho(i: int, vec: list[GaussRat]) -> list[GaussRat]:
        if rho_kind == "trivial":
            return [ZERO] * m
        if rho_kind == "explicit":
            return [sum((a * b for a, b in zip(row, vec)), ZERO) for row in matrices[i]]
        return bracket_dense(g, basis_vector(n, i), vec)

    src_tuples = list(itertools.combinations(range(n), k))
    dst_tuples = list(itertools.combinations(range(n), k + 1))
    rows = [[ZERO] * (len(src_tuples) * m) for _ in range(len(dst_tuples) * m)]
    for c_idx, (key, l) in enumerate((key, l) for key in src_tuples for l in range(m)):
        coords = {key: [GaussRat(1) if pos == l else ZERO for pos in range(m)]}
        for t_idx, target in enumerate(dst_tuples):
            value = dense_differential_value(g, rho, coords, m, target)
            for pos, entry in enumerate(value):
                if entry:
                    rows[t_idx * m + pos][c_idx] = entry
    return rows


def oracle_cohomology_dims(
    g: LieAlgebra, k: int, rho_kind: str = "adjoint", module_dim: int = 1, matrices=None
) -> tuple[int, int, int]:
    """(dim Z^k, dim B^k, dim H^k) by dense evaluation and elimination;
    the representation is given as for dense_differential_matrix."""
    import math

    def d(j):
        return dense_differential_matrix(j, g, rho_kind, module_dim, matrices)

    dim_ck = math.comb(g.dim, k) * _module_dim(g, rho_kind, module_dim, matrices)
    if k >= g.dim:
        z_dim = dim_ck
    else:
        z_dim = dim_ck - dense_rank(d(k))
    if k == 0:
        b_dim = 0
    else:
        b_dim = dense_rank(d(k - 1))
    return z_dim, b_dim, z_dim - b_dim


def oracle_derivation_dim(g: LieAlgebra) -> int:
    """dim Der(g) from the dense derivation law, one equation at a time."""
    n = g.dim
    rows: list[list[GaussRat]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for r in range(n):
                row = [ZERO] * (n * n)
                for k, coeff in g.pair(i, j).items():
                    row[r * n + k] = row[r * n + k] + coeff
                for s in range(n):
                    c_sj = g.pair(s, j).get(r)
                    if c_sj:
                        row[s * n + i] = row[s * n + i] - c_sj
                    c_is = g.pair(i, s).get(r)
                    if c_is:
                        row[s * n + j] = row[s * n + j] - c_is
                if any(row):
                    rows.append(row)
    return n * n - dense_rank(rows) if rows else n * n


def oracle_signature(g: LieAlgebra) -> dict:
    """Signature components recomputed densely; mirrors the Signature tuple."""
    n = g.dim

    def span_dim(vectors: list[list[GaussRat]]) -> int:
        return dense_rank(vectors) if vectors else 0

    def subspace_brackets(space: list[list[GaussRat]], other: list[list[GaussRat]]):
        out = []
        for u in space:
            for w in other:
                v = bracket_dense(g, u, w)
                if any(v):
                    out.append(v)
        return out

    def closure(vectors: list[list[GaussRat]]) -> list[list[GaussRat]]:
        # dense echelon basis of the span
        work = [list(v) for v in vectors]
        basis: list[list[GaussRat]] = []
        for vec in work:
            vec = list(vec)
            for b in basis:
                lead = next(i for i, x in enumerate(b) if x)
                if vec[lead]:
                    factor = vec[lead]
                    vec = [a - factor * c for a, c in zip(vec, b)]
            if any(vec):
                lead = next(i for i, x in enumerate(vec) if x)
                inv = vec[lead].inv()
                basis.append([inv * x for x in vec])
        return basis

    full = [basis_vector(n, i) for i in range(n)]
    lcs_dims = []
    current = full
    while True:
        lcs_dims.append(span_dim(current))
        nxt = closure(subspace_brackets(current, full))
        if span_dim(nxt) == span_dim(current):
            break
        current = nxt
    der_dims = []
    current = full
    while True:
        der_dims.append(span_dim(current))
        nxt = closure(subspace_brackets(current, current))
        if span_dim(nxt) == span_dim(current):
            break
        current = nxt

    # center via dense nullspace of stacked ad columns
    rows = []
    for j in range(n):
        for r in range(n):
            row = [ZERO] * n
            for i in range(n):
                value = g.pair(i, j).get(r)
                if value:
                    row[i] = value
            if any(row):
                rows.append(row)
    center_dim = dense_nullity(rows, n)

    # upper central series: Z_{i+1} = {x : [x, g] lands inside Z_i}
    ucs_dims = [0]
    z_basis: list[list[GaussRat]] = []
    while True:
        # reduce bracket output modulo current Z before demanding zero
        def residual_rows():
            out = []
            zmat = closure(z_basis)
            for j in range(n):
                cols = []
                for i in range(n):
                    w = bracket_dense(g, basis_vector(n, i), basis_vector(n, j))
                    # reduce w by zmat
                    for b in zmat:
                        lead = next(pos for pos, x in enumerate(b) if x)
                        if w[lead]:
                            factor = w[lead]
                            w = [a - factor * c for a, c in zip(w, b)]
                    cols.append(w)
                for r in range(n):
                    row = [cols[i][r] for i in range(n)]
                    if any(row):
                        out.append(row)
            return out

        rows = residual_rows()
        next_dim = dense_nullity(rows, n)
        if next_dim == ucs_dims[-1]:
            break
        ucs_dims.append(next_dim)
        # new Z basis: dense kernel
        z_basis = dense_kernel(rows, n)

    nilpotent = lcs_dims[-1] == 0
    solvable = der_dims[-1] == 0
    der_dim = oracle_derivation_dim(g)
    inn_dim = n - center_dim
    _, _, h2 = oracle_cohomology_dims(g, 2, "adjoint")
    return {
        "dim": n,
        "lower_central_dims": tuple(lcs_dims),
        "upper_central_dims": tuple(ucs_dims),
        "derived_series_dims": tuple(der_dims),
        "center_dim": center_dim,
        "derivation_dim": der_dim,
        "h1_dim": der_dim - inn_dim,
        "h2_dim": h2,
        "nilpotency_class": len(lcs_dims) - 1 if nilpotent else -1,
        "solvable_length": len(der_dims) - 1 if solvable else -1,
        "abelian": not g.brackets,
    }


def dense_kernel(rows: list[list[GaussRat]], ncols: int) -> list[list[GaussRat]]:
    if not rows:
        return [basis_vector(ncols, i) for i in range(ncols)]
    work = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col].inv()
        work[rank] = [inv * x for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = GaussRat(1)
        for prow, pcol in enumerate(pivots):
            if work[prow][f]:
                vec[pcol] = -work[prow][f]
        kernel.append(vec)
    return kernel


# -- reference canonical subspaces ------------------------------------------------
#
# The whole-basis loops that LieAlgebra's center, series and quotient ran
# before they read only the nonzero constants: every pair(i, j) reduced
# modulo the current subspace, every row of one subspace bracketed with
# every row of the other, every e_j tried against an ideal and every pair
# of complement vectors projected.  Unlike the dense oracles above they
# use linalg's Subspace, so they check the sparse walks, not the RREF.


def reference_centralizer_mod(g: LieAlgebra, current: Subspace) -> Subspace:
    """{x : [x, g] inside current}: the nullspace of the ad-matrices
    taken modulo current."""
    rows: list[dict] = []
    for j in range(g.dim):
        cols = [current.reduce(g.pair(i, j)) for i in range(g.dim)]
        coords = set()
        for col in cols:
            coords.update(col)
        for r in sorted(coords):
            row = {i: cols[i][r] for i in range(g.dim) if r in cols[i]}
            if row:
                rows.append(row)
    return Subspace(g.dim, nullspace(rows, g.dim))


def reference_bracket_span(g: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    vectors = []
    for u in left.rows:
        for w in right.rows:
            v = g.bracket(u, w)
            if v:
                vectors.append(v)
    return Subspace(g.dim, vectors)


def _reference_series(g: LieAlgebra, first: Subspace, step) -> list[Subspace]:
    if g.dim == 0:
        return []
    series = [first]
    while (nxt := step(series[-1])) != series[-1]:
        series.append(nxt)
    return series


def reference_series(g: LieAlgebra) -> dict[str, list[Subspace]]:
    """The lower central, upper central and derived series."""
    full = Subspace.full(g.dim)
    return {
        "lower": _reference_series(g, full, lambda s: reference_bracket_span(g, s, full)),
        "upper": _reference_series(g, Subspace.zero(g.dim), lambda s: reference_centralizer_mod(g, s)),
        "derived": _reference_series(g, full, lambda s: reference_bracket_span(g, s, s)),
    }


def reference_center(g: LieAlgebra) -> Subspace:
    return reference_centralizer_mod(g, Subspace.zero(g.dim))


def reference_quotient(g: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, tuple[int, ...]]:
    """(quotient algebra, complement) of g by ideal; NotAnIdeal, with
    LieAlgebra.quotient's message, when [ideal, e_j] escapes it."""
    for u in ideal.rows:
        for j in range(g.dim):
            w = g.bracket(u, {j: GaussRat(1)})
            if not ideal.contains(w):
                raise NotAnIdeal(f"[ideal, e{j + 1}] escapes the subspace")
    complement = tuple(c for c in range(g.dim) if c not in set(ideal.pivots))
    qdim = len(complement)
    pos = {c: a for a, c in enumerate(complement)}

    def project(v: dict) -> dict:
        residual = ideal.reduce(v)
        return {pos[c]: value for c, value in residual.items()}

    brackets: dict[tuple[int, int], dict] = {}
    for a in range(qdim):
        for b in range(a + 1, qdim):
            img = project(g.pair(complement[a], complement[b]))
            if img:
                brackets[(a, b)] = img
    return LieAlgebra(qdim, brackets, [g.labels[c] for c in complement]), complement


def reference_jacobi_polynomial(d) -> dict:
    """deform.jacobi_polynomial as a walk over every basis triple, in
    itertools.combinations order, of a DeformedBracket d."""
    out: dict = {}
    for triple in itertools.combinations(range(d.base.dim), 3):
        by_degree: dict = {}  # a + b first reaches each c in ascending order
        for a, outer in enumerate(d.tables):
            for b, inner in enumerate(d.tables):
                vec_add(by_degree.setdefault(a + b, {}), jacobi_sum(outer, inner, *triple))
        nonzero = {c: vec for c, vec in by_degree.items() if vec}
        if nonzero:
            out[triple] = nonzero
    return out


def random_order_normal_form(word: str, rng, q_poly: LaurentPoly | None = None):
    """Rewrite AB -> q BA + 1 picking a random inversion each time; returns
    the same (m, n) -> coefficient map normal_order computes."""
    if q_poly is None:
        q_poly = LaurentPoly.gen()
    one = LaurentPoly.const(1)
    pending: dict[str, LaurentPoly] = {word: one}
    done: dict[tuple[int, int], LaurentPoly] = {}
    while pending:
        w = rng.choice(sorted(pending))
        coeff = pending.pop(w)
        spots = [i for i in range(len(w) - 1) if w[i : i + 2] == "AB"]
        if not spots:
            m = w.find("A")
            if m < 0:
                m = len(w)
            key = (m, len(w) - m)
            acc = done.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                done[key] = acc
            else:
                done.pop(key, None)
            continue
        idx = rng.choice(spots)
        for nxt, extra in ((w[:idx] + "BA" + w[idx + 2 :], q_poly * coeff), (w[:idx] + w[idx + 2 :], coeff)):
            if not extra:
                continue
            acc = pending.get(nxt)
            acc = extra if acc is None else acc + extra
            if acc:
                pending[nxt] = acc
            else:
                pending.pop(nxt, None)
    return done


# -- Laurent polynomials as sparse {exponent: GaussRat} dicts ------------------


def _poly_accumulate(out: dict, exp: int, value: GaussRat) -> None:
    acc = out.get(exp, ZERO) + value
    if acc:
        out[exp] = acc
    else:
        out.pop(exp, None)


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exp, value in b.items():
        _poly_accumulate(out, exp, value)
    return out


def poly_sub(a: dict, b: dict) -> dict:
    return poly_add(a, {exp: -value for exp, value in b.items()})


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _poly_accumulate(out, e1 + e2, c1 * c2)
    return out


def poly_divexact(a: dict, b: dict) -> dict | None:
    """Quotient a / b for b != 0 by long division from the top term, one
    GaussRat quotient term at a time; None when a remainder survives."""
    if not a:
        return {}
    b_top = max(b)
    lead = b[b_top]
    exp_floor = min(a) - min(b)  # an exact quotient cannot reach below this
    rem = dict(a)
    quot = {}
    while rem:
        top = max(rem)
        exp = top - b_top
        if exp < exp_floor:
            return None
        coeff = rem[top] / lead
        quot[exp] = coeff
        for e2, c2 in b.items():
            _poly_accumulate(rem, exp + e2, -(coeff * c2))
    return quot


def poly_eval(a: dict, x: GaussRat) -> GaussRat:
    total = ZERO
    for exp, coeff in a.items():
        total = total + coeff * x ** exp
    return total


def poly_str(var: str, a: dict) -> str:
    """Terms in ascending exponent order; a coefficient with an inner sign is
    parenthesized and a unit coefficient is dropped."""
    if not a:
        return "0"
    out = ""
    for exp in sorted(a):
        txt = str(a[exp])
        if "+" in txt[1:] or "-" in txt[1:]:
            txt = f"({txt})"
        if exp != 0:
            power = var if exp == 1 else f"{var}^{exp}"
            txt = {"1": power, "-1": f"-{power}"}.get(txt, f"{txt}*{power}")
        out += txt if not out or txt.startswith("-") else "+" + txt
    return out

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lieq import catalog
from lieq.cohomology import (
    Cochain,
    CochainComplex,
    NotARepresentation,
    Representation,
    SourceMismatch,
    adjoint_rep,
    cochain_from_coordinates,
    cochain_space_dim,
    cochain_tuples,
    cocycle_space,
    cohomology_dim,
    d_squared_check,
    derivation_algebra,
    derivation_dims,
    differential,
    differential_matrix,
    is_two_cocycle_trivial_coeffs,
    trivial_rep,
)
from lieq.exactnum import GaussRat, ONE, ZERO
from lieq.extend import CentralCocycle, CocycleViolation, central_extension
from lieq.liealg import LieAlgebra, abelian
from lieq.linalg import SparseMatrix, Subspace, exact_view, rref, vec_add

SMALL = ["n_3_1", "n_3_2", "n_4_2", "n_4_3", "n_5_5", "n_5_7", "sl2", "a_sh"]


def get(name):
    return catalog.get(name).algebra


def test_adjoint_of_abelian_is_zero():
    rep = adjoint_rep(abelian(4))
    assert all(not row for mat in rep.matrices for row in mat.rows)


def test_adjoint_of_h1():
    g = get("h(1)")
    rep = adjoint_rep(g)
    # ad(v1) v2 = v
    assert rep.apply(0, {1: ONE}) == {2: ONE}
    assert rep.apply(1, {0: ONE}) == {2: GaussRat(-1)}
    assert rep.apply(2, {0: ONE}) == {}


def test_adjoint_matrices_reproduce_sl2_constants():
    g = get("sl2")
    rep = adjoint_rep(g)
    for i in range(3):
        for j in range(i + 1, 3):
            comm = (
                rep.matrices[i] @ rep.matrices[j] - rep.matrices[j] @ rep.matrices[i]
            ).rows
            expected = [dict() for _ in range(3)]
            for k, coeff in g.pair(i, j).items():
                for r, row in enumerate(rep.matrices[k].rows):
                    for c, v in row.items():
                        expected[r][c] = expected[r].get(c, ZERO) + coeff * v
            expected = [{c: v for c, v in row.items() if v} for row in expected]
            assert comm == expected


def test_explicit_representation_validated():
    g = get("h(1)")
    rep = adjoint_rep(g)
    Representation(g, rep.matrices, kind="explicit")  # fine
    broken = [SparseMatrix.from_rows([{0: ONE}] * 3, 3) for _ in range(3)]
    with pytest.raises(NotARepresentation):
        Representation(g, broken, kind="explicit")


def test_degree_zero_differential():
    g = get("h(1)")
    rep = adjoint_rep(g)
    v = Cochain(g, 0, 3, {(): {0: 1}})
    dv = differential(v, rep)
    for x in range(3):
        assert dv.value((x,)) == rep.apply(x, {0: ONE})


def test_trivial_rep_abelian_differential_vanishes():
    g = abelian(3)
    rep = trivial_rep(g, 2)
    c = Cochain(g, 1, 2, {(0,): {0: 1, 1: 2}, (2,): {1: 1}})
    assert differential(c, rep).is_zero()


def test_identity_cochain_on_h1():
    g = get("h(1)")
    c = Cochain(g, 1, 3, {(i,): {i: 1} for i in range(3)})
    dc = differential(c, adjoint_rep(g))
    assert dc.value((0, 1)) == {2: ONE}
    assert dc.value((0, 2)) == {}
    assert dc.value((1, 2)) == {}


def test_source_mismatch():
    g, h = get("h(1)"), get("sl2")
    c = Cochain(g, 1, 3, {(0,): {0: 1}})
    with pytest.raises(SourceMismatch):
        differential(c, adjoint_rep(h))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_differential_matrix_refuses_another_algebras_representation(k):
    """The term index held on a representation is its source's; an algebra
    with other constants is refused, one with equal constants is served."""
    g, h = get("h(1)"), get("sl2")
    rep = adjoint_rep(g)
    with pytest.raises(SourceMismatch):
        differential_matrix(k, h, rep)
    with pytest.raises(SourceMismatch):
        CochainComplex(h, rep)
    same = LieAlgebra(g.dim, g.brackets)
    assert differential_matrix(k, same, rep) == differential_matrix(k, g, adjoint_rep(g))


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_differential_matrix_matches_dense_oracle(name, k):
    g = get(name)
    if k >= g.dim:
        return
    cols = differential_matrix(k, g, adjoint_rep(g))
    dense = oracles.dense_differential_matrix(k, g, "adjoint")
    nrows = len(dense)
    for c, col in enumerate(cols):
        assert not any(key & 1 for key in col), (name, k, c)
        for r in range(nrows):
            assert dense[r][c] == col.get(2 * r, ZERO), (name, k, r, c)


def test_row_offsets_are_tuple_positions():
    """The row offsets of differential_matrix, computed from binomials,
    are the positions of the tuples in cochain_tuples."""
    from lieq.cohomology import _RowOffsets

    for n in range(9):
        for k in range(n + 1):
            offsets = _RowOffsets(n, k, 6)
            tuples = cochain_tuples(n, k)
            assert [offsets[t] for t in tuples] == [6 * pos for pos in range(len(tuples))]


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("coeffs", ["adjoint", "trivial"])
def test_cohomology_dims_match_dense_oracle(name, k, coeffs):
    g = get(name)
    if k > g.dim:
        return
    z, b, h = oracles.oracle_cohomology_dims(g, k, coeffs)
    rep = adjoint_rep(g) if coeffs == "adjoint" else trivial_rep(g, 1)
    assert cocycle_space(k, g, rep).dim == z
    assert CochainComplex(g, rep).coboundaries(k).dim == b
    assert cohomology_dim(k, g, rep) == h


def test_z1_is_derivations():
    for name in ("h(1)", "n_4_3", "sl2"):
        g = get(name)
        rep = adjoint_rep(g)
        space = cocycle_space(1, g, rep)
        der_dim, _ = derivation_dims(g)
        assert space.dim == der_dim
        # every basis cocycle, read as a matrix, satisfies the derivation law
        for flat in space.rows:
            c = cochain_from_coordinates(g, 1, g.dim, flat)

            def apply(x):
                out = {}
                for idx, val in x.items():
                    for r, v in c.value((idx,)).items():
                        out[r] = out.get(r, ZERO) + val * v
                return {r: v for r, v in out.items() if v}

            for i in range(g.dim):
                for j in range(i + 1, g.dim):
                    lhs = apply(g.pair(i, j))
                    rhs = {}
                    for r, v in g.bracket(apply({i: ONE}), {j: ONE}).items():
                        rhs[r] = rhs.get(r, ZERO) + v
                    for r, v in g.bracket({i: ONE}, apply({j: ONE})).items():
                        rhs[r] = rhs.get(r, ZERO) + v
                    rhs = {r: v for r, v in rhs.items() if v}
                    assert lhs == rhs


def test_b1_is_inner_derivations():
    g = get("h(1)")
    rep = adjoint_rep(g)
    b1 = CochainComplex(g, rep).coboundaries(1)
    da = derivation_algebra(g)
    assert b1.dim == da.inner.dim == 2


def hand_built_inner(g) -> Subspace:
    """The span of the ad(e_i), each flattened row-major from the brackets:
    the reference for derivation_algebra(g).inner."""
    n = g.dim
    vectors = []
    for i in range(n):
        flat = {}
        for j in range(n):
            for r, value in g.pair(i, j).items():
                flat[r * n + j] = value
        if flat:
            vectors.append(flat)
    return Subspace(n * n, vectors)


@pytest.mark.parametrize("name", catalog.list_names())
def test_inner_derivations_match_ad_on_catalog(name):
    g = get(name)
    assert derivation_algebra(g).inner == hand_built_inner(g)


@pytest.mark.parametrize("dim,seed", [(6, 0), (6, 1), (7, 0), (7, 1)])
def test_inner_derivations_match_ad_on_random_nilpotent(dim, seed):
    rng = random.Random(f"inner {dim}/{seed}")
    g = iterated_extension(dim, lambda: rng.randint(-3, 3))
    assert derivation_algebra(g).inner == hand_built_inner(g)


def test_b2_trivial_coefficients_h1():
    g = get("h(1)")
    assert CochainComplex(g, trivial_rep(g, 1)).coboundaries(2).dim == 1


def test_sl2_numbers():
    g = get("sl2")
    der, inn = derivation_dims(g)
    assert (der, inn) == (3, 3)
    assert cohomology_dim(1, g, adjoint_rep(g)) == 0
    assert cohomology_dim(2, g, adjoint_rep(g)) == 0
    assert cocycle_space(2, g, adjoint_rep(g)).dim == 6
    assert CochainComplex(g, adjoint_rep(g)).coboundaries(2).dim == 6


def test_abelian_derivations_and_schur():
    assert derivation_dims(abelian(3)) == (9, 0)
    assert cohomology_dim(2, abelian(2), adjoint_rep(abelian(2))) == 2
    assert cohomology_dim(2, abelian(2), trivial_rep(abelian(2), 1)) == 1


def test_h1_derivation_algebra_structure():
    da = derivation_algebra(get("h(1)"))
    assert da.dim == 6
    assert da.h1_dim == 4
    assert da.algebra.check_jacobi() is None
    # inner derivations form an ideal: [Der, Inn] inside Inn
    n = 3
    for mat in da.matrices:
        for i in range(n):
            inner_flat = {}
            for j in range(n):
                for r, v in get("h(1)").pair(i, j).items():
                    inner_flat[r * n + j] = v
            ad_rows = [dict() for _ in range(n)]
            for idx, v in inner_flat.items():
                ad_rows[idx // n][idx % n] = v
            ad = SparseMatrix.from_rows(ad_rows, n)
            comm = mat @ ad - ad @ mat
            flat = {}
            for r, row in enumerate(comm.rows):
                for c, v in row.items():
                    flat[r * n + c] = v
            assert da.inner.contains(flat)


def test_adjoint_h2_matches_oracle_on_h1():
    assert cohomology_dim(2, get("h(1)"), adjoint_rep(get("h(1)"))) == 5
    assert oracles.oracle_cohomology_dims(get("h(1)"), 2, "adjoint")[2] == 5


@pytest.mark.parametrize("name", ["h(1)", "n_4_3", "n_5_6", "sl2", "abelian(3)"])
def test_d_squared_zero(name):
    g = get(name)
    for rep in (adjoint_rep(g), trivial_rep(g, 1)):
        for k in range(g.dim + 1):
            assert d_squared_check(g, rep, k)


def test_d_squared_zero_random_explicit_rep():
    g = get("h(2)")
    rng = random.Random(5)
    # a random rep built from the adjoint by a change of basis stays a rep
    base = adjoint_rep(g)
    t = None
    while t is None or t.inverse() is None:
        t_rows = [
            {c: GaussRat(rng.randint(-3, 3)) for c in range(5)} for _ in range(5)
        ]
        t = SparseMatrix.from_rows(t_rows, 5)
    t_inv = t.inverse()
    mats = [t @ (m @ t_inv) for m in base.matrices]
    rep = Representation(g, mats, kind="explicit")
    for k in range(g.dim + 1):
        assert d_squared_check(g, rep, k)


def test_alternating_sum_of_cochain_dims():
    for n in range(1, 8):
        total = sum((-1) ** k * cochain_space_dim(n, k, 1) for k in range(n + 1))
        assert total == 0
        assert cochain_space_dim(n, 2, 1) == math.comb(n, 2)


def test_dim_z_at_least_dim_b():
    for name in SMALL:
        g = get(name)
        rep = adjoint_rep(g)
        for k in range(g.dim + 1):
            assert cocycle_space(k, g, rep).dim >= CochainComplex(g, rep).coboundaries(k).dim


def test_two_cocycle_cyclic_condition():
    g = abelian(4)
    any_theta = Cochain(g, 2, 1, {(0, 1): {0: 1}, (2, 3): {0: 5}})
    assert is_two_cocycle_trivial_coeffs(any_theta)

    h = get("h(1)")
    theta = Cochain(h, 2, 1, {(0, 1): {0: 1}})
    assert is_two_cocycle_trivial_coeffs(theta)

    n43 = get("n_4_3")
    # cyclic sum on (v1, v2, v3) reduces to -theta(v4, v2), so this fails
    bad = Cochain(n43, 2, 1, {(1, 3): {0: 1}})
    assert not is_two_cocycle_trivial_coeffs(bad)
    good = Cochain(n43, 2, 1, {(0, 1): {0: 1}})
    assert is_two_cocycle_trivial_coeffs(good)


def test_cocycle_condition_matches_dense_oracle():
    """Random degree-2 cochains, and random combinations of a Z^2 basis, on
    every catalog entry: is_two_cocycle_trivial_coeffs agrees with the dense
    differential under the zero action, and CentralCocycle names the least
    failing triple, 1-based.  Below dim 3 every cochain is a cocycle.  Every
    dim-3 catalog entry has d = 0 on C^2, so r_3 ([e1,e2] = e2, [e1,e3] = e3,
    d theta(e1,e2,e3) = -2 theta(e2,e3)) is added to test dim 3."""
    rng = random.Random(7)
    r3 = LieAlgebra(3, {(0, 1): {1: 1}, (0, 2): {2: 1}})
    for g in [get(name) for name in ["abelian(0)"] + catalog.list_names()] + [r3]:
        for m in (1, 2):
            if g.dim < 2:
                assert CentralCocycle(g, m, {}).values == {}
                continue
            pairs = cochain_tuples(g.dim, 2)
            z2 = cocycle_space(2, g, trivial_rep(g, m)).rows
            for draw in range(8):
                if draw % 2:
                    flat = {}
                    for row in rng.sample(z2, min(3, len(z2))):
                        vec_add(flat, row, GaussRat(rng.randint(-2, 2)))
                    theta = cochain_from_coordinates(g, 2, m, flat)
                else:
                    keys = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
                    theta = Cochain(g, 2, m, {key: {rng.randrange(m): rng.choice([-2, -1, 1, 3])}
                                              for key in keys})
                dense = {key: [vec.get(i, ZERO) for i in range(m)] for key, vec in theta.coords.items()}
                failing = [
                    t for t in cochain_tuples(g.dim, 3)
                    if any(oracles.dense_differential_value(g, lambda a, v: [ZERO] * m, dense, m, t))
                ]
                assert is_two_cocycle_trivial_coeffs(theta) == (not failing), (g.brackets, theta.coords)
                if failing:
                    named = ", ".join(str(x + 1) for x in failing[0])
                    with pytest.raises(CocycleViolation, match=rf"on triple \({named}\)$"):
                        CentralCocycle(g, m, theta.coords)
                else:
                    assert CentralCocycle(g, m, theta.coords).values == theta.coords


def test_degree_zero_cocycles_are_invariants():
    # Z^0(g, g; ad) is the centralizer of the action, i.e. the center
    for name in ("h(1)", "h(2)", "sl2", "abelian(3)"):
        g = get(name)
        assert cocycle_space(0, g, adjoint_rep(g)).dim == g.center().dim


def test_adjoint_rejects_non_jacobi_algebra():
    bad = LieAlgebra(3, {(0, 1): {0: 1}, (1, 2): {1: 1}})
    with pytest.raises(NotARepresentation, match=r"^Jacobi fails at triple \(1, 2, 3\)$"):
        adjoint_rep(bad)
    # d^2 != 0 at k = 1 even with trivial coefficients, so no complex either
    rep = trivial_rep(bad, 1)
    assert not differential(differential(Cochain(bad, 1, 1, {(0,): {0: 1}}), rep), rep).is_zero()
    with pytest.raises(NotARepresentation, match=r"\(1, 2, 3\)"):
        CochainComplex(bad, trivial_rep(bad, 1))


def test_cochain_doc_round_trip():
    g = get("n_4_3")
    c = Cochain(g, 2, 2, {(0, 1): {0: GaussRat("1/2"), 1: GaussRat(0, 1)}, (1, 3): {1: 3}})
    assert Cochain.from_doc(g, c.to_doc()) == c
    deg0 = Cochain(g, 0, 2, {(): {0: 1}})
    assert Cochain.from_doc(g, deg0.to_doc()) == deg0


def iterated_extension(dim, coefficient):
    """Iterated central extensions of abelian(2) up to dim by trivial-coefficient
    2-cocycles: combinations of a Z^2 basis whose coefficients coefficient()
    draws.  Unlike the catalog, these carry structure constants other than +-1."""
    g = abelian(2)
    while g.dim < dim:
        theta = {}
        for row in cocycle_space(2, g, trivial_rep(g, 1)).rows:
            vec_add(theta, row, GaussRat(coefficient()))
        tuples = cochain_tuples(g.dim, 2)
        values = {tuples[pos]: {0: value} for pos, value in theta.items()}
        g = central_extension(g, CentralCocycle(g, 1, values))
    return g


@st.composite
def random_nilpotent(draw):
    """iterated_extension to dim 4 or 5 with coefficients in [-3, 3]."""
    return iterated_extension(draw(st.integers(4, 5)), lambda: draw(st.integers(-3, 3)))


@settings(max_examples=8, deadline=None)
@given(random_nilpotent())
def test_random_nilpotent_matches_dense_oracle(g):
    assert derivation_dims(g)[0] == oracles.oracle_derivation_dim(g)
    for coeffs in ("adjoint", "trivial"):
        rep = adjoint_rep(g) if coeffs == "adjoint" else trivial_rep(g, 1)
        for k in range(4):
            got = (
                cocycle_space(k, g, rep).dim,
                CochainComplex(g, rep).coboundaries(k).dim,
                cohomology_dim(k, g, rep),
            )
            assert got == oracles.oracle_cohomology_dims(g, k, coeffs), (coeffs, k)


def _adjoint_by_pairs(g):
    """The reference ad(e_i): its rows filled from g.pair(i, j), j ascending."""
    matrices = []
    for i in range(g.dim):
        rows = [{} for _ in range(g.dim)]
        for j in range(g.dim):
            for r, value in g.pair(i, j).items():
                rows[r][j] = value
        matrices.append([list(row.items()) for row in rows])
    return matrices


def _adjoint_items(g):
    return [[list(row.items()) for row in mat.rows] for mat in adjoint_rep(g).matrices]


def test_adjoint_rep_matches_pairs_on_catalog():
    """Values and the ascending key order of every row."""
    for name in catalog.list_names():
        g = get(name)
        assert _adjoint_items(g) == _adjoint_by_pairs(g), name
        # the same table with its pairs in descending order
        h = LieAlgebra(g.dim, dict(sorted(g.brackets.items(), reverse=True)))
        assert _adjoint_items(h) == _adjoint_by_pairs(g), name


@settings(max_examples=8, deadline=None)
@given(random_nilpotent())
def test_adjoint_rep_matches_pairs_on_random_nilpotent(g):
    assert _adjoint_items(g) == _adjoint_by_pairs(g)


@settings(max_examples=8, deadline=None)
@given(random_nilpotent(), st.sampled_from(["adjoint", 1, 2, 3]))
def test_random_nilpotent_differential_matrix_matches_dense_oracle(g, coeffs):
    """Every d_k, with adjoint or trivial coefficients of module dim 1-3;
    and differential() of a random cochain against the same dense matrix."""
    if coeffs == "adjoint":
        rep, oracle_args = adjoint_rep(g), {"rho_kind": "adjoint"}
    else:
        rep, oracle_args = trivial_rep(g, coeffs), {"rho_kind": "trivial", "module_dim": coeffs}
    den, rng = CochainComplex(g, rep).den, random.Random(repr(g.brackets))
    for k in range(g.dim):
        dense = oracles.dense_differential_matrix(k, g, **oracle_args)
        cols = differential_matrix(k, g, rep)
        for c, col in enumerate(cols):
            view = exact_view(col, den, {})
            assert [view.get(r, ZERO) for r in range(len(dense))] == [row[c] for row in dense], (k, c)
        _check_differential(g, rep, k, dense, rng)


def _check_differential(g, rep, k, dense, rng):
    """differential() of a random k-cochain is the dense d_k times its
    coordinates."""
    flat = {c: GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
            for c in rng.sample(range(len(dense[0])), min(4, len(dense[0])))}
    image = differential(cochain_from_coordinates(g, k, rep.module_dim, flat), rep)
    expected = {r: sum((row[c] * x for c, x in flat.items()), ZERO) for r, row in enumerate(dense)}
    assert image == cochain_from_coordinates(g, k + 1, rep.module_dim, {r: x for r, x in expected.items() if x})


@pytest.mark.parametrize("name", catalog.list_names())
def test_catalog_ranks_match_certified_rref(name):
    """rank d_k against the pivot count of the oracle's RREF of its rows."""
    g = get(name)
    for rep in (adjoint_rep(g), trivial_rep(g, 1)):
        complex_ = CochainComplex(g, rep)
        for k in range(g.dim):
            expected = len(oracles.oracle_rref(complex_.rows(k), complex_.dim(k))[0])
            assert complex_.rank(k) == expected, (rep.kind, k)


@pytest.mark.parametrize("dim,seed", [(6, 0), (6, 1), (7, 0), (7, 1), (8, 0)])
def test_random_nilpotent_ranks_match_certified_rref(dim, seed):
    """Seeded algebras of dims 6-8, beyond the reach of the dense oracle:
    rank d_k, eliminated on the columns with renumbered columns and no back
    substitution, against the pivot count of rref on the rows."""
    rng = random.Random(f"{dim}/{seed}")
    g = iterated_extension(dim, lambda: rng.randint(-3, 3))
    for rep in (adjoint_rep(g), trivial_rep(g, 1)):
        complex_ = CochainComplex(g, rep)
        for k in range(g.dim):
            expected = len(rref(complex_.rows(k), complex_.dim(k))[0])
            assert complex_.rank(k) == expected, (rep.kind, k)


# basis rescalings f_a = s_a e_a that make the constants fractional and non-real
SCALES = [GaussRat(1), GaussRat(2), GaussRat(Fraction(1, 3)), GaussRat(0, 1), GaussRat(1, 1)]
UP_TO_DIM_5 = [name for name in catalog.list_names() if get(name).dim <= 5]
# rho(e_a) for h(1), [e1, e2] = e3, on C^3: E12, E23 and E13 conjugated by
# diag(1, 1/2, 1/3), so its matrices are fractional
H1_REP = [{(0, 1): 2}, {(1, 2): Fraction(3, 2)}, {(0, 2): 3}]


def rescaled(g, scales):
    """g in the basis f_a = s_a e_a: [f_a, f_b] = sum_l s_a s_b c^l_ab / s_l f_l."""
    brackets = {
        (a, b): {l: scales[a] * scales[b] * c / scales[l] for l, c in vec.items()}
        for (a, b), vec in g.brackets.items()
    }
    return LieAlgebra(g.dim, brackets)


@st.composite
def rescaled_catalog_cases(draw):
    """(algebra, rep, oracle arguments): a rescaled catalog entry of dim <= 5
    with adjoint or 2-dim trivial coefficients, or rescaled h(1) with H1_REP."""
    coeffs = draw(st.sampled_from(["adjoint", "trivial", "explicit"]))
    g = get("h(1)" if coeffs == "explicit" else draw(st.sampled_from(UP_TO_DIM_5)))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=g.dim, max_size=g.dim))
    h = rescaled(g, scales)
    if coeffs == "adjoint":
        return h, adjoint_rep(h), {"rho_kind": "adjoint"}
    if coeffs == "trivial":
        return h, trivial_rep(h, 2), {"rho_kind": "trivial", "module_dim": 2}
    mats = [SparseMatrix(3, {rc: scales[a] * v for rc, v in H1_REP[a].items()}) for a in range(3)]
    dense = [[[m.get(r, c) for c in range(3)] for r in range(3)] for m in mats]
    return h, Representation(h, mats, kind="explicit"), {"rho_kind": "explicit", "matrices": dense}


@settings(max_examples=100, deadline=None)
@given(rescaled_catalog_cases(), st.integers(0, 3))
def test_rescaled_catalog_matches_dense_oracle(case, k):
    h, rep, oracle_args = case
    k = min(k, h.dim)
    complex_ = CochainComplex(h, rep)
    width = complex_.dim(k + 1)
    dense = oracles.dense_differential_matrix(k, h, **oracle_args)
    for c, col in enumerate(complex_.columns(k)):
        view = exact_view(col, complex_.den, {})
        assert [view.get(r, ZERO) for r in range(width)] == [row[c] for row in dense], (k, c)
    for z in complex_.cocycles(k).rows:
        assert all(not sum((row[c] * v for c, v in z.items()), ZERO) for row in dense)
    got = (complex_.cocycles(k).dim, complex_.coboundaries(k).dim, complex_.cohomology_dim(k))
    assert got == oracles.oracle_cohomology_dims(h, k, **oracle_args)
    assert complex_.d_squared_zero(k)


@settings(max_examples=40, deadline=None)
@given(rescaled_catalog_cases(), st.integers(0, 3), st.integers(0, 2**16))
def test_rescaled_catalog_differential_matches_dense_oracle(case, k, seed):
    """differential() with fractional and Gaussian constants and entries of rho."""
    h, rep, oracle_args = case
    if k < h.dim:
        _check_differential(h, rep, k, oracles.dense_differential_matrix(k, h, **oracle_args), random.Random(seed))

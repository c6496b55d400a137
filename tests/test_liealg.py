import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieq import catalog
from lieq.exactnum import GaussRat, ONE, SizeCap, ZERO
from lieq.liealg import (
    DimensionMismatch,
    LieAlgebra,
    NotAnIdeal,
    Subspace,
    abelian,
    jacobi_sum,
)
from oracles import basis_vector, bracket_dense, reference_center, reference_quotient, reference_series


@pytest.fixture
def h1():
    return catalog.get("h(1)").algebra


@pytest.fixture
def sl2():
    return catalog.get("sl2").algebra


def test_heisenberg_bracket(h1):
    assert h1.bracket([1, 0, 0], [0, 1, 0]) == {2: ONE}
    assert h1.bracket([0, 1, 0], [1, 0, 0]) == {2: GaussRat(-1)}


def test_bracket_of_vector_with_itself_vanishes(h1):
    rng = random.Random(3)
    for _ in range(10):
        x = [GaussRat(rng.randint(-5, 5)) for _ in range(3)]
        assert h1.bracket(x, x) == {}


def test_n43_bracket():
    g = catalog.get("n_4_3").algebra
    assert g.bracket([1, 0, 0, 0], [0, 0, 1, 0]) == {3: ONE}


def test_bracket_bilinearity(h1, sl2):
    rng = random.Random(7)
    for g in (h1, sl2):
        for _ in range(8):
            x = [GaussRat(rng.randint(-4, 4)) for _ in range(3)]
            y = [GaussRat(rng.randint(-4, 4)) for _ in range(3)]
            z = [GaussRat(rng.randint(-4, 4)) for _ in range(3)]
            a, b = GaussRat(rng.randint(-3, 3)), GaussRat(rng.randint(-3, 3))
            combo = [a * xi + b * yi for xi, yi in zip(x, y)]
            lhs = g.bracket(combo, z)
            rhs = {}
            for k, v in g.bracket(x, z).items():
                rhs[k] = rhs.get(k, GaussRat(0)) + a * v
            for k, v in g.bracket(y, z).items():
                rhs[k] = rhs.get(k, GaussRat(0)) + b * v
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs


def test_bracket_dimension_mismatch(h1):
    with pytest.raises(DimensionMismatch):
        h1.bracket([1, 0], [0, 1, 0])


def test_jacobi_witness():
    bad = LieAlgebra(3, {(0, 1): {0: 1}, (1, 2): {1: 1}})
    witness = bad.check_jacobi()
    assert witness is not None
    assert witness.triple == (0, 1, 2)
    assert witness.residual == {0: ONE}


@pytest.mark.parametrize("seed", range(12))
def test_jacobi_witness_matches_dense_oracle(seed):
    # sparse random constants, mostly not Lie, failing first on varied
    # triples; the witness must be the lexicographically first failing
    # triple with the dense Jacobi residual
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = LieAlgebra(n, {pair: {rng.randrange(n): GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))}
                       for pair in rng.sample(pairs, rng.randint(2, n))})
    expected = None
    for triple in itertools.combinations(range(n), 3):
        total = [ZERO] * n
        for a, b, c in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            inner = bracket_dense(g, basis_vector(n, b), basis_vector(n, c))
            term = bracket_dense(g, basis_vector(n, a), inner)
            total = [x + y for x, y in zip(total, term)]
        if any(total):
            expected = (triple, {k: v for k, v in enumerate(total) if v})
            break
    witness = g.check_jacobi()
    assert (witness and tuple(witness)) == expected


def _first_failing_triple_of_all(g):
    """The reference witness: every basis triple walked, central ones too."""
    for triple in itertools.combinations(range(g.dim), 3):
        residual = jacobi_sum(g.brackets, g.brackets, *triple)
        if residual:
            return triple, residual
    return None


def _spread(g, dim, rng):
    """g on a random increasing choice of dim indices; the others are
    central basis vectors between and around g's."""
    slots = sorted(rng.sample(range(dim), g.dim))
    return LieAlgebra(dim, {(slots[i], slots[j]): {slots[k]: v for k, v in vec.items()}
                            for (i, j), vec in g.brackets.items()})


def test_catalog_witnesses_skip_nothing_that_fails():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        for h in (g, g.direct_sum(abelian(3)), _spread(g, g.dim + 3, random.Random(name))):
            fresh = LieAlgebra(h.dim, h.brackets)
            assert fresh.check_jacobi() == _first_failing_triple_of_all(h), name


@pytest.mark.parametrize("seed", range(20))
def test_witness_on_random_algebras_with_central_vectors(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = LieAlgebra(n, {pair: {rng.randrange(n): GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))}
                       for pair in rng.sample(pairs, rng.randint(1, n))})
    k = rng.randint(1, 4)
    for h in (g.direct_sum(abelian(k)), abelian(k).direct_sum(g), _spread(g, n + k, rng)):
        expected = _first_failing_triple_of_all(h)
        witness = LieAlgebra(h.dim, h.brackets).check_jacobi()
        assert (witness and tuple(witness)) == expected


# Gaussian structure constants, fractional ones among them
GAUSS = [GaussRat(1), GaussRat(-1), GaussRat(2), GaussRat(0, 1), GaussRat(1, -1), GaussRat(Fraction(1, 2), Fraction(1, 3))]


@st.composite
def bracket_tables(draw):
    """A random algebra of dims 3-8, nearly always failing Jacobi: each of
    a random set of pairs has one to three outputs with Gaussian constants.
    One draw in four is instead a catalog entry of dim <= 8 spread among
    central vectors, which passes."""
    n = draw(st.integers(3, 8))
    if draw(st.integers(0, 3)) == 0:
        names = [name for name in catalog.list_names() if catalog.get(name).algebra.dim <= n]
        g = catalog.get(draw(st.sampled_from(names))).algebra
        return _spread(g, n, random.Random(draw(st.integers(0, 2**16))))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    return LieAlgebra(n, {pair: draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(GAUSS),
                                                     min_size=1, max_size=3))
                          for pair in chosen})


@settings(max_examples=300, deadline=None)
@given(bracket_tables())
def test_witness_equals_the_walk_over_all_triples(g):
    witness = g.check_jacobi()
    assert (witness and tuple(witness)) == _first_failing_triple_of_all(g)


def test_jacobi_walks_only_candidate_triples(monkeypatch):
    """A triple has a nonzero Jacobi term only if (b, c) and (a, l) are
    bracket pairs with e_l in [e_b, e_c].  h(n) has no such triple, since
    its only bracket output z is central; sl2 has one."""
    from lieq import liealg

    calls = []
    original = liealg.jacobi_sum

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(liealg, "jacobi_sum", counted)
    assert LieAlgebra(401, catalog.get("h(200)").algebra.brackets).check_jacobi() is None
    assert calls == []
    assert LieAlgebra(3, catalog.get("sl2").algebra.brackets).check_jacobi() is None
    assert calls == [(0, 1, 2)]


def test_jacobi_candidates_over_the_cap_are_refused(monkeypatch):
    """sl2 + sl2 has two candidate triples, one in each summand."""
    sl2 = catalog.get("sl2").algebra
    monkeypatch.setenv("LIEQ_SIZE_CAP", "1")
    g = sl2.direct_sum(sl2)
    with pytest.raises(SizeCap, match=r"Jacobi check of 2 candidate triple\(s\) exceeds LIEQ_SIZE_CAP = 1"):
        g.check_jacobi()
    monkeypatch.setenv("LIEQ_SIZE_CAP", "2")
    assert g.check_jacobi() is None


def test_all_catalog_algebras_pass_jacobi():
    for name in catalog.list_names():
        assert catalog.get(name).algebra.check_jacobi() is None, name


def test_center_and_derived(h1, sl2):
    for m in (1, 2, 3):
        g = catalog.get(f"h({m})").algebra
        z = g.center()
        d = g.derived_series()[1]
        assert z.dim == 1 and d.dim == 1
        assert z == d
        assert z.contains({g.dim - 1: ONE})
    assert sl2.center().dim == 0
    assert abelian(4).center().dim == 4
    assert abelian(4).derived_series()[1].dim == 0


@pytest.mark.parametrize(
    "name, dims",
    [
        ("h(1)", [3, 1, 0]),
        ("n_5_7", [5, 3, 2, 1, 0]),
        ("abelian(4)", [4, 0]),
        ("n_5_6", [5, 3, 2, 1, 0]),
    ],
)
def test_lower_central_series(name, dims):
    g = catalog.get(name).algebra
    assert [s.dim for s in g.lower_central_series()] == dims


@pytest.mark.parametrize(
    "name, dims",
    [
        ("h(2)", [0, 1, 5]),
        ("abelian(5)", [0, 5]),
        ("n_4_3", [0, 1, 2, 4]),
        ("sl2", [0]),
    ],
)
def test_upper_central_series(name, dims):
    g = catalog.get(name).algebra
    assert [s.dim for s in g.upper_central_series()] == dims


def test_nilpotency_and_solvability(sl2):
    assert catalog.get("h(2)").algebra.is_nilpotent() == 2
    assert catalog.get("n_5_7").algebra.is_nilpotent() == 4
    assert sl2.is_nilpotent() is None
    assert sl2.is_solvable() is None
    assert abelian(3).is_solvable() == 1
    assert abelian(3).is_abelian()


def test_upper_and_lower_class_agree():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        low = g.is_nilpotent()
        ucs = g.upper_central_series()
        if low is None:
            assert not ucs or ucs[-1].dim < g.dim
        else:
            assert len(ucs) - 1 == low or g.dim == 0


def test_series_members_are_ideals():
    for name in ("h(2)", "n_4_3", "n_5_6", "sl2"):
        g = catalog.get(name).algebra
        for space in g.lower_central_series() + g.upper_central_series():
            for u in space.rows:
                for j in range(g.dim):
                    assert space.contains(g.bracket(u, {j: ONE})), (name, space)
            # quotient construction re-verifies ideal-ness and must not raise
            g.quotient(space)


def test_quotient_examples(h1):
    q = h1.quotient(h1.center())
    assert q.algebra.dim == 2 and q.algebra.is_abelian()
    everything = Subspace.full(3)
    zero_alg = h1.quotient(everything).algebra
    assert zero_alg.dim == 0
    n54 = catalog.get("n_5_4").algebra
    qq = n54.quotient(n54.center())
    assert qq.algebra.dim == 4 and qq.algebra.is_abelian()


def test_quotient_dimension_count():
    for name in ("h(2)", "n_5_3", "n_5_8"):
        g = catalog.get(name).algebra
        ideal = g.center()
        q = g.quotient(ideal)
        assert q.algebra.dim + ideal.dim == g.dim


def test_quotient_rejects_non_ideal(h1):
    line = Subspace(3, [{0: ONE}])
    with pytest.raises(NotAnIdeal):
        h1.quotient(line)
    with pytest.raises(DimensionMismatch):
        h1.quotient(Subspace(5, [{4: ONE}]))


def _filiform(n):
    """The model filiform L_n: [e_1, e_i] = e_{i+1} for 1 < i < n."""
    return LieAlgebra(n, {(0, i): {i + 1: ONE} for i in range(1, n - 1)})


@st.composite
def rescaled_catalog_entries(draw):
    """A catalog entry of dim <= 9 in the basis f_a = s_a e_a, with
    [f_a, f_b] = sum_l s_a s_b c^l_ab / s_l f_l: Gaussian and fractional
    constants."""
    names = [name for name in catalog.list_names() if catalog.get(name).algebra.dim <= 9]
    g = catalog.get(draw(st.sampled_from(names))).algebra
    s = draw(st.lists(st.sampled_from(GAUSS), min_size=g.dim, max_size=g.dim))
    return LieAlgebra(g.dim, {(a, b): {l: s[a] * s[b] * c / s[l] for l, c in vec.items()}
                              for (a, b), vec in g.brackets.items()})


@st.composite
def solvable_tables(draw):
    """e_1 acting on the abelian ideal span(e_2..e_n) by a triangular
    matrix with a nonzero diagonal: solvable and not nilpotent."""
    n = draw(st.integers(2, 8))
    return LieAlgebra(n, {(0, i): {k: draw(st.sampled_from(GAUSS)) for k in range(1, i + 1)
                                   if k == i or draw(st.booleans())}
                          for i in range(1, n)})


def _same_quotient(g, ideal):
    """g.quotient(ideal) equals the whole-basis reference, or raises
    NotAnIdeal with the reference's message."""
    try:
        expected = reference_quotient(g, ideal)
    except NotAnIdeal as err:
        with pytest.raises(NotAnIdeal) as got:
            g.quotient(ideal)
        assert str(got.value) == str(err)
        return
    q = g.quotient(ideal)
    assert (q.algebra, q.complement) == expected


def _same_subspaces(g):
    series = reference_series(g)
    assert g.lower_central_series() == series["lower"]
    assert g.upper_central_series() == series["upper"]
    assert g.derived_series() == series["derived"]
    assert g.center() == reference_center(g)
    _same_quotient(g, g.center())


@settings(max_examples=200, deadline=None)
@given(st.one_of(bracket_tables(), rescaled_catalog_entries(), solvable_tables()), st.data())
def test_canonical_subspaces_equal_the_whole_basis_reference(g, data):
    """The series, the center and the quotients read from the nonzero
    constants equal the loops over every basis pair; a drawn subspace,
    an ideal or not, gives the same quotient or the same NotAnIdeal."""
    _same_subspaces(g)
    vectors = data.draw(st.lists(st.dictionaries(st.integers(0, g.dim - 1), st.sampled_from(GAUSS),
                                                 min_size=1, max_size=2), min_size=1, max_size=2))
    _same_quotient(g, Subspace(g.dim, vectors))


@pytest.mark.parametrize("n", [4, 10, 20])
def test_filiform_subspaces_equal_the_whole_basis_reference(n):
    g = _filiform(n)
    _same_subspaces(g)
    assert [s.dim for s in g.lower_central_series()] == [n, *range(n - 2, -1, -1)]
    for space in g.lower_central_series():
        _same_quotient(g, space)


def test_bracket_free_subspaces_make_no_bracket_or_reduce_call(monkeypatch):
    """With no nonzero constant there is nothing to bracket or reduce:
    the whole-basis loops made n^2 pair and reduce calls at dim 1000."""
    calls = []
    for owner, name in ((LieAlgebra, "pair"), (LieAlgebra, "bracket"), (Subspace, "reduce")):
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    g = abelian(1000)
    assert g.center() == Subspace.full(1000)
    assert [s.dim for s in g.lower_central_series()] == [1000, 0]
    assert [s.dim for s in g.upper_central_series()] == [0, 1000]
    assert [s.dim for s in g.derived_series()] == [1000, 0]
    assert calls == []


def test_direct_sum(h1):
    ds = h1.direct_sum(abelian(1)).direct_sum(abelian(1))
    assert ds.check_jacobi() is None
    assert ds.invariant_signature() == catalog.get("n_5_2").signature()
    assert abelian(2).direct_sum(abelian(3)).same_constants(abelian(5))


def test_direct_sum_preserves_jacobi():
    for left, right in (("h(1)", "sl2"), ("n_4_3", "h(2)")):
        g = catalog.get(left).algebra.direct_sum(catalog.get(right).algebra)
        assert g.check_jacobi() is None


def test_signature_separations():
    assert catalog.get("n_5_4").signature() == catalog.get("h(2)").signature()
    s1 = catalog.get("n_5_1").signature()
    s2 = catalog.get("n_5_2").signature()
    assert s1 != s2
    assert s1.derived_series_dims[1] == 0 and s2.derived_series_dims[1] == 1
    assert catalog.get("abelian(5)").signature() != catalog.get("n_5_9").signature()


def test_doc_round_trip():
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        assert LieAlgebra.from_doc(g.to_doc()) == g


def test_zero_algebra():
    zero = abelian(0)
    assert zero.lower_central_series() == []
    assert zero.is_nilpotent() == 0
    assert zero.is_solvable() == 0


def test_verified_flag(h1):
    assert h1.verified
    bad = LieAlgebra(3, {(0, 1): {0: 1}, (1, 2): {1: 1}})
    assert not bad.verified

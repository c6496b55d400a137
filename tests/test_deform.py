import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieq import catalog, deform
from lieq.cohomology import (
    Cochain,
    adjoint_rep,
    cochain_from_coordinates,
    cocycle_space,
    differential,
    is_two_cocycle_trivial_coeffs,
)
from lieq.deform import (
    DeformedBracket,
    NotLieAtParameter,
    SourceMismatch,
    characteristically_nilpotent,
    deformation_is_lie,
    evaluate_at,
    jacobi_polynomial,
    make_linear_deformation,
    rigidity_report,
)
from lieq.exactnum import GaussRat, ZERO
from lieq.liealg import LieAlgebra, abelian
from lieq.linalg import vec_add
from oracles import reference_jacobi_polynomial


def get(name):
    return catalog.get(name).algebra


def z2_basis(g) -> list[Cochain]:
    """The RREF basis of Z^2(g, g; ad), one cochain per row."""
    space = cocycle_space(2, g, adjoint_rep(g))
    return [cochain_from_coordinates(g, 2, g.dim, row) for row in space.rows]


def survivors(g) -> list[bool]:
    """For each Z^2 basis cocycle phi, whether mu + t*phi passes the full
    graded Jacobi check (cocycle membership alone does not make it Lie)."""
    return [deformation_is_lie(make_linear_deformation(g, phi)) is None for phi in z2_basis(g)]


def bracket_cochain(g) -> Cochain:
    """The bracket of g as a degree-2 cochain over an abelian base of the
    same dimension."""
    base = abelian(g.dim)
    return Cochain(base, 2, g.dim, {pair: dict(vec) for pair, vec in g.brackets.items()})


def test_construction_checks():
    base = abelian(3)
    phi = Cochain(base, 2, 3, {(0, 1): {2: 1}})
    d = make_linear_deformation(base, phi)
    assert d.order == 1
    wrong_dim = Cochain(abelian(4), 2, 4, {(0, 1): {2: 1}})
    with pytest.raises(SourceMismatch):
        make_linear_deformation(base, wrong_dim)
    wrong_degree = Cochain(base, 1, 3, {(0,): {2: 1}})
    with pytest.raises(SourceMismatch):
        make_linear_deformation(base, wrong_degree)
    with pytest.raises(ValueError):
        DeformedBracket(base, ())


def test_zero_base_with_lie_phi_is_lie():
    phi = bracket_cochain(get("h(1)"))
    d = make_linear_deformation(abelian(3), phi)
    assert deformation_is_lie(d) is None


def test_identity_deformation():
    g = get("h(1)")
    zero_phi = Cochain(g, 2, 3, {})
    d = make_linear_deformation(g, zero_phi)
    assert deformation_is_lie(d) is None
    assert evaluate_at(d, 5).same_constants(g)


def test_base_jacobi_shows_up_at_degree_zero():
    bad_base = LieAlgebra(3, {(0, 1): {0: 1}, (1, 2): {1: 1}})
    phi = Cochain(bad_base, 2, 3, {})
    d = make_linear_deformation(bad_base, phi)
    defect = deformation_is_lie(d)
    assert defect is not None and defect.degree == 0


def test_phi_violating_own_jacobi():
    base = abelian(3)
    phi = Cochain(base, 2, 3, {(0, 1): {0: 1}, (1, 2): {1: 1}})
    defect = deformation_is_lie(make_linear_deformation(base, phi))
    assert defect is not None
    assert defect.degree == 2
    assert defect.triple == (0, 1, 2)


def test_degree_bound():
    g = get("h(1)")
    phi1 = Cochain(g, 2, 3, {(0, 2): {0: 1}})
    phi2 = Cochain(g, 2, 3, {(1, 2): {1: 1}})
    d = DeformedBracket(g, (phi1, phi2))
    expansion = jacobi_polynomial(d)
    for table in expansion.values():
        assert max(table) <= 2 * d.order


def test_t0_component_is_base_jacobi():
    g = get("n_4_3")
    phi = Cochain(g, 2, 4, {(0, 1): {0: 1}})
    expansion = jacobi_polynomial(make_linear_deformation(g, phi))
    for table in expansion.values():
        assert 0 not in table


def _jacobi_residual(g, i, j, k):
    out = dict(g.bracket({i: GaussRat(1)}, g.pair(j, k)))
    for key, value in g.bracket({j: GaussRat(1)}, g.pair(k, i)).items():
        out[key] = out.get(key, ZERO) + value
    for key, value in g.bracket({k: GaussRat(1)}, g.pair(i, j)).items():
        out[key] = out.get(key, ZERO) + value
    return {key: v for key, v in out.items() if v}


def _evaluated(table, t0):
    """Sum over c of t0^c * table[c] for one triple's graded table."""
    out = {}
    for c, vec in table.items():
        vec_add(out, vec, t0 ** c)
    return out


def _assert_table_shape(expansion, n):
    """Triples in combinations order, degrees ascending, no zero vector."""
    assert list(expansion) == [t for t in itertools.combinations(range(n), 3) if t in expansion]
    for table in expansion.values():
        assert table and list(table) == sorted(table)
        assert all(table.values())


def _random_linear(seed):
    """The seeded one-level deformation of a small catalog algebra and the
    Gaussian parameter t0 of test_graded_consistency_randomized."""
    rng = random.Random(seed)
    name = rng.choice(["h(1)", "n_4_3", "n_5_5", "abelian(4)"])
    g = get(name)
    n = g.dim
    coords = {}
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(n), 2))
        coords[(i, j)] = {rng.randrange(n): GaussRat(rng.randint(-3, 3))}
    d = make_linear_deformation(g, Cochain(g, 2, n, coords))
    return name, d, GaussRat(rng.randint(-5, 5), rng.randint(-2, 2))


def _random_two_level(seed):
    """The seeded two-level deformation and integer t0 of
    test_graded_consistency_two_level."""
    rng = random.Random(1000 + seed)
    g = get(rng.choice(["h(1)", "n_4_3"]))
    n = g.dim

    def random_phi():
        coords = {}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(n), 2))
            coords.setdefault((i, j), {})[rng.randrange(n)] = GaussRat(rng.randint(-3, 3))
        return Cochain(g, 2, n, coords)

    d = DeformedBracket(g, (random_phi(), random_phi()))
    return d, GaussRat(rng.randint(-3, 3))


@pytest.mark.parametrize("seed", range(6))
def test_graded_consistency_randomized(seed):
    name, d, t0 = _random_linear(seed)
    n = d.base.dim
    evaluated = evaluate_at(d, t0, allow_non_lie=True)
    expansion = jacobi_polynomial(d)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                direct = _jacobi_residual(evaluated, i, j, k)
                assert direct == _evaluated(expansion.get((i, j, k), {}), t0), (name, (i, j, k), t0)


@pytest.mark.parametrize("seed", range(3))
def test_graded_consistency_two_level(seed):
    d, t0 = _random_two_level(seed)
    n = d.base.dim
    evaluated = evaluate_at(d, t0, allow_non_lie=True)
    expansion = jacobi_polynomial(d)
    _assert_table_shape(expansion, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                direct = _jacobi_residual(evaluated, i, j, k)
                assert direct == _evaluated(expansion.get((i, j, k), {}), t0)


@pytest.mark.parametrize(
    "d, t0",
    [_random_linear(seed)[1:] for seed in range(6)] + [_random_two_level(seed) for seed in range(3)],
    ids=[f"linear-{seed}" for seed in range(6)] + [f"two-level-{seed}" for seed in range(3)],
)
def test_evaluate_at_refuses_where_the_graded_table_is_nonzero_at_t0(d, t0):
    """evaluate_at checks the evaluated bracket; the reference is the graded
    Jacobi table summed at t0, whose least nonzero triple the error names."""
    failing = [triple for triple, table in jacobi_polynomial(d).items() if _evaluated(table, t0)]
    if not failing:
        assert evaluate_at(d, t0).verified
        return
    with pytest.raises(NotLieAtParameter) as exc:
        evaluate_at(d, t0)
    shown = tuple(x + 1 for x in min(failing))
    assert str(exc.value) == f"Jacobi residual at triple {shown} for t = {t0}"


# rational and Gaussian constants
CONSTANTS = [GaussRat(1), GaussRat(-2), GaussRat(Fraction(1, 3)), GaussRat(0, 1),
             GaussRat(Fraction(-1, 2), 3)]


@st.composite
def sparse_deformations(draw):
    """A DeformedBracket of dim 3-9 with one to three perturbations, each on
    one to four basis pairs with one or two outputs.  The base is abelian, a
    catalog entry plus an abelian summand, or a random sparse table."""
    n = draw(st.integers(3, 9))

    def sparse_table(max_pairs):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda p: p[0] < p[1]), min_size=1, max_size=max_pairs))
        return {pair: draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(CONSTANTS),
                                           min_size=1, max_size=2)) for pair in pairs}

    kind = draw(st.sampled_from(["abelian", "catalog", "random"]))
    if kind == "abelian":
        g = abelian(n)
    elif kind == "catalog":
        names = [name for name in catalog.list_names() if get(name).dim <= n]
        entry = get(draw(st.sampled_from(names)))
        g = entry.direct_sum(abelian(n - entry.dim))
    else:
        g = LieAlgebra(n, sparse_table(4))
    phis = tuple(Cochain(g, 2, n, sparse_table(4)) for _ in range(draw(st.integers(1, 3))))
    return DeformedBracket(g, phis)


def _ordered(expansion):
    return [(triple, list(table.items())) for triple, table in expansion.items()]


@settings(max_examples=200, deadline=None)
@given(sparse_deformations())
def test_graded_table_equals_the_walk_over_all_triples(d):
    assert _ordered(jacobi_polynomial(d)) == _ordered(reference_jacobi_polynomial(d))


@pytest.mark.parametrize("name", ["h(1)", "n_4_3", "n_5_6", "n_5_9", "sl2", "a_sh", None])
def test_graded_table_of_the_verify_all_deformations(name):
    """verify-all's deformations: the abelian base with an entry's brackets
    as phi, and (None) the cyclic-cocycle counterexample on h(1)."""
    if name is None:
        g = get("h(1)")
        phi = Cochain(g, 2, 3, {(0, 2): {0: 1}})
    else:
        g = abelian(get(name).dim)
        phi = Cochain(g, 2, g.dim, {p: dict(v) for p, v in get(name).brackets.items()})
    d = make_linear_deformation(g, phi)
    assert _ordered(jacobi_polynomial(d)) == _ordered(reference_jacobi_polynomial(d))


def test_graded_table_walks_only_candidate_triples(monkeypatch):
    """abelian(40) with phi = e1 ^ e2 -> e3 has no candidate triple, so no
    jacobi_sum is made for any of its C(40, 3) triples."""
    calls = []
    original = deform.jacobi_sum

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(deform, "jacobi_sum", counted)
    g = abelian(40)
    d = make_linear_deformation(g, Cochain(g, 2, 40, {(0, 1): {2: 1}}))
    assert jacobi_polynomial(d) == {}
    assert calls == []


def test_evaluate_at_zero_is_identity():
    g = get("n_5_6")
    phi = Cochain(g, 2, 5, {(0, 4): {1: 7}})
    d = make_linear_deformation(g, phi)
    assert evaluate_at(d, 0, allow_non_lie=True).same_constants(g)


def test_evaluate_gives_heisenberg():
    d = make_linear_deformation(abelian(3), bracket_cochain(get("h(1)")))
    g1 = evaluate_at(d, 1)
    assert g1.invariant_signature() == get("h(1)").invariant_signature()


def test_not_lie_at_parameter():
    g = get("h(1)")
    phi = Cochain(g, 2, 3, {(0, 2): {0: 1}})
    d = make_linear_deformation(g, phi)
    with pytest.raises(NotLieAtParameter):
        evaluate_at(d, 1)
    forced = evaluate_at(d, 1, allow_non_lie=True)
    assert not forced.verified


def test_documented_counterexample_cycle_vs_full():
    # passes the trivial-coefficient cyclic condition, fails the honest filter
    g = get("h(1)")
    phi = Cochain(g, 2, 3, {(0, 2): {0: 1}})
    assert is_two_cocycle_trivial_coeffs(phi)
    defect = deformation_is_lie(make_linear_deformation(g, phi))
    assert defect is not None
    assert defect.degree == 1
    assert defect.triple == (0, 1, 2)


def test_cocycle_kills_linear_term_only():
    # for phi inside Z^2(g, g; ad) the t^1 Jacobi component vanishes and the
    # t^2 component is exactly the self-Jacobi sum of phi
    g = get("n_5_2")
    basis = z2_basis(g)
    rng = random.Random(2)
    for _ in range(5):
        coords = {}
        for basis_phi in rng.sample(basis, 3):
            weight = GaussRat(rng.randint(-3, 3))
            for key, vec in basis_phi.coords.items():
                slot = coords.setdefault(key, {})
                for pos, value in vec.items():
                    slot[pos] = slot.get(pos, ZERO) + weight * value
        coords = {k: {p: v for p, v in vec.items() if v} for k, vec in coords.items()}
        coords = {k: vec for k, vec in coords.items() if vec}
        phi = Cochain(g, 2, 5, coords)
        expansion = jacobi_polynomial(make_linear_deformation(g, phi))
        phi_alone = jacobi_polynomial(
            make_linear_deformation(abelian(5), Cochain(abelian(5), 2, 5, coords))
        )
        for i in range(5):
            for j in range(i + 1, 5):
                for k in range(j + 1, 5):
                    table = expansion.get((i, j, k), {})
                    assert 1 not in table
                    assert table.get(2, {}) == phi_alone.get((i, j, k), {}).get(2, {})


@pytest.mark.parametrize(
    "name", [name for name in catalog.list_names() if catalog.get(name).algebra.dim >= 3]
)
def test_first_order_jacobi_term_is_the_differential(name):
    # Gerstenhaber: the t^1 coefficient of the Jacobi sum of mu + t phi is
    # mu o phi + phi o mu = d phi with adjoint coefficients, for every phi
    g = get(name)
    assert g.verified
    n = g.dim
    rng = random.Random(f"first order {name}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    z2 = z2_basis(g)
    for trial in range(4):
        coords = {}
        for pair in rng.sample(pairs, rng.randint(1, min(4, len(pairs)))):
            coords[pair] = {rng.randrange(n): GaussRat(rng.randint(-3, 3), rng.randint(-1, 1))}
        if trial % 2:  # a cocycle: d phi = 0, so the t^1 term must vanish
            coords = {}
            for basis_phi in rng.sample(z2, min(3, len(z2))):
                weight = GaussRat(rng.randint(-3, 3))
                for key, vec in basis_phi.coords.items():
                    slot = coords.setdefault(key, {})
                    for pos, value in vec.items():
                        slot[pos] = slot.get(pos, ZERO) + weight * value
        phi = Cochain(g, 2, n, coords)
        expansion = jacobi_polynomial(make_linear_deformation(g, phi))
        first_order = {triple: table[1] for triple, table in expansion.items() if 1 in table}
        assert first_order == differential(phi, adjoint_rep(g)).coords, (name, trial)


def test_candidates_sl2():
    assert len(z2_basis(get("sl2"))) == 6  # Z^2 = B^2, trivial multiplier


def test_candidates_abelian():
    basis = z2_basis(abelian(3))
    # base is zero: candidates survive exactly when phi satisfies Jacobi
    assert len(basis) == 9
    for phi, ok in zip(basis, survivors(abelian(3))):
        assert ok == (deformation_is_lie(make_linear_deformation(abelian(3), phi)) is None)
        assert ok == (LieAlgebra(3, phi.coords).check_jacobi() is None)


def test_candidates_golden_counts():
    # frozen from a run of the honest filter; the filter has real teeth on
    # n_4_3, where one basis cocycle fails its own square
    assert survivors(get("h(1)")) == [True] * 8
    survived43 = survivors(get("n_4_3"))
    assert len(survived43) == 15
    assert sum(survived43) == 14
    assert survived43[4] is False


def test_rigidity_sl2():
    rr = rigidity_report(get("sl2"))
    assert rr.orbit_tangent_dim == 6
    assert rr.dim_b2 == 6
    assert rr.dim_h2 == 0
    assert rr.nr_rigid and rr.tangent_equals_b2


def test_rigidity_abelian():
    rr = rigidity_report(abelian(3))
    assert rr.orbit_tangent_dim == 0 == rr.dim_b2
    assert rr.tangent_equals_b2
    assert rr.dim_h2 == 9 and not rr.nr_rigid


def test_rigidity_h1():
    rr = rigidity_report(get("h(1)"))
    assert rr.orbit_tangent_dim == 3
    assert rr.dim_b2 == 3


def test_characteristically_nilpotent():
    assert not characteristically_nilpotent(abelian(2))
    assert not characteristically_nilpotent(get("h(1)"))
    assert not characteristically_nilpotent(get("sl2"))

import random

import pytest

from lieq import catalog
from lieq.cohomology import Cochain
from lieq.exactnum import GaussRat, ONE, ZERO
from lieq.extend import (
    CentralCocycle,
    CocycleViolation,
    TrivialCenter,
    central_extension,
    coboundary_shift_iso,
    induced_cocycle,
)
from lieq.liealg import Subspace, abelian


def get(name):
    return catalog.get(name).algebra


def nilpotent_with_center():
    out = []
    for name in catalog.list_names():
        g = get(name)
        if g.dim and g.is_nilpotent() is not None and g.center().dim > 0:
            out.append((name, g))
    return out


def test_cocycle_constructor_verifies_cycle_condition():
    n43 = get("n_4_3")
    CentralCocycle(n43, 1, {(0, 1): {0: 1}})  # fine
    with pytest.raises(CocycleViolation):
        CentralCocycle(n43, 1, {(1, 3): {0: 1}})


def test_heisenberg_from_plane():
    theta = CentralCocycle(abelian(2), 1, {(0, 1): {0: 1}})
    g = central_extension(abelian(2), theta)
    assert g.invariant_signature() == get("h(1)").invariant_signature()


def test_zero_cocycle_gives_direct_sum():
    theta = CentralCocycle(abelian(3), 2, {})
    g = central_extension(abelian(3), theta)
    assert g.same_constants(abelian(3).direct_sum(abelian(2)))


@pytest.mark.parametrize(
    "name, values",
    [
        ("abelian(4)", {(0, 1): {0: 1}, (1, 2): {5: 1, 1999: 2}, (2, 3): {1999: 1}}),
        ("h(1)", {(0, 1): {1999: 1}, (1, 2): {0: 1}}),
        ("n_5_4", {}),
        ("sl2", {}),
    ],
)
def test_jacobi_check_of_a_wide_extension_walks_only_the_base(name, values, monkeypatch):
    # the 2000 adjoined vectors are central: check_jacobi walks no triple
    # that contains one, so it makes the Jacobi sums of g alone, at most
    # C(n, 3) of them
    from math import comb

    from lieq import liealg

    g, calls = get(name), []
    theta = CentralCocycle(g, 2000, values)
    original = liealg.jacobi_sum

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(liealg, "jacobi_sum", counted)
    out = central_extension(g, theta)
    assert out.dim == g.dim + 2000
    walked, calls[:] = list(calls), []
    assert liealg.LieAlgebra(g.dim, g.brackets).check_jacobi() is None
    assert walked == calls and len(walked) <= comb(g.dim, 3)


def test_h2_from_four_dimensions():
    theta = CentralCocycle(abelian(4), 1, {(0, 1): {0: 1}, (2, 3): {0: 1}})
    g = central_extension(abelian(4), theta)
    assert g.invariant_signature() == catalog.get("n_5_4").signature()
    assert g.invariant_signature() == get("h(2)").invariant_signature()


def test_adjoined_space_is_central():
    theta = CentralCocycle(get("h(1)"), 2, {(0, 1): {0: 1, 1: 2}})
    g = central_extension(get("h(1)"), theta)
    center = g.center()
    for k in (3, 4):
        assert center.contains({k: ONE})


def test_short_exact_sequence():
    base = get("n_4_3")
    theta = CentralCocycle(base, 1, {(0, 1): {0: 1}})
    g = central_extension(base, theta)
    v_span = Subspace(g.dim, [{4: ONE}])
    quotient = g.quotient(v_span)
    # inclusion then projection is zero, dims add, quotient returns the base
    assert quotient.project({4: ONE}) == {}
    assert quotient.algebra.dim + v_span.dim == g.dim
    assert quotient.algebra.same_constants(base)


def test_shift_by_zero_is_identity():
    g = get("h(1)")
    theta = CentralCocycle(g, 1, {(0, 1): {0: 1}})
    zero_shift = Cochain(g, 1, 1, {})
    iso = coboundary_shift_iso(g, theta, zero_shift)
    assert iso.shifted.values == theta.values
    for i in range(4):
        assert iso.apply({i: ONE}) == {i: ONE}


def test_shift_on_heisenberg():
    g = get("h(1)")
    theta = CentralCocycle(g, 1, {(0, 1): {0: 1}})
    c_prime = Cochain(g, 1, 1, {(2,): {0: 1}})
    iso = coboundary_shift_iso(g, theta, c_prime)
    # theta'(v1, v2) = theta(v1, v2) - c'([v1, v2]) = w - w = 0
    assert iso.shifted.values == {}
    assert iso.apply({2: ONE}) == {2: ONE, 3: ONE}


def test_shift_on_abelian_base_changes_nothing():
    g = abelian(3)
    theta = CentralCocycle(g, 1, {(0, 1): {0: 1}})
    c_prime = Cochain(g, 1, 1, {(0,): {0: 5}, (2,): {0: -2}})
    iso = coboundary_shift_iso(g, theta, c_prime)
    assert iso.shifted.values == theta.values
    line = abelian(1)  # C^2 is zero, so d c' is not formed at all
    iso = coboundary_shift_iso(line, CentralCocycle(line, 1, {}), Cochain(line, 1, 1, {(0,): {0: 3}}))
    assert iso.shifted.values == {}
    assert iso.apply({0: ONE}) == {0: ONE, 1: GaussRat(3)}


@pytest.mark.parametrize("seed", range(4))
def test_shift_iso_random(seed):
    rng = random.Random(seed)
    name = rng.choice(["h(1)", "n_4_3", "n_5_5", "abelian(4)"])
    g = get(name)
    quotient, theta = induced_cocycle(g) if g.center().dim else (None, None)
    base = quotient.algebra if quotient else g
    theta = theta if theta is not None else CentralCocycle(g, 1, {})
    if base.dim == 0:
        return
    v_dim = theta.target_dim
    coords = {}
    for i in range(base.dim):
        vec = {k: GaussRat(rng.randint(-4, 4)) for k in range(v_dim)}
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            coords[(i,)] = vec
    c_prime = Cochain(base, 1, v_dim, coords)
    # construction verifies the intertwining on every basis pair
    iso = coboundary_shift_iso(base, theta, c_prime)
    # theta + d c' is the hand formula theta'(x, y) = theta(x, y) - c'([x, y])
    by_hand = {}
    for i in range(base.dim):
        for j in range(i + 1, base.dim):
            vec = dict(theta.pair(i, j))
            for l, coeff in base.pair(i, j).items():
                for k, value in c_prime.value((l,)).items():
                    vec[k] = vec.get(k, ZERO) - coeff * value
            vec = {k: value for k, value in vec.items() if value}
            if vec:
                by_hand[(i, j)] = vec
    assert iso.shifted.values == by_hand


def test_induced_cocycle_h1():
    g = get("h(1)")
    quotient, theta = induced_cocycle(g)
    assert quotient.algebra.same_constants(abelian(2))
    assert theta.values == {(0, 1): {0: ONE}}


def test_induced_cocycle_abelian():
    quotient, theta = induced_cocycle(abelian(4))
    assert quotient.algebra.dim == 0
    assert theta.values == {}
    rebuilt = central_extension(quotient.algebra, theta)
    assert rebuilt.invariant_signature() == abelian(4).invariant_signature()


def test_induced_cocycle_n54_two_pairs():
    quotient, theta = induced_cocycle(get("n_5_4"))
    assert quotient.algebra.same_constants(abelian(4))
    assert theta.values == {(0, 1): {0: ONE}, (2, 3): {0: ONE}}


def test_trivial_center_rejected():
    with pytest.raises(TrivialCenter):
        induced_cocycle(get("sl2"))


def test_round_trip_preserves_signature_everywhere():
    for name, g in nilpotent_with_center():
        quotient, theta = induced_cocycle(g)
        rebuilt = central_extension(quotient.algebra, theta)
        assert rebuilt.invariant_signature() == g.invariant_signature(), name

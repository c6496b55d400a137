"""The verify-all battery and the check items it shares with the q/Fock
subcommands.

Each entry of _BATTERY takes an rng and yields the (name, expected,
actual) items of one group of checks.  ``lieq verify-all`` runs the
entries in report order with one rng; the acceptance tests
(tests/test_acceptance.py) run the entries of each criterion under that
criterion's time budget.  ``qheis verify``, ``fock verify`` and ``fock
cuntz`` report the same items as the entries that check them, from the
generators below.

Only those commands import this module, and each check imports the engine
modules it runs (``linalg`` too) when it runs, so ``qheis verify`` loads
no ``fock`` and no ``linalg``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .exactnum import GaussRat

if TYPE_CHECKING:  # names used in annotations only
    import random

    from . import fock
    from .linalg import SparseMatrix


# -- check items shared with the q/Fock subcommands ---------------------------


def _q_identity_items(top: int):
    """(name, ok) for each q-identity check up to size ``top``, lazily, so a
    caller that only wants the conjunction stops at the first failure."""
    from . import qheis

    for n in range(1, min(top, 20) + 1):
        yield (f"binomial_recursion_vs_closed n={n}",
               all(qheis.q_binomial(n, k) == qheis.q_binomial_closed(n, k) for k in range(n + 1)))
    for n in range(1, top + 1):
        yield f"powandprod n={n}", qheis.verify_powandprod(n)
    for q0 in ("-1", "-1/2", "1/3", "2"):
        yield (f"powandprod_reciprocal q={q0}",
               all(qheis.verify_powandprod_reciprocal(n, GaussRat(q0))
                   for n in range(1, min(top, 8) + 1)))
    for n in range(1, min(top, 6) + 1):
        yield f"bnan n={n}", qheis.verify_generalized_jacobi("bnan", n)
        yield f"anbn n={n}", qheis.verify_generalized_jacobi("anbn", n)
    yield ("bracketBmAn m,n<=6",
           all(qheis.verify_generalized_jacobi("bracketBmAn", n, m)
               for m in range(1, 7) for n in range(1, 7)))
    yield ("q_zero_table n,m<=8",
           all(qheis.q_zero_products(n, m) == qheis.q_zero_expected(n, m)
               for n in range(1, 9) for m in range(1, 9)))
    for which in qheis._FREE_ITEMS:
        yield f"free_{which}", qheis.free_identity_check(which)
    yield ("subset_sum n<=8",
           all(bool(qheis.subset_sum_binomial_check(n, k))
               for n in range(1, 9) for k in range(n + 1)))


def _truncation_items(q0: GaussRat, n: int):
    """(name, ok) for the size-n monomial pair: the q-CCR defect sits in the
    corner only, and the number operator has the closed-form spectrum."""
    from . import fock

    a, b = fock.monomial_rep(q0, n)
    yield "defect_corner_only", fock.defect_is_corner_only(fock.qccr_defect(a, b, q0), q0)
    yield ("spectrum_closed_form",
           fock.number_operator_spectrum(a, b) == fock.spectrum_closed_form(q0, n))


def _biorthogonal_items(system: fock.BiorthogonalSystem):
    """(name, ok): the pairing matrix is the identity, and each squared
    ladder coefficient is {m+1}_q."""
    from . import qheis
    from .linalg import SparseMatrix

    yield "biorthogonality", system.pairing_matrix() == SparseMatrix.identity(system.n)
    rungs = qheis.q_integers_at(system.n - 1, system.q0)[1:]
    yield "squared_ladder", system.squared_ladder_coefficients() == rungs


def _defects_on_top_degree(ct: fock.CuntzToeplitz) -> bool:
    """Every isometry defect l_i+ l_j - delta_ij I lives on top-degree words."""
    return all(ct.defect_supported_on_top_degree(i, j) for i in range(ct.d) for j in range(ct.d))


# -- the battery ----------------------------------------------------------------


def _verify_catalog(rng):
    """catalog.verify_all: Jacobi and the expected invariants of every
    entry, the documented coincidences and the 36 distinct dim-5 pairs."""
    from . import catalog

    yield "catalog", "pass", "pass" if all(item.ok for item in catalog.verify_all()) else "fail"


def _verify_sl2(rng):
    """Der = Inn (so H^1 = 0), H^2 = 0 and the rigidity numbers of sl2."""
    from . import catalog, deform

    sl2 = catalog.get("sl2").algebra
    rr = deform.rigidity_report(sl2)
    # dim Der = n^2 - rank d_1 = n^2 - orbit tangent dim; dim Inn = n - dim Z(g)
    der = sl2.dim * sl2.dim - rr.orbit_tangent_dim
    yield "sl2_der_inn", (3, 3), (der, sl2.dim - sl2.center().dim)
    yield "sl2_h2", 0, rr.dim_h2
    yield ("sl2_rigidity", (6, 6, True, True),
           (rr.orbit_tangent_dim, rr.dim_b2, rr.nr_rigid, rr.tangent_equals_b2))


def _verify_d_squared_zero(rng):
    """d^2 = 0 in every degree, adjoint and trivial coefficients, across
    the catalog."""
    from . import catalog, cohomology

    ok = True
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        for rep in (cohomology.adjoint_rep(g), cohomology.trivial_rep(g, 1)):
            complex_ = cohomology.CochainComplex(g, rep)
            for k in range(g.dim + 1):
                ok = ok and complex_.d_squared_zero(k)
    yield "d_squared_zero", True, ok


def _verify_skjelbred_sund_round_trip(rng):
    """Every nilpotent catalog entry with a center is the central extension
    of g / Z(g) by its induced cocycle, and 20 random coboundary shifts of
    that cocycle each give an isomorphic extension (coboundary_shift_iso
    raises when its map fails to intertwine)."""
    from . import catalog, cohomology, extend

    ok = True
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        if g.is_nilpotent() is None or g.center().dim == 0 or g.dim == 0:
            continue
        quot, theta, same = extend.round_trip(g)
        ok = ok and same
        base = quot.algebra
        for _ in range(20 if base.dim else 0):
            coords = {}
            for i in range(base.dim):
                vec = {k: GaussRat(rng.randint(-5, 5)) for k in range(theta.target_dim)}
                vec = {k: v for k, v in vec.items() if v}
                if vec:
                    coords[(i,)] = vec
            shift = cohomology.Cochain(base, 1, theta.target_dim, coords)
            extend.coboundary_shift_iso(base, theta, shift)
    yield "skjelbred_sund_round_trip", True, ok


def _verify_deformation(rng):
    """g_0 + t phi is Lie when the base is abelian and phi holds catalog
    brackets; the cyclic-cocycle counterexample on h(1) passes the cyclic
    test and fails Jacobi at degree 1."""
    from . import catalog, cohomology, deform
    from .liealg import abelian

    defect = None
    for name in ("h(1)", "n_4_3", "n_5_6", "n_5_9", "sl2", "a_sh"):
        g = catalog.get(name).algebra
        base = abelian(g.dim)
        phi = cohomology.Cochain(base, 2, g.dim, {p: dict(v) for p, v in g.brackets.items()})
        if defect is None:
            defect = deform.deformation_is_lie(deform.make_linear_deformation(base, phi))
    yield "zero_base_deformation", None, defect
    h1 = catalog.get("h(1)").algebra
    counter = cohomology.Cochain(h1, 2, 3, {(0, 2): {0: 1}})
    yield ("cyclic_cocycle_counterexample_passes_cycle", True,
           cohomology.is_two_cocycle_trivial_coeffs(counter))
    defect = deform.deformation_is_lie(deform.make_linear_deformation(h1, counter))
    yield "cyclic_cocycle_counterexample_fails_full", True, defect is not None and defect.degree == 1


def _verify_q_identity_suite(rng):
    """Every q-identity check of qheis verify --max-n 20."""
    yield "q_identity_suite", True, all(passed for _, passed in _q_identity_items(20))


def _verify_fock_interior_exactness(rng):
    """The truncation checks of fock verify at five q and n = 8, 32, 64."""
    ok = all(
        passed
        for q_text in ("-1", "-1/2", "0", "1/3", "1")
        for n in (8, 32, 64)
        for _, passed in _truncation_items(GaussRat(q_text), n)
    )
    yield "fock_interior_exactness", True, ok


def _verify_biorthogonality(rng):
    """Five random biorthogonal systems at q = 1 and five at q = 1/2, of
    2 to 32 weights a/b with 1 <= a, b <= 60."""
    from . import fock

    ok = True
    for q_text in ("1", "1/2"):
        q0 = GaussRat(q_text)
        for _ in range(5):
            weights = [GaussRat(rng.randint(1, 60)) / GaussRat(rng.randint(1, 60))
                       for _ in range(rng.randint(2, 32))]
            system = fock.biorthogonal_pair(weights, q0)
            ok = ok and all(passed for _, passed in _biorthogonal_items(system))
    yield "biorthogonality", True, ok


def _verify_shifted_pair(rng):
    """The shifted pseudoboson pair's commutator constants are a_sh's."""
    from . import catalog, fock

    sp = fock.shifted_pair(GaussRat(1), GaussRat(0, 1), 8)
    ash = catalog.get("a_sh").algebra
    expected = {pair: vec.get(4) for pair, vec in ash.brackets.items()}
    yield "shifted_pair_matches_a_sh", True, sp.extracted_constants() == expected


def _verify_similarity_transport(rng):
    """The CAR pair, monomial_rep(-1, 2), conjugated by 25 random invertible
    2x2 matrices stays exact; the size-8 monomial pair at three q transports its defect."""
    from . import fock
    from .linalg import SparseMatrix

    c, cdag = fock.monomial_rep(-1, 2)
    ok = (c @ cdag + cdag @ c) == SparseMatrix.identity(2)
    for _ in range(25):
        result = fock.similarity_transport([(c, cdag)], _random_invertible(rng, 2), GaussRat(-1))
        ok = ok and result.conjugation_exact and result.defects_transported[(0, 0)].is_zero()
    for q_text in ("0", "1/3", "1"):
        q0 = GaussRat(q_text)
        a, b = fock.monomial_rep(q0, 8)
        result = fock.similarity_transport([(a, b)], _random_invertible(rng, 8), q0)
        ok = ok and result.conjugation_exact
    yield "similarity_transport", True, ok


def _verify_cuntz_toeplitz(rng):
    """At d = 2, 3 and depth 1 to 4 every isometry defect lives on
    top-degree words, and l_i+ l_i - I reads -1 on each of them."""
    from . import fock

    ok = True
    for d in (2, 3):
        for depth in range(1, 5):
            ct = fock.cuntz_toeplitz(d, depth)
            top = [w for w, word in enumerate(ct.words) if len(word) == depth]
            diagonals = [ct.isometry_defect(i, i).diagonal() for i in range(d)]
            ok = ok and _defects_on_top_degree(ct) and all(
                diagonal[w] == GaussRat(-1) for diagonal in diagonals for w in top
            )
    yield "cuntz_toeplitz", True, ok


_BATTERY = (
    _verify_catalog,
    _verify_sl2,
    _verify_d_squared_zero,
    _verify_skjelbred_sund_round_trip,
    _verify_deformation,
    _verify_q_identity_suite,
    _verify_fock_interior_exactness,
    _verify_biorthogonality,
    _verify_shifted_pair,
    _verify_similarity_transport,
    _verify_cuntz_toeplitz,
)


def _random_invertible(rng: random.Random, n: int) -> SparseMatrix:
    from .linalg import SparseMatrix

    while True:
        data = {}
        for r in range(n):
            for c in range(n):
                if rng.random() < 0.7:
                    value = GaussRat(rng.randint(-5, 5))
                    if value:
                        data[(r, c)] = value
        mat = SparseMatrix(n, data)
        if mat.inverse() is not None:
            return mat

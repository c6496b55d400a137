"""Acceptance battery: one test per criterion, each printing a pass/fail
line, with the stated time budgets asserted where a budget is stated.
Everything is exact equality; there are no numerical tolerances outside the
float-only matrix mode (criterion 8 note)."""

import random
import time

from lieq import catalog
from lieq.cohomology import (
    Cochain,
    adjoint_rep,
    cohomology_dim,
    d_squared_check,
    derivation_dims,
    is_two_cocycle_trivial_coeffs,
    trivial_rep,
)
from lieq.deform import (
    deformation_is_lie,
    evaluate_at,
    jacobi_polynomial,
    make_linear_deformation,
    rigidity_report,
)
from lieq.exactnum import GaussRat, ZERO
from lieq.extend import central_extension, coboundary_shift_iso, induced_cocycle
from lieq.fock import (
    car_pair_2x2,
    biorthogonal_pair,
    cuntz_toeplitz,
    defect_is_corner_only,
    monomial_rep,
    number_operator_spectrum,
    q_int,
    qccr_defect,
    shifted_pair,
    similarity_transport,
    spectrum_closed_form,
)
from lieq.linalg import SparseMatrix, vec_add
from lieq.qheis import (
    free_identity_check,
    q_binomial,
    q_binomial_closed,
    q_reciprocal_checks,
    q_zero_expected,
    q_zero_products,
    subset_sum_binomial_check,
    verify_generalized_jacobi,
    verify_powandprod,
    verify_powandprod_reciprocal,
)


class Stopwatch:
    def __init__(self, label, budget_s=None):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, f"{self.label} exceeded {self.budget_s}s"


def nilpotent_entries_with_center():
    out = []
    for name in catalog.list_names():
        g = catalog.get(name).algebra
        if g.dim and g.is_nilpotent() is not None and g.center().dim > 0:
            out.append((name, g))
    return out


def test_criterion_01_catalog_integrity():
    with Stopwatch("1 catalog integrity", budget_s=2.0):
        for name in catalog.list_names():
            assert catalog.get(name).algebra.check_jacobi() is None, name
        assert catalog.get("n_3_2").signature() == catalog.get("h(1)").signature()
        assert catalog.get("n_5_4").signature() == catalog.get("h(2)").signature()
        h1ii = (
            catalog.get("h(1)")
            .algebra.direct_sum(catalog.get("abelian(1)").algebra)
            .direct_sum(catalog.get("abelian(1)").algebra)
        )
        assert catalog.get("n_5_2").signature() == h1ii.invariant_signature()
        assert catalog.get("n_5_2").signature() == catalog.get("a_sh").signature()


def test_criterion_02_dim5_distinct_signatures_golden():
    import json
    import pathlib

    with Stopwatch("2 dim-5 signatures distinct + golden"):
        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "dim5_signatures.json").read_text()
        )
        names = [f"n_5_{k}" for k in range(1, 10)]
        sigs = {}
        for name in names:
            sig = catalog.get(name).signature()
            sigs[name] = sig
            frozen = golden[name]
            doc = sig.to_doc()
            assert doc == frozen, name
        for a in range(9):
            for b in range(a + 1, 9):
                assert sigs[names[a]] != sigs[names[b]], (names[a], names[b])


def test_criterion_03_sl2_cohomology_and_rigidity():
    with Stopwatch("3 sl2 cohomology + rigidity", budget_s=1.0):
        g = catalog.get("sl2").algebra
        der, inn = derivation_dims(g)
        assert der == 3 and inn == 3
        assert cohomology_dim(1, g, adjoint_rep(g)) == 0
        report = rigidity_report(g)
        assert report.dim_h2 == 0
        assert report.orbit_tangent_dim == 6 == report.dim_b2
        assert report.nr_rigid and report.tangent_equals_b2


def test_criterion_04_d_squared_zero_everywhere():
    with Stopwatch("4 d^2 = 0 across the catalog"):
        for name in catalog.list_names():
            g = catalog.get(name).algebra
            for rep in (adjoint_rep(g), trivial_rep(g, 1)):
                for k in range(g.dim + 1):
                    assert d_squared_check(g, rep, k), (name, rep.kind, k)


def test_criterion_05_skjelbred_sund_round_trip():
    with Stopwatch("5 Skjelbred-Sund round trip + shift isos", budget_s=5.0):
        rng = random.Random(20260808)
        for name, g in nilpotent_entries_with_center():
            quotient, theta = induced_cocycle(g)
            rebuilt = central_extension(quotient.algebra, theta)
            assert rebuilt.invariant_signature() == g.invariant_signature(), name
            base = quotient.algebra
            if base.dim == 0:
                continue
            for _ in range(20):
                coords = {}
                for i in range(base.dim):
                    vec = {
                        k: GaussRat(rng.randint(-5, 5))
                        for k in range(theta.target_dim)
                    }
                    vec = {k: v for k, v in vec.items() if v}
                    if vec:
                        coords[(i,)] = vec
                c_prime = Cochain(base, 1, theta.target_dim, coords)
                coboundary_shift_iso(base, theta, c_prime)  # verifies intertwining


def test_criterion_06_deformation_engine():
    with Stopwatch("6 deformation engine"):
        # (a) zero base with catalog brackets
        for name in ("h(1)", "n_4_3", "n_5_6", "n_5_9", "sl2", "a_sh"):
            g = catalog.get(name).algebra
            base = catalog.get(f"abelian({g.dim})").algebra
            phi = Cochain(base, 2, g.dim, {p: dict(v) for p, v in g.brackets.items()})
            assert deformation_is_lie(make_linear_deformation(base, phi)) is None, name
        # (b) graded consistency on 50 randomized cases
        rng = random.Random(77)
        for _ in range(50):
            name = rng.choice(["h(1)", "n_4_3", "n_5_5", "n_5_7", "abelian(4)"])
            g = catalog.get(name).algebra
            coords = {}
            for _ in range(rng.randint(1, 5)):
                i, j = sorted(rng.sample(range(g.dim), 2))
                coords.setdefault((i, j), {})[rng.randrange(g.dim)] = GaussRat(
                    rng.randint(-4, 4)
                )
            phi = Cochain(g, 2, g.dim, coords)
            d = make_linear_deformation(g, phi)
            t0 = GaussRat(rng.randint(-4, 4), rng.randint(-2, 2))
            evaluated = evaluate_at(d, t0, allow_non_lie=True)
            expansion = jacobi_polynomial(d)
            for i in range(g.dim):
                for j in range(i + 1, g.dim):
                    for k in range(j + 1, g.dim):
                        direct = {}
                        for key, value in evaluated.bracket(
                            {i: GaussRat(1)}, evaluated.pair(j, k)
                        ).items():
                            direct[key] = direct.get(key, ZERO) + value
                        for key, value in evaluated.bracket(
                            {j: GaussRat(1)}, evaluated.pair(k, i)
                        ).items():
                            direct[key] = direct.get(key, ZERO) + value
                        for key, value in evaluated.bracket(
                            {k: GaussRat(1)}, evaluated.pair(i, j)
                        ).items():
                            direct[key] = direct.get(key, ZERO) + value
                        direct = {key: v for key, v in direct.items() if v}
                        from_table = {}  # sum over c of t0^c * table[c]
                        for c, vec in expansion.get((i, j, k), {}).items():
                            vec_add(from_table, vec, t0 ** c)
                        assert direct == from_table
        # (c) the documented counterexample behind the honest filter
        h1 = catalog.get("h(1)").algebra
        counter = Cochain(h1, 2, 3, {(0, 2): {0: 1}})
        assert is_two_cocycle_trivial_coeffs(counter)
        defect = deformation_is_lie(make_linear_deformation(h1, counter))
        assert defect is not None and defect.degree == 1


def test_criterion_07_q_identity_suite():
    with Stopwatch("7 q-identity suite", budget_s=10.0):
        for n in range(1, 21):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial_closed(n, k)
        for n in range(1, 13):
            assert verify_powandprod(n)
        for q_text in ("-1", "-1/2", "1/3", "2"):
            q0 = GaussRat(q_text)
            for n in range(1, 9):
                assert verify_powandprod_reciprocal(n, q0)
                assert bool(q_reciprocal_checks(n, min(2, n), q0))
        for n in range(1, 7):
            assert verify_generalized_jacobi("bnan", n)
            assert verify_generalized_jacobi("anbn", n)
            for m in range(1, 7):
                assert verify_generalized_jacobi("bracketBmAn", n, m)
        for which in ("bilinear", "antisym1", "antisym2", "jacobi1", "jacobi2", "jacobi3"):
            assert free_identity_check(which)
        for n in range(1, 9):
            for m in range(1, 9):
                assert q_zero_products(n, m) == q_zero_expected(n, m)
            for k in range(n + 1):
                assert subset_sum_binomial_check(n, k).corrected_matches


def test_criterion_08_fock_interior_exactness():
    with Stopwatch("8 Fock interior exactness", budget_s=3.0):
        for q_text in ("-1", "-1/2", "0", "1/3", "1"):
            q0 = GaussRat(q_text)
            for n in (8, 32, 64):
                a, b = monomial_rep(q0, n)
                defect = qccr_defect(a, b, q0)
                assert defect_is_corner_only(defect, q0)
                assert defect.get(n - 1, n - 1) == -q_int(n, q0)
                assert number_operator_spectrum(a, b) == spectrum_closed_form(q0, n)


def test_criterion_09_biorthogonality():
    with Stopwatch("9 biorthogonality"):
        rng = random.Random(9)
        for trial in range(10):
            q0 = GaussRat("1/2") if trial % 2 else GaussRat(1)
            size = rng.randint(2, 32)
            weights = [
                GaussRat(rng.randint(1, 60)) / GaussRat(rng.randint(1, 60))
                for _ in range(size)
            ]
            system = biorthogonal_pair(weights, q0)
            assert system.pairing_matrix() == SparseMatrix.identity(size)
            assert system.squared_ladder_coefficients() == [
                q_int(m + 1, q0) for m in range(size - 1)
            ]


def test_criterion_10_shifted_pair_is_a_sh():
    with Stopwatch("10 shifted pair reproduces a_sh"):
        sp = shifted_pair(GaussRat(1), GaussRat(0, 1), 8)
        ash = catalog.get("a_sh").algebra
        expected = {pair: vec[4] for pair, vec in ash.brackets.items()}
        consts = sp.extracted_constants()
        assert consts == expected
        # all ten commutators: the four marked pairs give the identity on
        # the interior, every other pair commutes
        for i in range(5):
            for j in range(i + 1, 5):
                names = (sp.BASIS[i], sp.BASIS[j])
                scalar = sp.interior_commutator_scalar(*names)
                assert scalar == expected.get((i, j), ZERO)


def test_criterion_11_similarity_theorem():
    with Stopwatch("11 similarity transport"):
        rng = random.Random(11)
        c, cdag = car_pair_2x2()
        assert (c @ cdag + cdag @ c) == SparseMatrix.identity(2)
        done = 0
        while done < 25:
            data = {
                (r, col): GaussRat(rng.randint(-9, 9))
                for r in range(2)
                for col in range(2)
            }
            t = SparseMatrix(2, {k: v for k, v in data.items() if v})
            if t.inverse() is None:
                continue
            result = similarity_transport([(c, cdag)], t, GaussRat(-1))
            assert result.conjugation_exact
            assert result.defects_transported[(0, 0)].is_zero()
            done += 1
        for q_text in ("0", "1/3", "1"):
            q0 = GaussRat(q_text)
            a, b = monomial_rep(q0, 8)
            while True:
                data = {
                    (r, col): GaussRat(rng.randint(-3, 3))
                    for r in range(8)
                    for col in range(8)
                    if rng.random() < 0.4
                }
                data.update({(i, i): GaussRat(rng.randint(1, 5)) for i in range(8)})
                t = SparseMatrix(8, data)
                if t.inverse() is not None:
                    break
            result = similarity_transport([(a, b)], t, q0)
            assert result.conjugation_exact


def test_criterion_12_cuntz_toeplitz():
    with Stopwatch("12 Cuntz-Toeplitz isometries", budget_s=5.0):
        for d in (2, 3):
            for depth in (1, 2, 3, 4):
                ct = cuntz_toeplitz(d, depth)
                for i in range(d):
                    for j in range(d):
                        defect = ct.isometry_defect(i, j)
                        assert ct.defect_supported_on_top_degree(i, j)
                        for w, word in enumerate(ct.words):
                            if len(word) < depth:
                                assert defect.get(w, w) == ZERO
                            elif i == j:
                                assert defect.get(w, w) == GaussRat(-1)

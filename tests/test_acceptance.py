"""Acceptance battery: one test per criterion, each printing a pass/fail
line, with the stated time budgets asserted where a budget is stated.
Each test runs the verify-all entries of its criterion (checks._BATTERY) and
asserts every item they yield; a criterion keeps in this file only what no
entry checks: the golden signatures, the 50 graded-consistency cases and
the reciprocal q-identities.  Everything is exact equality; there are no
numerical tolerances outside the float-only matrix mode (criterion 8
note)."""

import random
import time

from lieq import catalog, checks
from lieq.cohomology import Cochain
from lieq.deform import evaluate_at, jacobi_polynomial, make_linear_deformation
from lieq.exactnum import GaussRat, ZERO
from lieq.linalg import vec_add
from lieq.qheis import q_reciprocal_checks


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


def run_entries(*entries, rng=None):
    """Assert every (name, expected, actual) item of the given entries."""
    for entry in entries:
        for name, expected, actual in entry(rng):
            assert expected == actual, (name, expected, actual)


def test_criterion_01_catalog_integrity():
    with Stopwatch("1 catalog integrity", budget_s=2.0):
        run_entries(checks._verify_catalog)


def test_criterion_02_dim5_distinct_signatures_golden():
    import json
    import pathlib

    with Stopwatch("2 dim-5 signatures distinct + golden"):
        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "dim5_signatures.json").read_text()
        )
        for name in [f"n_5_{k}" for k in range(1, 10)]:
            assert catalog.get(name).signature().to_doc() == golden[name], name
        run_entries(checks._verify_catalog)  # the 36 pairs are distinct


def test_criterion_03_sl2_cohomology_and_rigidity():
    with Stopwatch("3 sl2 cohomology + rigidity", budget_s=1.0):
        run_entries(checks._verify_sl2)


def test_criterion_04_d_squared_zero_everywhere():
    with Stopwatch("4 d^2 = 0 across the catalog"):
        run_entries(checks._verify_d_squared_zero)


def test_criterion_05_skjelbred_sund_round_trip():
    with Stopwatch("5 Skjelbred-Sund round trip + shift isos", budget_s=5.0):
        run_entries(checks._verify_skjelbred_sund_round_trip, rng=random.Random(20260808))


def test_criterion_06_deformation_engine():
    with Stopwatch("6 deformation engine"):
        # zero base with catalog brackets; the counterexample behind the
        # honest filter fails Jacobi at degree 1
        run_entries(checks._verify_deformation)
        # graded consistency on 50 randomized cases
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


def test_criterion_07_q_identity_suite():
    with Stopwatch("7 q-identity suite", budget_s=10.0):
        run_entries(checks._verify_q_identity_suite)
        for q_text in ("-1", "-1/2", "1/3", "2"):
            q0 = GaussRat(q_text)
            for n in range(1, 9):
                assert bool(q_reciprocal_checks(n, min(2, n), q0))


def test_criterion_08_fock_interior_exactness():
    with Stopwatch("8 Fock interior exactness", budget_s=3.0):
        run_entries(checks._verify_fock_interior_exactness)


def test_criterion_09_biorthogonality():
    with Stopwatch("9 biorthogonality"):
        run_entries(checks._verify_biorthogonality, rng=random.Random(9))


def test_criterion_10_shifted_pair_is_a_sh():
    with Stopwatch("10 shifted pair reproduces a_sh"):
        run_entries(checks._verify_shifted_pair)


def test_criterion_11_similarity_theorem():
    with Stopwatch("11 similarity transport"):
        run_entries(checks._verify_similarity_transport, rng=random.Random(11))


def test_criterion_12_cuntz_toeplitz():
    with Stopwatch("12 Cuntz-Toeplitz isometries", budget_s=5.0):
        run_entries(checks._verify_cuntz_toeplitz)

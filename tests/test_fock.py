import random
import warnings

import pytest

from lieq import catalog
from lieq.exactnum import GaussRat, I, ONE, ZERO
from lieq.fock import (
    AlphaEqualsBeta,
    NonpositiveWeight,
    SingularT,
    SingularWeight,
    SizeCap,
    biorthogonal_pair,
    cuntz_toeplitz,
    defect_is_corner_only,
    monomial_rep,
    number_operator_spectrum,
    orthonormal_rep_float,
    qccr_defect,
    shifted_pair,
    similarity_transport,
    spectrum_closed_form,
    weighted_adjoint,
)
from lieq.linalg import SparseMatrix
from lieq.qheis import parse_qexpr, q_integer, q_integers_at

HALF = GaussRat("1/2")
THIRD = GaussRat("1/3")


def test_monomial_rep_weights():
    a, _ = monomial_rep(1, 3)
    assert [a.get(m, m + 1) for m in range(2)] == [GaussRat(1), GaussRat(2)]
    a0, _ = monomial_rep(0, 5)
    assert all(a0.get(m, m + 1) == ONE for m in range(4))
    ah, _ = monomial_rep(HALF, 4)
    assert [ah.get(m, m + 1) for m in range(3)] == [GaussRat(1), GaussRat("3/2"), GaussRat("7/4")]


def test_raising_is_plain_shift():
    _, b = monomial_rep(HALF, 4)
    assert b.apply({0: ONE}) == {1: ONE}
    assert b.apply({3: ONE}) == {}


@pytest.mark.parametrize("q_text", ["-1", "-1/2", "0", "1/3", "1"])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_defect_contract(q_text, n):
    q0 = GaussRat(q_text)
    a, b = monomial_rep(q0, n)
    defect = qccr_defect(a, b, q0)
    assert defect_is_corner_only(defect, q0)
    # interior rows exactly zero: {m+1}_q - q {m}_q = 1 telescopes
    for m in range(n - 1):
        assert defect.get(m, m) == ZERO
    assert defect.get(n - 1, n - 1) == -q_integers_at(n, q0)[-1]


def test_corner_values():
    a, b = monomial_rep(1, 4)
    assert qccr_defect(a, b, 1).get(3, 3) == GaussRat(-4)
    a, b = monomial_rep(0, 7)
    assert qccr_defect(a, b, 0).get(6, 6) == GaussRat(-1)


def test_spectrum():
    a, b = monomial_rep(1, 6)
    assert number_operator_spectrum(a, b) == [GaussRat(m) for m in range(6)]
    a, b = monomial_rep(HALF, 4)
    assert [str(x) for x in number_operator_spectrum(a, b)] == ["0", "1", "3/2", "7/4"]
    a, b = monomial_rep(-1, 6)
    assert number_operator_spectrum(a, b) == [GaussRat(m % 2) for m in range(6)]
    for q_text in ("-1", "-1/2", "0", "1/3", "1"):
        q0 = GaussRat(q_text)
        a, b = monomial_rep(q0, 9)
        assert number_operator_spectrum(a, b) == spectrum_closed_form(q0, 9)


def test_weighted_adjoint_basics():
    a, b = monomial_rep(1, 5)
    assert weighted_adjoint(b, 1, 5) == a
    assert weighted_adjoint(a, 1, 5) == b
    eye = SparseMatrix.identity(5)
    assert weighted_adjoint(eye, 1, 5) == eye
    with pytest.raises(SingularWeight):
        weighted_adjoint(b, -1, 5)


@pytest.mark.parametrize("seed", range(4))
def test_weighted_adjoint_involution_and_antihomomorphism(seed):
    rng = random.Random(seed)
    n = 5
    q0 = GaussRat("1/3")

    def random_sparse():
        data = {}
        for _ in range(6):
            r, c = rng.randrange(n), rng.randrange(n)
            data[(r, c)] = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
        return SparseMatrix(n, data)

    x, y = random_sparse(), random_sparse()
    dag = lambda m: weighted_adjoint(m, q0, n)
    assert dag(dag(x)) == x
    assert dag(x @ y) == dag(y) @ dag(x)


def test_shifted_pair_matches_a_sh():
    sp = shifted_pair(GaussRat(1), I, 8)
    consts = sp.extracted_constants()
    ash = catalog.get("a_sh").algebra
    assert consts == {pair: vec[4] for pair, vec in ash.brackets.items()}
    # [A, B-dagger] = 0 exactly, all entries, not just interior
    assert sp.commutators[("v1", "v3")].is_zero()
    assert sp.commutators[("v2", "v4")].is_zero()
    # identity commutes with everything exactly
    for name in ("v1", "v2", "v3", "v4"):
        assert sp.commutators[(name, "v")].is_zero()


def test_shifted_pair_interior_identity():
    sp = shifted_pair(GaussRat(1), I, 6)
    assert sp.interior_commutator_scalar("v1", "v2") == ONE
    assert sp.interior_commutator_scalar("v3", "v4") == ONE
    assert sp.interior_commutator_scalar("v1", "v4") == ONE
    assert sp.interior_commutator_scalar("v2", "v3") == -ONE


def test_shifted_pair_alpha_equals_beta_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shifted_pair(GaussRat(2), GaussRat(2), 4)
    assert any(issubclass(w.category, AlphaEqualsBeta) for w in caught)


def test_biorthogonal_trivial_weights():
    system = biorthogonal_pair([1, 1, 1], 1)
    assert system.phi == [{m: ONE} for m in range(3)]
    assert system.psi == [{m: ONE} for m in range(3)]
    assert system.pairing_matrix() == SparseMatrix.identity(3)


def test_biorthogonal_pairing_and_ladder():
    system = biorthogonal_pair([1, 2, 3, 4], 1)
    assert system.pairing_matrix() == SparseMatrix.identity(4)
    assert system.squared_ladder_coefficients() == [GaussRat(m + 1) for m in range(3)]
    s2 = biorthogonal_pair([GaussRat(1), HALF, GaussRat(5)], HALF)
    assert s2.squared_ladder_coefficients()[0] == ONE  # {1}_q = 1
    assert s2.squared_ladder_coefficients() == q_integers_at(2, HALF)[1:]


def test_biorthogonal_rejects_bad_weights():
    with pytest.raises(NonpositiveWeight):
        biorthogonal_pair([1, -2, 3], 1)
    with pytest.raises(NonpositiveWeight):
        biorthogonal_pair([1, I, 3], 1)


def test_car_pair_transport_exact():
    """The CAR pair C, C-dagger with CC+ + C+C = I is the size-2 monomial
    pair at q = -1."""
    c, cdag = monomial_rep(-1, 2)
    assert cdag == c.conj_transpose()
    assert (c @ cdag + cdag @ c) == SparseMatrix.identity(2)
    rng = random.Random(11)
    for _ in range(25):
        data = {}
        while True:
            data = {
                (r, col): GaussRat(rng.randint(-6, 6))
                for r in range(2)
                for col in range(2)
            }
            data = {k: v for k, v in data.items() if v}
            t = SparseMatrix(2, data)
            if t.inverse() is not None:
                break
        result = similarity_transport([(c, cdag)], t, -1)
        assert result.conjugation_exact
        assert result.defects_transported[(0, 0)].is_zero()


def test_transport_with_identity_is_identity():
    a, b = monomial_rep(THIRD, 5)
    result = similarity_transport([(a, b)], SparseMatrix.identity(5), THIRD)
    assert result.transported[0][0] == a
    assert result.transported[0][1] == b
    assert result.conjugation_exact


@pytest.mark.parametrize("q_text", ["0", "1/3", "1"])
def test_truncated_defect_conjugation(q_text):
    q0 = GaussRat(q_text)
    rng = random.Random(hash(q_text) & 0xFFFF)
    a, b = monomial_rep(q0, 6)
    diag = SparseMatrix(6, {(i, i): GaussRat(rng.randint(1, 9)) for i in range(6)})
    result = similarity_transport([(a, b)], diag, q0)
    assert result.conjugation_exact
    corner = result.defects_source[(0, 0)].get(5, 5)
    assert corner == -q_integers_at(6, q0)[-1]


def test_transport_rejects_singular():
    a, b = monomial_rep(1, 3)
    bad = SparseMatrix(3, {(0, 0): ONE, (1, 0): ONE})
    with pytest.raises(SingularT):
        similarity_transport([(a, b)], bad, 1)


def test_cuntz_toeplitz_small():
    ct = cuntz_toeplitz(2, 2)
    assert ct.dim == 7
    assert ct.words == ["", "1", "2", "11", "12", "21", "22"]
    for i in range(2):
        for j in range(2):
            defect = ct.isometry_defect(i, j)
            assert ct.defect_supported_on_top_degree(i, j)
            for w, word in enumerate(ct.words):
                if len(word) < 2:
                    assert defect.get(w, w) == ZERO


def test_cuntz_single_letter_matches_monomial_q0():
    ct = cuntz_toeplitz(1, 4)
    a0, b0 = monomial_rep(0, 5)
    assert ct.operators[0] == b0
    assert ct.operators[0].conj_transpose() == a0


def test_cuntz_batch_d3():
    ct = cuntz_toeplitz(3, 3)
    assert ct.dim == 40
    for i in range(3):
        for j in range(3):
            assert ct.defect_supported_on_top_degree(i, j)


def test_cuntz_size_cap(monkeypatch):
    monkeypatch.setenv("LIEQ_SIZE_CAP", "100")
    with pytest.raises(SizeCap):
        cuntz_toeplitz(3, 4)


def test_library_calls_read_the_size_cap(monkeypatch):
    """The bounds live in the engines, not only behind the command line."""
    monkeypatch.setenv("LIEQ_SIZE_CAP", "100")
    assert monomial_rep(1, 10)[0].n == 10 and len(orthonormal_rep_float(0.5, 10)) == 9
    with pytest.raises(SizeCap, match="^11x11 matrix exceeds LIEQ_SIZE_CAP$"):
        monomial_rep(1, 11)
    with pytest.raises(SizeCap, match="^11x11 matrix exceeds LIEQ_SIZE_CAP$"):
        orthonormal_rep_float(0.5, 11)
    assert len(parse_qexpr("A^100").terms) == 1
    with pytest.raises(SizeCap, match="^a word of 101 letters exceeds LIEQ_SIZE_CAP = 100$"):
        parse_qexpr("A^101")


def test_float_mode():
    assert orthonormal_rep_float(1.0, 5) == pytest.approx([1, 2**0.5, 3**0.5, 2.0])
    assert orthonormal_rep_float(0.0, 6) == pytest.approx([1.0] * 5)
    n = 64
    q0 = 0.5
    beta = orthonormal_rep_float(q0, n)
    assert len(beta) == n - 1
    # C has the superdiagonal beta, so C C+ - q C+ C - I is diagonal with
    # entries beta_m^2 - q beta_{m-1}^2 - 1 (beta_{-1} = beta_{N-1} = 0)
    c_cdag = [b * b for b in beta] + [0.0]
    cdag_c = [0.0] + [b * b for b in beta]
    residual = [x - q0 * y - 1.0 for x, y in zip(c_cdag, cdag_c)]
    assert max(abs(r) for r in residual[: n - 1]) < 1e-10


def test_interior_consistency_with_symbolic_identities():
    # A^n B = q^n B A^n + {n}_q A^{n-1} and its AB^n twin, substituted as
    # matrices, hold on the truncation interior (mask the top rows/cols for
    # the word length)
    for q_text in ("-1", "0", "1/2"):
        q0 = GaussRat(q_text)
        n_dim = 10
        a, b = monomial_rep(q0, n_dim)
        for n in (1, 2, 3):
            weight = q_integer(n).eval(q0)
            pairs = [
                (
                    _word_power(a, n) @ b,
                    (b @ _word_power(a, n)).scale(q0 ** n)
                    + _word_power(a, n - 1).scale(weight),
                ),
                (
                    a @ _word_power(b, n),
                    (_word_power(b, n) @ a).scale(q0 ** n)
                    + _word_power(b, n - 1).scale(weight),
                ),
            ]
            mask = n + 1
            for lhs, rhs in pairs:
                for r in range(n_dim - mask):
                    for c in range(n_dim - mask):
                        assert lhs.get(r, c) == rhs.get(r, c), (q_text, n, r, c)


def _word_power(mat: SparseMatrix, n: int) -> SparseMatrix:
    out = SparseMatrix.identity(mat.n)
    for _ in range(n):
        out = out @ mat
    return out

import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from lieq import cli
from lieq.exactnum import GaussRat, NonDivisible
from lieq.laurent import LaurentPoly
from lieq.qheis import (
    MAX_NESTING,
    A,
    B,
    NormalForm,
    bracket_powers,
    QExpr,
    QZero,
    commutator,
    free_identity_check,
    normal_order,
    parse_qexpr,
    q_binomial,
    q_binomial_closed,
    q_binomial_row,
    q_factorial,
    q_integer,
    q_mutator,
    q_reciprocal_checks,
    q_zero_expected,
    q_zero_products,
    subset_sum_binomial_check,
    verify_generalized_jacobi,
    verify_identity,
    verify_powandprod,
    verify_powandprod_reciprocal,
)

q = LaurentPoly.gen()


def test_q_integer_examples():
    assert q_integer(3) == 1 + q + q**2
    assert q_integer(1) == LaurentPoly.const(1)
    assert q_integer(0).is_zero()


def test_q_factorial():
    assert q_factorial(0) == LaurentPoly.const(1)
    assert q_factorial(3) == q_integer(1) * q_integer(2) * q_integer(3)


def test_q_binomial_examples():
    assert q_binomial(2, 1) == 1 + q
    assert q_binomial(5, 5) == LaurentPoly.const(1)
    assert q_binomial(3, 7).is_zero()
    assert q_binomial(4, 2) == 1 + q + 2 * q**2 + q**3 + q**4


@pytest.mark.parametrize("n", range(41))
def test_binomial_recursion_equals_closed_form(n):
    for k in range(n + 1):
        assert q_binomial(n, k) == q_binomial_closed(n, k)


def test_binomial_symmetry():
    for n in range(1, 10):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
    for n in range(41):
        for k in range(n + 1):
            assert q_binomial_closed(n, k) == q_binomial_closed(n, n - k)


def test_q_binomial_of_a_long_row():
    # a memoized Pascal recursion over (n, k) ran out of stack here
    assert q_binomial(1200, 3) == q_binomial_closed(1200, 3)
    assert q_binomial(1200, 1197) == q_binomial_closed(1200, 3)


@pytest.mark.parametrize("n", range(13))
def test_q_binomial_row_matches_closed_form(n):
    for top in range(n + 1):
        assert q_binomial_row(n, top) == [q_binomial_closed(n, k) for k in range(top + 1)]


def test_no_module_keeps_an_lru_cache():
    """q-binomials and q-factorials are computed per call; nothing in the
    package memoizes across calls with functools."""
    package = Path(q_binomial.__code__.co_filename).parent
    assert [path.name for path in package.glob("*.py") if "lru_cache" in path.read_text()] == []


@pytest.mark.parametrize("n", range(6))
def test_binomials_vanish_outside_zero_to_n(n):
    for k in (-2, -1, n + 1, n + 2):
        assert q_binomial(n, k).is_zero()
        assert q_binomial_closed(n, k).is_zero()


def test_reciprocal_checks():
    report = q_reciprocal_checks(3, 2, GaussRat(2))
    assert bool(report)
    # {3}_{1/2} = 7/4 equals (2/2^3) * {3}_q(2) = 7/4
    assert q_integer(3).eval(GaussRat("1/2")) == GaussRat("7/4")
    assert not report.factorial_printed_matches  # the printed form drops a factorial
    assert bool(q_reciprocal_checks(1, 0, GaussRat(5)))
    assert bool(q_reciprocal_checks(4, 2, GaussRat(3)))
    for q0 in ("-1", "-1/2", "1/3", "2"):
        for n in range(1, 7):
            for k in range(n + 1):
                assert bool(q_reciprocal_checks(n, k, GaussRat(q0)))


def test_reciprocal_at_zero_raises():
    with pytest.raises(QZero):
        q_reciprocal_checks(3, 1, 0)


def test_subset_sum():
    r21 = subset_sum_binomial_check(2, 1)
    assert r21.corrected_matches
    assert r21.corrected == 1 + q
    rnn = subset_sum_binomial_check(5, 5)
    assert rnn.corrected_matches and rnn.corrected == LaurentPoly.const(1)
    r42 = subset_sum_binomial_check(4, 2)
    assert r42.corrected_matches
    assert not r42.printed_matches  # the printed summand is not even integral
    for n in range(1, 9):
        for k in range(n + 1):
            assert subset_sum_binomial_check(n, k).corrected_matches


def test_normal_order_ab():
    nf = normal_order(A() * B())
    assert nf == NormalForm({(1, 1): q, (0, 0): 1})


def test_normal_order_fixed_points():
    word = B() ** 3 * A() ** 2
    assert normal_order(word) == NormalForm({(3, 2): 1})
    assert normal_order(QExpr.unit()) == NormalForm({(0, 0): 1})


def test_normal_order_ab_squared():
    # AB^2 = q^2 B^2 A + (1 + q) B
    assert normal_order(A() * B() ** 2) == NormalForm({(2, 1): q**2, (1, 0): 1 + q})


def test_verify_identity_basics():
    assert verify_identity(A() * B(), q * (B() * A()) + QExpr.unit())
    assert not verify_identity(A(), B())


@pytest.mark.parametrize("n", range(1, 13))
def test_powandprod(n):
    assert verify_powandprod(n)


def test_powandprod_reciprocal():
    assert verify_powandprod_reciprocal(1, GaussRat("1/2"))
    assert verify_powandprod_reciprocal(2, GaussRat(-1))
    for q0 in ("-1", "-1/2", "1/3", "2"):
        for n in range(1, 9):
            assert verify_powandprod_reciprocal(n, GaussRat(q0))
    with pytest.raises(QZero):
        verify_powandprod_reciprocal(2, 0)


def test_bracket_bman_example():
    # [B, BA] = (1 - q) B^2 A - B
    word = B() * A()
    lhs = normal_order(B() * word - word * B())
    assert lhs == NormalForm({(2, 1): 1 - q, (1, 0): -1})
    assert verify_generalized_jacobi("bracketBmAn", 1, 1)


def test_bnan_n1_cleared():
    # (q - 1) BA = -I + (AB - BA) after clearing
    lhs = (q - 1) * (B() * A())
    rhs = -1 * QExpr.unit() + commutator(A(), B())
    assert verify_identity(lhs, rhs)
    assert verify_generalized_jacobi("bnan", 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_generalized_jacobi_families(n):
    assert verify_generalized_jacobi("bnan", n)
    assert verify_generalized_jacobi("anbn", n)
    for m in range(1, 7):
        assert verify_generalized_jacobi("bracketBmAn", n, m)


def test_q_zero_products():
    assert q_zero_products(2, 2) == NormalForm({(0, 0): 1})
    assert q_zero_products(3, 1) == NormalForm({(0, 2): 1})
    assert q_zero_products(1, 4) == NormalForm({(3, 0): 1})
    for n in range(1, 9):
        for m in range(1, 9):
            assert q_zero_products(n, m) == q_zero_expected(n, m)


def test_free_identities_symbolic():
    for which in ("bilinear", "antisym1", "antisym2", "jacobi1", "jacobi2", "jacobi3"):
        assert free_identity_check(which)


def test_free_identities_at_points():
    for q0 in ("1", "-1", "1/2"):
        for which in ("bilinear", "antisym2", "jacobi1", "jacobi2", "jacobi3"):
            assert free_identity_check(which, GaussRat(q0))
    assert free_identity_check("antisym1", GaussRat("1/2"))
    with pytest.raises(QZero):
        free_identity_check("antisym1", 0)


def test_free_expansion_sanity():
    a, b = QExpr.word("A"), QExpr.word("B")
    out = q_mutator(a, b)
    assert out.terms == {"AB": LaurentPoly.const(1), "BA": -q}


words = st.text(alphabet="AB", min_size=0, max_size=10)


@given(words, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_rewrite_order_does_not_matter(word, seed):
    rng = random.Random(seed)
    expected = normal_order(QExpr.word(word))
    randomized = oracles.random_order_normal_form(word, rng)
    assert NormalForm(randomized) == expected


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_normal_order_is_multiplicative(w1, w2):
    left = QExpr.word(w1)
    right = QExpr.word(w2)
    direct = normal_order(left * right)
    staged = normal_order(normal_order(left).to_qexpr() * normal_order(right).to_qexpr())
    assert direct == staged


@given(words)
@settings(max_examples=40, deadline=None)
def test_specialization_coherence(word):
    for q0 in (GaussRat(0), GaussRat(-1), GaussRat("1/2"), GaussRat("1+i"), GaussRat(3)):
        symbolic = normal_order(QExpr.word(word)).evaluate(q0)
        direct = normal_order(QExpr.word(word), q_value=q0)
        assert symbolic == direct


def _closed_anbn(b: int, c: int) -> NormalForm:
    """A^b B^c = sum_k q^{(b-k)(c-k)} {b,k}_q {c,k}_q {k}_q! B^{c-k} A^{b-k},
    from the Pascal q-binomials."""
    return NormalForm({
        (c - k, b - k): LaurentPoly.monomial((b - k) * (c - k))
        * (q_factorial(k) * q_binomial(b, k) * q_binomial(c, k))
        for k in range(min(b, c) + 1)
    })


def test_anbn_matches_closed_form():
    for b in range(13):
        for c in range(13):
            assert normal_order(A() ** b * B() ** c) == _closed_anbn(b, c), (b, c)


def test_anbn_diagonal_matches_closed_form():
    # of all words with n A's and n B's, A^n B^n has the largest slot bound, (1 + n)^n
    for n in range(13, 33):
        assert normal_order(A() ** n * B() ** n) == _closed_anbn(n, n), n


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
laurent_coeffs = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.builds(GaussRat, small_rationals, small_rationals),
    min_size=1,
    max_size=3,
).map(LaurentPoly)


@given(
    st.dictionaries(st.text(alphabet="AB", max_size=14), laurent_coeffs, min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_normal_order_of_sums_matches_random_order(terms, seed):
    rng = random.Random(seed)
    expected = {}
    for word, coeff in terms.items():
        for key, value in oracles.random_order_normal_form(word, rng).items():
            expected[key] = expected.get(key, 0) + coeff * value
    assert normal_order(QExpr(terms)) == NormalForm(expected)


@given(st.dictionaries(st.text(alphabet="AB", max_size=10), laurent_coeffs, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_specialization_coherence_with_laurent_coefficients(terms):
    symbolic = normal_order(QExpr(terms))
    for q0 in (GaussRat(-1), GaussRat("1/2"), GaussRat("1+i")):
        assert symbolic.evaluate(q0) == normal_order(QExpr(terms), q_value=q0)


def test_q_equal_one_collapses_to_weyl():
    assert normal_order(commutator(A(), B()), q_value=1) == NormalForm({(0, 0): 1})
    # AB^n = B^n A + n B^{n-1} at q = 1
    for n in range(1, 6):
        lhs = normal_order(A() * B() ** n, q_value=1)
        rhs = NormalForm({(n, 1): 1, (n - 1, 0): n})
        assert lhs == rhs


def test_parser():
    assert normal_order(parse_qexpr("A*B*B - q*B")) == NormalForm(
        {(2, 1): q**2, (1, 0): 1}
    )
    assert parse_qexpr("2/3*I").terms == {"": LaurentPoly.const(GaussRat("2/3"))}
    assert parse_qexpr("q^-2") == QExpr.unit(LaurentPoly.monomial(-2))
    assert parse_qexpr("(A+B)^2") == parse_qexpr("A^2 + A*B + B*A + B^2")
    with pytest.raises(ValueError):
        parse_qexpr("A**B")
    with pytest.raises(ValueError):
        parse_qexpr("x + 1")


def test_closed_form_never_leaves_remainder():
    # exercised through q_binomial_closed; a remainder would raise
    for n in range(1, 13):
        for k in range(n + 1):
            q_binomial_closed(n, k)
    with pytest.raises(NonDivisible):
        (q + 2).divexact(q + 1)


def test_normal_order_long_word_does_not_recurse():
    # AB^n = q^n B^n A + {n}_q B^{n-1}, far beyond the interpreter's recursion limit
    n = 1200
    assert normal_order(A() * B() ** n) == NormalForm(
        {(n, 1): LaurentPoly.monomial(n), (n - 1, 0): q_integer(n)}
    )


# -- words grouped by shared coefficient ----------------------------------------

# few distinct coefficients, so that normal_order's groups hold many words
COEFF_POOL = [
    LaurentPoly.const(1),
    LaurentPoly.const(-1),
    q,
    -q,
    2 - q,
    LaurentPoly.const(GaussRat("1/2", 1)),
]


def _oracle_sum(terms, rng) -> NormalForm:
    expected = {}
    for word, coeff in terms.items():
        for key, value in oracles.random_order_normal_form(word, rng).items():
            expected[key] = expected.get(key, 0) + coeff * value
    return NormalForm(expected)


@given(
    st.dictionaries(st.text(alphabet="AB", max_size=10), st.sampled_from(COEFF_POOL), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_grouped_normal_order_matches_random_order(terms, seed):
    symbolic = normal_order(QExpr(terms))
    assert symbolic == _oracle_sum(terms, random.Random(seed))
    for q0 in (GaussRat(-1), GaussRat("1/2"), GaussRat("1+i")):
        assert normal_order(QExpr(terms), q_value=q0) == symbolic.evaluate(q0)


def test_group_that_cancels_at_a_point_is_dropped():
    # AB + BA = (1 + q) BA + 1, whose BA term vanishes at q = -1
    expr = QExpr({"AB": 1, "BA": 1})
    assert normal_order(expr) == NormalForm({(1, 1): 1 + q, (0, 0): 1})
    assert normal_order(expr, q_value=-1) == NormalForm({(0, 0): 1})


@pytest.mark.parametrize("k", range(7))
def test_power_of_the_defining_relation_is_one(k):
    # AB - qBA = 1, so every power of the q-mutator normal-orders to 1
    assert normal_order(q_mutator(A(), B()) ** k) == NormalForm({(0, 0): 1})


def test_bracket_powers_match_the_expanded_words():
    bracket = commutator(A(), B())
    powers = bracket_powers(8)
    assert len(powers) == 9
    for k, power in enumerate(powers):
        expanded = bracket ** k
        assert len(expanded.terms) == 2**k
        assert power == normal_order(expanded), k
        # the rewriting oracle takes 5 s on the 256 words of k = 8
        if k <= 7:
            assert power == _oracle_sum(expanded.terms, random.Random(k)), k


@pytest.mark.parametrize(
    "text, expected",
    [
        ("A^50000", {(0, 50000): 1}),
        ("B^2*A^50000", {(2, 50000): 1}),
        ("A^3000*B", {(1, 3000): LaurentPoly.monomial(3000), (0, 2999): q_integer(3000)}),
    ],
)
def test_long_a_runs_cost_only_the_b_letters_they_meet(text, expected):
    # q^n and {n}_q are made only for an n at which a B letter is read
    expr, half = parse_qexpr(text), GaussRat("1/2")
    start = time.perf_counter()
    assert normal_order(expr) == NormalForm(expected)
    assert normal_order(expr, q_value=half) == NormalForm(expected).evaluate(half)
    assert time.perf_counter() - start < 5.0


def test_binomial_power_matches_random_order():
    expr = (A() + B()) ** 8
    assert len(expr.terms) == 256
    assert normal_order(expr) == _oracle_sum(expr.terms, random.Random(8))


# -- letter runs ------------------------------------------------------------------


@st.composite
def run_words(draw, max_runs=4):
    """Words read as alternating letter runs of 1-12 letters each."""
    first, other = draw(st.sampled_from([("A", "B"), ("B", "A")]))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=max_runs))
    return "".join((other if idx % 2 else first) * r for idx, r in enumerate(lengths))


def _inversions(word: str) -> int:
    """The AB pairs with the A first; the rewriting oracle's cost grows with them."""
    count = seen = 0
    for letter in word:
        if letter == "A":
            seen += 1
        else:
            count += seen
    return count


@given(
    st.dictionaries(run_words().filter(lambda w: _inversions(w) <= 48), laurent_coeffs, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_run_words_match_random_order(terms, seed):
    assert normal_order(QExpr(terms)) == _oracle_sum(terms, random.Random(seed))


polynomial_coeffs = st.dictionaries(
    st.integers(min_value=0, max_value=3),
    st.builds(GaussRat, small_rationals, small_rationals),
    min_size=1,
    max_size=3,
).map(LaurentPoly)


@given(st.dictionaries(run_words(), polynomial_coeffs, min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_run_words_specialize_where_q_integers_vanish(terms):
    # {2}_q vanishes at q = -1 and {4}_q at q = i; the run step divides by no q-integer
    symbolic = normal_order(QExpr(terms))
    for q0 in (GaussRat(-1), GaussRat(0), GaussRat(1), GaussRat(0, 1), GaussRat("1/2")):
        assert normal_order(QExpr(terms), q_value=q0) == symbolic.evaluate(q0), q0


def test_power_of_a_sum_makes_no_square_beyond_the_answer(monkeypatch):
    products = []
    original = QExpr.__mul__

    def counted(self, other):
        out = original(self, other)
        products.append(len(out.terms))
        return out

    monkeypatch.setattr(QExpr, "__mul__", counted)
    assert len(parse_qexpr("(A+B)^16").terms) == 65536
    # three squares below 2^16 words, (A+B)^16 itself, and 1 * (A+B)^16
    assert products == [4, 16, 256, 65536, 65536]


# -- the parser -------------------------------------------------------------------


@given(
    st.lists(st.tuples(st.sampled_from("AB"), st.one_of(st.none(), st.integers(0, 4))), min_size=1, max_size=8),
    st.lists(st.sampled_from(["*", " ", ""]), min_size=7, max_size=7),
)
@settings(max_examples=40, deadline=None)
def test_letter_runs_parse_to_products_of_letters(pieces, joins):
    texts = [letter if exp is None else f"{letter}^{exp}" for letter, exp in pieces]
    text = texts[0] + "".join(join + piece for join, piece in zip(joins, texts[1:]))
    expected = QExpr.unit()
    for letter, exp in pieces:
        expected = expected * (A() if letter == "A" else B()) ** (1 if exp is None else exp)
    assert parse_qexpr(text) == expected


def test_letter_runs_keep_their_place_around_other_factors():
    assert parse_qexpr("A B*(A - B)^2 B A^2 2q") == (
        A() * B() * (A() - B()) ** 2 * B() * A() ** 2 * (2 * q)
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("A^2^3", "trailing input near '^'"),
        ("A*B^-1", "negative powers only apply to q"),
        ("A*", "unexpected end of expression"),
        ("*A", "unexpected token '*'"),
        ("A**B", "unexpected token '*'"),
    ],
)
def test_malformed_expressions_name_the_fault(text, message):
    with pytest.raises(ValueError) as err:
        parse_qexpr(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["(" * 400 + "A" + ")" * 400, "A+" + "-" * 1200 + "A"],
                         ids=["parentheses", "unary-minus"])
def test_nesting_beyond_the_limit_exits_2_without_a_traceback(text, capsys):
    """Each level is a parser recursion: past MAX_NESTING the expression is
    refused as a usage error before Python's recursion limit is reached."""
    assert cli.run(["qheis", "normalize", text]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (f"usage error: nesting deeper than {MAX_NESTING} levels "
                   "of parentheses and unary minus signs\n")


def test_nesting_at_the_limit_parses():
    assert MAX_NESTING == 300
    assert parse_qexpr("(" * 300 + "A" + ")" * 300) == A()
    assert parse_qexpr("-(" * 150 + "A" + ")" * 150) == A()
    with pytest.raises(ValueError, match="nesting deeper than 300 levels"):
        parse_qexpr("-" * 301 + "A")


@pytest.mark.parametrize(
    "text, length",
    [
        ("A^11", 11),
        ("B A^10", 11),
        ("A^5*B^6", 11),
        ("(A*B)^6", 12),
        ("(A - q*B)^11", 11),
        ("(A^6)(B^5)", 11),
        ("A^6 (B^2 + A)^3", 12),
        ("A^99999999999", 99999999999),
    ],
)
def test_words_longer_than_the_cap_are_refused_before_they_are_built(text, length, monkeypatch):
    monkeypatch.setenv("LIEQ_SIZE_CAP", "10")
    with pytest.raises(ValueError) as err:
        parse_qexpr(text)
    assert str(err.value) == f"a word of {length} letters exceeds LIEQ_SIZE_CAP = 10"


@pytest.mark.parametrize(
    "text, count",
    [("(A+B)^40", "2^40"), ("(A+B)^18", "2^18"), ("(A+B)^9*(A+B)^9", "262144"), ("(A - q*B + I)^12", "3^12")],
)
def test_products_with_more_words_than_the_cap_are_refused_before_they_are_built(text, count):
    with pytest.raises(ValueError) as err:
        parse_qexpr(text)
    assert str(err.value) == f"a product of {count} words exceeds LIEQ_SIZE_CAP = 200000"


def test_products_within_the_word_cap_parse(monkeypatch):
    assert len(parse_qexpr("(A+B)^17").terms) == 131072
    monkeypatch.setenv("LIEQ_SIZE_CAP", "8")
    assert len(parse_qexpr("(A+B)^3").terms) == 8
    monkeypatch.setenv("LIEQ_SIZE_CAP", "10")
    with pytest.raises(ValueError, match="a product of 2\\^4 words exceeds LIEQ_SIZE_CAP = 10"):
        parse_qexpr("(A+B)^4")


def test_words_at_the_cap_parse(monkeypatch):
    monkeypatch.setenv("LIEQ_SIZE_CAP", "10")
    assert parse_qexpr("A^5*B^5") == A() ** 5 * B() ** 5
    assert parse_qexpr("(A*B)^5 + A^10") == (A() * B()) ** 5 + A() ** 10


@pytest.mark.parametrize(
    "text, message",
    [
        ("(q+1)^200000", "a coefficient of 625003125 64-bit words"),
        ("(q+1)^4000", "a coefficient of 252063 64-bit words"),
        ("q^200000+1", "a coefficient of 200001 64-bit words"),
        ("(1/3)^99999999999", "a coefficient of 3125000000 64-bit words"),
        ("q^100000000+1", "a coefficient range q^0..q^100000000"),
        ("q^100000000*A*B + B*A", "a coefficient range q^0..q^100000000"),
        ("(q^-1 + q)^100001", "a coefficient range q^-100001..q^100001"),
        ("(q^100 + 1)*(q^199901 - A)", "a coefficient range q^0..q^200001"),
    ],
)
def test_coefficients_beyond_the_cap_are_refused_before_they_are_built(text, message):
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        parse_qexpr(text)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"{message} exceeds LIEQ_SIZE_CAP = 200000"


def test_coefficients_within_the_cap_parse(monkeypatch):
    # (n + 1) * ceil(n / 64) words: 1000 at n = 249, 1004 at n = 250
    monkeypatch.setenv("LIEQ_SIZE_CAP", "1000")
    row = parse_qexpr("(q+1)^249").terms[""]
    assert row == LaurentPoly({k: math.comb(249, k) for k in range(250)})
    with pytest.raises(ValueError, match="a coefficient of 1004 64-bit words exceeds LIEQ_SIZE_CAP = 1000"):
        parse_qexpr("(q+1)^250")
    monkeypatch.delenv("LIEQ_SIZE_CAP")
    assert parse_qexpr("q^199999+1") == QExpr.unit(LaurentPoly({199999: 1, 0: 1}))
    assert parse_qexpr("q^-3*A") == QExpr.word("A", LaurentPoly.monomial(-3))
    assert parse_qexpr("A^40*B^40") == A() ** 40 * B() ** 40
    # a zero summand or factor widens no coefficient range
    assert parse_qexpr("0*q^100000000 + A") == A()
    for n in (2000, 3000):  # 64032 and 141047 predicted words
        row = parse_qexpr(f"(q+1)^{n}").terms[""]
        assert row == LaurentPoly({k: math.comb(n, k) for k in range(n + 1)})

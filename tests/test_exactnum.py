from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from lieq.exactnum import (
    DivisionByZero,
    EvalAtZeroWithNegativeDegree,
    GaussRat,
    I,
    NonDivisible,
    ONE,
    ZERO,
    power,
)
from lieq.laurent import LaurentPoly, pack, packed_divexact, slot_width, unpack

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
gauss_rats = st.builds(GaussRat, rationals, rationals)


def test_laurent_poly_is_read_from_its_own_module():
    """exactnum.LaurentPoly and lieq.LaurentPoly name the class of
    lieq.laurent, which importing exactnum does not load."""
    import lieq
    import lieq.exactnum
    import lieq.laurent

    assert lieq.exactnum.LaurentPoly is lieq.laurent.LaurentPoly
    assert lieq.LaurentPoly is lieq.laurent.LaurentPoly
    with pytest.raises(AttributeError):
        lieq.exactnum.as_poly


def test_i_squared():
    assert I * I == GaussRat(-1)


def test_rational_add():
    assert GaussRat("1/2") + GaussRat("1/3") == GaussRat("5/6")


def test_inverse_of_one_plus_i():
    value = (ONE + I).inv()
    assert value == GaussRat("1/2-1/2i")
    assert value * (ONE + I) == ONE


def test_integral_components_are_ints():
    assert type(GaussRat("4/2").re) is int and GaussRat("4/2").re == 2
    half_doubled = GaussRat("1/2") * 2
    assert type(half_doubled.re) is int
    assert half_doubled == GaussRat(1)
    assert hash(half_doubled) == hash(GaussRat(1))
    assert str(half_doubled) == str(GaussRat(1)) == "1"
    assert GaussRat(3).inv() == GaussRat("1/3")  # exact, not a float quotient


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ZERO.inv()
    with pytest.raises(DivisionByZero):
        ONE / ZERO


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-7", "1/2", "-3/4", "i", "-i", "2i", "-2/3i", "1+i", "1/2-1/3i", "-5+7/2i"],
)
def test_string_round_trip(text):
    value = GaussRat(text)
    assert GaussRat(str(value)) == value


@pytest.mark.parametrize("text", ["1e999999999", "2E3", "1/2-3e2i", "1e-5"])
def test_exponent_in_scalar_string_is_refused(text):
    """Fraction would read an exponent and build an integer of that many
    digits before any size check; the scalar grammar has none."""
    with pytest.raises(ValueError, match="exponent in scalar"):
        GaussRat(text)


def _parsed(parse, text):
    """parse(text), or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as err:
        return f"ValueError: {err}"


def _fraction_parse(text):
    """A real scalar string as Fraction reads it once spaces are removed,
    the parse every scalar string went through before integer literals
    were read by int."""
    return GaussRat(Fraction(text.replace(" ", "")))


@pytest.mark.parametrize(
    "text",
    ["0", "7", "-7", "007", "-0070", "-0", "+7", " 1 2 ", "- 3", "1_0", "²", "١٢", "-١٢", "9" * 40],
)
def test_integer_literals_parse_as_fraction_does(text):
    """Integer literals are read by int instead of Fraction: the result,
    or the refusal, is the same."""
    assert _parsed(GaussRat, text) == _parsed(_fraction_parse, text)


@given(st.from_regex(r"-?[0-9 ]*[0-9][0-9 ]*", fullmatch=True))
@settings(max_examples=200)
def test_integer_literals_parse_as_fraction_does_on_drawn_strings(text):
    value = GaussRat(text)
    assert value == _fraction_parse(text) and type(value.re) is int and value.im == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e5", "exponent in scalar '1e5'; write it as an integer or a fraction"),
        ("", "empty scalar string"),
        ("1/0", "zero denominator in scalar '1/0'"),
    ],
)
def test_malformed_scalars_keep_their_messages(text, message):
    with pytest.raises(ValueError) as err:
        GaussRat(text)
    assert str(err.value) == message


@given(gauss_rats)
@settings(max_examples=80)
def test_render_parse_round_trip(x):
    assert GaussRat(str(x)) == x


@given(gauss_rats, gauss_rats, gauss_rats)
@settings(max_examples=80)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inv() == ONE


@given(gauss_rats)
@settings(max_examples=40)
def test_conjugation_norm(a):
    norm = a * a.conj()
    assert norm.im == 0
    assert norm.re >= 0


def q():
    return LaurentPoly.gen()


def test_eval_at_one():
    assert (1 + q() + q() ** 2).eval(1) == GaussRat(3)


def test_monomial_product():
    assert LaurentPoly.monomial(-1) * LaurentPoly.monomial(2) == q()


def test_eval_weight_value():
    # the squared weight (1 - q^{n+1})/(1 - q) at n = 2, q = 1/2
    assert (1 + q() + q() ** 2).eval(GaussRat("1/2")) == GaussRat("7/4")


def test_eval_zero_with_negative_degree():
    p = LaurentPoly.monomial(-1) + 3
    with pytest.raises(EvalAtZeroWithNegativeDegree):
        p.eval(0)
    assert LaurentPoly.const(5).eval(0) == GaussRat(5)


def test_divexact_round_trip():
    a = (q() - 1) ** 3 * (1 + q() + q() ** 2)
    b = (q() - 1) ** 3
    assert a.divexact(b) == 1 + q() + q() ** 2


def test_divexact_remainder_raises():
    with pytest.raises(NonDivisible):
        (1 + q() ** 2).divexact(1 + q())


def test_divexact_laurent_shift():
    a = LaurentPoly.monomial(-3) * (1 + q())
    assert a.divexact(LaurentPoly.monomial(-2)) == LaurentPoly.monomial(-1) * (1 + q())


def test_no_zero_coefficients_stored():
    p = (1 + q()) - q()
    assert p.coeffs == {0: ONE}
    assert ((1 + q()) - (1 + q())).is_zero()


def _solve_dense(matrix, rhs):
    # tiny dense solver over GaussRat for the interpolation check
    n = len(matrix)
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inv()
        work[col] = [inv * x for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [work[r][n] for r in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_interpolation_recovers_coefficients(seed):
    import random

    rng = random.Random(seed)
    exps = sorted(rng.sample(range(-4, 7), rng.randint(1, 5)))
    poly = LaurentPoly({e: GaussRat(rng.randint(-9, 9), rng.randint(-3, 3)) for e in exps})
    if poly.is_zero():
        poly = poly + 1
    lo, hi = min(poly.coeffs), max(poly.coeffs)
    span = hi - lo + 1
    points = [GaussRat(k + 1) for k in range(span)]
    matrix = [[x ** (lo + j) for j in range(span)] for x in points]
    values = [poly.eval(x) for x in points]
    solved = _solve_dense(matrix, values)
    recovered = LaurentPoly({lo + j: c for j, c in enumerate(solved)})
    assert recovered == poly


small_polys = st.dictionaries(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(LaurentPoly)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_polynomial_ring_axioms(p, r, s):
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s
    assert p * r == r * p


@given(small_polys, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_evaluation_is_ring_morphism(p, num, den):
    x = GaussRat(num) / GaussRat(den)
    if not x and p.coeffs and min(p.coeffs) < 0:
        return
    assert (p * p).eval(x) == p.eval(x) * p.eval(x)
    assert (p + 3).eval(x) == p.eval(x) + GaussRat(3)


def test_poly_doc_round_trip():
    p = LaurentPoly({-2: GaussRat("1/2"), 0: I, 3: GaussRat(-4)})
    assert LaurentPoly.from_doc(p.to_doc()) == p


def test_poly_doc_in_another_parameter_is_refused():
    with pytest.raises(ValueError):
        LaurentPoly.from_doc({"var": "t", "coeffs": {"1": "1"}})


# -- cross-check against the sparse dict oracle ------------------------------

small_gauss = st.builds(
    GaussRat,
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
gauss_dicts = st.dictionaries(st.integers(min_value=-4, max_value=5), small_gauss, max_size=5).map(
    lambda d: {e: c for e, c in d.items() if c}
)
EVAL_POINTS = [ZERO, ONE, GaussRat("1/2"), I, GaussRat("-2/3+1/5i")]
DIVISOR = {0: ONE, 1: GaussRat(2, 1)}  # (2+i)q + 1: complex, non-unit leading coefficient


def _check_against_oracle(a, b):
    p, r = LaurentPoly(a), LaurentPoly(b)
    assert p.coeffs == a
    assert list(p.coeffs) == sorted(a) and all(p.coeffs.values())
    assert (p + r).coeffs == oracles.poly_add(a, b)
    assert (p - r).coeffs == oracles.poly_sub(a, b)
    product = oracles.poly_mul(a, b)
    assert (p * r).coeffs == product
    assert str(p) == oracles.poly_str("q", a)
    assert (p == r) == (a == b)
    assert LaurentPoly.from_doc(p.to_doc()) == p
    assert p.to_doc()["coeffs"] == {str(e): str(c) for e, c in a.items()}
    for x in EVAL_POINTS:
        if not x and a and min(a) < 0:
            with pytest.raises(EvalAtZeroWithNegativeDegree):
                p.eval(x)
        else:
            assert p.eval(x) == oracles.poly_eval(a, x)
    if not b:
        with pytest.raises(DivisionByZero):
            p.divexact(r)
        return
    assert LaurentPoly(product).divexact(r) == p
    for num in (a, oracles.poly_add(product, {0: ONE})):
        expected = oracles.poly_divexact(num, b)
        if expected is None:
            with pytest.raises(NonDivisible):
                LaurentPoly(num).divexact(r)
        else:
            assert LaurentPoly(num).divexact(r).coeffs == expected


@given(gauss_dicts, gauss_dicts)
@settings(max_examples=100, deadline=None)
def test_arithmetic_matches_dict_oracle(a, b):
    _check_against_oracle(a, b)


@given(gauss_dicts)
@settings(max_examples=60, deadline=None)
def test_complex_non_unit_divisor_matches_dict_oracle(a):
    _check_against_oracle(a, DIVISOR)
    if a:
        d = LaurentPoly(DIVISOR)
        with pytest.raises(NonDivisible):
            (LaurentPoly(a) * d + 1).divexact(d)


def test_divisor_of_higher_degree_is_not_divisible():
    with pytest.raises(NonDivisible):
        (1 + q()).divexact(1 + q() ** 2)
    with pytest.raises(NonDivisible):
        LaurentPoly.const(3).divexact(LaurentPoly(DIVISOR))


# -- Kronecker packing ---------------------------------------------------------

LIMB = 2**64


@pytest.mark.parametrize("width", [64, 128, 192])
@pytest.mark.parametrize(
    "value",
    [0, 1, LIMB - 1, LIMB, LIMB + 1, LIMB**2 - 1, LIMB**2, 5 * LIMB**3 + 7, 7 << 256, (LIMB - 1) << 640],
    ids=["0", "1", "2^64-1", "2^64", "2^64+1", "2^128-1", "2^128", "three-limb", "zero-low-slots",
         "top-limb-full"],
)
def test_unpack_then_pack_round_trips(value, width):
    poly = unpack(value, width)
    assert pack(poly, width) == value
    assert all(0 <= c < 2**width for c in poly.re) and poly.den == 1 and poly.im is None
    assert poly.eval(2**width) == GaussRat(value)


@pytest.mark.parametrize(
    "coeffs, width",
    [
        ({0: LIMB - 1}, 64),
        ({0: LIMB - 1, 3: 1}, 64),
        ({2: 1, 5: LIMB - 1}, 64),
        ({0: LIMB}, 128),
        ({0: LIMB**2 - 1, 1: LIMB, 4: 3}, 128),
        ({1: LIMB**3 - 1, 2: 1}, 192),
    ],
)
def test_pack_then_unpack_round_trips(coeffs, width):
    poly = LaurentPoly(coeffs)
    assert unpack(pack(poly, width), width) == poly
    assert pack(poly, width) == sum(c << (e * width) for e, c in coeffs.items())


def test_slot_width_is_the_smallest_limb_multiple_above_the_bound():
    assert [slot_width(b) for b in (0, 1, LIMB - 1, LIMB, LIMB**2 - 1, LIMB**2)] == [64, 64, 64, 128, 128, 192]


@pytest.mark.parametrize(
    "poly, width",
    [
        (LaurentPoly({0: -1}), 64),
        (LaurentPoly({0: LIMB}), 64),
        (LaurentPoly({1: LIMB**2}), 128),
        (LaurentPoly({0: GaussRat("1/2")}), 64),
        (LaurentPoly({0: I}), 64),
        (LaurentPoly({-1: 1}), 64),
        (LaurentPoly({0: 1}), 96),
    ],
    ids=["negative", "2^64-at-64", "2^128-at-128", "fraction", "imaginary", "negative-exponent",
         "width-not-limbs"],
)
def test_pack_rejects_what_has_no_slots(poly, width):
    with pytest.raises(ValueError):
        pack(poly, width)


def test_packed_divexact_raises_on_a_remainder():
    num, div = LaurentPoly({0: 1, 2: 1}), LaurentPoly({0: 1, 1: 1})
    with pytest.raises(NonDivisible):
        packed_divexact(pack(num, 64), pack(div, 64), 64)


def test_packed_divexact_certificate_catches_a_non_integral_quotient():
    # 2^64 // 2 is exact, but q / 2 has no integer coefficients
    num, div = pack(LaurentPoly.gen(), 64), pack(LaurentPoly.const(2), 64)
    assert num % div == 0
    with pytest.raises(NonDivisible):
        packed_divexact(num, div, 64)


def test_packed_divexact_by_zero():
    with pytest.raises(DivisionByZero):
        packed_divexact(1, 0, 64)


nonneg_polys = st.dictionaries(
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=2**70), min_size=1, max_size=6
).map(LaurentPoly)


@given(nonneg_polys, nonneg_polys)
@settings(max_examples=80, deadline=None)
def test_packed_divexact_inverts_products(p, d):
    product = p * d
    width = slot_width(sum(p.re) * sum(d.re))
    assert pack(p, width) * pack(d, width) == pack(product, width)
    assert packed_divexact(pack(product, width), pack(d, width), width) == p
    assert packed_divexact(pack(product, width), pack(d, width), width) == product.divexact(d)


# -- powers ---------------------------------------------------------------------


def _repeated_product(base, n, one):
    out = one
    for _ in range(n):
        out = out * base
    return out


@given(small_gauss, st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_gauss_powers_are_repeated_products(base, n):
    assert base ** n == _repeated_product(base, n, ONE)
    if base:
        assert base ** -n == _repeated_product(base.inv(), n, ONE)


@given(gauss_dicts.map(LaurentPoly), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_poly_powers_are_repeated_products(base, n):
    assert base ** n == _repeated_product(base, n, LaurentPoly.const(1))


def test_power_squares_only_while_bits_remain():
    squares = []

    class Counted(int):
        def __mul__(self, other):
            if self is other:
                squares.append(int(self))
            return Counted(int(self) * int(other))

    for n, expected in ((0, 0), (1, 0), (2, 1), (3, 1), (8, 3), (255, 7), (256, 8)):
        squares.clear()
        assert power(Counted(3), n, Counted(1)) == 3 ** n
        assert len(squares) == expected, n

"""The q-deformed Heisenberg algebra: q-combinatorics, normal ordering to
the B^m A^n basis, and machine checks for the whole identity zoo.

The algebra has two generators A, B subject to AB - qBA = 1.  Elements are
formal sums of words; normal ordering multiplies each word out from the
left, one letter run at a time, with the q-Wick rule for B^m A^n * B^r
(the letter rule at r = 1).  Words that share a coefficient are read into
one running sum per basis monomial, which is multiplied by the coefficient
once.  Nothing recurses and nothing is kept between calls.  With symbolic
q the coefficients met while a word is read have nonnegative integer
coefficients of at most _state_bound(word) <= (1 + #A)^#B, so a group's
sums stay below the sum of those bounds over its words; each is carried
as one packed Python int (laurent.pack) at a slot width above the
largest group's sum; q-integers, powers of q and q-Pascal rows are made
only where a B run needs them.  The closed q-binomial is a running
product of packed q-integers with one short certified exact division per
step, and the generalized Jacobi sums take [A,B]^k from bracket_powers,
each power the normal form of the one before times [A,B].

Identities stated with denominators like (q-1)^n or q^binom(n,2) are
verified in denominator-cleared form: both sides are multiplied by the
denominator monomials first, which is lossless over the polynomial ring.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Mapping, NamedTuple

from .exactnum import GaussRat, LieqError, ONE, SizeCap, ZERO, gauss, power, size_cap
from .laurent import LaurentPoly, as_poly, pack, packed_divexact, slot_width, unpack


class QZero(LieqError):
    """Reciprocal identity evaluated at q = 0."""


# -- q-combinatorics ----------------------------------------------------------


def q_integer(n: int) -> LaurentPoly:
    """{n}_q = 1 + q + ... + q^{n-1}; the empty sum {0}_q is 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return LaurentPoly({l: 1 for l in range(n)})


def q_factorial(n: int) -> LaurentPoly:
    """{n}_q! = {1}_q {2}_q ... {n}_q with {0}_q! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = LaurentPoly.const(1)
    for j in range(2, n + 1):
        out = out * q_integer(j)
    return out


def q_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial via the Pascal recursion
    {n,k}_q = {n-1,k-1}_q + q^k {n-1,k}_q, one row cut at min(k, n-k)
    since {n,k}_q = {n,n-k}_q."""
    if k < 0 or k > n:
        return LaurentPoly.zero()
    return q_binomial_row(n, min(k, n - k))[-1]


def q_binomial_row(n: int, top: int) -> list[LaurentPoly]:
    """[{n,0}_q, ..., {n,top}_q] for 0 <= top <= n, from one q-Pascal row
    (_q_pascal_row, as in normal_order) of ints packed at one slot width
    (laurent.pack).  An entry {i,j}_q of the recursion has coefficients
    summing to binom(i, j) <= binom(n, min(top, n // 2)), so no slot
    carries."""
    width = slot_width(math.comb(n, min(top, n // 2)))
    row = _q_pascal_row(n, top, 0, 1, operator.lshift, _Lazy(lambda e: e * width))
    return [unpack(c, width) for c in row]


def q_binomial_closed(n: int, k: int) -> LaurentPoly:
    """{n,k}_q as the running product {n,j}_q = {n,j-1}_q {n-j+1}_q / {j}_q
    for j = 1..min(k, n-k), since {n,k}_q = {n,n-k}_q.  Each step is one
    product and one certified exact division of ints packed at one slot
    width (laurent.packed_divexact); a remainder or a failed certificate
    would mean an implementation bug and raises NonDivisible."""
    if k < 0 or k > n:
        return LaurentPoly.zero()
    k = min(k, n - k)
    # step j divides a product whose coefficients sum to j binom(n, j),
    # which grows with j up to n/2, so k binom(n, k) bounds every slot
    width = slot_width(k * math.comb(n, k))
    out = LaurentPoly.const(1)
    for j in range(1, k + 1):
        num = pack(out, width) * _packed_q_integer(n - j + 1, width)
        out = packed_divexact(num, _packed_q_integer(j, width), width)
    return out


def _packed_q_integer(n: int, width: int) -> int:
    """{n}_q packed at a slot width (laurent.pack): n ones, width bits apart."""
    return ((1 << n * width) - 1) // ((1 << width) - 1)


def q_integers_at(n: int, q0: GaussRat) -> list[GaussRat]:
    """[{0}_q, {1}_q, ..., {n}_q] evaluated exactly at a scalar, as running
    sums of the powers of q0 (just [{0}_q] when n < 1)."""
    out = [ZERO]
    power = ONE
    for _ in range(n):
        out.append(out[-1] + power)
        power = power * q0
    return out


class ReciprocalReport(NamedTuple):
    """Outcome of the 1/q identities at a sample point.

    ``factorial_printed_matches`` evaluates the printed form of the
    factorial identity, whose right side is missing a factorial; it is
    reported, never asserted."""

    n: int
    k: int
    q0: GaussRat
    integer_ok: bool
    factorial_ok: bool
    factorial_printed_matches: bool
    binomial_ok: bool

    def __bool__(self):
        return self.integer_ok and self.factorial_ok and self.binomial_ok


def q_reciprocal_checks(n: int, k: int, q0) -> ReciprocalReport:
    """Check {n}_{1/q} = (q/q^n){n}_q, the corrected factorial version
    {n}_{1/q}! = q^{-binom(n,2)} {n}_q!, and
    {n,k}_{1/q} = q^{-k(n-k)} {n,k}_q, all exactly at q0 != 0."""
    q0 = gauss(q0)
    if not q0:
        raise QZero("reciprocal identities need q != 0")
    qinv = q0.inv()
    lhs_ints = q_integers_at(n, qinv)
    int_lhs = lhs_ints[-1]
    int_rhs = (q0 / q0 ** n) * q_integer(n).eval(q0)
    fact_lhs = ONE
    for value in lhs_ints[1:]:
        fact_lhs = fact_lhs * value
    scale = (q0 ** math.comb(n, 2)).inv()
    fact_rhs = scale * q_factorial(n).eval(q0)
    fact_printed = scale * q_integer(n).eval(q0)
    binomial = q_binomial(n, k)
    binom_lhs = binomial.eval(qinv)
    binom_rhs = (q0 ** (k * (n - k))).inv() * binomial.eval(q0)
    return ReciprocalReport(
        n=n,
        k=k,
        q0=q0,
        integer_ok=int_lhs == int_rhs,
        factorial_ok=fact_lhs == fact_rhs,
        factorial_printed_matches=fact_lhs == fact_printed,
        binomial_ok=binom_lhs == binom_rhs,
    )


class SubsetSumReport(NamedTuple):
    """Subset expansion of the Gaussian binomial.

    The exponent-shifted form sum_S q^{(sum S) - k(k+1)/2} over k-subsets of
    {1..n} reproduces {n,k}_q; the printed summand 2 q^{sum S} / (k(k+1)) is
    evaluated too and its (generic) mismatch is reported, never asserted."""

    n: int
    k: int
    corrected_matches: bool
    printed_matches: bool
    corrected: LaurentPoly
    printed: LaurentPoly

    def __bool__(self):
        return self.corrected_matches


def subset_sum_binomial_check(n: int, k: int) -> SubsetSumReport:
    import itertools

    corrected = LaurentPoly.zero()
    printed = LaurentPoly.zero()
    shift = k * (k + 1) // 2
    weight = GaussRat(2) / GaussRat(k * (k + 1)) if k else GaussRat(2)
    for subset in itertools.combinations(range(1, n + 1), k):
        total = sum(subset)
        corrected = corrected + LaurentPoly.monomial(total - shift)
        printed = printed + LaurentPoly.monomial(total, weight)
    target = q_binomial(n, k)
    return SubsetSumReport(
        n=n,
        k=k,
        corrected_matches=corrected == target,
        printed_matches=printed == target,
        corrected=corrected,
        printed=printed,
    )


# -- words, expressions, and normal forms ------------------------------------


def _accumulate(out: dict, key, term: LaurentPoly) -> None:
    """out[key] += term, dropping the key when the sum is zero."""
    acc = out.get(key)
    acc = term if acc is None else acc + term
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


class QExpr:
    """Formal linear combination of words with Laurent-polynomial
    coefficients.  Words over {A, B} live in the q-deformed Heisenberg
    algebra; three-letter words over {A, B, C} are used for the free-algebra
    identities and never reach normal_order."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, object] | None = None):
        clean: dict[str, LaurentPoly] = {}
        for word, coeff in (terms or {}).items():
            poly = _as_poly(coeff)
            if poly:
                clean[word] = poly
        self.terms = clean

    @classmethod
    def zero(cls) -> "QExpr":
        return cls({})

    @classmethod
    def unit(cls, coeff=1) -> "QExpr":
        return cls({"": coeff})

    @classmethod
    def word(cls, letters: str, coeff=1) -> "QExpr":
        return cls({letters: coeff})

    def __add__(self, other):
        other = _as_expr(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            _accumulate(out, word, coeff)
        return _expr(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_expr(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_expr(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _expr({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, QExpr):
            out: dict[str, LaurentPoly] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    _accumulate(out, w1 + w2, c1 * c2)
            return _expr(out)
        poly = as_poly(other)
        if poly is None:
            return NotImplemented
        return _expr({w: c * poly for w, c in self.terms.items()} if poly else {})

    def __rmul__(self, other):
        poly = as_poly(other)
        if poly is None:
            return NotImplemented
        return _expr({w: poly * c for w, c in self.terms.items()} if poly else {})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative word powers are not defined")
        return power(self, n, QExpr.unit())

    def __eq__(self, other):
        other = _as_expr(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "QExpr(0)"
        bits = [f"({coeff})*{word or 'I'}" for word, coeff in sorted(self.terms.items())]
        return "QExpr(" + " + ".join(bits) + ")"


def _as_poly(value) -> LaurentPoly:
    poly = as_poly(value)
    if poly is None:
        raise TypeError(f"bad coefficient {value!r}")
    return poly


def _as_expr(value) -> QExpr | None:
    if isinstance(value, QExpr):
        return value
    poly = as_poly(value)
    if poly is None:
        return None
    return _expr({"": poly} if poly else {})


def _expr(terms: dict[str, LaurentPoly]) -> QExpr:
    """The QExpr over terms the arithmetic built: nonzero LaurentPolys,
    stored as they are, with no second pass through _as_poly."""
    out = QExpr.__new__(QExpr)
    out.terms = terms
    return out


def A() -> QExpr:
    return QExpr.word("A")


def B() -> QExpr:
    return QExpr.word("B")


class NormalForm:
    """Element of the q-deformed Heisenberg algebra written on the monomial
    basis: (m, n) -> coefficient of B^m A^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], object] | None = None):
        clean: dict[tuple[int, int], LaurentPoly] = {}
        for key, value in (coeffs or {}).items():
            poly = _as_poly(value)
            if poly:
                clean[(int(key[0]), int(key[1]))] = poly
        self.coeffs = clean

    def get(self, m: int, n: int) -> LaurentPoly:
        return self.coeffs.get((m, n), LaurentPoly.zero())

    def to_qexpr(self) -> QExpr:
        return _expr({"B" * m + "A" * n: poly for (m, n), poly in self.coeffs.items()})

    def evaluate(self, q0) -> "NormalForm":
        q0 = gauss(q0)
        out = {}
        for key, poly in self.coeffs.items():
            value = poly.eval(q0)
            if value:
                out[key] = LaurentPoly.const(value)
        return _normal_form(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m, n in sorted(self.coeffs):
            poly = self.coeffs[(m, n)]
            word = ("B^%d" % m if m > 1 else "B" * m) + ("A^%d" % n if n > 1 else "A" * n)
            bits.append(f"({poly})*{word or 'I'}")
        return " + ".join(bits)

    def __repr__(self):
        return f"NormalForm({self})"


def _normal_form(coeffs: dict[tuple[int, int], LaurentPoly]) -> NormalForm:
    """The NormalForm over (m, n) -> nonzero LaurentPoly, stored as is."""
    out = NormalForm.__new__(NormalForm)
    out.coeffs = coeffs
    return out


def normal_order(expr: QExpr, q_value=None) -> NormalForm:
    """Collect an expression on the B^m A^n basis.

    Each word is read from the left as alternating letter runs.  An A run
    of length a maps B^m A^n to B^m A^{n+a}; a B run of length r is one
    step of the q-analogue of Wick's theorem (Katriel & Kibler, J. Phys. A
    25 (1992) 2683):

        B^m A^n * B^r = sum_{k=0}^{min(n,r)} q^{(n-k)(r-k)} F(n,k) {r,k}_q B^{m+r-k} A^{n-k}

    with F(n,k) = {n}_q {n-1}_q ... {n-k+1}_q.  At r = 1 this is the
    letter rule B^m A^n * B = q^n B^{m+1} A^n + {n}_q B^m A^{n-1}.  A state
    coefficient c is carried through its terms as the running product
    c F(n,k), and {r,k}_q comes from the q-Pascal recursion
    {r,j} = {r-1,j-1} + q^j {r-1,j}, its row cut at the largest n that
    meets the run.  Nothing divides, so one loop serves a symbolic q and a
    scalar q0 at which some {k}_{q0} vanishes.  The q-integers, powers of
    q and Pascal rows are made per call, on first use, so A letters that no
    B follows cost no entries.

    The words are grouped by coefficient: the words of a group are read
    into one running sum per basis monomial, and each sum is multiplied by
    the group's coefficient once (not at all when that coefficient is 1),
    so an expression such as [A,B]^k, with 2^k words and two coefficients,
    pays for two products per monomial.

    With q_value None the coefficients stay symbolic.  While a group is
    read they are polynomials with nonnegative integer coefficients, each
    packed in one int at a slot width w (laurent.pack): q^e is a shift by
    e*w bits and a product of polynomials one big-integer product.  At
    q = 1 a B letter multiplies the sum of all coefficients by at most
    1 + n, n at most the number of A letters read so far, so no coefficient
    met while reading a word one letter at a time exceeds
    _state_bound(word).  A run step reaches the state its r letter steps
    reach, and each of its terms c F(n,k) {r,k}_q q^{(n-k)(r-k)} is a
    nonnegative part of a coefficient of that state.  Every partial
    product c F(n,j), j <= k, and every Pascal entry {r',j}, r' <= r, is
    coefficientwise at most such a term (up to a shift), so no slot
    exceeds _state_bound(word) either, and no running sum of a group
    exceeds the sum of _state_bound over its words.  w is the smallest
    multiple of 64 bits with 2^w above that sum for every group, so no
    slot carries.  Each finished sum is unpacked once.

    Otherwise q is instantiated exactly at the given scalar and the same
    loop runs on Gaussian rationals (an honest independent path, used to
    cross-check specialization coherence); each group's coefficient is
    evaluated once, and a sum that cancels to zero is dropped."""
    groups: dict[tuple, tuple[LaurentPoly | None, list[str]]] = {}
    for word, coeff in expr.terms.items():
        if not _LETTERS.issuperset(word):
            raise ValueError(f"word {word!r} uses letters outside the A, B alphabet")
        key = (coeff.low, coeff.re, coeff.im, coeff.den)
        groups.setdefault(key, (None if key == _UNIT else coeff, []))[1].append(word)
    # raise_q(c, powers[e]) is c * q^e
    if q_value is None:
        bound = max((sum(map(_state_bound, words)) for _, words in groups.values()), default=1)
        width = slot_width(bound)
        zero, one, raise_q = 0, 1, operator.lshift

        def q_power(e):
            return e * width

        def q_int(n):
            return _packed_q_integer(n, width)

        def finish(coeff, c):
            return unpack(c, width) if coeff is None else coeff * unpack(c, width)
    else:
        scalar = gauss(q_value)
        if scalar is None:
            raise TypeError(f"bad q value {q_value!r}")
        zero, one, raise_q, q_power = ZERO, ONE, operator.mul, scalar.__pow__

        def q_int(n):  # {n}_q = (q^n - 1) / (q - 1) away from q = 1
            return GaussRat(n) if scalar == ONE else (scalar ** n - ONE) / (scalar - ONE)

        def finish(value, c):
            return LaurentPoly.const(c if value is None else value * c)
    integers, powers = _Lazy(q_int), _Lazy(q_power)  # n -> {n}_q; e -> q^e
    rows: dict[int, list] = {}  # r -> [{r,0}_q, {r,1}_q, ...]
    out: dict[tuple[int, int], LaurentPoly] = {}
    for coeff, words in groups.values():
        if coeff is not None and q_value is not None:
            coeff = coeff.eval(scalar)
        total: dict = {}
        for word in words:
            # cs[i] is the coefficient of B^(d + lo + i) A^(lo + i)
            cs, lo, d = [one], 0, 0
            for run in _RUNS.findall(word):
                r = len(run)
                if run[0] == "A":
                    lo += r
                    d -= r
                    continue
                seen = lo + len(cs) - 1  # the largest n in the state
                low = lo - r if lo > r else 0
                row = rows.get(r)
                if row is None or len(row) <= min(r, seen):
                    row = rows[r] = _q_pascal_row(r, min(r, seen), zero, one, raise_q, powers)
                nxt = [zero] * (seen - low + 1)
                for i, c in enumerate(cs, lo - low):
                    if not c:  # a scalar q can cancel a coefficient
                        continue
                    n = i + low
                    nxt[i] += raise_q(c, powers[n * r])
                    top = n if n < r else r
                    for k in range(1, top):
                        c = c * integers[n - k + 1]
                        nxt[i - k] += raise_q(c * row[k], powers[(n - k) * (r - k)])
                    if top:  # the last term has q^0, and {r,r}_q = 1
                        c = c * integers[n - top + 1]
                        nxt[i - top] += c if top == r else c * row[top]
                cs, lo, d = nxt, low, d + r
            for i, c in enumerate(cs, lo):
                if c:
                    key = (d + i, i)
                    total[key] = total.get(key, zero) + c
        for key, c in total.items():
            if c:
                _accumulate(out, key, finish(coeff, c))
    return _normal_form(out)


class _Lazy(dict):
    """A dict that fills a missing key with make(key) on first read."""

    __slots__ = ("make",)

    def __init__(self, make):  # dict.__init__ has nothing to add to an empty dict
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


_LETTERS = frozenset("AB")
_RUNS = re.compile("A+|B+")
# the grouping key of the coefficient 1
_UNIT = (0, (1,), None, 1)


def _q_pascal_row(r: int, top: int, zero, one, raise_q, powers) -> list:
    """[{r,0}_q, ..., {r,top}_q] from {i,j} = {i-1,j-1} + q^j {i-1,j},
    each row cut at j <= top, where raise_q(c, powers[j]) is c * q^j;
    division-free, so it holds at every scalar."""
    row = [one] + [zero] * top
    for i in range(1, r + 1):
        for j in range(min(i, top), 0, -1):
            row[j] = row[j - 1] + raise_q(row[j], powers[j])
    return row


def _state_bound(word: str) -> int:
    """The product, over the B letters of a word, of 1 + the number of A
    letters before it: no coefficient normal_order meets while reading the
    word exceeds it."""
    bound = seen = 1
    for letter in word:
        if letter == "A":
            seen += 1
        else:
            bound *= seen
    return bound


def verify_identity(lhs: QExpr, rhs: QExpr, q_value=None) -> bool:
    """Equality in the q-deformed Heisenberg algebra via normal forms."""
    return normal_order(lhs, q_value) == normal_order(rhs, q_value)


# -- the identity suite -------------------------------------------------------


def q_mutator(x: QExpr, y: QExpr, q_poly=None) -> QExpr:
    """[x, y]_q = xy - q yx; default symbolic q."""
    if q_poly is None:
        q_poly = LaurentPoly.gen()
    return x * y - q_poly * (y * x)


def commutator(x: QExpr, y: QExpr) -> QExpr:
    return x * y - y * x


def verify_powandprod(n: int) -> bool:
    """AB^n = q^n B^n A + {n}_q B^{n-1} and A^n B = q^n B A^n + {n}_q A^{n-1},
    symbolically."""
    if n < 1:
        raise ValueError("n must be positive")
    qn, qint = LaurentPoly.monomial(n), q_integer(n)
    first = verify_identity(
        QExpr.word("A" + "B" * n),
        QExpr({"B" * n + "A": qn, "B" * (n - 1): qint}),
    )
    second = verify_identity(
        QExpr.word("A" * n + "B"),
        QExpr({"B" + "A" * n: qn, "A" * (n - 1): qint}),
    )
    return first and second


def verify_powandprod_reciprocal(n: int, q0) -> bool:
    """BA^n = q^{-n} A^n B - q^{-1} {n}_{1/q} A^{n-1} and its B^n A twin,
    instantiated exactly at q0 != 0."""
    q0 = gauss(q0)
    if not q0:
        raise QZero("reciprocal power identities need q != 0")
    qinv = q0.inv()
    rec_int = q_integers_at(n, qinv)[-1]
    first = verify_identity(
        B() * A() ** n,
        QExpr.unit(qinv ** n) * (A() ** n * B()) - QExpr.unit(qinv * rec_int) * A() ** (n - 1),
        q_value=q0,
    )
    second = verify_identity(
        B() ** n * A(),
        QExpr.unit(qinv ** n) * (A() * B() ** n) - QExpr.unit(qinv * rec_int) * B() ** (n - 1),
        q_value=q0,
    )
    return first and second


def bracket_powers(top: int) -> list[NormalForm]:
    """[A,B]^k on the B^m A^n basis for k = 0..top.  [A,B] is normal-ordered
    once, to (q-1) BA + 1, and each power is the normal form of the one
    before times it: 2k + 2 words for the power k + 1, not 2^(k+1)."""
    bracket = normal_order(commutator(A(), B())).to_qexpr()
    powers = [NormalForm({(0, 0): 1})]
    for _ in range(top):
        powers.append(normal_order(powers[-1].to_qexpr() * bracket))
    return powers


def verify_generalized_jacobi(which: str, n: int, m: int | None = None) -> bool:
    """The generalized Jacobi family, in denominator-cleared form.

    bnan:  q^binom(n,2) (q-1)^n B^n A^n = sum_k (-1)^{n-k} q^binom(n-k,2) {n,k}_q [A,B]^k
    anbn:  (q-1)^n A^n B^n = sum_k (-1)^{n-k} q^binom(k+1,2) {n,k}_q [A,B]^k
    bracketBmAn:  [B, B^m A^n] = (1-q^n) B^{m+1} A^n - {n}_q B^m A^{n-1}

    The sums over k are built from the normal forms of bracket_powers(n);
    both sides are normal-ordered and compared exactly.
    """
    if which in ("bnan", "anbn"):
        q = LaurentPoly.gen()
        if which == "bnan":
            lhs = QExpr.word("B" * n + "A" * n, LaurentPoly.monomial(math.comb(n, 2)) * (q - 1) ** n)
        else:
            lhs = QExpr.word("A" * n + "B" * n, (q - 1) ** n)
        rhs = QExpr.zero()
        for k, (power, binomial) in enumerate(zip(bracket_powers(n), q_binomial_row(n, n))):
            shift = math.comb(n - k, 2) if which == "bnan" else math.comb(k + 1, 2)
            coeff = LaurentPoly.monomial(shift, (-1) ** (n - k)) * binomial
            rhs = rhs + coeff * power.to_qexpr()
        return verify_identity(lhs, rhs)
    if which == "bracketBmAn":
        if m is None:
            raise ValueError("bracketBmAn needs both m and n")
        word = "B" * m + "A" * n
        lhs = QExpr.word("B" + word) - QExpr.word(word + "B")
        rhs = QExpr.word("B" + word, 1 - LaurentPoly.monomial(n))
        if n >= 1:
            rhs = rhs - QExpr.word(word[:-1], q_integer(n))
        return verify_identity(lhs, rhs)
    raise ValueError(f"unknown identity family {which!r}")


def q_zero_products(n: int, m: int) -> NormalForm:
    """Normal order of A^n B^m at q = 0; collapses to a single monomial
    A^{n-m} (n >= m) or B^{m-n}."""
    return normal_order(A() ** n * B() ** m, q_value=0)


def q_zero_expected(n: int, m: int) -> NormalForm:
    if n >= m:
        return NormalForm({(0, n - m): 1})
    return NormalForm({(m - n, 0): 1})


_FREE_ITEMS = ("bilinear", "antisym1", "antisym2", "jacobi1", "jacobi2", "jacobi3")


def free_identity_check(which: str, q0=None) -> bool:
    """q-mutator identities that hold in the FREE associative algebra on
    A, B, C (no Heisenberg relation): expand both sides into words and
    compare coefficients.

    antisym1 involves 1/q and needs q0 != 0 (or symbolic q, the default)."""
    if which not in _FREE_ITEMS:
        raise ValueError(f"unknown free identity {which!r}")
    if q0 is None:
        q = LaurentPoly.gen()
        qinv = LaurentPoly.monomial(-1)
    else:
        q0 = gauss(q0)
        if which == "antisym1" and not q0:
            raise QZero("antisym1 requires q != 0")
        q = LaurentPoly.const(q0)
        qinv = LaurentPoly.const(q0.inv()) if q0 else None
    a, b, c = QExpr.word("A"), QExpr.word("B"), QExpr.word("C")
    if which == "bilinear":
        alpha, beta = GaussRat(2), GaussRat(3)
        checks = [
            q_mutator(a + c, b, q) == q_mutator(a, b, q) + q_mutator(c, b, q),
            q_mutator(a, b + c, q) == q_mutator(a, b, q) + q_mutator(a, c, q),
            q_mutator(alpha * a, beta * b, q) == (alpha * beta) * q_mutator(a, b, q),
        ]
        return all(checks)
    if which == "antisym1":
        return q_mutator(a, b, q) == -1 * (q * q_mutator(b, a, qinv))
    if which == "antisym2":
        return q_mutator(b, a, q) == q_mutator(a, b, q) - (1 + q) * commutator(a, b)
    if which == "jacobi1":
        return q_mutator(a * b, c, q) == commutator(a, b * c) + q_mutator(b, c * a, q)
    if which == "jacobi2":
        return q_mutator(a, b * c, q) == q_mutator(a * b, c, q) + q * commutator(c * a, b)
    # jacobi3, with the right side's X, Y, Z read as A, B, C
    lhs = (
        q_mutator(a, q_mutator(b, c, q), q)
        + q_mutator(b, q_mutator(c, a, q), q)
        + q_mutator(c, q_mutator(a, b, q), q)
    )
    cyc = QExpr.word("ABC") + QExpr.word("BCA") + QExpr.word("CAB")
    anti = QExpr.word("ACB") + QExpr.word("BAC") + QExpr.word("CBA")
    rhs = (1 - q) * (cyc - q * anti)
    return lhs == rhs


# -- tiny expression grammar for the command line -----------------------------

MAX_NESTING = 300  # levels of parentheses and unary minus signs, one parser recursion each


class _Tokens:
    def __init__(self, text: str, max_word: int):
        self.max_word = max_word
        self.depth = 0  # parentheses and unary minus signs open around the factor being read
        self.items: list[str] = []
        pos = 0
        while pos < len(text):
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch in "ABIq+-*^()":
                self.items.append(ch)
                pos += 1
                continue
            if ch.isdigit():
                start = pos
                while pos < len(text) and (text[pos].isdigit() or text[pos] == "/"):
                    pos += 1
                self.items.append(text[start:pos])
                continue
            raise ValueError(f"bad character {ch!r} in expression")
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def fit(self, length: int) -> int:
        """length, once it is known that a word that long is allowed."""
        if length > self.max_word:
            raise SizeCap(f"a word of {length} letters exceeds LIEQ_SIZE_CAP = {self.max_word}")
        return length

    def fit_words(self, words: int, exp: int = 1) -> None:
        """Refuse a product of exp factors of `words` words each when it
        could hold more than max_word words (words ** exp), before it is
        built."""
        # words >= 2 and exp >= bit_length make words ** exp > max_word
        if words > 1 and (exp >= self.max_word.bit_length() or words ** exp > self.max_word):
            count = words if exp == 1 else f"{words}^{exp}"
            raise SizeCap(f"a product of {count} words exceeds LIEQ_SIZE_CAP = {self.max_word}")

    def fit_coeffs(self, low: int, high: int, norm: int, den: int) -> None:
        """Refuse coefficients that could span more than max_word powers of
        q, from q^low to q^high, or whose numerators (of at most norm bits)
        or denominator (den bits) could fill more than max_word 64-bit words
        in one coefficient: (span + 1) * ceil(bits / 64)."""
        span = high - low
        if span > self.max_word:
            raise SizeCap(
                f"a coefficient range q^{low}..q^{high} exceeds LIEQ_SIZE_CAP = {self.max_word}"
            )
        words = (span + 1) * -(-max(norm, den) // 64)
        if words > self.max_word:
            raise SizeCap(
                f"a coefficient of {words} 64-bit words exceeds LIEQ_SIZE_CAP = {self.max_word}"
            )


class _Size(NamedTuple):
    """Bounds on the coefficients of a nonzero expression: the least and
    greatest power of q in any of them, and ceil(log2) of the summed
    numerator magnitudes over one common denominator (its l1 norm times
    that denominator) and of that denominator.  |ab| <= |a|_1 |b|_1 and
    |p^n| <= |p|_1^n bound the numerators of products and powers."""

    low: int
    high: int
    norm: int
    den: int


def _size(expr: QExpr) -> _Size | None:
    """The coefficient bounds of expr; None when it is zero."""
    polys = expr.terms.values()
    if not polys:
        return None
    den = math.lcm(*(p.den for p in polys))
    norm = sum((sum(map(abs, p.re)) + sum(map(abs, p.im or ()))) * (den // p.den) for p in polys)
    low = min(p.low for p in polys)
    high = max(p.low + len(p.re) for p in polys) - 1
    return _Size(low, high, (norm - 1).bit_length(), (den - 1).bit_length())


def parse_qexpr(text: str) -> QExpr:
    """Parse the small normalize grammar: letters A, B, I; the parameter q;
    integers and fractions; operators * + - ^ and parentheses.

    A run of letters and letter powers joined by *, a space or nothing
    (A*B*A, A^3 B, A^n) is read as one word string, so an n-letter word
    costs one QExpr, not n - 1 products.  A letter power, a power of a
    parenthesized expression or a product that would make a word longer
    than cap = size_cap() letters raises SizeCap (a ValueError) before the
    word is built, and so does a product or power whose word count could
    exceed cap: |out| * |factor| words for a product, |base|^exp for a
    power.  A sum, product or power is refused before it is built, too,
    when its coefficients could span more than cap powers of q, or when
    one coefficient's numerators could fill more than cap 64-bit words,
    (span + 1) * ceil(bits / 64), with the bits predicted from the
    operands' l1 norms and denominators (see _Size)."""
    tokens = _Tokens(text, size_cap())
    expr = _parse_sum(tokens)
    if tokens.peek() is not None:
        raise ValueError(f"trailing input near {tokens.peek()!r}")
    return expr


def _parse_sum(tokens: _Tokens) -> QExpr:
    out = _parse_term(tokens)
    while tokens.peek() in ("+", "-"):
        op = tokens.take()
        term = _parse_term(tokens)
        a, b = _size(out), _size(term)
        if a and b:
            tokens.fit_coeffs(min(a.low, b.low), max(a.high, b.high),
                              max(a.norm + b.den, b.norm + a.den) + 1, a.den + b.den)
        out = out + term if op == "+" else out - term
    return out


def _parse_term(tokens: _Tokens) -> QExpr:
    out = word = None  # the product so far; the letter run being read
    while True:
        if tokens.peek() in ("A", "B"):
            letter, exp = tokens.take(), _parse_power(tokens)
            word = word or ""
            tokens.fit(len(word) + exp)
            word += letter * exp
        else:
            factor = _parse_factor(tokens)
            if word is not None:
                out = _times(tokens, out, QExpr.word(word))
                word = None
            out = _times(tokens, out, factor)
        nxt = tokens.peek()
        if nxt == "*":
            tokens.take()
        elif nxt is None or not (nxt in "ABIq(" or nxt[0].isdigit()):
            break
    return out if word is None else _times(tokens, out, QExpr.word(word))


def _times(tokens: _Tokens, out: QExpr | None, factor: QExpr) -> QExpr:
    if out is None:
        return factor
    tokens.fit(_longest(out) + _longest(factor))
    tokens.fit_words(len(out.terms) * len(factor.terms))
    a, b = _size(out), _size(factor)
    if a and b:
        tokens.fit_coeffs(a.low + b.low, a.high + b.high, a.norm + b.norm, a.den + b.den)
    return out * factor


def _longest(expr: QExpr) -> int:
    """The number of letters in the longest word of expr."""
    return max(map(len, expr.terms), default=0)


def _parse_exponent(tokens: _Tokens) -> int:
    sign = 1
    if tokens.peek() == "-":
        tokens.take()
        sign = -1
    tok = tokens.take()
    if not tok.isdigit():
        raise ValueError(f"bad exponent {tok!r}")
    return sign * int(tok)


def _parse_factor(tokens: _Tokens) -> QExpr:
    tok = tokens.take()
    if tok in ("-", "("):
        if tokens.depth == MAX_NESTING:
            raise SizeCap(f"nesting deeper than {MAX_NESTING} levels of parentheses and unary minus signs")
        tokens.depth += 1
        inner = _parse_factor(tokens) if tok == "-" else _parse_sum(tokens)
        tokens.depth -= 1
        if tok == "-":
            return -inner
        if tokens.take() != ")":
            raise ValueError("missing closing parenthesis")
        base = inner
    elif tok in ("A", "B"):
        return QExpr.word(tok * tokens.fit(_parse_power(tokens)))
    elif tok == "I":
        base = QExpr.unit()
    elif tok == "q":
        exp = 1
        if tokens.peek() == "^":
            tokens.take()
            exp = _parse_exponent(tokens)
        return QExpr.unit(LaurentPoly.monomial(exp))
    elif tok[0].isdigit():
        base = QExpr.unit(GaussRat(tok))
    else:
        raise ValueError(f"unexpected token {tok!r}")
    exp = _parse_power(tokens)
    if exp == 1:
        return base
    tokens.fit(_longest(base) * exp)
    tokens.fit_words(len(base.terms), exp)
    a = _size(base)
    if a:
        tokens.fit_coeffs(a.low * exp, a.high * exp, a.norm * exp, a.den * exp)
    return base ** exp


def _parse_power(tokens: _Tokens) -> int:
    """The exponent of an optional ^n after anything but q; 1 when there is
    none."""
    if tokens.peek() != "^":
        return 1
    tokens.take()
    exp = _parse_exponent(tokens)
    if exp < 0:
        raise ValueError("negative powers only apply to q")
    return exp

"""Laurent polynomials in q with Gaussian-rational coefficients.

Functions of the quantum parameter ``q`` are Laurent polynomials over Q(i)
(scalars from ``exactnum``); negative exponents are first-class so
reciprocal identities in 1/q stay exact.  (The deformation parameter ``t``
of ``deform`` is not one: its Jacobi expansions are tables of coefficient
vectors by power of t.)  A Laurent polynomial is stored densely, as
integer arrays of real and imaginary numerators over one shared
denominator, so its arithmetic is integer convolution and one-pass long
division with no per-term GaussRat.
A polynomial with nonnegative integer coefficients can also be packed into
one Python int (``pack``), so that its products and exact quotients are
single big-integer operations.

Only the q-calculus (``qheis``, and ``fock`` through it) imports this
module, so the Lie-algebra commands never load it.  Values are immutable
after construction and can be shared freely between threads (a
polynomial's ``coeffs`` view is filled in on first read, the same way by
every reader).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Mapping

from .exactnum import (
    ZERO,
    DivisionByZero,
    EvalAtZeroWithNegativeDegree,
    GaussRat,
    NonDivisible,
    ScalarLike,
    gauss,
    power,
)


def _convolve(x, y) -> list[int]:
    """Coefficients of the product of two integer coefficient sequences."""
    if len(x) > len(y):
        x, y = y, x
    if len(x) == 1:
        a = x[0]
        return y if a == 1 else [a * b for b in y]
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                out[j] += a * b
    return out


def _aligned(size: int, a, a_at: tuple[int, int], b, b_at: tuple[int, int]) -> list[int] | None:
    """a and b, each multiplied by its scale and placed at its offset, summed
    into one list of the given size; None when both are None."""
    if a is None and b is None:
        return None
    out = [0] * size
    for seq, (at, scale) in ((a, a_at), (b, b_at)):
        if seq is not None:
            seg = seq if scale == 1 else [scale * c for c in seq]
            out[at : at + len(seq)] = map(add, out[at : at + len(seq)], seg)
    return out


def _divide(num, div) -> tuple[list[int], int] | None:
    """(quot, scale) with num * scale == quot * div over the integers, by one
    top-down pass, or None when a remainder survives.  len(num) >= len(div).

    The remainder stays integral: when the leading coefficient of div does
    not divide the top of the remainder, the remainder and the quotient so
    far are multiplied by the missing factor, and scale records it."""
    m = len(div)
    lead = div[-1]
    rem = list(num)
    quot = [0] * (len(num) - m + 1)
    scale = 1
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + m - 1]
        if not top:
            continue
        if top % lead:
            f = abs(lead) // gcd(lead, top)
            rem[: k + m] = [f * c for c in rem[: k + m]]
            quot[k + 1 :] = [f * c for c in quot[k + 1 :]]
            scale *= f
            top *= f
        c = top // lead
        quot[k] = c
        rem[k : k + m] = map(sub, rem[k : k + m], map(mul, div, repeat(c)))
    if any(rem[: m - 1]):
        return None
    return quot, scale


def _poly(low: int, re, im, den: int) -> "LaurentPoly":
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._settle(low, re, im, den)
    return poly


class LaurentPoly:
    """Laurent polynomial in q with GaussRat coefficients.

    Stored densely: the coefficient of ``q^(low + k)`` is
    ``(re[k] + im[k]*i) / den`` with integer numerators and one positive
    common denominator ``den``; ``im`` is None when every coefficient is
    real.  The arrays have no zero ends and gcd(den, numerators) = 1, so
    equal polynomials have equal fields; zero is ``re == ()``.

    ``coeffs`` is a read-only view mapping each exponent (possibly
    negative) of a nonzero coefficient to its GaussRat, in ascending
    order; it is built on first read and is not used by the arithmetic.
    """

    __slots__ = ("low", "re", "im", "den", "_coeffs")

    def __init__(self, coeffs: Mapping[int, ScalarLike]):
        terms: dict[int, GaussRat] = {}
        for exp, value in coeffs.items():
            scalar = gauss(value)
            if scalar is None:
                raise TypeError(f"bad coefficient {value!r}")
            if scalar:
                terms[int(exp)] = scalar
        if not terms:
            self._settle(0, (), None, 1)
            return
        low = min(terms)
        den = lcm(*(part.denominator for c in terms.values() for part in (c.re, c.im)))
        re = [0] * (max(terms) - low + 1)
        im = [0] * len(re)
        for exp, c in terms.items():
            re[exp - low] = c.re.numerator * (den // c.re.denominator)
            im[exp - low] = c.im.numerator * (den // c.im.denominator)
        self._settle(low, re, im, den)

    def _settle(self, low: int, re, im, den: int) -> None:
        """Store the arrays normalized: zero ends trimmed, im None when all
        real, and gcd(den, numerators) = 1."""
        if im is not None and not any(im):
            im = None
        start, stop = 0, len(re)
        other = re if im is None else im
        while start < stop and not (re[start] or other[start]):
            start += 1
        while stop > start and not (re[stop - 1] or other[stop - 1]):
            stop -= 1
        if start == stop:
            low, re, im, den = 0, (), None, 1
        elif start or stop < len(re):
            low += start
            re = re[start:stop]
            im = None if im is None else im[start:stop]
        if den != 1:
            g = gcd(den, *re) if im is None else gcd(den, *re, *im)
            if g != 1:
                den //= g
                re = [c // g for c in re]
                im = None if im is None else [c // g for c in im]
        self.low = low
        self.re = tuple(re)
        self.im = None if im is None else tuple(im)
        self.den = den
        self._coeffs = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _poly(0, (), None, 1)

    @classmethod
    def const(cls, value: ScalarLike) -> "LaurentPoly":
        if type(value) is int:
            return _poly(0, (value,), None, 1)
        return cls({0: value})

    @classmethod
    def gen(cls) -> "LaurentPoly":
        return _poly(1, (1,), None, 1)

    @classmethod
    def monomial(cls, exp: int, coeff: ScalarLike = 1) -> "LaurentPoly":
        # a plain int (not a bool) is already a numerator over den 1
        if type(coeff) is int:
            return _poly(int(exp), (coeff,), None, 1)
        return cls({exp: coeff})

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        if not other.re:
            return self
        if not self.re:
            return other
        g = gcd(self.den, other.den)
        s1, s2 = other.den // g, self.den // g
        low = min(self.low, other.low)
        size = max(self.low + len(self.re), other.low + len(other.re)) - low
        first, second = (self.low - low, s1), (other.low - low, s2)
        re = _aligned(size, self.re, first, other.re, second)
        im = _aligned(size, self.im, first, other.im, second)
        return _poly(low, re, im, self.den * s1)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        im = None if self.im is None else [-c for c in self.im]
        return _poly(self.low, [-c for c in self.re], im, self.den)

    def __mul__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        if not self.re or not other.re:
            return LaurentPoly.zero()
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        re = _convolve(ar, br)
        im = None
        if ai is not None and bi is not None:
            re = list(map(sub, re, _convolve(ai, bi)))
            im = list(map(add, _convolve(ar, bi), _convolve(ai, br)))
        elif ai is not None:
            im = _convolve(ai, br)
        elif bi is not None:
            im = _convolve(ar, bi)
        return _poly(self.low + other.low, re, im, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use monomial inverses for negative powers")
        return power(self, n, LaurentPoly.const(1))

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises NonDivisible if a remainder survives.

        A real divisor D divides the real and imaginary numerator arrays
        one top-down pass each.  A complex D = Dr + i*Di is made real
        first: N / D = N * conj(D) / (Dr^2 + Di^2), with conj(D) the
        coefficient-wise conjugate, which divides exactly iff D does."""
        other = as_poly(other)
        if not other.re:
            raise DivisionByZero("division by zero polynomial")
        if not self.re:
            return LaurentPoly.zero()
        if len(self.re) < len(other.re):
            raise NonDivisible(f"{self} is not divisible by {other}")
        nr, ni, div = self.re, self.im, other.re
        if other.im is not None:
            dr, di = other.re, other.im
            ni = ni or (0,) * len(nr)
            div = list(map(add, _convolve(dr, dr), _convolve(di, di)))
            nr, ni = (
                list(map(add, _convolve(nr, dr), _convolve(ni, di))),
                list(map(sub, _convolve(ni, dr), _convolve(nr, di))),
            )
        quot = [_divide(part, div) for part in (nr, ni) if part is not None]
        if None in quot:
            raise NonDivisible(f"{self} is not divisible by {other}")
        scale = lcm(*(s for _, s in quot))
        arrays = [[c * (scale // s * other.den) for c in q] for q, s in quot]
        im = arrays[1] if len(arrays) > 1 else None
        return _poly(self.low - other.low, arrays[0], im, scale * self.den)

    # -- evaluation and structure -----------------------------------------

    def eval(self, point: ScalarLike) -> GaussRat:
        """Substitute q by an exact scalar."""
        x = gauss(point)
        if x is None:
            raise TypeError(f"bad evaluation point {point!r}")
        if not x and self.re and self.low < 0:
            raise EvalAtZeroWithNegativeDegree(
                "cannot evaluate negative exponents at 0"
            )
        if not self.re:
            return ZERO
        # Horner on integers: with x = (xr + xi*i) / xd, accumulate
        # xd^deg * sum_k c_k x^k, then divide once.
        xd = lcm(x.re.denominator, x.im.denominator)
        xr = x.re.numerator * (xd // x.re.denominator)
        xi = x.im.numerator * (xd // x.im.denominator)
        acc_r = acc_i = 0
        scale = 1
        for cr, ci in zip(reversed(self.re), repeat(0) if self.im is None else reversed(self.im)):
            acc_r, acc_i = acc_r * xr - acc_i * xi + cr * scale, acc_r * xi + acc_i * xr + ci * scale
            scale *= xd
        den = scale // xd * self.den
        total = GaussRat(Fraction(acc_r, den), Fraction(acc_i, den))
        return total * x ** self.low if self.low else total

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self):
        return bool(self.re)

    @property
    def coeffs(self) -> Mapping[int, GaussRat]:
        if self._coeffs is None:
            den = self.den
            out = {}
            for k, (a, b) in enumerate(zip(self.re, self.im or repeat(0))):
                if a or b:
                    out[self.low + k] = (
                        GaussRat(a, b) if den == 1 else GaussRat(Fraction(a, den), Fraction(b, den))
                    )
            self._coeffs = MappingProxyType(out)
        return self._coeffs

    def __eq__(self, other):
        other = as_poly(other)
        if other is None:
            return NotImplemented
        return (self.low, self.re, self.im, self.den) == (other.low, other.re, other.im, other.den)

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.re:
            return "0"
        chunks = []
        for exp, coeff in self.coeffs.items():
            txt = str(coeff)
            needs_parens = ("+" in txt[1:]) or ("-" in txt[1:])
            if exp == 0:
                chunks.append(f"({txt})" if needs_parens else txt)
                continue
            power = "q" if exp == 1 else f"q^{exp}"
            if txt == "1":
                chunks.append(power)
            elif txt == "-1":
                chunks.append(f"-{power}")
            elif needs_parens:
                chunks.append(f"({txt})*{power}")
            else:
                chunks.append(f"{txt}*{power}")
        out = chunks[0]
        for chunk in chunks[1:]:
            out += chunk if chunk.startswith("-") else "+" + chunk
        return out

    def __repr__(self):
        return f"LaurentPoly[q]({self})"

    # -- wire format --------------------------------------------------------

    def to_doc(self) -> dict:
        return {"var": "q", "coeffs": {str(e): str(c) for e, c in self.coeffs.items()}}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "LaurentPoly":
        if doc.get("var", "q") != "q":
            raise ValueError(f"polynomial in {doc['var']!r}; only q is supported")
        return cls({int(e): GaussRat(s) for e, s in doc["coeffs"].items()})


def as_poly(value) -> LaurentPoly | None:
    """value as a LaurentPoly: itself, or a scalar as a constant; None if
    foreign."""
    if isinstance(value, LaurentPoly):
        return value
    if type(value) is int:
        return LaurentPoly.const(value)
    scalar = gauss(value)
    if scalar is None:
        return None
    return LaurentPoly.const(scalar)


# -- Kronecker packing ---------------------------------------------------------
#
# A polynomial with nonnegative integer coefficients below 2^w is the same
# thing as its value at q = 2^w: the coefficient of q^j sits in bits
# [j*w, (j+1)*w) of one Python int, so a product or an exact quotient of
# such polynomials is one big-integer operation (Kronecker substitution; see
# D. Harvey, J. Symbolic Comput. 44 (2009) 1502-1510).  Slot widths are
# multiples of 64 bits, so a slot is a whole number of 64-bit limbs.


def slot_width(bound: int) -> int:
    """The smallest multiple of 64 bits whose slots hold 0..bound."""
    return max(64, -(-bound.bit_length() // 64) * 64)


def pack(poly: LaurentPoly, width: int) -> int:
    """poly at q = 2^width.  poly must have nonnegative integer
    coefficients below 2^width and no negative exponent, and width must be
    a multiple of 64; anything else raises ValueError."""
    if poly.den != 1 or poly.im is not None or poly.low < 0 or width % 64:
        raise ValueError(f"cannot pack {poly} at width {width}")
    try:
        if width == 64:
            slots = array("Q", poly.re)
            if sys.byteorder == "big":
                slots.byteswap()
            data = slots.tobytes()
        else:
            data = b"".join(c.to_bytes(width // 8, "little") for c in poly.re)
    except OverflowError:
        raise ValueError(f"cannot pack {poly} at width {width}") from None
    return int.from_bytes(data, "little") << (poly.low * width)


def unpack(value: int, width: int) -> LaurentPoly:
    """The polynomial in q whose coefficient of q^j is bits [j*width,
    (j+1)*width) of a nonnegative value; width a multiple of 64."""
    data = value.to_bytes((value.bit_length() + 63) // 64 * 8, "little")
    if width == 64:
        slots = array("Q", data)
        if sys.byteorder == "big":
            slots.byteswap()
    else:
        step, view = width // 8, memoryview(data)
        slots = [int.from_bytes(view[at : at + step], "little") for at in range(0, len(data), step)]
    return _poly(0, slots, None, 1)


def packed_divexact(num: int, div: int, width: int) -> LaurentPoly:
    """N / D for the polynomials N = unpack(num) and D = unpack(div).

    The quotient Q is unpacked from num // div and certified: every
    coefficient of Q*D is at most Q(1)*D(1), so when that is below
    2^width, packing Q*D carries nowhere and its packed value num means
    Q*D = N.  A remainder or a failed certificate raises NonDivisible."""
    if not div:
        raise DivisionByZero("division by zero polynomial")
    quot, rem = divmod(num, div)
    if not rem:
        poly = unpack(quot, width)
        if not (sum(poly.re) * sum(unpack(div, width).re)) >> width:
            return poly
    raise NonDivisible(f"{unpack(num, width)} is not divisible by {unpack(div, width)}")

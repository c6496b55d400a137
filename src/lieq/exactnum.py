"""Exact scalars: Gaussian rationals, the package's errors and its work cap.

All algebraic data in this package lives over the field Q(i), realized as
pairs of exact rational components (``int`` or ``fractions.Fraction``).
Laurent polynomials in q over Q(i) live in ``laurent``, which only the
q-calculus imports; ``exactnum.LaurentPoly`` still names that class (it
is looked up when first read), so the Lie-algebra layers, which import
this module, never load it.

``LIEQ_SIZE_CAP`` bounds the work of one call before it starts: an
over-cap request raises ``SizeCap``, a usage error (exit 2 on the command
line).  ``size_cap()`` reads it.

Values are immutable after construction and can be shared freely between
threads.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Union


class LieqError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(LieqError):
    """Inverse or quotient by an exact zero."""


class EvalAtZeroWithNegativeDegree(LieqError):
    """Laurent polynomial with negative exponents evaluated at 0."""


class NonDivisible(LieqError):
    """Exact polynomial division left a nonzero remainder."""


class SizeCap(LieqError, ValueError):
    """Work refused before it starts: its predicted size exceeds the cap.
    A usage error as well as a LieqError, so the command line exits 2."""


# the default LIEQ_SIZE_CAP budget: matrix entries of a fock truncation;
# columns of one cochain differential d_k; candidate triples of one Jacobi
# check or graded Jacobi table; for parse_qexpr, letters in one word, words
# in one product or power, powers of q across the coefficients and 64-bit
# words in one coefficient
DEFAULT_SIZE_CAP = 200_000


def size_cap() -> int:
    """The LIEQ_SIZE_CAP setting, or DEFAULT_SIZE_CAP when it is unset."""
    raw = os.environ.get("LIEQ_SIZE_CAP")
    return int(raw) if raw else DEFAULT_SIZE_CAP


ScalarLike = Union["GaussRat", int, Fraction, str]


def power(base, n: int, one):
    """base ** n for an int n >= 0, by square-and-multiply starting from
    one.  The base is squared only while bits of n remain, so the last
    square is never made: for a sum of words it would hold the square of
    the answer's word count."""
    out = one
    while True:
        if n & 1:
            out = out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def _rational(value) -> Union[int, Fraction]:
    """value as an exact rational: an int when integral, else a Fraction."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _parse_gauss(text: str) -> tuple[int | Fraction, int | Fraction]:
    txt = text.replace(" ", "")
    if not txt:
        raise ValueError("empty scalar string")
    if txt.isascii() and (txt[1:] if txt[0] == "-" else txt).isdigit():
        # an integer literal, the usual constant, needs no Fraction parse
        return int(txt), 0
    if "e" in txt or "E" in txt:
        # Fraction reads "1e999999999" as an integer of a billion digits
        raise ValueError(f"exponent in scalar {text!r}; write it as an integer or a fraction")
    re_part, im_part = txt, 0
    if txt.endswith("i"):
        body = txt[:-1]
        # split real and imaginary parts at the last top-level sign
        re_part, im_part = 0, body
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_part = body[:pos], body[pos:]
                break
        if im_part in ("", "+", "-"):
            im_part += "1"
    try:
        return Fraction(re_part), Fraction(im_part)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


class GaussRat:
    """A Gaussian rational a + b*i with exact rational components.

    An integral component is stored as an ``int``, any other as a
    ``Fraction`` in lowest terms with positive denominator, so equality is
    plain component-wise equality.  ``__init__`` is the one place that
    normalizes; ``int`` arithmetic stays in C and ``Fraction`` accepts
    ``int`` operands, so every operation stays exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0):
        if isinstance(re, str) and im == 0:
            re, im = _parse_gauss(re)
        self.re = re if type(re) is int else _rational(re)
        self.im = im if type(im) is int else _rational(im)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        return GaussRat(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussRat(self.re * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, ONE)

    def inv(self) -> "GaussRat":
        """Multiplicative inverse; raises DivisionByZero on 0."""
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise DivisionByZero("inverse of zero Gaussian rational")
        return GaussRat(Fraction(self.re, norm), Fraction(-self.im, norm))

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    # -- structure -----------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = gauss(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if not self.re:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussRat({self})"


def gauss(value) -> GaussRat | None:
    """Coerce ints, Fractions, and scalar strings to GaussRat; None if foreign."""
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRat(value)
    if isinstance(value, str):
        return GaussRat(value)
    return None


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def __getattr__(name: str):
    # exactnum.LaurentPoly, read from its own module when first asked for
    if name == "LaurentPoly":
        from .laurent import LaurentPoly

        return LaurentPoly
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

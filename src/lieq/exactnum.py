"""Exact scalars: Gaussian rationals and one-parameter Laurent polynomials.

All algebraic data in this package lives over the field Q(i), realized as
pairs of exact rational components (``int`` or ``fractions.Fraction``).  The
one-parameter families (deformation parameter ``t``, quantum parameter
``q``) are Laurent polynomials with GaussRat coefficients; negative
exponents are first-class so reciprocal identities in 1/q stay exact.

Values are immutable after construction and can be shared freely between
threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union


class LieqError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(LieqError):
    """Inverse or quotient by an exact zero."""


class EvalAtZeroWithNegativeDegree(LieqError):
    """Laurent polynomial with negative exponents evaluated at 0."""


class NonDivisible(LieqError):
    """Exact polynomial division left a nonzero remainder."""


ScalarLike = Union["GaussRat", int, Fraction, str]


def _rational(value) -> Union[int, Fraction]:
    """value as an exact rational: an int when integral, else a Fraction."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _parse_gauss(text: str) -> tuple[Fraction, Fraction]:
    txt = text.replace(" ", "")
    if not txt:
        raise ValueError("empty scalar string")
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
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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


def _is_const_coeffs(coeffs: Mapping[int, GaussRat]) -> bool:
    return all(exp == 0 for exp in coeffs)


class LaurentPoly:
    """Laurent polynomial in one formal parameter with GaussRat coefficients.

    ``coeffs`` maps integer exponents (possibly negative) to nonzero
    scalars; zero is the empty map.  Two polynomials compare equal when
    they have the same coefficients and either the same parameter name or
    no visible parameter at all (constants are parameter-agnostic).
    """

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Mapping[int, ScalarLike]):
        clean: dict[int, GaussRat] = {}
        for exp, value in coeffs.items():
            scalar = gauss(value)
            if scalar is None:
                raise TypeError(f"bad coefficient {value!r}")
            if scalar:
                clean[int(exp)] = scalar
        self.var = var
        self.coeffs = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, var: str = "q") -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def const(cls, value: ScalarLike, var: str = "q") -> "LaurentPoly":
        return cls(var, {0: value})

    @classmethod
    def gen(cls, var: str = "q") -> "LaurentPoly":
        return cls(var, {1: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: ScalarLike = 1, var: str = "q") -> "LaurentPoly":
        return cls(var, {exp: coeff})

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        scalar = gauss(other)
        if scalar is None:
            return None
        return LaurentPoly.const(scalar, self.var)

    def _join_var(self, other: "LaurentPoly") -> str:
        if self.var == other.var:
            return self.var
        if _is_const_coeffs(self.coeffs):
            return other.var
        if _is_const_coeffs(other.coeffs):
            return self.var
        raise ValueError(f"mixed parameters {self.var!r} and {other.var!r}")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for exp, value in other.coeffs.items():
            acc = out.get(exp)
            acc = value if acc is None else acc + value
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return LaurentPoly(self._join_var(other), out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return LaurentPoly(self.var, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, GaussRat] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                exp = e1 + e2
                term = c1 * c2
                acc = out.get(exp)
                acc = term if acc is None else acc + term
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        return LaurentPoly(self._join_var(other), out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use monomial inverses for negative powers")
        out = LaurentPoly.const(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises NonDivisible if a remainder survives."""
        other = self._coerce(other)
        if not other.coeffs:
            raise DivisionByZero("division by zero polynomial")
        if not self.coeffs:
            return LaurentPoly.zero(self.var)
        var = self._join_var(other)
        d_top = max(other.coeffs)
        lead = other.coeffs[d_top]
        # an exact quotient cannot reach below this exponent
        exp_floor = min(self.coeffs) - min(other.coeffs)
        rem = dict(self.coeffs)
        quot: dict[int, GaussRat] = {}
        while rem:
            exp = max(rem) - d_top
            if exp < exp_floor:
                raise NonDivisible(f"{self} is not divisible by {other}")
            coeff = rem[max(rem)] / lead
            quot[exp] = coeff
            for e2, c2 in other.coeffs.items():
                tgt = exp + e2
                acc = rem.get(tgt, ZERO) - coeff * c2
                if acc:
                    rem[tgt] = acc
                else:
                    rem.pop(tgt, None)
        return LaurentPoly(var, quot)

    # -- evaluation and structure -----------------------------------------

    def eval(self, point: ScalarLike) -> GaussRat:
        """Substitute the parameter by an exact scalar."""
        x = gauss(point)
        if x is None:
            raise TypeError(f"bad evaluation point {point!r}")
        if not x and self.coeffs and min(self.coeffs) < 0:
            raise EvalAtZeroWithNegativeDegree(
                "cannot evaluate negative exponents at 0"
            )
        total = ZERO
        for exp, coeff in self.coeffs.items():
            total = total + coeff * (x ** exp)
        return total

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return _is_const_coeffs(self.coeffs)

    @property
    def min_exp(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    @property
    def max_exp(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        return self.var == other.var or _is_const_coeffs(self.coeffs)

    __hash__ = None  # mutable coefficient dict inside

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for exp in sorted(self.coeffs):
            coeff = self.coeffs[exp]
            txt = str(coeff)
            needs_parens = ("+" in txt[1:]) or ("-" in txt[1:])
            if exp == 0:
                chunks.append(f"({txt})" if needs_parens else txt)
                continue
            power = self.var if exp == 1 else f"{self.var}^{exp}"
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
        return f"LaurentPoly[{self.var}]({self})"

    # -- wire format --------------------------------------------------------

    def to_doc(self) -> dict:
        return {"var": self.var, "coeffs": {str(e): str(c) for e, c in self.coeffs.items()}}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "LaurentPoly":
        return cls(doc.get("var", "q"), {int(e): GaussRat(s) for e, s in doc["coeffs"].items()})

"""Exact arithmetic over Q(i, sqrt2), the field holding every state amplitude.

A value is stored as five ints ``(a, b, c, d, den)`` standing for
``(a + b*i + (c + d*i)*sqrt2) / den``.  Since 1, i, sqrt2 and i*sqrt2 are a
basis of the field over Q, the tuple is unique once it is kept canonical:
``den > 0``, the gcd of all five ints is 1, and zero is ``(0, 0, 0, 0, 1)``.
Equality and hashing are then plain tuple operations, comparison against
zero is exact (which is what makes elimination over these scalars
decisive), and each operation costs at most one gcd, none when the
denominator is 1.

The text grammar used by state files and the command line writes sqrt(2) as
``s2``: for example ``1/2``, ``-2i``, ``i*s2``, ``-1/3+2i+(1+i)*s2``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "GaussRational",
    "Scalar",
    "ParseError",
    "as_scalar",
    "scalar_parse",
    "scalar_format",
    "ZERO",
    "ONE",
    "I",
    "SQRT2",
]

_SQRT2_FLOAT = math.sqrt(2.0)
_gcd = math.gcd


class ParseError(ValueError):
    """Malformed scalar text; ``position`` is the offset of the bad character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Scalar:
    """Element ``a + b*sqrt(2)`` of Q(i, sqrt2); ``a`` and ``b`` may be any scalars.

    ``coords`` holds the canonical ``(a, b, c, d, den)`` described in the
    module docstring.  Values are immutable and all operations are pure, so
    scalars can be shared freely across threads.  Division is multiplication
    by the exact inverse; there is no floored or partial division anywhere.
    """

    __slots__ = ("coords",)

    def __init__(self, a=0, b=0) -> None:
        x = _coerce(a)
        y = _coerce(b)
        if x is None or y is None:
            raise TypeError("Scalar components must be Scalar, Fraction or int")
        if y:
            x = x + y * SQRT2
        self.coords = x.coords

    def __bool__(self) -> bool:
        return self.coords != (0, 0, 0, 0, 1)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        # Equal to the int or Fraction this compares equal to, as == requires.
        a, b, c, d, den = self.coords
        if b or c or d:
            return hash(self.coords)
        return hash(a) if den == 1 else hash(Fraction(a, den))

    def __neg__(self) -> Scalar:
        a, b, c, d, den = self.coords
        return _make(-a, -b, -c, -d, den)

    def __add__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d, p = self.coords
        e, f, g, h, q = other.coords
        if p == q:
            return _make(a + e, b + f, c + g, d + h, p)
        return _make(a * q + e * p, b * q + f * p, c * q + g * p, d * q + h * p, p * q)

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, d, p = self.coords
        e, f, g, h, q = other.coords
        if p == q:
            return _make(a - e, b - f, c - g, d - h, p)
        return _make(a * q - e * p, b * q - f * p, c * q - g * p, d * q - h * p, p * q)

    def __rsub__(self, other) -> Scalar:
        return (-self) + other

    def __mul__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        # (x + y*s2)(u + v*s2) = (x*u + 2*y*v) + (x*v + y*u)*s2, with
        # x = a + b*i, y = c + d*i, u = e + f*i, v = g + h*i.
        a, b, c, d, p = self.coords
        e, f, g, h, q = other.coords
        return _make(
            a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e,
            p * q,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> Scalar:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> Scalar:
        """Exact reciprocal: ``den * (x - y*s2) * conj(N) / |N|^2``.

        Here the value is ``(x + y*s2) / den`` with x, y in Z[i], and
        N = x^2 - 2*y^2 is nonzero for a nonzero value, since sqrt(2) is
        not in Q(i).
        """
        a, b, c, d, den = self.coords
        nr = a * a - b * b - 2 * (c * c - d * d)
        ni = 2 * (a * b - 2 * c * d)
        norm = nr * nr + ni * ni
        if not norm:
            raise ZeroDivisionError("inverse of zero scalar")
        return _make(
            den * (a * nr + b * ni),
            den * (b * nr - a * ni),
            -den * (c * nr + d * ni),
            -den * (d * nr - c * ni),
            norm,
        )

    def __complex__(self) -> complex:
        a, b, c, d, den = self.coords
        return complex(a / den, b / den) + _SQRT2_FLOAT * complex(c / den, d / den)

    def __str__(self) -> str:
        return scalar_format(self)

    def __repr__(self) -> str:
        return f"Scalar({scalar_format(self)!r})"


_new = object.__new__


def _make(a: int, b: int, c: int, d: int, den: int) -> Scalar:
    """The canonical scalar ``(a + b*i + (c + d*i)*s2) / den``; ``den`` must be > 0."""
    if den != 1:
        g = _gcd(a, b, c, d, den)
        if g != 1:
            a //= g
            b //= g
            c //= g
            d //= g
            den //= g
    s = _new(Scalar)
    s.coords = (a, b, c, d, den)
    return s


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return _make(value, 0, 0, 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, 0, 0, value.denominator)
    return None


def GaussRational(re=0, im=0) -> Scalar:
    """The scalar ``re + im*i`` for rationals (int or Fraction) ``re`` and ``im``."""
    for part in (re, im):
        if not isinstance(part, (int, Fraction)):
            raise TypeError(f"expected int or Fraction, got {type(part).__name__}")
    return _coerce(re) + _coerce(im) * I


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    s = _coerce(value)
    if s is None:
        raise TypeError(f"cannot interpret {type(value).__name__} as a scalar")
    return s


class _Parser:
    """Recursive-descent parser for the scalar text grammar.

    Terms are summed straight into the four integer coordinates over one
    common denominator; the result is reduced once at the end.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.coords = [0, 0, 0, 0]
        self.den = 1

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.fail(f"expected {literal!r}")
        self.pos += len(literal)

    def add(self, slot: int, num: int, den: int) -> None:
        """Add num/den to coordinate ``slot`` (0: 1, 1: i, 2: s2, 3: i*s2)."""
        common = math.lcm(self.den, den)
        if common != self.den:
            self.coords = [x * (common // self.den) for x in self.coords]
            self.den = common
        self.coords[slot] += num * (common // den)

    def parse(self) -> Scalar:
        self.skip_ws()
        if not self.peek():
            self.fail("empty scalar")
        sign = self.read_sign(optional=True)
        while True:
            self.read_atom(sign)
            self.skip_ws()
            if not self.peek():
                break
            if self.peek() not in "+-":
                self.fail("expected '+' or '-'")
            sign = self.read_sign(optional=False)
        return _make(*self.coords, self.den)

    def read_sign(self, optional: bool) -> int:
        self.skip_ws()
        ch = self.peek()
        if ch == "+":
            self.pos += 1
            return 1
        if ch == "-":
            self.pos += 1
            return -1
        if optional:
            return 1
        self.fail("expected sign")

    def read_atom(self, sign: int) -> None:
        """One summand: a Gaussian term, optionally tagged with ``*s2``."""
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            terms = self.read_gauss()
            self.expect(")")
            self.expect("*")
            self.expect("s2")
            for num, den, imag in terms:
                self.add(2 + imag, sign * num, den)
            return
        if ch == "s":
            self.expect("s2")
            self.add(2, sign, 1)
            return
        num, den, imag = self.read_term()
        self.skip_ws()
        if self.peek() == "*":
            self.pos += 1
            self.expect("s2")
            self.add(2 + imag, sign * num, den)
            return
        self.add(imag, sign * num, den)

    def read_gauss(self) -> list[tuple[int, int, int]]:
        terms = []
        sign = self.read_sign(optional=True)
        while True:
            num, den, imag = self.read_term()
            terms.append((sign * num, den, imag))
            self.skip_ws()
            if self.peek() not in "+-":
                return terms
            sign = self.read_sign(optional=False)

    def read_term(self) -> tuple[int, int, int]:
        """A rational or imaginary term as (numerator, denominator, is_imaginary)."""
        self.skip_ws()
        if self.peek() == "i":
            self.pos += 1
            return 1, 1, 1
        num = self.read_int()
        den = 1
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            den_pos = self.pos
            den = self.read_int()
            if den <= 0:
                self.pos = den_pos
                self.fail("denominator must be positive")
        self.skip_ws()
        if self.peek() == "i":
            self.pos += 1
            return num, den, 1
        return num, den, 0

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        return int(self.text[start : self.pos])


def scalar_parse(text: str) -> Scalar:
    """Parse scalar text: sums of Gaussian terms, ``*s2`` marking sqrt(2) parts."""
    return _Parser(text).parse()


def _format_ratio(num: int, den: int) -> str:
    g = _gcd(num, den)
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def _format_gauss(re: int, im: int, den: int) -> str:
    if not (re or im):
        return "0"
    parts = []
    if re:
        parts.append(_format_ratio(re, den))
    if im:
        if im == den:
            imag = "i"
        elif im == -den:
            imag = "-i"
        else:
            imag = f"{_format_ratio(im, den)}i"
        if parts and not imag.startswith("-"):
            parts.append("+" + imag)
        else:
            parts.append(imag)
    return "".join(parts)


def scalar_format(value: Scalar) -> str:
    """Render a scalar in the text grammar; inverse of :func:`scalar_parse`."""
    a, b, c, d, den = value.coords
    if not (c or d):
        return _format_gauss(a, b, den)
    if c and d:
        sqrt2_part = f"({_format_gauss(c, d, den)})*s2"
    else:
        sqrt2_part = f"{_format_gauss(c, d, den)}*s2"
    if not (a or b):
        return sqrt2_part
    rational_part = _format_gauss(a, b, den)
    if sqrt2_part.startswith("-"):
        return rational_part + sqrt2_part
    return rational_part + "+" + sqrt2_part


ZERO = _make(0, 0, 0, 0, 1)
ONE = _make(1, 0, 0, 0, 1)
I = _make(0, 1, 0, 0, 1)
SQRT2 = _make(0, 0, 1, 0, 1)

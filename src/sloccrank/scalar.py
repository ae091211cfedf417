"""Exact arithmetic over Q(i, sqrt2), the field holding every state amplitude.

A value is stored as five ints ``(a, b, c, d, den)`` standing for
``(a + b*i + (c + d*i)*sqrt2) / den``.  Since 1, i, sqrt2 and i*sqrt2 are a
basis of the field over Q, the tuple is unique once it is kept canonical:
``den > 0``, the gcd of all five ints is 1, and zero is ``(0, 0, 0, 0, 1)``.
Equality and hashing are then plain tuple operations, comparison against
zero is exact (which is what makes elimination over these scalars
decisive), and each operation costs at most one gcd, none when the
denominator is 1.

The text grammar of state files and the command line writes sqrt(2) as
``s2``, as in ``-1/3+2i+(1+i)*s2``; a ``sign`` is ``+`` or ``-``::

    scalar  := sign? summand (sign summand)*
    summand := term ("*" "s2")? | "s2" | "(" sign? term (sign term)* ")" "*" "s2"
    term    := digits ("/" digits)? "i"? | "i"

Digits are ASCII ``0-9``, a denominator is nonzero, and a literal longer than
the interpreter converts to int is rejected.  Whitespace (``str.isspace``) may
stand between any two tokens.  Sums do not nest, so the grammar is regular
and is read with a few compiled patterns and one loop.
"""

from __future__ import annotations

import math
import re
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
    """Malformed scalar text; ``position`` is where the failing token starts."""

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
        """Exact reciprocal: ``den * c / N``, where ``(c, N) = _other_conjugates(x)``.

        The value is ``x / den`` with x in Z[i, sqrt2], and x * c = N is a
        positive int when x is not 0.
        """
        den = self.coords[4]
        (a, b, c, d), norm = _other_conjugates(self.coords[:4])
        if not norm:
            raise ZeroDivisionError("inverse of zero scalar")
        return _make(den * a, den * b, den * c, den * d, norm)

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


def scaled_coords(values) -> tuple[int, list[tuple[int, int, int, int]]]:
    """``(den, coords)``: each value times ``den``, the lcm of their denominators, in Z[i, sqrt2].

    ``coords[k]`` is the ``(a, b, c, d)`` of ``den * values[k]``, so the k-th
    value is ``_make(*coords[k], den)``.  Arithmetic on these 4-tuples is on
    plain ints, with no denominator and no gcd.
    """
    coords = [x.coords for x in values]
    # A list, not a generator: a star-argument tuple built from a generator
    # is resized, which strands one tuple in CPython's free lists per call.
    den = math.lcm(*[x[4] for x in coords])
    scaled = []
    for a, b, c, d, q in coords:
        k = den // q
        scaled.append((a * k, b * k, c * k, d * k))
    return den, scaled


def coord_bound(x: tuple[int, int, int, int]) -> int:
    """mu(x) = |a| + |b| + 2(|c| + |d|) for x = (a, b, c, d) in Z[i, sqrt2].

    It bounds every coordinate of x and the modulus of every conjugate of
    x, and mu(u*x) <= mu(u)*mu(x) under the product of ``Scalar.__mul__``.
    """
    a, b, c, d = x
    return abs(a) + abs(b) + 2 * (abs(c) + abs(d))


def mix(u, x, v, y) -> tuple[int, int, int, int]:
    """``u*x + v*y`` on ``(a, b, c, d)`` 4-tuples of Z[i, sqrt2], by the product of ``Scalar.__mul__``."""
    a, b, c, d = u
    e, f, g, h = x
    a2, b2, c2, d2 = v
    e2, f2, g2, h2 = y
    return (
        a * e - b * f + 2 * (c * g - d * h) + a2 * e2 - b2 * f2 + 2 * (c2 * g2 - d2 * h2),
        a * f + b * e + 2 * (c * h + d * g) + a2 * f2 + b2 * e2 + 2 * (c2 * h2 + d2 * g2),
        a * g - b * h + c * e - d * f + a2 * g2 - b2 * h2 + c2 * e2 - d2 * f2,
        a * h + b * g + c * f + d * e + a2 * h2 + b2 * g2 + c2 * f2 + d2 * e2,
    )


def _other_conjugates(x: tuple[int, int, int, int]) -> tuple[tuple[int, int, int, int], int]:
    """``(c, N)``: c the product of x's distinct conjugates other than x, N = x*c; both negated if N < 0.

    The conjugates of x = (a, b, c, d) are x, (a, -b, c, -d), (a, b, -c, -d)
    and (a, -b, -c, d).  A rational x has no other one, and N = a.  One in
    Q(i), Q(sqrt2) or Q(i*sqrt2) has one, and N = a^2 + b^2, a^2 - 2c^2 or
    a^2 + 2d^2.  Any other x = X + Y*sqrt2, X and Y in Z[i], has three:
    c = (X - Y*sqrt2) * conj(N') with N' = X^2 - 2Y^2, and N = |N'|^2.  N is
    then +-(the constant term of the minimal polynomial of x): an int,
    nonzero when x is, since sqrt2 is not in Q(i).
    """
    a, b, c, d = x
    if not (c or d):
        if b:
            return (a, -b, 0, 0), a * a + b * b
        return ((-1, 0, 0, 0), -a) if a < 0 else ((1, 0, 0, 0), a)
    if not (b or d):
        norm = a * a - 2 * c * c
        return ((-a, 0, c, 0), -norm) if norm < 0 else ((a, 0, -c, 0), norm)
    if not (b or c):
        return (a, 0, 0, -d), a * a + 2 * d * d
    nr = a * a - b * b - 2 * (c * c - d * d)
    ni = 2 * (a * b - 2 * c * d)
    return (a * nr + b * ni, b * nr - a * ni, -(c * nr + d * ni), c * ni - d * nr), nr * nr + ni * ni


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


# One compiled pattern per piece of the grammar; each skips the whitespace in and before it.
_SIGN = re.compile(r"\s*([+-]?)")
_TERM = re.compile(r"\s*(?:([0-9]+)(?:\s*/\s*([0-9]*))?)?(?:\s*(i))?")
_OPEN = re.compile(r"\s*\(")
_CLOSE = re.compile(r"\s*\)\s*(?:\*\s*(s2)?)?")
_TIMES_S2 = re.compile(r"\s*\*\s*(s2)?")
_S2 = re.compile(r"\s*s2")
_END = re.compile(r"\s*\Z")


def _int(match: re.Match, group: int) -> int:
    try:
        return int(match[group])
    except ValueError:  # no digits, or more than the interpreter converts from text
        message = "number has too many digits" if match[group] else "expected a number"
        raise ParseError(message, match.start(group)) from None


def scalar_parse(text: str) -> Scalar:
    """Parse scalar text written in the grammar of the module docstring."""
    if _END.match(text):
        raise ParseError("empty scalar", len(text))
    terms = []  # (coordinate, signed numerator, denominator): 0 is 1, 1 i, 2 s2, 3 i*s2
    shift, outer = 0, 1  # inside a parenthesised sum: 2, and the sign before it
    match = _SIGN.match(text)  # the first sign of a sum may be absent
    while True:
        sign = -outer if match[1] == "-" else outer
        pos = match.end()
        if not shift and (match := _OPEN.match(text, pos)):
            shift, outer = 2, sign
            match = _SIGN.match(text, match.end())
            continue
        if not shift and (match := _S2.match(text, pos)):
            terms.append((2, sign, 1))
        else:
            match = _TERM.match(text, pos)
            if match[1] is None and match[3] is None:
                raise ParseError("expected a number", match.end())
            num = 1 if match[1] is None else _int(match, 1)
            den = 1 if match[2] is None else _int(match, 2)
            if not den:
                raise ParseError("denominator must be positive", match.start(2))
            coordinate = shift + (match[3] is not None)
            if not shift and (tagged := _TIMES_S2.match(text, match.end())):
                if not tagged[1]:
                    raise ParseError("expected 's2'", tagged.end())
                coordinate, match = coordinate + 2, tagged
            terms.append((coordinate, sign * num, den))
        if shift and (closed := _CLOSE.match(text, match.end())):
            if not closed[1]:
                raise ParseError("expected '*s2'", closed.end())
            shift, outer, match = 0, 1, closed
        pos = match.end()
        match = _SIGN.match(text, pos)
        if match[1]:
            continue
        if shift:
            raise ParseError("expected '+', '-' or ')'", match.end())
        if _END.match(text, pos):
            break
        raise ParseError("expected '+' or '-'", match.end())
    den = math.lcm(*[d for _, _, d in terms])
    coords = [0, 0, 0, 0]
    for coordinate, num, d in terms:
        coords[coordinate] += num * (den // d)
    return _make(*coords, den)


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

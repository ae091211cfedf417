"""Field arithmetic, parsing, formatting, and the float embedding."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sloccrank.scalar import (
    GaussRational,
    I,
    ONE,
    ParseError,
    SQRT2,
    Scalar,
    ZERO,
    _other_conjugates,
    as_scalar,
    coord_bound,
    mix,
    scalar_format,
    scalar_parse,
    scaled_coords,
)

from conftest import random_scalar


def test_sqrt2_squared_is_two():
    assert SQRT2 * SQRT2 == Scalar(2)


def test_conjugate_gaussian_product():
    assert (ONE + I) * (ONE - I) == Scalar(2)


def test_sqrt2_halves_cancel():
    half = Fraction(1, 2)
    x = Scalar(half, half)
    y = Scalar(half, -half)
    assert x + y == ONE


def test_inverse_sqrt2():
    assert SQRT2.inverse() == Scalar(0, Fraction(1, 2))


def test_inverse_one_plus_sqrt2():
    assert (ONE + SQRT2).inverse() == Scalar(-1, 1)
    assert (ONE + SQRT2) * (SQRT2 - ONE) == ONE


def test_inverse_imaginary_unit():
    assert I.inverse() == -I


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_is_mul_by_inverse():
    x = Scalar(GaussRational(1, 2), GaussRational(Fraction(-1, 3), 0))
    y = Scalar(GaussRational(Fraction(3, 4), 1), GaussRational(0, 2))
    assert (x / y) * y == x


def test_power():
    assert SQRT2**2 == Scalar(2)
    assert SQRT2**0 == ONE
    assert (ONE + SQRT2) ** -1 == Scalar(-1, 1)


def test_parse_plain_rational():
    assert scalar_parse("1/2") == Scalar(Fraction(1, 2))


def test_parse_imaginary_sqrt2():
    assert scalar_parse("i*s2") == Scalar(0, GaussRational(0, 1))


def test_parse_full_example():
    expected = Scalar(GaussRational(Fraction(-1, 3), 2), GaussRational(1, 1))
    assert scalar_parse("-1/3+2i+(1+i)*s2") == expected


def test_parse_whitespace_and_bare_forms():
    assert scalar_parse(" 1 + s2 ") == ONE + SQRT2
    assert scalar_parse("-s2") == -SQRT2
    assert scalar_parse("i") == I
    assert scalar_parse("-i") == -I
    assert scalar_parse("1/3i") == Scalar(GaussRational(0, Fraction(1, 3)))
    assert scalar_parse("0") == ZERO


@pytest.mark.parametrize(
    "text",
    ["", "1+", "2//3", "(1+i", "(1+i)*", "(1+i)s2", "1x", "1/0", "--1", "i2", "1/-2",
     "2\u00b2", "\u0663/\u0664", "\u0663", "1/\u0664", "2\u0663i"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError) as err:
        scalar_parse(text)
    assert err.value.position >= 0


# 5000 digits is over the interpreter's default limit on int-string conversion.
@pytest.mark.parametrize("text, position", [
    ("1" * 5000, 0),
    ("2 + " + "1" * 5000 + "i", 4),
    ("1/" + "7" * 5000, 2),
    ("(1+" + "3" * 5000 + ")*s2", 3),
], ids=["alone", "imaginary", "denominator", "in-parens"])
def test_over_long_literal_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="too many digits") as err:
        scalar_parse(text)
    assert err.value.position == position


# --- the text grammar, generated ---------------------------------------------
#
# Valid texts are built token by token with random whitespace between any two
# tokens, and each text's value is summed independently, coordinate by
# coordinate (1, i, s2, i*s2), with Fraction.

_ws = st.text(alphabet=" \t\n\x0b\x1c\x85\xa0\u2003\u3000", max_size=2)


@st.composite
def gauss_terms(draw):
    """One Gaussian term as (text, coordinate, value); coordinate 0 is 1, 1 is i."""
    if draw(st.integers(0, 3)) == 0:
        return "i", 1, Fraction(1)
    num = draw(st.integers(0, 99))
    text, value = "0" * draw(st.integers(0, 1)) + str(num), Fraction(num)
    if draw(st.booleans()):
        den = draw(st.integers(1, 12))
        text += draw(_ws) + "/" + draw(_ws) + str(den)
        value /= den
    imag = draw(st.booleans())
    if imag:
        text += draw(_ws) + "i"
    return text, int(imag), value


@st.composite
def scalar_texts(draw):
    """A valid scalar text and its value as four Fractions."""
    value = [Fraction(0)] * 4
    parts = [draw(_ws)]
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(("", "+", "-") if k == 0 else ("+", "-")))
        factor = -1 if sign == "-" else 1
        parts += [sign, draw(_ws)]
        kind = draw(st.sampled_from(("term", "term*s2", "s2", "(sum)*s2")))
        if kind == "s2":
            parts.append("s2")
            value[2] += factor
        elif kind == "(sum)*s2":
            parts += ["(", draw(_ws)]
            for j in range(draw(st.integers(1, 4))):
                inner = draw(st.sampled_from(("", "+", "-") if j == 0 else ("+", "-")))
                term, slot, amount = draw(gauss_terms())
                parts += [inner, draw(_ws), term, draw(_ws)]
                value[2 + slot] += factor * (-amount if inner == "-" else amount)
            parts += [")", draw(_ws), "*", draw(_ws), "s2"]
        else:
            term, slot, amount = draw(gauss_terms())
            parts.append(term)
            if kind == "term*s2":
                parts += [draw(_ws), "*", draw(_ws), "s2"]
                slot += 2
            value[slot] += factor * amount
        parts.append(draw(_ws))
    return "".join(parts), tuple(value)


@pytest.mark.parametrize("text, value", [
    ("2 i", (0, 2, 0, 0)),
    ("1 / 2", (Fraction(1, 2), 0, 0, 0)),
    ("i", (0, 1, 0, 0)),
    ("s2", (0, 0, 1, 0)),
    ("+1", (1, 0, 0, 0)),
    ("\t+ 1 -\u3000s2 ", (1, 0, -1, 0)),
    ("(1/2 + 1/3i - 1/6 + 1/4 i) * s2", (0, 0, Fraction(1, 3), Fraction(7, 12))),
    ("1/2 + 1/3 - 1/6 i - 1/4i + 1/12", (Fraction(11, 12), Fraction(-5, 12), 0, 0)),
])
def test_parse_grammar_examples(text, value):
    assert as_fractions(scalar_parse(text)) == value


@given(scalar_texts())
def test_parse_generated_texts(case):
    text, value = case
    parsed = scalar_parse(text)
    assert_canonical(parsed)
    assert as_fractions(parsed) == value


@given(st.text(alphabet="0123456789/is2*()+- \tx", max_size=30))
def test_any_text_parses_or_fails_at_a_position(text):
    try:
        scalar_parse(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)


def test_format_examples():
    assert scalar_format(Scalar(Fraction(1, 2))) == "1/2"
    assert scalar_format(Scalar(0, GaussRational(0, 1))) == "i*s2"
    assert scalar_format(ZERO) == "0"
    assert scalar_format(ONE - SQRT2) == "1-1*s2"
    value = Scalar(GaussRational(Fraction(-1, 3), 2), GaussRational(1, 1))
    assert scalar_parse(scalar_format(value)) == value


def test_to_float_examples():
    assert complex(Scalar(Fraction(1, 2))) == 0.5
    assert complex(SQRT2 * Fraction(1, 2)) == 0.7071067811865476
    assert complex(I) == 1j


def test_field_axioms_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(1000):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_inverse_on_random_nonzero_values():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        x = random_scalar(rng)
        if not x:
            continue
        assert x * x.inverse() == ONE
        checked += 1


def test_canonical_form_from_different_routes():
    third = Scalar(Fraction(1, 3))
    sixth = Scalar(Fraction(1, 6))
    half = Scalar(Fraction(1, 2))
    total = third + sixth
    assert total == half
    assert hash(total) == hash(half)
    assert scalar_format(total) == scalar_format(half)
    quarter_sum = (SQRT2 * Fraction(1, 4)) + (SQRT2 * Fraction(1, 4))
    assert scalar_format(quarter_sum) == scalar_format(SQRT2 * Fraction(1, 2))


def from_coords(coords) -> Scalar:
    """The scalar ``a + b*i + (c + d*i)*s2`` of a 4-tuple, by ``Scalar`` arithmetic alone."""
    a, b, c, d = coords
    return GaussRational(a, b) + GaussRational(c, d) * SQRT2


def test_scaled_coords_share_the_lcm_of_the_denominators():
    values = [scalar_parse(text) for text in ("1/2+s2", "-2/3i", "(1-i)*s2", "0", "5")]
    assert scaled_coords(values) == (6, [(3, 0, 6, 0), (0, -4, 0, 0), (0, 0, 6, -6), (0, 0, 0, 0), (30, 0, 0, 0)])
    assert scaled_coords([]) == (1, [])


def test_scaled_coords_of_random_values():
    rng = random.Random(1901)
    for _ in range(50):
        values = [random_scalar(rng) for _ in range(rng.randint(1, 6))]
        den, coords = scaled_coords(values)
        assert den == math.lcm(*(x.coords[4] for x in values))
        assert [from_coords(c) for c in coords] == [x * den for x in values]


def test_mix_matches_scalar_products_and_sums():
    rng = random.Random(1902)
    with_sqrt2 = with_fractions = 0
    for _ in range(300):
        values = [random_scalar(rng) for _ in range(4)]
        den, (u, x, v, y) = scaled_coords(values)
        with_sqrt2 += any(c or d for _, _, c, d in (u, x, v, y))
        with_fractions += den > 1
        want = (values[0] * values[1] + values[2] * values[3]) * den * den
        assert from_coords(mix(u, x, v, y)) == want
        # The same on unscaled coordinates, where every sign and factor 2 shows in the ints.
        u, x, v, y = (tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(4))
        assert from_coords(mix(u, x, v, y)) == from_coords(u) * from_coords(x) + from_coords(v) * from_coords(y)
    assert with_sqrt2 > 250 and with_fractions > 250


def test_coord_bound_bounds_coordinates_and_conjugates_and_is_submultiplicative():
    rng = random.Random(1903)
    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]  # i -> +-i and sqrt2 -> +-sqrt2
    for _ in range(300):
        u, x = (tuple(rng.randint(-50, 50) for _ in range(4)) for _ in range(2))
        assert max(map(abs, x)) <= coord_bound(x)
        for si, ss in signs:
            a, b, c, d = x
            assert abs(complex(from_coords((a, si * b, ss * c, si * ss * d)))) <= coord_bound(x) + 1e-9
        assert coord_bound(mix(u, x, (0, 0, 0, 0), (0, 0, 0, 0))) <= coord_bound(u) * coord_bound(x)
    assert coord_bound((3, -4, 5, -6)) == 29


_Z4 = (0, 0, 0, 0)


def _four_conjugates_product(x):
    a, b, c, d = x
    return mix(mix(x, (a, -b, c, -d), _Z4, _Z4), mix((a, b, -c, -d), (a, -b, -c, d), _Z4, _Z4), _Z4, _Z4)[0]


# Per shape: the coordinates that may be nonzero, the norm over its smallest field, and
# fixed elements, 1 + sqrt2 among them, whose a^2 - 2c^2 = -1 needs the sign rule.
_SHAPES = {
    "rational": ((0,), lambda a, b, c, d: abs(a), [(1, 0, 0, 0), (-5, 0, 0, 0), (7, 0, 0, 0)]),
    "Q(i)": ((0, 1), lambda a, b, c, d: a * a + b * b, [(0, 1, 0, 0), (1, 1, 0, 0), (-2, 3, 0, 0)]),
    "Q(sqrt2)": ((0, 2), lambda a, b, c, d: abs(a * a - 2 * c * c),
                 [(1, 0, 1, 0), (0, 0, -1, 0), (3, 0, 1, 0), (-3, 0, 2, 0)]),
    "Q(i*sqrt2)": ((0, 3), lambda a, b, c, d: a * a + 2 * d * d, [(0, 0, 0, 1), (1, 0, 0, -1), (-4, 0, 0, 3)]),
    "general": ((0, 1, 2, 3), lambda *x: _four_conjugates_product(x),
                [(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 1), (2, -1, 0, 3), (5, 0, -2, 1)]),
    "zero": ((), lambda *x: 0, [(0, 0, 0, 0)]),
}


@pytest.mark.parametrize("shape", _SHAPES)
def test_other_conjugates_give_the_norm_in_the_smallest_field(shape):
    free, norm_of, elements = _SHAPES[shape]
    rng = random.Random(shape)
    draws = [tuple(rng.choice((-1, 1)) * rng.randint(1, 10**12) if k in free else 0 for k in range(4))
             for _ in range(100 if free else 0)]
    for x in elements + draws:
        conj, norm = _other_conjugates(x)
        assert mix(x, conj, _Z4, _Z4) == (norm, 0, 0, 0)
        assert norm > 0 if any(x) else norm == 0
        assert norm == norm_of(*x)
        if shape != "zero":
            assert all(conj[k] == 0 for k in range(4) if k not in free)


def test_float_embedding_is_multiplicative():
    # small components keep the values near unit magnitude
    rng = random.Random(4242)
    for _ in range(500):
        x, y = random_scalar(rng), random_scalar(rng)
        assert abs(complex(x * y) - complex(x) * complex(y)) < 1e-12
        assert abs(complex(x + y) - (complex(x) + complex(y))) < 1e-12


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw):
    return Scalar(
        GaussRational(draw(_fractions), draw(_fractions)),
        GaussRational(draw(_fractions), draw(_fractions)),
    )


@given(scalars())
def test_round_trip_parse_format(x):
    assert scalar_parse(scalar_format(x)) == x


@given(scalars(), scalars())
def test_subtraction_consistent_with_addition(x, y):
    assert (x - y) + y == x


# --- reference arithmetic ----------------------------------------------------
#
# The field as it was first written: a + b*sqrt2 with a, b Gaussian rationals
# held as pairs of Fractions.  Slow but plainly correct; the integer-backed
# Scalar must agree with it on every operation and on the printed text.


class RefGauss:
    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __neg__(self):
        return RefGauss(-self.re, -self.im)

    def __add__(self, other):
        return RefGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return RefGauss(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return RefGauss(self.re / n, -self.im / n)


class RefScalar:
    def __init__(self, a=None, b=None):
        self.a = a if a is not None else RefGauss()
        self.b = b if b is not None else RefGauss()

    def __bool__(self):
        return bool(self.a or self.b)

    def __add__(self, other):
        return RefScalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return RefScalar(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        two = RefGauss(2)
        return RefScalar(self.a * other.a + self.b * other.b * two,
                         self.a * other.b + other.a * self.b)

    def inverse(self):
        denom = (self.a * self.a - self.b * self.b * RefGauss(2)).inverse()
        return RefScalar(self.a * denom, -(self.b * denom))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        result = RefScalar(RefGauss(1))
        for _ in range(k):
            result = result * self
        return result

    def coords(self):
        return (self.a.re, self.a.im, self.b.re, self.b.im)


def _ref_format_gauss(g):
    if not g:
        return "0"
    parts = []
    if g.re:
        parts.append(str(g.re))
    if g.im:
        imag = "i" if g.im == 1 else "-i" if g.im == -1 else f"{g.im}i"
        parts.append("+" + imag if parts and not imag.startswith("-") else imag)
    return "".join(parts)


def ref_format(x):
    if not x.b:
        return _ref_format_gauss(x.a)
    if x.b.re and x.b.im:
        sqrt2_part = f"({_ref_format_gauss(x.b)})*s2"
    else:
        sqrt2_part = f"{_ref_format_gauss(x.b)}*s2"
    if not x.a:
        return sqrt2_part
    rational = _ref_format_gauss(x.a)
    return rational + sqrt2_part if sqrt2_part.startswith("-") else rational + "+" + sqrt2_part


def as_fractions(x):
    *nums, den = x.coords
    return tuple(Fraction(n, den) for n in nums)


def assert_canonical(x):
    a, b, c, d, den = x.coords
    assert all(type(v) is int for v in x.coords)
    assert den > 0
    assert math.gcd(a, b, c, d, den) == 1


# Mixed denominators, and zero often enough that partial values come up.
_mixed = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-40, max_value=40, max_denominator=12))


@st.composite
def value_pairs(draw):
    """The same value as (Scalar, RefScalar)."""
    p, q, r, s = (draw(_mixed) for _ in range(4))
    return (Scalar(GaussRational(p, q), GaussRational(r, s)),
            RefScalar(RefGauss(p, q), RefGauss(r, s)))


@st.composite
def operand_pairs(draw):
    """A Scalar, int or Fraction operand, with its reference value."""
    kind = draw(st.sampled_from(("scalar", "int", "fraction")))
    if kind == "scalar":
        return draw(value_pairs())
    value = draw(st.integers(-9, 9)) if kind == "int" else draw(_mixed)
    return value, RefScalar(RefGauss(value))


@given(value_pairs(), operand_pairs(), st.sampled_from((operator.add, operator.sub, operator.mul)))
def test_ring_operations_match_reference(x, y, op):
    (x_new, x_ref), (y_new, y_ref) = x, y
    forward, reflected = op(x_new, y_new), op(y_new, x_new)
    assert_canonical(forward)
    assert_canonical(reflected)
    assert as_fractions(forward) == op(x_ref, y_ref).coords()
    assert as_fractions(reflected) == op(y_ref, x_ref).coords()
    assert (x_new == y_new) == (x_ref.coords() == y_ref.coords())


@given(value_pairs(), operand_pairs())
def test_inverse_and_division_match_reference(x, y):
    (x_new, x_ref), (y_new, y_ref) = x, y
    assume(y_ref)
    inverse = as_scalar(y_new).inverse()
    assert_canonical(inverse)
    assert as_fractions(inverse) == y_ref.inverse().coords()
    quotient = x_new / y_new
    assert_canonical(quotient)
    assert as_fractions(quotient) == (x_ref * y_ref.inverse()).coords()


@given(value_pairs(), st.integers(-4, 5))
def test_power_matches_reference(x, k):
    x_new, x_ref = x
    assume(k >= 0 or x_ref)
    result = x_new**k
    assert_canonical(result)
    assert as_fractions(result) == (x_ref**k).coords()


@given(value_pairs())
def test_format_matches_reference(x):
    x_new, x_ref = x
    assert_canonical(x_new)
    assert as_fractions(x_new) == x_ref.coords()
    assert scalar_format(x_new) == ref_format(x_ref)
    parsed = scalar_parse(scalar_format(x_new))
    assert_canonical(parsed)
    assert parsed.coords == x_new.coords


def test_equal_values_built_different_ways_share_coords_and_hash():
    half = [
        Scalar(Fraction(2, 4)),
        scalar_parse("1/2"),
        scalar_parse("2/4"),
        scalar_parse("1/3+1/6"),
        ONE / 2,
        GaussRational(Fraction(1, 2)),
        Scalar(Fraction(1, 4)) + Fraction(1, 4),
        SQRT2 * SQRT2 / 4,
    ]
    for value in half:
        assert value == half[0]
        assert hash(value) == hash(half[0])
        assert value.coords == (1, 0, 0, 0, 2)
    assert half[0] != ONE and half[0] != Fraction(1, 3)


@given(st.one_of(st.integers(), st.fractions()))
def test_hash_agrees_with_equal_int_or_fraction(x):
    assert as_scalar(x) == x
    assert hash(as_scalar(x)) == hash(x)
    assert len({as_scalar(x), x}) == 1


def test_zero_is_canonical_however_it_arises():
    x = scalar_parse("1/3-2/5i+(1/7+i)*s2")
    for zero in (ZERO, x - x, x * 0, scalar_parse("0/5"), scalar_parse("1/2-2/4"),
                 GaussRational(Fraction(0, 3)), Scalar(0, 0), -ZERO):
        assert zero.coords == (0, 0, 0, 0, 1)
        assert not zero
        assert zero == 0


def test_components_may_be_any_scalar():
    assert Scalar(SQRT2, SQRT2) == SQRT2 + 2
    assert Scalar(I, ONE) == I + SQRT2
    assert GaussRational(Fraction(1, 2), -3) == scalar_parse("1/2-3i")


@pytest.mark.parametrize("make", [lambda: Scalar(0.5), lambda: Scalar(1, "2"),
                                  lambda: GaussRational(0.5), lambda: GaussRational(I)],
                         ids=["float", "str", "float-gauss", "scalar-gauss"])
def test_non_rational_components_rejected(make):
    with pytest.raises(TypeError):
        make()

"""Property tests of QRat arithmetic, with sympy as an independent oracle.

Values of Z[q, q^-1] are stored packed, as N = num(2^B) with a bound on the
l1 norm of the coefficients; the results of ``+``, ``-``, ``*`` and
``shift`` must agree with sympy and be structurally equal to the canonical
form that the constructor gives for the same value when it has to divide a
multiple of it by a fixed cofactor.  Operands are also built by that exact
division, with random divisors.  Coefficients are also drawn near 2^(B-1),
where a bound check decides between the packed product and a wider B, and
as large as 10^30; product chains force the bounds past 2^(B-1), so the
operands are refreshed and repacked wider.  Every packed result must carry
a valid bound.

A Laurent value whose exponents share one parity is packed in q^2 (stride
2), any other at stride 1: operands of both kinds, and values that pass
through stride 1 and cancel back to a polynomial in q^2, must be packed at
the stride their value decides, hash alike and carry a valid bound.

The codec of the packed form, ``_digits`` and ``_evaluate``, is checked
against the reference codec of the oracles (a mask and a shift per digit,
and Horner's rule) at widths B = 64, 128, 192 and 256, with digits at both
ends of the balanced range; and ``+``, ``*`` and ``laurent_quotient`` are
checked against sympy on values whose l1 norms lie just below and just
above 2^63, 2^127 and 2^191, where the width steps up.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import digits_by_shifts, evaluate_by_horner, poly_product_by_dict  # noqa: E402
from uqcentre import DomainError  # noqa: E402
from uqcentre.qrational import (  # noqa: E402
    _B,
    QRat,
    _digits,
    _evaluate,
    _width,
    laurent_quotient,
    q_power,
)

# the field Q(q) of sympy's sparse rational functions over ZZ
_K, Q = sympy.field("q", sympy.ZZ)
# a fixed cofactor: QRat(k, p * D, D) must divide it out and give the
# canonical form of q^k p
D = (3, 1, 2)

coefficients = st.lists(st.integers(-4, 4), max_size=14)
exponents = st.integers(-8, 8)


@st.composite
def laurents(draw):
    return QRat(draw(exponents), tuple(draw(coefficients)), (1,))


@st.composite
def cancelling_pairs(draw):
    """(x, y) where y = -x on the lowest terms, so that x + y loses them."""
    k = draw(exponents)
    low = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))
    tail_x = draw(coefficients)
    tail_y = draw(coefficients)
    x = QRat(k, tuple(low + tail_x), (1,))
    y = QRat(k, tuple([-c for c in low] + tail_y), (1,))
    return x, y


@st.composite
def divided_laurents(draw):
    """q^k p, given to the constructor as q^k (p d) / d for a random divisor d."""
    num = draw(coefficients)
    den = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    if not any(den):
        den[-1] = 1
    return QRat(draw(exponents), poly_product_by_dict(num, den), tuple(den))


def polynomial(coeffs):
    """The sympy field element sum_i coeffs[i] q^i."""
    return sum((c * Q**i for i, c in enumerate(coeffs)), _K(0))


def to_sympy(x: QRat):
    return Q**x.qpow * polynomial(x.num)


def same_value(x: QRat, expr) -> bool:
    return to_sympy(x) == expr


def fields(x: QRat):
    return (x.qpow, x.num)


def general_form(x: QRat) -> QRat:
    """x rebuilt by the constructor from a multiple of it and the cofactor D."""
    return QRat(x.qpow - 2, (0, 0) + poly_product_by_dict(x.num, D), D)


def is_canonical_laurent(x: QRat) -> bool:
    if x.is_zero():
        return fields(x) == (0, ())
    return x.num[0] != 0 and x.num[-1] != 0


@settings(max_examples=200, deadline=None)
@given(exponents, coefficients)
def test_fast_constructor_matches_general_path(k, coeffs):
    x = QRat(k, tuple(coeffs), (1,))
    assert is_canonical_laurent(x)
    assert fields(x) == fields(QRat(k, poly_product_by_dict(coeffs, D), D))
    assert same_value(x, Q**k * sum((c * Q**i for i, c in enumerate(coeffs)), _K(0)))


@settings(max_examples=200, deadline=None)
@given(exponents, st.lists(st.integers(-4, 4), max_size=6),
       st.lists(st.one_of(st.integers(-4, 4), st.integers(-2**70, 2**70)), min_size=1,
                max_size=4))
def test_constructor_divides_exactly_or_raises(k, num, den):
    # p d / d is p; 1 + q p d is a multiple of d only for a unit d = +-q^j
    if not any(den):
        den[-1] = 1
    product = poly_product_by_dict(num, den)
    assert same_value(QRat(k, product, tuple(den)), Q**k * polynomial(num))
    plus_one = (1,) + product
    unit = sum(map(abs, den)) == 1
    if unit:
        expected = Q**k * polynomial(plus_one) / polynomial(den)
        assert same_value(QRat(k, plus_one, tuple(den)), expected)
    else:
        with pytest.raises(DomainError, match="does not divide"):
            QRat(k, plus_one, tuple(den))


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents())
def test_laurent_add_sub_mul_agree_with_sympy(x, y):
    sx, sy = to_sympy(x), to_sympy(y)
    for result, expr in ((x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)):
        assert is_canonical_laurent(result)
        assert same_value(result, expr)
        assert fields(result) == fields(general_form(result))


@settings(max_examples=200, deadline=None)
@given(cancelling_pairs())
def test_laurent_add_with_cancelling_low_terms(pair):
    x, y = pair
    total = x + y
    assert is_canonical_laurent(total)
    assert same_value(total, to_sympy(x) + to_sympy(y))
    assert fields(total) == fields(general_form(total))
    assert (x - x).is_zero() and fields(x - x) == (0, ())


@settings(max_examples=100, deadline=None)
@given(laurents(), divided_laurents())
def test_mixed_operands_agree_with_sympy(x, y):
    # y comes out of an exact division in the constructor
    sx, sy = to_sympy(x), to_sympy(y)
    for result, expr in (
        (x + y, sx + sy),
        (y + x, sy + sx),
        (x - y, sx - sy),
        (x * y, sx * sy),
        (y * x, sy * sx),
    ):
        assert same_value(result, expr)
        assert fields(result) == fields(general_form(result))


@settings(max_examples=100, deadline=None)
@given(laurents(), laurents())
def test_laurent_quotient_inverts_multiplication(x, y):
    if y.is_zero():
        return
    assert laurent_quotient(x * y, y) == x


def test_laurent_quotient_rejects_inexact_division():
    q_plus_one = QRat(0, (1, 1), (1,))
    with pytest.raises(ArithmeticError):
        laurent_quotient(QRat(0, (1, 0, 1), (1,)), q_plus_one)
    with pytest.raises(ArithmeticError):
        laurent_quotient(QRat.integer(1), q_plus_one)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30))
def test_integer_constants_hash_like_the_int(n):
    from uqcentre.uq_rank1 import UqElement

    # the constructor without and with a divisor, and a constant element
    for x in (QRat.integer(n), QRat(-3, (0, 0, 0, n), (1,)), QRat(0, (2 * n,), (2,)),
              UqElement({(0, 0, 0): n})):
        assert x == n and n == x
        assert hash(x) == hash(n)
        assert {n: "int"}.get(x) == "int"
        assert {x: "x"}.get(n) == "x"


@settings(max_examples=200, deadline=None)
@given(st.one_of(laurents(), divided_laurents()), exponents)
def test_shift_is_multiplication_by_a_power_of_q(x, k):
    shifted = x.shift(k)
    assert fields(shifted) == fields(q_power(k) * x) == fields(x * q_power(k))
    # the same value rebuilt by the constructor from a multiple of it and D
    multiple = (0, 0) + poly_product_by_dict(x.num, D)
    assert fields(shifted) == fields(QRat(x.qpow + k - 2, multiple, D))
    assert same_value(shifted, Q**k * to_sympy(x))


def test_shift_of_zero_is_the_canonical_zero():
    zero = QRat(0, (), (1,))
    for k in (-3, 0, 5):
        assert fields(zero.shift(k)) == (0, ()) == fields(q_power(k) * zero)


# -- the packed form at large coefficients ------------------------------------------


def valid(x: QRat) -> bool:
    """x carries a bound on its l1 norm below 2^(B-1), at the width of that norm."""
    l1 = sum(abs(c) for c in x.num)
    return l1 <= x._h < 2 ** (_width(x._h) - 1) and _width(x._h) == _width(l1)


def signed(magnitudes):
    return st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans())


# small, near the digit limit 2^(B-1), and far beyond one digit
big_coefficients = st.one_of(
    st.integers(-4, 4),
    signed(st.integers(2 ** (_B - 2), 2 ** (_B + 2))),
    st.integers(-10**30, 10**30),
)


@st.composite
def big_laurents(draw, coefficients=big_coefficients, max_size=6):
    coeffs = draw(st.lists(coefficients, max_size=max_size))
    return QRat(draw(exponents), tuple(coeffs), (1,))


@settings(max_examples=300, deadline=None)
@given(big_laurents(), big_laurents(), exponents)
def test_packed_arithmetic_agrees_with_sympy_at_large_coefficients(x, y, k):
    sx, sy = to_sympy(x), to_sympy(y)
    assert valid(x) and valid(y)
    for result, expr in (
        (x + y, sx + sy), (y + x, sx + sy), (x - y, sx - sy), (-x, -sx),
        (x * y, sx * sy), (x.shift(k), Q**k * sx),
    ):
        assert valid(result)
        assert is_canonical_laurent(result)
        assert same_value(result, expr)
        # the same value built from its coefficients: equal, and hashed alike
        rebuilt = QRat(result.qpow, result.num, (1,))
        assert fields(result) == fields(rebuilt) and result == rebuilt
        assert hash(result) == hash(rebuilt)
    assert (x == y) == (sx == sy)


@settings(max_examples=100, deadline=None)
@given(st.lists(big_laurents(st.integers(-2**40, 2**40), max_size=5), min_size=2, max_size=6),
       big_laurents())
def test_product_chains_widen_and_narrow(factors, y):
    """Products whose bounds pass 2^(B-1); then sums that cancel them again."""
    p, expr = QRat.integer(1), _K(1)
    for f in factors:
        p, expr = p * f, expr * to_sympy(f)
        assert valid(p) and same_value(p, expr)
    assert is_canonical_laurent(p)
    assert (p - p).is_zero() and fields(p - p) == (0, ())
    for result, value in ((p + y - p, to_sympy(y)), (p * y - p * y, _K(0)),
                          ((p + y) * (p - y), expr**2 - to_sympy(y) ** 2)):
        assert valid(result) and is_canonical_laurent(result)
        assert same_value(result, value)
        assert fields(result) == fields(QRat(result.qpow, result.num, (1,)))
    if not y.is_zero():
        assert laurent_quotient(p * y, y) == p
    if not p.is_zero():
        assert laurent_quotient(p * y, p) == y


@settings(max_examples=200, deadline=None)
@given(exponents, st.lists(big_coefficients, min_size=1, max_size=5), big_laurents())
def test_sums_that_cancel_low_digits_or_everything(k, low, tail):
    if not any(low):
        low[0] = 1
    x = QRat(k, tuple(low), (1,)) + tail.shift(len(low) + 1)
    minus_low = QRat(k, tuple(-c for c in low), (1,))
    rest = x + minus_low  # only the shifted tail survives
    assert valid(rest) and fields(rest) == fields(tail.shift(len(low) + 1))
    assert (x + (-x)).is_zero() and fields(x - x) == (0, ())
    assert valid(x - x)


def test_one_packed_integer_is_not_one_value_at_every_width():
    # 1 + q at B = 64 and the constant 2^64 + 1 at B = 128 share N = 2^64 + 1
    one_plus_q = QRat(0, (1, 1), (1,))
    constant = QRat.integer(2**_B + 1)
    assert one_plus_q._n == constant._n
    assert one_plus_q != constant and constant != one_plus_q
    assert one_plus_q != 2**_B + 1
    assert constant == 2**_B + 1 and hash(constant) == hash(2**_B + 1)


def test_laurent_quotient_rejects_exact_integer_but_inexact_polynomial_division():
    # 2^B = 1 mod 3 for even B, so 3 divides 1 + 2^B + 2^2B, but 3 does not
    # divide 1 + q + q^2 in Z[q]; the same with the cofactor 1 + q on both sides
    x = QRat(0, (1, 1, 1), (1,))
    y = QRat.integer(3)
    cofactor = QRat(0, (1, 1), (1,))
    for num, den in ((x, y), (x * cofactor, y * cofactor), (x.shift(2), y.shift(-1))):
        assert num._n % den._n == 0
        with pytest.raises(ArithmeticError):
            laurent_quotient(num, den)


@settings(max_examples=100, deadline=None)
@given(big_laurents(), big_laurents())
def test_laurent_quotient_inverts_multiplication_at_large_coefficients(x, y):
    if y.is_zero():
        return
    z = laurent_quotient(x * y, y)
    assert z == x and valid(z)


# -- the packing in q^2 ---------------------------------------------------------------


def single_parity(x: QRat) -> bool:
    """Every exponent of the Laurent value x has one parity."""
    return len({e % 2 for e in x.as_laurent()}) <= 1


def packed_canonically(x: QRat) -> bool:
    """x is packed at stride 2 iff its exponents share a parity, and its N is that packing.

    At stride 2 the digits of N are the coefficients of q^qpow, q^(qpow+2),
    ...; at stride 1 those of every power of q from q^qpow up.
    """
    stride = 2 if single_parity(x) else 1
    digits = x.num[::stride]
    return x._s == stride and x._n == sum(c << (_width(x._h) * i) for i, c in enumerate(digits))


@st.composite
def even_laurents(draw, coefficients=big_coefficients, max_size=6):
    """q^k P(q^2): every exponent has the parity of k."""
    coeffs = draw(st.lists(coefficients, max_size=max_size))
    spread = [0] * (2 * len(coeffs))
    spread[::2] = coeffs
    return QRat(draw(exponents), tuple(spread), (1,))


any_parity = st.one_of(even_laurents(), big_laurents())


@settings(max_examples=300, deadline=None)
@given(any_parity, any_parity, exponents)
def test_q2_packing_agrees_with_sympy(x, y, k):
    sx, sy = to_sympy(x), to_sympy(y)
    assert packed_canonically(x) and packed_canonically(y)
    results = [(x + y, sx + sy), (y + x, sx + sy), (x - y, sx - sy), (-x, -sx),
               (x * y, sx * sy), (y * x, sx * sy), (x.shift(k), Q**k * sx),
               (x.mul_shift(y, k), Q**k * sx * sy)]
    if not y.is_zero():
        results.append((laurent_quotient(x * y, y), sx))
    for result, expr in results:
        assert valid(result) and is_canonical_laurent(result)
        assert packed_canonically(result)
        assert same_value(result, expr)
        rebuilt = QRat(result.qpow, result.num, (1,))
        assert fields(result) == fields(rebuilt) and result == rebuilt
        assert hash(result) == hash(rebuilt)
    assert (x == y) == (sx == sy)


@settings(max_examples=200, deadline=None)
@given(even_laurents(), big_laurents())
def test_mixed_values_that_cancel_to_an_even_polynomial(even, mixed):
    # (even + mixed) - mixed and (even * mixed) / mixed pass through stride 1
    # and come back to the packing of ``even`` itself
    for result in [(even + mixed) - mixed, mixed + (even - mixed)] + (
        [laurent_quotient(even * mixed, mixed)] if not mixed.is_zero() else []
    ):
        assert valid(result) and packed_canonically(result)
        assert fields(result) == fields(even) and result == even
        assert (result._n, result._s, _width(result._h)) == (even._n, even._s, _width(even._h))
        assert hash(result) == hash(even)


def test_q2_packing_is_a_function_of_the_value():
    q = q_power(1)
    for value, expected in (((1 + q) * (1 - q), 1 - q * q), ((1 + q) + (-q), QRat.integer(1)),
                            ((q - 1) * (q + 1) * q_power(-1), q - q_power(-1))):
        assert value == expected and expected == value
        assert hash(value) == hash(expected)
        assert (value.qpow, value._n, value._s) == (expected.qpow, expected._n, expected._s)
        assert value._s == 2
    # 1 + q^2 at stride 2 and 1 + q at stride 1 share N = 1 + 2^B, and differ
    assert (1 + q * q)._n == (1 + q)._n and 1 + q * q != 1 + q
    # opposite parities give a stride-1 sum, whose odd digits are kept
    assert (1 + q)._s == 1 and (1 + q).num == (1, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), big_laurents())
def test_integer_constants_from_stride_1_hash_like_the_int(n, mixed):
    for x in ((mixed + n) - mixed, (n - mixed) + mixed):
        assert x == n and n == x and hash(x) == hash(n)
        assert {n: "int"}.get(x) == "int"


# -- the codec, and l1 norms at the steps of the width --------------------------------

WIDTHS = (64, 128, 192, 256)


def trimmed(digits):
    digits = list(digits)
    while digits and not digits[-1]:
        digits.pop()
    return digits


@st.composite
def digit_lists(draw):
    """(B, digits): balanced base-2^B digits, often at -2^(B-1), 2^(B-1) - 1 or 0."""
    b = draw(st.sampled_from(WIDTHS))
    half = 1 << (b - 1)
    digit = st.one_of(st.sampled_from((-half, half - 1, 0)), st.integers(-half, half - 1),
                      st.integers(-3, 3))
    return b, draw(st.lists(digit, max_size=12))


@settings(max_examples=300, deadline=None)
@given(digit_lists())
def test_codec_round_trips_and_agrees_with_the_reference_codec(pair):
    b, digits = pair
    n = _evaluate(digits, b)
    assert n == evaluate_by_horner(digits, b)
    assert _digits(n, b) == digits_by_shifts(n, b) == trimmed(digits)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WIDTHS), st.integers(-2**1200, 2**1200))
def test_digits_of_any_integer_agree_with_the_reference_codec(b, n):
    digits = _digits(n, b)
    assert digits == digits_by_shifts(n, b)
    assert _evaluate(digits, b) == n


@pytest.mark.parametrize("b", WIDTHS)
def test_codec_at_the_ends_of_the_digit_range(b):
    half = 1 << (b - 1)
    for digits in ([], [0, 0], [-half], [half - 1], [-half, half - 1, 0, -half, 0, 0],
                   [half - 1] * 5 + [-half] * 5, [0, 0, 0, -1]):
        n = _evaluate(digits, b)
        assert n == sum(d << (b * i) for i, d in enumerate(digits))
        assert _digits(n, b) == trimmed(digits)


STEPS = (2**63, 2**127, 2**191)


@st.composite
def laurents_near_a_step(draw):
    """A Laurent value whose l1 norm is within 3 of 2^63, 2^127 or 2^191, on either side.

    A few small coefficients and one or two large ones make up the norm; half
    the values are polynomials in q^2 times a power of q.
    """
    norm = draw(st.sampled_from(STEPS)) + draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.integers(-4, 4), max_size=4))
    rest = norm - sum(map(abs, coeffs))
    cut = draw(st.integers(0, rest))
    for c in (cut, rest - cut):
        if c:
            sign = draw(st.sampled_from((1, -1)))
            coeffs.insert(draw(st.integers(0, len(coeffs))), sign * c)
    if draw(st.booleans()):
        spread = [0] * (2 * len(coeffs))
        spread[::2] = coeffs
        coeffs = spread
    x = QRat(draw(exponents), tuple(coeffs), (1,))
    assert sum(map(abs, x.num)) == norm
    return x


near_a_step = st.one_of(laurents_near_a_step(), big_laurents())


@settings(max_examples=200, deadline=None)
@given(laurents_near_a_step(), near_a_step)
def test_arithmetic_agrees_with_sympy_at_norms_near_a_step_of_the_width(x, y):
    sx, sy = to_sympy(x), to_sympy(y)
    assert valid(x) and valid(y)
    results = [(x + y, sx + sy), (y + x, sx + sy), (x - y, sx - sy), (x + x, 2 * sx),
               (x * y, sx * sy), (y * x, sx * sy), (x * x, sx * sx),
               (laurent_quotient(x * y, x), sy)]
    if not y.is_zero():
        results.append((laurent_quotient(x * y, y), sx))
    for result, expr in results:
        assert valid(result) and is_canonical_laurent(result)
        assert packed_canonically(result)
        assert same_value(result, expr)
        rebuilt = QRat(result.qpow, result.num, (1,))
        assert fields(result) == fields(rebuilt) and result == rebuilt
        assert hash(result) == hash(rebuilt)

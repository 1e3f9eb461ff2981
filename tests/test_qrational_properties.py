"""Property tests of QRat arithmetic, with sympy as an independent oracle.

Laurent operands (``den == (1,)``) take the fast path of the constructor,
``+`` and ``*``; the results must agree with sympy and be structurally
equal to the canonical form the general (gcd) path gives for the same value.
The Z[q] kernels ``_pmul`` and ``_pdiv_exact`` skip zero coefficients and
are checked against a dict convolution on polynomials with interior zeros.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import poly_product_by_dict  # noqa: E402
from uqcentre.qrational import (  # noqa: E402
    QRat,
    _pdiv_exact,
    _pmul,
    laurent_quotient,
    q_power,
)

# the field Q(q) of sympy's sparse rational functions over ZZ
_K, Q = sympy.field("q", sympy.ZZ)
# a fixed cofactor with a true denominator: QRat(k, p * D, D) must take the
# general path and reduce to the canonical form of q^k p
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
def non_laurents(draw):
    num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    den = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
    if not any(num):
        num[0] = 1
    if not any(den[1:]):
        den[-1] = 1
    return QRat(draw(exponents), tuple(num), tuple(den))


def to_sympy(x: QRat):
    num = sum((c * Q**i for i, c in enumerate(x.num)), _K(0))
    den = sum((c * Q**i for i, c in enumerate(x.den)), _K(0))
    return Q**x.qpow * num / den


def same_value(x: QRat, expr) -> bool:
    return to_sympy(x) == expr


def fields(x: QRat):
    return (x.qpow, x.num, x.den)


def general_form(x: QRat) -> QRat:
    """x rebuilt through the general constructor path from an unreduced form."""
    return QRat(x.qpow - 2, (0, 0) + _pmul(x.num, D), _pmul(x.den, D))


def is_canonical_laurent(x: QRat) -> bool:
    if x.is_zero():
        return fields(x) == (0, (), (1,))
    return x.den == (1,) and x.num[0] != 0 and x.num[-1] != 0


@settings(max_examples=200, deadline=None)
@given(exponents, coefficients)
def test_fast_constructor_matches_general_path(k, coeffs):
    x = QRat(k, tuple(coeffs), (1,))
    assert is_canonical_laurent(x)
    assert fields(x) == fields(QRat(k, _pmul(tuple(coeffs), D), D))
    assert same_value(x, Q**k * sum((c * Q**i for i, c in enumerate(coeffs)), _K(0)))


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
    assert (x - x).is_zero() and fields(x - x) == (0, (), (1,))


@settings(max_examples=100, deadline=None)
@given(laurents(), non_laurents())
def test_mixed_operands_agree_with_sympy(x, y):
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
        laurent_quotient(QRat(0, (1,), (1, 1)), q_plus_one)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30))
def test_integer_constants_hash_like_the_int(n):
    from uqcentre.uq_rank1 import UqElement

    # the constructor, its Laurent path and its general path, and a constant element
    for x in (QRat.integer(n), QRat(-3, (0, 0, 0, n), (1,)), QRat(0, (2 * n,), (2,)),
              UqElement({(0, 0, 0): n})):
        assert x == n and n == x
        assert hash(x) == hash(n)
        assert {n: "int"}.get(x) == "int"
        assert {x: "x"}.get(n) == "x"


# polynomials with interior zeros and negative coefficients, trimmed
sparse_coefficients = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def polynomials(draw, min_size=0):
    coeffs = draw(st.lists(sparse_coefficients, min_size=min_size, max_size=12))
    if coeffs and not coeffs[-1]:
        coeffs[-1] = draw(st.sampled_from((-3, -1, 1, 2)))
    return tuple(coeffs)


@settings(max_examples=300, deadline=None)
@given(polynomials(), polynomials())
def test_pmul_matches_dict_convolution(a, b):
    assert _pmul(a, b) == poly_product_by_dict(a, b)


@settings(max_examples=300, deadline=None)
@given(polynomials(), polynomials(min_size=1), polynomials())
def test_pdiv_exact_inverts_the_product_and_rejects_a_remainder(a, b, r):
    assert _pdiv_exact(poly_product_by_dict(a, b), b) == a
    # a nonzero remainder of lower degree than b makes the division inexact
    r = list(r[: len(b) - 1])
    while r and not r[-1]:
        r.pop()
    if r:
        c = list(poly_product_by_dict(a, b))
        c += [0] * (len(r) - len(c))
        for i, x in enumerate(r):
            c[i] += x
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            _pdiv_exact(tuple(c), b)


@settings(max_examples=200, deadline=None)
@given(st.one_of(laurents(), non_laurents()), exponents)
def test_shift_is_multiplication_by_a_power_of_q(x, k):
    shifted = x.shift(k)
    assert fields(shifted) == fields(q_power(k) * x) == fields(x * q_power(k))
    # the same value rebuilt through the general constructor from an unreduced form
    assert fields(shifted) == fields(QRat(x.qpow + k - 2, (0, 0) + _pmul(x.num, D),
                                          _pmul(x.den, D)))
    assert same_value(shifted, Q**k * to_sympy(x))


def test_shift_of_zero_is_the_canonical_zero():
    zero = QRat(0, (), (1,))
    for k in (-3, 0, 5):
        assert fields(zero.shift(k)) == (0, (), (1,)) == fields(q_power(k) * zero)

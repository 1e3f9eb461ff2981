"""Property tests of QRat arithmetic, with sympy as an independent oracle.

Laurent operands (``den == (1,)``) are stored packed, as N = num(2^B) with a
bound on the l1 norm of the coefficients; the results of ``+``, ``-``, ``*``
and ``shift`` must agree with sympy and be structurally equal to the
canonical form the general (gcd) path gives for the same value.  Coefficients
are also drawn near 2^(B-1), where a bound check decides between the packed
product and a wider B, and as large as 10^30; product chains force the
bounds past 2^(B-1), so the operands are refreshed and repacked wider.  Every
packed result must carry a valid bound.  Fractions are checked against
fractions too: pairs whose denominators share a factor, with large
coefficients, so that the reducer divides out a common factor at a wider B;
every result must be in the reduced form that sympy's gcd confirms.

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

The reducer reads the gcd of a fraction's numerator and denominator off
the integer gcd of their packed values.  It is checked against sympy on
n = c_A G u and d = c_B G v, with contents that are powers of 2 or
negative, cofactors whose resultants are large, coefficients near 2^63 and
2^127, and operands of either stride; on a fixed pair whose first width
gives a divisor that fails the exact-division certificate, so that the
reducer widens once; and on a fraction of degree 60 with 100-bit
coefficients, which must reduce in under half a second.
"""

import random
import time
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from sympy.polys.polyerrors import HeuristicGCDFailed  # noqa: E402

from oracles import digits_by_shifts, evaluate_by_horner, poly_product_by_dict  # noqa: E402
from uqcentre import qrational  # noqa: E402
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


def quotient(n, d):
    """n / d in Q(q), for elements n and d != 0 of the field, in sympy's reduced form.

    sympy reduces a quotient by its sparse heuristic gcd (heugcd), which can
    give up with HeuristicGCDFailed on large coefficients.  Then the gcd is
    taken by the dense algorithm, which falls back to subresultants instead,
    both parts are divided by it exactly, and the denominator is made to
    lead positive, as sympy's reduced form has it.
    """
    try:
        return n / d
    except HeuristicGCDFailed:
        num, den = n.numer * d.denom, n.denom * d.numer
        q = sympy.Symbol("q")
        g = sympy.Poly(num.as_expr(), q).gcd(sympy.Poly(den.as_expr(), q))
        g = _K.ring.from_dict(g.as_dict())
        num, den = num.exquo(g), den.exquo(g)
        if den.LC < 0:
            num, den = -num, -den
        return _K.raw_new(num, den)


def polynomial(coeffs):
    """The sympy field element sum_i coeffs[i] q^i."""
    return sum((c * Q**i for i, c in enumerate(coeffs)), _K(0))


def to_sympy(x: QRat):
    return quotient(Q**x.qpow * polynomial(x.num), polynomial(x.den))


def same_value(x: QRat, expr) -> bool:
    return to_sympy(x) == expr


def fields(x: QRat):
    return (x.qpow, x.num, x.den)


def general_form(x: QRat) -> QRat:
    """x rebuilt through the general constructor path from an unreduced form."""
    return QRat(x.qpow - 2, (0, 0) + poly_product_by_dict(x.num, D),
                poly_product_by_dict(x.den, D))


def is_canonical_laurent(x: QRat) -> bool:
    if x.is_zero():
        return fields(x) == (0, (), (1,))
    return x.den == (1,) and x.num[0] != 0 and x.num[-1] != 0


@settings(max_examples=200, deadline=None)
@given(exponents, coefficients)
def test_fast_constructor_matches_general_path(k, coeffs):
    x = QRat(k, tuple(coeffs), (1,))
    assert is_canonical_laurent(x)
    assert fields(x) == fields(QRat(k, poly_product_by_dict(coeffs, D), D))
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


@settings(max_examples=200, deadline=None)
@given(st.one_of(laurents(), non_laurents()), exponents)
def test_shift_is_multiplication_by_a_power_of_q(x, k):
    shifted = x.shift(k)
    assert fields(shifted) == fields(q_power(k) * x) == fields(x * q_power(k))
    # the same value rebuilt through the general constructor from an unreduced form
    unreduced = (0, 0) + poly_product_by_dict(x.num, D), poly_product_by_dict(x.den, D)
    assert fields(shifted) == fields(QRat(x.qpow + k - 2, *unreduced))
    assert same_value(shifted, Q**k * to_sympy(x))


def test_shift_of_zero_is_the_canonical_zero():
    zero = QRat(0, (), (1,))
    for k in (-3, 0, 5):
        assert fields(zero.shift(k)) == (0, (), (1,)) == fields(q_power(k) * zero)


# -- the packed form at large coefficients ------------------------------------------


def valid(x: QRat) -> bool:
    """x carries a bound on its l1 norm below 2^(B-1), at the width of that norm."""
    if not x.is_laurent():
        return True
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
    assert (p - p).is_zero() and fields(p - p) == (0, (), (1,))
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
    assert (x + (-x)).is_zero() and fields(x - x) == (0, (), (1,))
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


# -- fractions against fractions -----------------------------------------------------


def coefficient_lists(coefficients, min_size, max_size):
    """Trimmed coefficient tuples that are not the zero polynomial."""
    def nonzero(cs):
        cs = list(cs)
        if not any(cs):
            cs[-1] = 1
        while not cs[-1]:
            cs.pop()
        return tuple(cs)
    return st.lists(coefficients, min_size=min_size, max_size=max_size).map(nonzero)


@st.composite
def fraction_pairs(draw):
    """Two fractions whose denominators share a factor f, as do their contents.

    Coefficients are small, near 2^(B-1) or as large as 10^30, so the sums,
    products and quotients below have a common factor c*g with large
    coefficients to divide out, and the quotient by it is certified at a
    wider B.
    """
    f = draw(coefficient_lists(big_coefficients, 1, 3))
    content = draw(st.sampled_from((1, 6, 2**_B + 1)))

    def fraction():
        num = draw(coefficient_lists(big_coefficients, 1, 4))
        den = draw(coefficient_lists(big_coefficients, 2, 3))
        den = tuple(content * c for c in poly_product_by_dict(den, f))
        return QRat(draw(exponents), num, den)

    return fraction(), fraction()


def is_canonical(x: QRat) -> bool:
    """x is in the unique reduced form, checked with sympy's polynomial gcd."""
    if x.is_zero():
        return fields(x) == (0, (), (1,))
    num, den = x.num, x.den
    if not (num[0] and num[-1] and den[0] and den[-1] > 0):
        return False
    if x.is_laurent() != (den == (1,)):
        return False
    contents = [abs(sympy.gcd_list(list(p))) for p in (num, den)]
    poly = [sympy.Poly(list(reversed(p)), sympy.Symbol("q")) for p in (num, den)]
    return sympy.gcd(*contents) == 1 and poly[0].gcd(poly[1]).degree() == 0


@settings(max_examples=100, deadline=None)
@given(fraction_pairs(), st.integers(-3, -1))
# sympy's sparse gcd gives up on 1 / y**3 here, and on y**-3 taken to sympy
@example(pair=(QRat(-1, (1,), (5725523785559058432,)),
               QRat(3, (-1, -1), (6982083331352511836662367889408,
                                  26404317990036159694111635227466006528))),
         e=-3)
def test_fraction_arithmetic_on_fractions_agrees_with_sympy(pair, e):
    x, y = pair
    sx, sy = to_sympy(x), to_sympy(y)
    one = _K(1)
    # sympy leaves (-1/q)**-1 as q/-1, unequal to -q; 1 / (-1/q) is -q
    for result, expr in (
        (x + y, sx + sy), (y + x, sx + sy), (x - y, sx - sy), (-x, -sx),
        (x * y, sx * sy), (y * x, sx * sy), (x / y, quotient(sx, sy)),
        (y / x, quotient(sy, sx)), (x.inverse(), quotient(one, sx)),
        (x ** e, quotient(one, sx**-e)), (y ** e, quotient(one, sy**-e)),
    ):
        assert is_canonical(result)
        assert same_value(result, expr)
        # the same value built from its reduced form: equal, and hashed alike
        rebuilt = QRat(result.qpow, result.num, result.den)
        assert fields(rebuilt) == fields(result) and rebuilt == result
        assert hash(rebuilt) == hash(result)
    assert (x == y) == (sx == sy)


# -- the reducer: one integer gcd of the packed values --------------------------------

# contents of the operands: powers of 2, negative, or both
content_factors = st.sampled_from((1, -1, 2, -6, 2**63, -2**64, 3 * 2**127, -2**130))

# small, and near the steps 2^63 and 2^127 of the width
step_coefficients = st.one_of(
    st.integers(-4, 4),
    signed(st.integers(2**62, 2**64)),
    signed(st.integers(2**126, 2**128)),
)


@st.composite
def common_factor_pairs(draw):
    """(n, d) = (c_A G u, c_B G v) as coefficient tuples, with v = u + 2^j r.

    Each of G, u and r is a polynomial in q or in q^2, so n and d have
    stride 2, stride 1 or one of each.  u and v agree modulo 2^j, so their
    resultant is large and, in general, a multiple of 2^j; a large common
    factor of u(xi) and v(xi) is what makes the reducer's digits of
    gcd(n(xi), d(xi)) differ from those of the gcd.
    """
    def factor(max_size):
        p = draw(coefficient_lists(step_coefficients, 1, max_size))
        if not draw(st.booleans()):
            return p
        spread = [0] * (2 * len(p) - 1)
        spread[::2] = p
        return tuple(spread)

    g, u, r = factor(3), factor(4), factor(4)
    j = draw(st.sampled_from((0, 1, 40, 64, 100)))
    v = [0] * max(len(u), len(r))
    for i, c in enumerate(u):
        v[i] += c
    for i, c in enumerate(r):
        v[i] += c << j
    hypothesis.assume(any(v))
    n = tuple(draw(content_factors) * c for c in poly_product_by_dict(g, u))
    d = tuple(draw(content_factors) * c for c in poly_product_by_dict(g, v))
    return n, d


@settings(max_examples=200, deadline=None)
@given(common_factor_pairs(), exponents)
def test_reducer_divides_out_the_common_factor_as_sympy_does(pair, k):
    n, d = pair
    x = QRat(k, n, d)
    assert is_canonical(x)
    assert same_value(x, Q**k * quotient(polynomial(n), polynomial(d)))


# u and v are a reduced basis of the lattice of linear polynomials that
# vanish at 2^64 modulo the 70-bit prime P: u(2^64) and v(2^64) share the
# factor P = |Res(u, v)| > 2^63, so at xi = 2^64 the digits of
# gcd(n(xi), d(xi)) are not a multiple of the gcd of n and d, 2 (1 + q)
P = 773801536743419589829
U = (12832044628, 14138020115)
V = (-31745405831, 25325999088)


def test_a_width_that_fails_the_certificate_is_widened(monkeypatch):
    assert U[0] * V[1] - U[1] * V[0] == P  # = -Res(u, v)
    assert gcd(U[0] + (U[1] << 64), V[0] + (V[1] << 64)) % P == 0
    n = tuple(6 * c for c in poly_product_by_dict((1, 1), U))
    d = tuple(-4 * c for c in poly_product_by_dict((1, 1), V))
    divisions = []

    def recorded(x, y):
        assert len(divisions) < 6, "the reducer did not settle at the second width"
        try:
            z = laurent_quotient(x, y)
        except ArithmeticError:
            divisions.append("inexact")
            raise
        divisions.append("exact")
        return z

    monkeypatch.setattr(qrational, "laurent_quotient", recorded)
    x = QRat(0, n, d)
    # the first width's divisor does not divide n; the second divides both
    assert divisions == ["inexact", "exact", "exact"]
    assert fields(x) == (0, tuple(-3 * c for c in U), tuple(2 * c for c in V))
    assert same_value(x, quotient(polynomial(n), polynomial(d)))


def test_a_degree_60_fraction_with_100_bit_coefficients_reduces_in_half_a_second():
    rng = random.Random(60)

    def part():
        return [rng.randrange(-2**100, 2**100) for _ in range(30)] + [rng.randrange(1, 2**100)]

    x, y = QRat(0, part(), part()), QRat(0, part(), part())
    # the sum's numerator and denominator have degree 60: one reduction
    start = time.perf_counter()
    total = x + y
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert len(total.den) == 61
    assert is_canonical(total)
    assert same_value(total, to_sympy(x) + to_sympy(y))


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

"""Property tests of the product and the centrality check in U_q(sl2).

The library builds the levels R, E' R, E'^2 R, ... of the right factor, one
application of E' each, up to the largest E'-exponent of the left factor,
and applies each left term's K-shift q^(-2 b1 x) afterwards; a matrix
product shares these levels down a column of the right factor.  The oracle
forms r1 r2 s q^e for every (left term, right term, straightening term)
triple, with E'^c F^a straightened by its own induction.  Elements have F
and E powers <= 4 and K powers in [-4, 4]; their stored coefficients are Laurent
polynomials, given as they are stored or to the E-basis constructor as
(q - q^-1)^c times them, which it divides out.  Left factors of up to 8
terms with E'-exponents in {0, 1, 3, 6} reuse each level several times,
and build levels 2, 4 and 5, which no left term reads; left matrix entries
have E'-exponents in {0, 1, 2}.

Every output coefficient is a running sum of ``qrational.mul_add``, packed
while its terms are stride-2 values of one valuation parity within the
bound.  The running-sum tests draw few monomials, so that many terms meet at
one output monomial, and coefficients that leave the packed path: l1 norms
up to 2^62 (a product or a sum passes 2^63, and the exact norm does too),
values with a loose bound (a refresh to the exact norm lets the sum go on
packed), stride-1 values, and stride-2 values of both valuation parities
at one monomial.  Past the packed path every sum takes one slow path, and
wide sums are checked against sympy or by hand: one whose bound passes
2^127 and then 2^191, a wide one that a term of the other valuation parity
drops to stride 1, wide terms that cancel to zero, and a stride-1 term
after wide terms.  A wide sum of many terms keeps the width
of its exact norm and is made canonical once, by ``finished``.

``is_central`` is checked against x g == g x for g = E', F, K, by the
triple loop, on elements whose terms mostly have a = c, so that zero-grade
elements that are not central are common, and on central elements.

The anti-involution theta of the oracles, under which the two halves of the
Casimir trace agree, is checked to keep the defining relations, to agree
with theta(E')^c theta(K)^b theta(F)^a on monomials, to reverse products,
to be an involution and to fix zero-grade elements.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

sympy = pytest.importorskip("sympy")

from oracles import (  # noqa: E402
    GEN_EP, GEN_F, GEN_K, GEN_KINV, QMQ, UqMatrix, theta, uq_product_by_triples)
from uqcentre import SimpleModule, UqElement, casimir, is_central  # noqa: E402
from uqcentre import qrational  # noqa: E402
from uqcentre.qrational import (  # noqa: E402
    Q_ONE, Q_ZERO, QRat, _width, finished, mul_add, q_power)
from uqcentre.uq_rank1 import UQ_ONE  # noqa: E402

monomials = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 4))
left_monomials = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 2))
# E'-exponents up to 6 with gaps: levels are built past exponents no term reads
gapped_left_monomials = st.tuples(
    st.integers(0, 4), st.integers(-4, 4), st.sampled_from((0, 1, 3, 6)))
coefficients = st.builds(
    lambda k, num: QRat(k, tuple(num), (1,)),
    st.integers(-4, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)


@st.composite
def elements(draw, mons=monomials, max_size=3):
    terms = draw(st.dictionaries(mons, coefficients, max_size=max_size))
    if draw(st.booleans()):  # E-basis coefficients, divided by (q - q^-1)^c on the way in
        return UqElement({m: c * QMQ ** m[2] for m, c in terms.items()})
    return UqElement._stored({m: c for m, c in terms.items() if not c.is_zero()})


@settings(max_examples=150, deadline=None)
@given(elements(), elements())
def test_product_matches_the_triple_loop(x, y):
    assert (x * y)._terms == uq_product_by_triples(x, y)._terms


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=100, deadline=None)
@given(elements(gapped_left_monomials, 8), elements())
def test_product_with_reused_tables_matches_the_triple_loop(x, y):
    assert (x * y)._terms == uq_product_by_triples(x, y)._terms


def _matrices(mons, max_size):
    entries = st.lists(elements(mons, max_size), min_size=9, max_size=9)
    return entries.map(lambda e: UqMatrix([e[0:3], e[3:6], e[6:9]]))


@settings(max_examples=30, deadline=None)
@given(_matrices(left_monomials, 4), _matrices(monomials, 3))
def test_matrix_product_matches_sums_of_the_triple_loop(A, B):
    rows = (A * B).rows
    for i in range(3):
        for j in range(3):
            expected = sum(
                (uq_product_by_triples(A.rows[i][k], B.rows[k][j]) for k in range(3)),
                UqElement(),
            )
            assert rows[i][j]._terms == expected._terms


# -- running sums that leave the packed path --------------------------------------


def _even(k, coeffs):
    """q^k P(q^2) with the little-endian coefficients of P: a stride-2 value."""
    spread = [0] * (2 * len(coeffs))
    spread[::2] = coeffs
    return QRat(k, tuple(spread), (1,))


_k = st.integers(-4, 4)
_q = sympy.Symbol("q")
small_even = st.builds(_even, _k, st.lists(st.integers(-3, 3), min_size=1, max_size=3))
# +-1 and 0 only: terms that meet at a monomial often cancel their low digits
unit_even = st.builds(_even, _k, st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3))


def _near(e):
    """Integers of either sign with magnitude in [2^(e-1), 2^e]."""
    return st.builds(lambda m, neg: -m if neg else m, st.integers(2 ** (e - 1), 2**e),
                     st.booleans())


# near 2^31 a product of two is near 2^62, and two such terms pass 2^63; near
# 2^62 any product or sum passes 2^63
wide_even = st.builds(_even, _k, st.lists(st.one_of(_near(31), _near(62)), min_size=1,
                                          max_size=2))
# c + c M - c M is c with the bound h_c (1 + 2 M): a refresh finds it far smaller
loose_even = st.builds(lambda c, m: c + c * m - c * m, small_even,
                       st.integers(2**20, 2**60))
mixed_coefficients = st.one_of(small_even, unit_even, wide_even, loose_even, coefficients)
# few monomials, so that many terms of a product meet at one
close_monomials = st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2))


@st.composite
def crowded_elements(draw, max_size=4):
    terms = draw(st.dictionaries(close_monomials, mixed_coefficients, max_size=max_size))
    return UqElement._stored({m: c for m, c in terms.items() if not c.is_zero()})


def _valid(c: QRat) -> bool:
    """c carries a bound on its l1 norm below 2^(B-1), at the width of that norm."""
    l1 = sum(map(abs, c.num))
    return l1 <= c._h < 2 ** (_width(c._h) - 1) and _width(c._h) == _width(l1)


@settings(max_examples=150, deadline=None)
@given(crowded_elements(), crowded_elements())
def test_running_sums_off_the_packed_path_match_the_triple_loop(x, y):
    product = x * y
    assert product._terms == uq_product_by_triples(x, y)._terms
    assert all(_valid(c) for c in product._terms.values())


@settings(max_examples=25, deadline=None)
@given(st.lists(crowded_elements(3), min_size=8, max_size=8))
def test_matrix_running_sums_off_the_packed_path_match_the_triple_loop(entries):
    A, B = UqMatrix([entries[0:2], entries[2:4]]), UqMatrix([entries[4:6], entries[6:8]])
    rows = (A * B).rows
    for i in range(2):
        for j in range(2):
            expected = sum(
                (uq_product_by_triples(A.rows[i][k], B.rows[k][j]) for k in range(2)),
                UqElement(),
            )
            assert rows[i][j]._terms == expected._terms
            assert all(_valid(c) for c in rows[i][j]._terms.values())


@pytest.mark.parametrize("f_coeff, one_coeff, expected", [
    ((0, (1,)), (1, (1,)), {0: 1, 1: 1}),  # (F + q)(1 + F): F gets 1 and q
    ((0, (1, 0, 1)), (0, (-1,)), {2: 1}),  # (F (1 + q^2) - 1)(1 + F): the low digit cancels
    ((0, (1,)), (0, (-1,)), None),  # (F - 1)(1 + F): F cancels
    # a wide sum, then a term of odd valuation: the sum drops to stride 1
    ((0, (2**130, 0, 5)), (1, (2**130,)), {0: 2**130, 1: 2**130, 2: 5}),
    # two wide terms that cancel to zero
    ((0, (2**130, 0, 1)), (0, (-(2**130), 0, -1)), None),
])
def test_terms_meeting_at_one_monomial(f_coeff, one_coeff, expected):
    x = UqElement._stored({(1, 0, 0): QRat(*f_coeff, (1,)), (0, 0, 0): QRat(*one_coeff, (1,))})
    y = UqElement._stored({(0, 0, 0): Q_ONE, (1, 0, 0): Q_ONE})
    product = x * y
    assert product._terms == uq_product_by_triples(x, y)._terms
    if expected is None:
        assert (1, 0, 0) not in product._terms
    else:
        assert product._terms[(1, 0, 0)].as_laurent() == expected


def _f_series(coeffs):
    """sum_i coeffs[i] F^i."""
    return UqElement._stored({(i, 0, 0): c for i, c in enumerate(coeffs)})


def _sympy(c: QRat):
    return _q**c.qpow * sum(a * _q**i for i, a in enumerate(c.num))


# l1 norms 2^126 + 1, 2^126 + 1 and 2^191 - 2^127
_a = _even(0, [2**125, 2**125 + 1])
_b = _even(2, [2**125 + 1, 2**125])
_c = _even(0, [2**190, 2**190 - 2**127])


@pytest.mark.parametrize("u, v", [
    # two terms near 2^62 at F: their exact sum passes 2^63, and B widens
    ([_even(0, [2**31 + 5])] * 2, [_even(0, [2**31 + 7])] * 2),
    ([_even(1, [-(2**31) - 5, 3])] * 2, [_even(-1, [-(2**31) - 7])] * 2),
    # bounds near 2^62 on the value 1: a refresh lets the sum go on packed
    ([Q_ONE + 2**61 - 2**61] * 2, [Q_ONE] * 2),
    # a product bound past 2^63 on small values: the factors are refreshed
    ([q_power(2) + 2**61 - 2**61] * 2, [Q_ONE * 3 + 2**61 - 2**61] * 2),
    # at F^2 one running sum a + b + c passes 2^127, then 2^191
    ([_a, _b, _c], [Q_ONE] * 3),
    # a stride-1 term after two wide terms
    ([_a, _b, QRat(1, (1, 1), (1,))], [Q_ONE] * 3),
])
def test_sums_past_the_bound(u, v):
    # x = sum_i u[i] F^i and y = sum_j v[j] F^j: the coefficient of F^n is
    # sum_i u[i] v[n - i]
    x, y = _f_series(u), _f_series(v)
    product = x * y
    assert product._terms == uq_product_by_triples(x, y)._terms
    assert all(_valid(c) for c in product._terms.values())
    for n in range(len(u) + len(v) - 1):
        expected = sum(_sympy(ui) * _sympy(v[n - i]) for i, ui in enumerate(u)
                       if 0 <= n - i < len(v))
        got = product._terms.get((n, 0, 0), Q_ZERO)
        assert sympy.cancel(_sympy(got) - expected) == 0, n


def test_a_wide_running_sum_is_made_canonical_once(monkeypatch):
    # +-w cancel in pairs, so refreshes keep the sum at the width of its
    # exact norm, where its summed bound would pass 2^127; q w drops it to
    # stride 1
    w, one, minus_one, q = _even(0, [2**124, -3]), Q_ONE, -Q_ONE, q_power(1)
    expected = QRat(0, (2**124, 2**124, -3, -3), (1,))
    pairs = [(w, one), (w, minus_one)] * 100
    terms = [(w, one)] + pairs + [(w, q)] + pairs
    canonicalised = []
    real = qrational._from_coefficients
    monkeypatch.setattr(qrational, "_from_coefficients",
                        lambda *args: canonicalised.append(args) or real(*args))
    acc: dict = {}
    for x, y in terms:
        mul_add(acc, "key", x, y)
    assert not canonicalised
    assert acc["key"][3] == _width(2**124) == 128
    assert finished(acc) == {"key": expected}
    assert len(canonicalised) == 1


# -- centrality ---------------------------------------------------------------------

zero_grade_monomials = st.builds(lambda a, b: (a, b, a), st.integers(0, 3), st.integers(-3, 3))


@st.composite
def mostly_zero_grade(draw):
    """An element whose terms mostly have a = c, or a central element plus such terms."""
    mons = st.one_of(*[zero_grade_monomials] * 9, monomials)
    terms = draw(st.dictionaries(mons, coefficients, max_size=3))
    x = UqElement._stored({m: c for m, c in terms.items() if not c.is_zero()})
    if draw(st.booleans()):
        m, k = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        central = casimir(SimpleModule(m), k).scale(draw(coefficients)) + draw(coefficients)
        x = central if draw(st.booleans()) else central + x
    return x


def _commutes(x, g) -> bool:
    return uq_product_by_triples(x, g) == uq_product_by_triples(g, x)


@settings(max_examples=200, deadline=None)
@given(mostly_zero_grade())
def test_is_central_matches_commutation_with_each_generator(x):
    assert is_central(x) == all(_commutes(x, g) for g in (GEN_EP, GEN_F, GEN_K))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.builds(lambda a, b: (a + 1, b, a), st.integers(0, 3),
                                 st.integers(-3, 3)),
                       coefficients, min_size=1, max_size=4))
def test_no_nonzero_element_with_a_equal_to_c_plus_one_commutes_with_e(terms):
    # the lemma by which is_central leaves out [F, x]: [F, x] has a = c + 1
    y = UqElement._stored({m: c for m, c in terms.items() if not c.is_zero()})
    assert _commutes(y, GEN_EP) == (not y)


def test_zero_grade_elements_that_are_not_central():
    # they commute with K, and fail on E' (and so on F)
    C = casimir(SimpleModule(1), 1)
    for x in (UqElement.monomial(1, 1, 1, QMQ), C + GEN_K, C * GEN_K * GEN_K, GEN_F * GEN_EP):
        assert _commutes(x, GEN_K) and not _commutes(x, GEN_EP) and not _commutes(x, GEN_F)
        assert not is_central(x)
    assert is_central(C * C + C.scale(q_power(3)) + UQ_ONE)


# -- the anti-involution theta ----------------------------------------------------


def test_theta_keeps_the_defining_relations():
    # theta reverses products: K E' = q^2 E' K, K F = q^-2 F K,
    # E' F - F E' = K - K^-1 and K K^-1 = 1 go to relations that hold
    tE, tF, tK, tKinv = theta(GEN_EP), theta(GEN_F), theta(GEN_K), theta(GEN_KINV)
    assert (tE, tF, tK) == (GEN_F * GEN_KINV, GEN_K * GEN_EP, GEN_K)
    assert tE * tK == (tK * tE).scale(q_power(2))
    assert tF * tK == (tK * tF).scale(q_power(-2))
    assert tF * tE - tE * tF == tK - tKinv
    assert tKinv * tK == UQ_ONE == tK * tKinv


def test_theta_of_a_monomial_is_the_reversed_product_of_generator_images():
    for a in range(4):
        for b in range(-3, 4):
            for c in range(4):
                tK = theta(GEN_K) ** b if b >= 0 else theta(GEN_KINV) ** -b
                image = theta(GEN_EP) ** c * tK * theta(GEN_F) ** a
                assert theta(UqElement._stored({(a, b, c): Q_ONE})) == image, (a, b, c)


@settings(max_examples=100, deadline=None)
@given(elements(), elements())
def test_theta_reverses_products(x, y):
    assert theta(x * y) == theta(y) * theta(x)


@settings(max_examples=100, deadline=None)
@given(elements())
def test_theta_is_an_involution(x):
    assert theta(theta(x)) == x


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(zero_grade_monomials, coefficients, max_size=4))
def test_theta_fixes_zero_grade_elements(terms):
    x = UqElement._stored({m: c for m, c in terms.items() if not c.is_zero()})
    assert theta(x) == x

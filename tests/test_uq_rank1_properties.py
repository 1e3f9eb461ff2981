"""Property tests of the product in U_q(sl2).

The library straightens E'^c R once per E'-exponent c of the left factor,
keyed by c alone, and applies each left term's K-shift q^(-2 b1 x)
afterwards; a matrix product shares these tables down a column of the right
factor.  The oracle forms r1 r2 s q^e for every (left term, right term,
straightening term) triple.  Elements have F and E powers <= 4 and K powers
in [-4, 4]; their stored coefficients are Laurent polynomials, or come from
the E-basis constructor, which stores coeff / (q - q^-1)^c and so is not
Laurent when c > 0.  Left factors of up to 8 terms with E'-exponents in
{0, 1, 2} reuse each table several times.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import uq_product_by_triples  # noqa: E402
from uqcentre import UqElement, UqMatrix  # noqa: E402
from uqcentre.qrational import QRat  # noqa: E402

monomials = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 4))
left_monomials = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 2))
coefficients = st.builds(
    lambda k, num: QRat(k, tuple(num), (1,)),
    st.integers(-4, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)


@st.composite
def elements(draw, mons=monomials, max_size=3):
    terms = draw(st.dictionaries(mons, coefficients, max_size=max_size))
    if draw(st.booleans()):
        return UqElement(terms)  # E-basis coefficients: non-Laurent stored ones
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
@given(elements(left_monomials, 8), elements())
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

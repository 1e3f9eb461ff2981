"""Property tests of the product in U_q(sl2).

``UqElement.__mul__`` sums the small factors r2 s q^e per output monomial
and multiplies each sum by the left coefficient r1 once; the oracle forms
r1 r2 s q^e for every (left term, right term, straightening term) triple.
Elements have F and E powers <= 4 and K powers in [-4, 4]; their stored
coefficients are Laurent polynomials, or come from the E-basis constructor,
which stores coeff / (q - q^-1)^c and so is not Laurent when c > 0.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import uq_product_by_triples  # noqa: E402
from uqcentre import UqElement  # noqa: E402
from uqcentre.qrational import QRat  # noqa: E402

monomials = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 4))
coefficients = st.builds(
    lambda k, num: QRat(k, tuple(num), (1,)),
    st.integers(-4, 4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)


@st.composite
def elements(draw):
    terms = draw(st.dictionaries(monomials, coefficients, max_size=3))
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

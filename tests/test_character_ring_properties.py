"""Property test of the multiplicativity that the centre-relation check uses.

``verify_centre_relations`` compares only the weights of the two sides of a
binomial, which is sound because xi o T is multiplicative:
xi([T(a)]) xi([T(b)]) = xi([T(a + b)]) for a, b in M+.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from uqcentre import build_root_system, hilbert_basis  # noqa: E402
from oracles import torus_product, xi_tensor  # noqa: E402

SYSTEMS = {name: build_root_system(name[0], int(name[1:])) for name in ("A2", "A3", "D5")}


@st.composite
def monoid_pairs(draw):
    """A root system and two elements of M+, each a sum of <= 2 Hilbert-basis elements."""
    rsys = SYSTEMS[draw(st.sampled_from(sorted(SYSTEMS)))]
    basis = hilbert_basis(rsys).elements

    def element():
        w = rsys.zero()
        for g in draw(st.lists(st.sampled_from(basis), max_size=2)):
            w = tuple(x + y for x, y in zip(w, g))
        return w

    return rsys, element(), element()


@settings(max_examples=40, deadline=None)
@given(monoid_pairs())
def test_xi_tensor_is_multiplicative(case):
    rsys, a, b = case
    total = tuple(x + y for x, y in zip(a, b))
    assert torus_product(xi_tensor(rsys, a), xi_tensor(rsys, b)) == xi_tensor(rsys, total)

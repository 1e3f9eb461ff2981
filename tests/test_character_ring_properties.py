"""Property tests of the character tables and of xi o T.

``verify_centre_relations`` compares only the weights of the two sides of a
binomial, which is sound because xi o T is multiplicative:
xi([T(a)]) xi([T(b)]) = xi([T(a + b)]) for a, b in M+.  The Freudenthal
tables, summed over orbits of the stabiliser of each weight, agree with the
sum over every positive root, and the one orbit size that a table takes per
zero pattern is the size of the Weyl orbit of each weight with that pattern.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from uqcentre import build_root_system, hilbert_basis, weight_multiplicities  # noqa: E402
from uqcentre.character_ring import _orbit_sizes  # noqa: E402
from uqcentre.root_system import node_mask  # noqa: E402
from oracles import freudenthal_by_roots, torus_product, xi_tensor  # noqa: E402

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


TABLE_SYSTEMS = [
    build_root_system(f, n)
    for f, n in (("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("F", 4), ("G", 2))
]


@st.composite
def small_dominant_weights(draw):
    """A root system and a dominant weight with coordinates <= 2."""
    rsys = draw(st.sampled_from(TABLE_SYSTEMS))
    return rsys, tuple(draw(st.lists(st.integers(0, 2), min_size=rsys.rank, max_size=rsys.rank)))


@settings(max_examples=40, deadline=None)
@given(small_dominant_weights())
def test_orbit_sums_match_the_sum_over_every_root(case):
    rsys, lam = case
    assert weight_multiplicities(rsys, lam) == freudenthal_by_roots(rsys, lam)


RANK_UP_TO_4 = [
    build_root_system(f, n)
    for f, n in (
        [("A", n) for n in range(1, 5)] + [("B", n) for n in range(2, 5)]
        + [("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
    )
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(RANK_UP_TO_4).flatmap(
        lambda rsys: st.tuples(
            st.just(rsys), st.tuples(*[st.integers(0, 2)] * rsys.rank)
        )
    )
)
def test_table_orbit_sizes_per_zero_pattern_are_the_orbit_sizes(case):
    rsys, lam = case
    table = weight_multiplicities(rsys, lam)
    full = (1 << rsys.rank) - 1
    zeros = {mu: full & ~node_mask(mu) for mu in table.mult}
    sizes = _orbit_sizes(rsys.positive_root_table(), zeros.values())
    orbits = {mu: len(rsys.weyl_orbit(mu)) for mu in table.mult}
    for mu, zero in zeros.items():
        assert sizes[zero] == orbits[mu], mu
    assert table.dim == sum(m * orbits[mu] for mu, m in table.mult.items())

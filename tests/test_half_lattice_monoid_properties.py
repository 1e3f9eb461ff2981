"""Property tests of the monoid M+, each checked by root-coordinate membership.

The library decides membership in M+ by a congruence mod r; the oracle here
reads the root coordinates off the inverse Cartan matrix instead.  The walk
that finds minimal zero-sum sequences is checked against a scan of the
Davenport box on random classes, and that scan against the pairwise
definition.
"""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import atoms_in_box, in_half_lattice, is_atom  # noqa: E402
from uqcentre import (  # noqa: E402
    build_root_system,
    conjugate,
    ell,
    hilbert_basis,
    in_monoid,
    rel1,
    rel2,
)
from uqcentre.half_lattice_monoid import _minimal_zero_sums, residue_classes  # noqa: E402
from uqcentre.root_system import add_weights, scale_weight  # noqa: E402

NAMES = (
    [f"A{n}" for n in range(2, 12)]
    + [f"D{n}" for n in range(5, 14, 2)]
    + ["E6"]
)
SYSTEMS = {name: build_root_system(name[0], int(name[1:])) for name in NAMES}


@st.composite
def members(draw, rsys):
    """A random element of M+: a vector with coordinates <= 4, moved into M+ on one node."""
    r, c = residue_classes(rsys)
    v = list(draw(st.lists(st.integers(0, 4), min_size=rsys.rank, max_size=rsys.rank)))
    res = sum(ci * x for ci, x in zip(c, v)) % r
    node = c.index(1) if r > 1 else 0  # class 1 generates Z/r
    v[node] += -res % r
    return tuple(v)


@st.composite
def systems_with_two_members(draw):
    rsys = SYSTEMS[draw(st.sampled_from(NAMES))]
    return rsys, draw(members(rsys)), draw(members(rsys))


@settings(max_examples=60, deadline=None)
@given(systems_with_two_members())
def test_closed_under_addition(case):
    rsys, a, b = case
    assert in_half_lattice(rsys, a) and in_half_lattice(rsys, b)
    total = add_weights(a, b)
    assert in_half_lattice(rsys, total) and in_monoid(rsys, total)


@settings(max_examples=60, deadline=None)
@given(systems_with_two_members())
def test_involution_preserves_the_monoid(case):
    rsys, a, _ = case
    bar = conjugate(rsys, a)
    assert in_half_lattice(rsys, bar) and in_monoid(rsys, bar)
    assert conjugate(rsys, bar) == a


@st.composite
def basis_elements(draw):
    rsys = SYSTEMS[draw(st.sampled_from(NAMES))]
    return rsys, draw(st.sampled_from(hilbert_basis(rsys).elements))


@settings(max_examples=60, deadline=None)
@given(basis_elements())
def test_relation_exponent_identities(case):
    rsys, lam = case
    basis = hilbert_basis(rsys)
    assert in_half_lattice(rsys, lam)
    bar = conjugate(rsys, lam)
    if bar != lam:
        total = rsys.zero()
        for i, e in rel1(rsys, lam).items():
            mu = basis.self_conjugate[i]
            assert in_half_lattice(rsys, mu)
            total = add_weights(total, scale_weight(e, mu))
        assert total == add_weights(lam, bar)
    total = rsys.zero()
    for i, e in rel2(rsys, lam).items():
        nu = basis.scaled_fundamentals[i - 1]
        assert in_half_lattice(rsys, nu)
        total = add_weights(total, scale_weight(e, nu))
    assert total == scale_weight(ell(rsys, lam), lam)


ATOM_TYPES = [("A", n) for n in range(2, 13)] + [("D", n) for n in range(5, 22, 2)] + [("E", 6)]


@st.composite
def zero_sum_vectors(draw):
    """A random element of M+ with sum <= r + 1: up to r random nodes, then one that closes the residue."""
    rsys = build_root_system(*draw(st.sampled_from(ATOM_TYPES)))
    r, c = residue_classes(rsys)
    v = [0] * rsys.rank
    for i in draw(st.lists(st.integers(0, rsys.rank - 1), min_size=1, max_size=r)):
        v[i] += 1
    res = sum(ci * x for ci, x in zip(c, v)) % r
    if res:
        closing = [j for j, cj in enumerate(c) if (res + cj) % r == 0]
        v[draw(st.sampled_from(closing))] += 1
    return rsys, tuple(v)


@settings(max_examples=150, deadline=None)
@given(zero_sum_vectors())
def test_atom_test_matches_pairwise_definition(case):
    # v is irreducible iff no nonzero member of M+ lies strictly below it
    rsys, v = case
    assert in_half_lattice(rsys, v)
    below = (mu for mu in product(*(range(a + 1) for a in v)) if any(mu) and mu != v)
    pairwise = not any(in_half_lattice(rsys, mu) for mu in below)
    assert is_atom(*residue_classes(rsys), v) == pairwise


@st.composite
def class_sequences(draw):
    """A random order r <= 12 and up to 6 node classes c_i mod r, zero allowed and often drawn."""
    r = draw(st.integers(1, 12))
    c = draw(st.lists(st.one_of(st.just(0), st.integers(0, r - 1)), min_size=1, max_size=6))
    return r, tuple(c)


@settings(max_examples=200, deadline=None)
@given(class_sequences())
def test_walk_matches_box_scan_on_random_classes(case):
    # the box holds 0 <= w_i <= s_i = r / gcd(r, c_i) with sum(w) <= r
    r, c = case
    assert tuple(_minimal_zero_sums(r, c)) == atoms_in_box(r, c)

"""Property tests of the bitsets behind the generation check.

``generation_check`` decides membership and reachability on Python-int
bitsets over the box [0, bound]^rank.  Each builder takes plain inputs, so
it is drawn here on random classes and generators and compared with a brute
force over the same inputs, cell ``j`` being the ``j``-th point of
``product(range(bound + 1), repeat=rank)``: the member bitset must be the
cells of residue 0, and the reach bitset the cells of nonzero factorisation
count: those reached from 0 by adding generators without leaving the box.
"""

from itertools import product
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from uqcentre.monoid_presentation import _member_bits, _reach_bits  # noqa: E402


def _bits(cells):
    return sum(1 << j for j, on in enumerate(cells) if on)


def _box(rank, bound):
    return product(range(bound + 1), repeat=rank)


def _reachable(generators, bound, rank):
    """The sums of ``generators`` in the box, by a search from 0 that never leaves it."""
    seen = {(0,) * rank}
    todo = list(seen)
    while todo:
        w = todo.pop()
        for g in generators:
            v = tuple(map(add, w, g))
            if max(v) <= bound and v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _often_zero(values):
    return st.one_of(st.just(0), values)


@st.composite
def boxes(draw):
    """``(r, classes, generators, bound)``; zero classes and coordinates are drawn often."""
    r = draw(st.integers(1, 12))
    rank = draw(st.integers(1, 5))
    bound = draw(st.integers(0, 4))
    classes = draw(st.lists(_often_zero(st.integers(0, r - 1)), min_size=rank, max_size=rank))
    # coordinates up to bound + 2, so some generators leave the box
    vectors = st.lists(
        _often_zero(st.integers(0, bound + 2)), min_size=rank, max_size=rank
    ).map(tuple).filter(any)
    generators = draw(st.lists(vectors, max_size=6))
    return r, classes, generators, bound


@settings(max_examples=300, deadline=None)
@given(boxes())
def test_member_bits_are_the_cells_of_residue_zero(case):
    r, classes, _, bound = case
    residues = (sum(c * v for c, v in zip(classes, w)) % r for w in _box(len(classes), bound))
    assert _member_bits(r, classes, bound) == _bits(res == 0 for res in residues)


@settings(max_examples=300, deadline=None)
@given(boxes())
def test_reach_bits_are_the_cells_of_nonzero_count(case):
    r, classes, generators, bound = case
    reached = _reachable(generators, bound, len(classes))
    assert _reach_bits(generators, bound) == _bits(w in reached for w in _box(len(classes), bound))

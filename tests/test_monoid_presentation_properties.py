"""Property tests of the bitsets behind the generation check.

``generation_check`` decides membership and reachability on Python-int
bitsets over the box [0, bound]^rank.  Each builder takes plain inputs, so
it is drawn here on random classes and generators and compared with the
count table of ``_factorisation_table``, which is fed the same inputs:
the member bitset must be the cells of residue 0, and the reach bitset the
cells of nonzero count.
"""

from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from uqcentre import monoid_presentation  # noqa: E402
from uqcentre.monoid_presentation import (  # noqa: E402
    _factorisation_table,
    _member_bits,
    _reach_bits,
)


def _bits(cells):
    return sum(1 << j for j, on in enumerate(cells) if on)


def _table(r, classes, generators, bound):
    """The count table of the library, read on plain inputs."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(monoid_presentation, "residue_classes", lambda rsys: (r, tuple(classes)))
        m.setattr(
            monoid_presentation,
            "hilbert_basis",
            lambda rsys: SimpleNamespace(elements=tuple(generators)),
        )
        return _factorisation_table(SimpleNamespace(rank=len(classes)), bound)


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
    r, classes, generators, bound = case
    residues, _ = _table(r, classes, generators, bound)
    assert _member_bits(r, classes, bound) == _bits(res == 0 for res in residues)


@settings(max_examples=300, deadline=None)
@given(boxes())
def test_reach_bits_are_the_cells_of_nonzero_count(case):
    r, classes, generators, bound = case
    _, counts = _table(r, classes, generators, bound)
    assert _reach_bits(generators, bound, len(classes)) == _bits(k > 0 for k in counts)

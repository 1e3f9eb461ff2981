"""Property tests of the dominance walk.

The library reflects at negative coordinates taken from a stack over sparse
Cartan columns; the oracle reflects at the first negative coordinate over
dense ones.  Both end at the one dominant weight of the orbit.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import dominant_by_first_negative  # noqa: E402
from uqcentre import build_root_system  # noqa: E402

NAMES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
SYSTEMS = {name: build_root_system(name[0], int(name[1:])) for name in NAMES}


@st.composite
def weights(draw):
    """A root system and an integer weight with coordinates in -9..9."""
    rsys = SYSTEMS[draw(st.sampled_from(NAMES))]
    w = tuple(draw(st.lists(st.integers(-9, 9), min_size=rsys.rank, max_size=rsys.rank)))
    return rsys, w


@settings(max_examples=300, deadline=None)
@given(weights())
def test_stack_walk_matches_the_first_negative_walk(case):
    rsys, w = case
    dom = rsys.dominant_representative(w)
    assert rsys.is_dominant(dom)
    assert dom == dominant_by_first_negative(rsys, w)

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from uqcentre import DomainError, ResourceLimitError, build_root_system
from uqcentre import root_system
from oracles import (
    inverse_by_fractions,
    positive_roots_by_closure,
    root_coords_to_weight,
    simple_reflection,
    weyl_closure,
)

F = Fraction

ALL_SMALL = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7), ("A", 8),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("B", 7), ("B", 8),
    ("C", 3), ("C", 4), ("C", 5), ("C", 6), ("C", 7), ("C", 8),
    ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]


def test_cartan_golden():
    a2 = build_root_system("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    assert a2.sym == (1, 1)

    a1 = build_root_system("A", 1)
    assert a1.cartan == ((2,),)
    assert a1.sym == (1,)

    # documented orientation: the short-root row carries the -3
    g2 = build_root_system("G", 2)
    assert g2.cartan == ((2, -3), (-1, 2))
    assert g2.sym == (1, 3)

    b3 = build_root_system("B", 3)
    assert b3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert b3.sym == (2, 2, 1)

    c3 = build_root_system("C", 3)
    assert c3.cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert c3.sym == (1, 1, 2)

    f4 = build_root_system("F", 4)
    assert f4.cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    assert f4.sym == (2, 2, 1, 1)

    e6 = build_root_system("E", 6)
    # branch node is 2, attached to node 4 of the chain 1-3-4-5-6
    assert e6.cartan[1][3] == -1 and e6.cartan[3][1] == -1
    assert e6.cartan[0][2] == -1 and e6.cartan[2][3] == -1
    assert e6.cartan[0][1] == 0


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 4), ("H", 2)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(DomainError):
        build_root_system(family, rank)


@pytest.mark.parametrize("rank", [True, 2.0, "2", None])
def test_a_rank_that_is_not_an_int_is_rejected(rank):
    # RootSystem("A", True) would compare and hash equal to A1, so the
    # memoised Hilbert basis would report "rank": true for every later A1
    with pytest.raises(DomainError, match="not an int"):
        build_root_system("A", rank)


def test_a_weight_of_the_wrong_length_raises_domain_error():
    a2 = build_root_system("A", 2)
    checks = (a2.is_dominant, a2.dominant_representative,
              lambda w: simple_reflection(a2, 0, w))
    for w in ((1,), (1, 0, 0)):
        for check in checks:
            with pytest.raises(DomainError, match="expected rank 2"):
                check(w)


@pytest.mark.parametrize("i", [-1, -2, 2, 5])
def test_simple_reflection_rejects_a_node_outside_the_diagram(i):
    # Python reads a negative index from the end, so s_-1 would act as s_2
    with pytest.raises(DomainError, match=f"node index {i} is outside 0..1"):
        simple_reflection(build_root_system("A", 2), i, (1, 0))


def test_weight_to_root_coords_examples():
    a2 = build_root_system("A", 2)
    assert a2.weight_to_root_coords((1, 0)) == (F(2, 3), F(1, 3))
    a1 = build_root_system("A", 1)
    assert a1.weight_to_root_coords((1,)) == (F(1, 2),)
    a3 = build_root_system("A", 3)
    assert a3.weight_to_root_coords((0, 1, 0)) == (F(1, 2), F(1), F(1, 2))


def test_root_coords_defining_property():
    # c solves A c = coords for every fundamental weight, all small families
    for fam, n in ALL_SMALL:
        rsys = build_root_system(fam, n)
        for i in range(n):
            c = rsys.weight_to_root_coords(rsys.fundamental_weight(i))
            for k in range(n):
                lhs = sum(rsys.cartan[k][j] * c[j] for j in range(n))
                assert lhs == (1 if k == i else 0)


ALL_TO_20 = (
    [("A", n) for n in range(1, 21)]
    + [("B", n) for n in range(2, 21)]
    + [("C", n) for n in range(3, 21)]
    + [("D", n) for n in range(4, 21)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,n", ALL_TO_20)
def test_integer_inverse_matches_fraction_gauss_jordan(fam, n):
    cartan = build_root_system(fam, n).cartan
    assert root_system._invert_integer_matrix(cartan) == inverse_by_fractions(cartan)


CLASSICAL_TO_30 = [
    (fam, n) for fam, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
    for n in range(low, 31)
]


@pytest.mark.parametrize("fam,n", CLASSICAL_TO_30)
def test_classical_closed_form_inverse_matches_bareiss(fam, n):
    cartan = build_root_system(fam, n).cartan
    assert root_system._classical_inverse(fam, n) == root_system._invert_integer_matrix(cartan)


def test_integer_inverse_with_row_swaps_and_negative_determinants():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            expected = inverse_by_fractions(A)
        except StopIteration:  # singular
            continue
        assert root_system._invert_integer_matrix(A) == expected


def test_bilinear_form_examples():
    a1 = build_root_system("A", 1)
    assert a1.bilinear_form((1,), (1,)) == F(1, 2)
    a2 = build_root_system("A", 2)
    assert a2.bilinear_form((0, 0), (5, -3)) == 0
    assert a2.bilinear_form((1, 0), (0, 1)) == F(1, 3)


def test_bilinear_form_symmetry_and_norms():
    rng = random.Random(7)
    for fam, n in ALL_SMALL:
        rsys = build_root_system(fam, n)
        for i in range(n):
            alpha = rsys.simple_root(i)
            assert rsys.bilinear_form(alpha, alpha) == 2 * rsys.sym[i]
        for _ in range(3):
            x = tuple(rng.randint(-3, 3) for _ in range(n))
            y = tuple(rng.randint(-3, 3) for _ in range(n))
            assert rsys.bilinear_form(x, y) == rsys.bilinear_form(y, x)


def test_fundamental_weight_duality():
    # 2(w_i, alpha_j)/(alpha_j, alpha_j) == delta_ij for every family up to rank 8
    for fam, n in ALL_SMALL:
        rsys = build_root_system(fam, n)
        for i in range(n):
            wi = rsys.fundamental_weight(i)
            for j in range(n):
                aj = rsys.simple_root(j)
                val = 2 * rsys.bilinear_form(wi, aj) / rsys.bilinear_form(aj, aj)
                assert val == (1 if i == j else 0)


def test_rho():
    assert build_root_system("A", 2).rho() == (1, 1)
    assert build_root_system("A", 1).rho() == (1,)
    assert build_root_system("D", 5).rho() == (1, 1, 1, 1, 1)


def test_weyl_orbit_examples():
    a1 = build_root_system("A", 1)
    assert a1.weyl_orbit((1,)) == {(1,), (-1,)}
    a2 = build_root_system("A", 2)
    assert a2.weyl_orbit((1, 0)) == {(1, 0), (-1, 1), (0, -1)}
    assert a2.weyl_orbit((0, 0)) == {(0, 0)}


def test_weyl_orbit_one_dominant_element():
    rng = random.Random(11)
    for fam, n in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]:
        rsys = build_root_system(fam, n)
        for _ in range(5):
            w = tuple(rng.randint(-2, 2) for _ in range(n))
            orbit = rsys.weyl_orbit(w)
            dominant = [v for v in orbit if all(x >= 0 for x in v)]
            assert len(dominant) == 1
            assert dominant[0] == rsys.dominant_representative(w)


def test_reflection_involution_property():
    rng = random.Random(13)
    for fam, n in [("A", 4), ("B", 3), ("F", 4), ("G", 2)]:
        rsys = build_root_system(fam, n)
        for _ in range(10):
            w = tuple(rng.randint(-4, 4) for _ in range(n))
            for i in range(n):
                assert simple_reflection(rsys, i, simple_reflection(rsys, i, w)) == w


def test_form_weyl_invariance():
    rng = random.Random(17)
    for fam, n in [("A", 3), ("C", 3), ("G", 2), ("B", 4)]:
        rsys = build_root_system(fam, n)
        for _ in range(5):
            x = tuple(rng.randint(-3, 3) for _ in range(n))
            y = tuple(rng.randint(-3, 3) for _ in range(n))
            for i in range(n):
                sx = simple_reflection(rsys, i, x)
                sy = simple_reflection(rsys, i, y)
                assert rsys.bilinear_form(sx, sy) == rsys.bilinear_form(x, y)


def test_weyl_group_order():
    assert build_root_system("A", 1).weyl_group_order() == 2
    assert build_root_system("A", 2).weyl_group_order() == 6
    assert build_root_system("D", 4).weyl_group_order() == 192
    assert build_root_system("G", 2).weyl_group_order() == 12
    assert build_root_system("B", 3).weyl_group_order() == 48
    assert build_root_system("F", 4).weyl_group_order() == 1152
    assert build_root_system("E", 7).weyl_group_order() == 2903040
    assert build_root_system("E", 8).weyl_group_order() == 696729600


@pytest.mark.parametrize(
    "fam,n",
    [("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("G", 2),
     ("F", 4), ("E", 6)],
)
def test_orbit_size_formula_matches_breadth_first_orbit(fam, n):
    rsys = build_root_system(fam, n)
    for w in product((0, 1), repeat=n):
        assert rsys.orbit_size(w) == len(rsys.weyl_orbit(w)), w
    # a non-dominant weight has the size of its dominant representative's orbit
    w = simple_reflection(rsys, 0, rsys.rho())
    assert rsys.orbit_size(w) == len(rsys.weyl_orbit(w)) == rsys.weyl_group_order()


def test_orbit_cap(monkeypatch):
    d4 = build_root_system("D", 4)
    monkeypatch.setattr(root_system, "ORBIT_CAP", 10)
    with pytest.raises(ResourceLimitError):
        d4.weyl_orbit(d4.rho())
    monkeypatch.setattr(root_system, "ORBIT_CAP", 192)
    assert len(d4.weyl_orbit(d4.rho())) == 192


def test_orbit_cap_fails_before_building_the_orbit():
    # |W(E8)| = 696729600 points would need tens of GB; the cap check comes first
    e8 = build_root_system("E", 8)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="696729600"):
        e8.weyl_orbit(e8.rho())
    assert time.perf_counter() - start < 1.0


def test_broken_cartan_data_raises_arithmetic_error(monkeypatch):
    def broken(family, rank):
        return ((2, -1), (0, 2)), (1, 1)  # a zero opposite a nonzero entry

    monkeypatch.setattr(root_system, "_cartan_and_sym", broken)
    with pytest.raises(ArithmeticError):
        build_root_system("A", 2)


def test_dominates():
    a2 = build_root_system("A", 2)
    assert a2.dominates((1, 1), (0, 0))
    assert not a2.dominates((1, 0), (0, 1))
    assert a2.dominates((1, 0), (1, 0))
    # difference in the rational span but not the integer root lattice
    a3 = build_root_system("A", 3)
    assert not a3.dominates((1, 0, 0), (0, 0, 0))


def test_dominates_rejects_a_weight_of_the_wrong_length():
    # zipped, (2, -1) - (0, 0, 7) was (2, -1), a nonnegative root sum
    a2 = build_root_system("A", 2)
    for lam, mu in (((2, -1), (0, 0, 7)), ((0, 0, 7), (2, -1)), ((1, 1), (0,))):
        with pytest.raises(DomainError, match="expected rank 2"):
            a2.dominates(lam, mu)
    with pytest.raises(DomainError, match="not an int"):
        a2.dominates((1.0, 1), (0, 0))


def test_root_coord_round_trip():
    rng = random.Random(19)
    for fam, n in [("A", 3), ("B", 4), ("E", 6), ("G", 2)]:
        rsys = build_root_system(fam, n)
        for _ in range(5):
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            w = root_coords_to_weight(rsys, c)
            assert rsys.weight_to_root_coords(w) == tuple(map(F, c))


def test_positive_roots_counts():
    # number of positive roots: A_n n(n+1)/2, B_n/C_n n^2, D_n n(n-1), G_2 6,
    # F_4 24, E_6 36, E_7 63, E_8 120
    expected = {
        ("A", 3): 6,
        ("B", 3): 9,
        ("C", 4): 16,
        ("D", 4): 12,
        ("G", 2): 6,
        ("F", 4): 24,
        ("E", 6): 36,
        ("A", 12): 78,
        ("B", 8): 64,
        ("C", 8): 64,
        ("D", 15): 210,
        ("E", 7): 63,
        ("E", 8): 120,
    }
    for (fam, n), count in expected.items():
        rsys = build_root_system(fam, n)
        assert len(rsys.positive_roots()) == count


def _types_up_to_rank(bound):
    valid = {"A": 1, "B": 2, "C": 3, "D": 4}
    for fam, low in valid.items():
        for n in range(low, bound + 1):
            yield fam, n
    yield from [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def test_closure_of_several_seeds_is_union_of_closures():
    for fam, n in _types_up_to_rank(8):
        rsys = build_root_system(fam, n)
        simple = [rsys.simple_root(i) for i in range(n)]
        union = set().union(*(weyl_closure(rsys, a) for a in simple))
        assert weyl_closure(rsys, *simple) == union, (fam, n)


def test_orbit_walk_matches_the_breadth_first_closure():
    rng = random.Random(17)
    for fam, n in _types_up_to_rank(5):
        if fam == "E" and n > 6:
            continue
        rsys = build_root_system(fam, n)
        for _ in range(4):
            w = tuple(rng.randint(-1, 1) for _ in range(n))
            assert rsys.weyl_orbit(w) == weyl_closure(rsys, w), (fam, n, w)


@pytest.mark.parametrize("fam,n", ALL_SMALL + [("A", 12), ("D", 15)])
def test_positive_roots_by_height_match_the_weyl_closure(fam, n):
    rsys = build_root_system(fam, n)
    assert rsys.positive_root_data() == positive_roots_by_closure(rsys)


def test_positive_roots_that_miss_2rho_raise(monkeypatch):
    # with the sign of one off-diagonal entry flipped the string rule finds
    # the "roots" (2, -1), (1, 2) and (3, 1), which sum to (6, 2), not 2 rho
    rsys = build_root_system("A", 2)
    monkeypatch.setattr(rsys, "cartan", ((2, 1), (-1, 2)))
    with pytest.raises(ArithmeticError, match="2 rho"):
        rsys.positive_root_data()


def test_positive_root_data_is_cached_and_exact():
    for fam, n in [("A", 4), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]:
        rsys = build_root_system(fam, n)
        data = rsys.positive_root_data()
        assert rsys.positive_root_data() is data
        fresh = []
        for r in rsys.positive_roots():
            coords = rsys.weight_to_root_coords(r)
            assert all(c.denominator == 1 and c >= 0 for c in coords)
            fresh.append((r, tuple(int(c) for c in coords)))
        assert data == tuple(fresh)


def test_positive_root_table_carries_heights_and_node_masks():
    for fam, n in ALL_SMALL:
        rsys = build_root_system(fam, n)
        table = rsys.positive_root_table()
        assert rsys.positive_root_table() is table
        assert tuple((r.weight, r.coords) for r in table) == rsys.positive_root_data()

        def bits(v, keep):
            return {j for j, x in enumerate(v) if keep(x)}

        for r in table:
            assert r.height == sum(r.coords)
            for mask, v, keep in (
                (r.supp, r.coords, lambda x: x > 0),
                (r.pos, r.weight, lambda x: x > 0),
                (r.neg, r.weight, lambda x: x < 0),
            ):
                assert {j for j in range(n) if mask >> j & 1} == bits(v, keep), (fam, n, r)
                assert mask >> n == 0


def test_serialization_shape():
    a2 = build_root_system("A", 2)
    js = a2.to_json()
    assert js["family"] == "A" and js["rank"] == 2
    assert js["cartan"] == [[2, -1], [-1, 2]]

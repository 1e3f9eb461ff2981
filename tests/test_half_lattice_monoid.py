import os
import subprocess
import sys
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

import uqcentre
from uqcentre import half_lattice_monoid
from uqcentre import (
    DomainError,
    ResourceLimitError,
    TYPE_I,
    TYPE_II,
    build_root_system,
    classify_type,
    conjugate,
    ell,
    hilbert_basis,
    in_monoid,
    involution,
    min_multipliers,
    presentation,
    rel1,
    rel2,
)
from uqcentre.monoid_presentation import _cell_weights, _member_bits
from uqcentre.root_system import RootSystem, add_weights, scale_weight
from oracles import (
    atoms_in_box,
    centre_type,
    diagram_involution,
    in_half_lattice,
    involution_by_nodes,
    min_multiplier_search,
    type_A_membership,
    type_A_multiplier,
)


def w(*coords):
    return tuple(coords)


def test_in_monoid_examples():
    a2 = build_root_system("A", 2)
    assert in_monoid(a2, (1, 1))
    assert not in_monoid(a2, (1, 0))
    assert in_monoid(a2, (0, 0))
    assert not in_monoid(a2, (-1, 1))


def test_type_A_membership_examples():
    assert type_A_membership(build_root_system("A", 4), (2, 0, 1, 0))
    assert type_A_membership(build_root_system("A", 2), (3, 0))
    assert not type_A_membership(build_root_system("A", 3), (1, 0, 0))
    with pytest.raises(DomainError):
        type_A_membership(build_root_system("B", 2), (0, 0))


def test_membership_fast_path_agreement():
    # fast path == generic half-lattice test on all weights with coords <= 6
    for n in range(1, 6):
        rsys = build_root_system("A", n)
        for v in product(range(7), repeat=n):
            assert type_A_membership(rsys, v) == in_monoid(rsys, v), (n, v)


def test_min_multipliers():
    assert min_multipliers(build_root_system("A", 4)) == (5, 5, 5, 5)
    assert min_multipliers(build_root_system("D", 5)) == (1, 1, 1, 2, 2)
    assert min_multipliers(build_root_system("E", 6)) == (3, 1, 3, 1, 3, 3)
    assert min_multipliers(build_root_system("B", 4)) == (1, 1, 1, 1)
    assert min_multipliers(build_root_system("A", 7)) == (4, 2, 4, 1, 4, 2, 4)


ALL_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 8)]
    + [("C", n) for n in range(3, 8)]
    + [("D", n) for n in range(4, 22)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _small_points(n, coord_cap=2, sum_cap=4):
    """Every v in N^n with v_i <= coord_cap and sum(v) <= sum_cap."""
    out = set()
    for c in combinations_with_replacement(range(n + 1), sum_cap):
        v = tuple(c.count(i) for i in range(n))  # symbol n is padding
        if max(v) <= coord_cap:
            out.add(v)
    return out


@pytest.mark.parametrize("fam,n", ALL_TYPES)
def test_congruence_matches_root_coordinates(fam, n):
    rsys = build_root_system(fam, n)
    mismatches = [
        v for v in _small_points(n) if in_monoid(rsys, v) != in_half_lattice(rsys, v)
    ]
    assert not mismatches


@pytest.mark.parametrize("fam,n", ALL_TYPES)
def test_min_multipliers_match_search(fam, n):
    rsys = build_root_system(fam, n)
    assert min_multipliers(rsys) == tuple(
        min_multiplier_search(rsys, i) for i in range(n)
    )
    if fam == "A":
        assert min_multipliers(rsys) == tuple(
            type_A_multiplier(n, i + 1) for i in range(n)
        )


def test_residue_classes():
    classes = half_lattice_monoid.residue_classes
    assert classes(build_root_system("E", 6)) == (3, (1, 0, 2, 0, 1, 2))
    assert classes(build_root_system("D", 5)) == (2, (0, 0, 0, 1, 1))
    assert classes(build_root_system("D", 7)) == (2, (0, 0, 0, 0, 0, 1, 1))
    assert classes(build_root_system("A", 2)) == (3, (1, 2))
    assert classes(build_root_system("A", 5)) == (3, (1, 2, 0, 1, 2))
    assert classes(build_root_system("A", 8)) == (9, (1, 2, 3, 4, 5, 6, 7, 8))
    for fam, n in [("A", 1), ("B", 3), ("C", 4), ("D", 4), ("D", 6), ("E", 7),
                   ("E", 8), ("F", 4), ("G", 2)]:
        assert classes(build_root_system(fam, n)) == (1, (0,) * n)


def test_residue_classes_reject_a_non_cyclic_class_group(monkeypatch):
    # doubled columns (2, 0) and (0, 2) mod 4 span Z/2 x Z/2, which is not cyclic
    rsys = RootSystem("A", 2)
    rsys._inv_num, rsys._inv_den = [[1, 0], [0, 1]], 4
    half_lattice_monoid.residue_classes.cache_clear()
    with pytest.raises(ArithmeticError):
        half_lattice_monoid.residue_classes(rsys)


def test_in_monoid_wrong_length():
    a2 = build_root_system("A", 2)
    with pytest.raises(DomainError, match="has length 3, expected rank 2"):
        in_monoid(a2, (1, 1, 1))
    with pytest.raises(DomainError, match="has length 1, expected rank 2"):
        in_monoid(a2, (3,))
    # the length test comes first: a negative coordinate does not hide it
    with pytest.raises(DomainError, match="has length 3, expected rank 2"):
        in_monoid(a2, (1, -1, 0))


@pytest.mark.parametrize("func", [ell, half_lattice_monoid.residue, in_monoid])
@pytest.mark.parametrize("w", [(1,), (-1,), (3,), (0, 0, 1), (1, -1, 0)])
def test_weight_functions_reject_a_weight_of_the_wrong_length(func, w):
    with pytest.raises(DomainError, match=f"has length {len(w)}, expected rank 2"):
        func(build_root_system("A", 2), w)


def test_in_monoid_checks_the_length_once(monkeypatch):
    a2 = build_root_system("A", 2)
    seen = []
    check = RootSystem._check_weight
    monkeypatch.setattr(
        RootSystem, "_check_weight", lambda self, w: seen.append(w) or check(self, w)
    )
    assert in_monoid(a2, (1, 1)) and not in_monoid(a2, (1, 0))
    assert seen == [(1, 1), (1, 0)]


def test_box_cap_and_count():
    size = half_lattice_monoid._box_size
    for limits, total in [([2, 3], 4), ([3, 0, 2], 9), ([1] * 5, 2), ([4, 4, 4], 6)]:
        brute = [
            v for v in product(*(range(b + 1) for b in limits)) if sum(v) <= total
        ]
        assert size(limits, total) == len(brute)
    # the member cells of the box [0, 3]^2 decode in lexicographic order
    members = _member_bits(3, (1, 2), 3)
    assert list(_cell_weights(members, 4, 2)) == [
        (0, 0), (0, 3), (1, 1), (2, 2), (3, 0), (3, 3),
    ]
    with pytest.raises(ResourceLimitError):
        half_lattice_monoid._check_box([10] * 8, 80)  # 11^8 points


def test_box_count_is_exact_while_short_else_a_power_of_ten():
    count = half_lattice_monoid._count_str
    assert count(214358881) == "214358881" and count(10**18 - 1) == "9" * 18
    for n, e in [(10**18, 18), (2 * 10**35 - 1, 35), (10**700 - 1, 699), (2**5000, 1505)]:
        assert count(n) == f"at least 10^{e}"


def test_classify_type():
    assert classify_type(build_root_system("A", 1)) == TYPE_I
    assert classify_type(build_root_system("A", 2)) == TYPE_II
    assert classify_type(build_root_system("D", 5)) == TYPE_II
    assert classify_type(build_root_system("D", 6)) == TYPE_I
    assert classify_type(build_root_system("E", 6)) == TYPE_II
    assert classify_type(build_root_system("E", 7)) == TYPE_I
    assert classify_type(build_root_system("G", 2)) == TYPE_I


def test_involution():
    assert involution(build_root_system("A", 4)) == (3, 2, 1, 0)
    assert involution(build_root_system("D", 5)) == (0, 1, 2, 4, 3)
    assert involution(build_root_system("E", 6)) == (5, 1, 4, 3, 2, 0)
    assert involution(build_root_system("B", 3)) == (0, 1, 2)


@pytest.mark.parametrize("fam,n", ALL_TYPES)
def test_involution_and_type_match_the_tables(fam, n):
    rsys = build_root_system(fam, n)
    sigma = involution(rsys)
    assert sigma == diagram_involution(fam, n)
    assert classify_type(rsys) == centre_type(fam, n)
    # one source for the dichotomy: r > 1 iff -w_0 is not the identity
    r, _ = half_lattice_monoid.residue_classes(rsys)
    assert (r > 1) == (sigma != tuple(range(n))) == (classify_type(rsys) == TYPE_II)


INVOLUTION_TYPES = (
    [("A", n) for n in range(1, 21)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 21)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,n", INVOLUTION_TYPES)
def test_one_walk_involution_matches_the_walk_per_node(fam, n):
    rsys = build_root_system(fam, n)
    assert involution(rsys) == involution_by_nodes(rsys) == diagram_involution(fam, n)


def test_involution_guard_raises_under_python_O(monkeypatch):
    # -w_i left as it is (not a fundamental weight), then sent to w_(i+1),
    # which makes sigma the 3-cycle (1 2 3) of the nodes of A3
    a3 = build_root_system("A", 3)
    for fake in (lambda self, w: w, lambda self, w: tuple(-x for x in w[-1:] + w[:-1])):
        involution.cache_clear()
        monkeypatch.setattr(RootSystem, "dominant_representative", fake)
        with pytest.raises(ArithmeticError):
            involution(a3)
    monkeypatch.undo()
    involution.cache_clear()

    script = (
        "from uqcentre import build_root_system, involution\n"
        "from uqcentre.root_system import RootSystem\n"
        "RootSystem.dominant_representative = (\n"
        "    lambda self, w: tuple(-x for x in w[-1:] + w[:-1]))\n"
        "try:\n"
        "    involution(build_root_system('A', 3))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(uqcentre.__file__))
    optimised = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert optimised.stdout == "raised\n", optimised.stderr


def test_involution_is_cartan_automorphism():
    for fam, n in [("A", 4), ("A", 5), ("D", 5), ("D", 7), ("E", 6)]:
        rsys = build_root_system(fam, n)
        sigma = involution(rsys)
        A = rsys.cartan
        for i in range(n):
            for j in range(n):
                assert A[sigma[i]][sigma[j]] == A[i][j]


def test_conjugate():
    a4 = build_root_system("A", 4)
    assert conjugate(a4, (2, 0, 1, 0)) == (0, 1, 0, 2)
    d5 = build_root_system("D", 5)
    assert conjugate(d5, (0, 0, 0, 1, 1)) == (0, 0, 0, 1, 1)
    a2 = build_root_system("A", 2)
    assert conjugate(a2, (1, 1)) == (1, 1)
    assert conjugate(a2, conjugate(a2, (3, 0))) == (3, 0)


def test_conjugate_additive():
    a4 = build_root_system("A", 4)
    x, y = (2, 0, 1, 0), (1, 0, 0, 1)
    both = add_weights(x, y)
    assert conjugate(a4, both) == add_weights(conjugate(a4, x), conjugate(a4, y))


def test_hilbert_basis_golden():
    assert hilbert_basis(build_root_system("A", 2)).elements == (
        (0, 3), (1, 1), (3, 0),
    )
    assert hilbert_basis(build_root_system("A", 3)).elements == (
        (0, 0, 2), (0, 1, 0), (1, 0, 1), (2, 0, 0),
    )
    d5 = hilbert_basis(build_root_system("D", 5))
    assert set(d5.elements) == {
        (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
        (0, 0, 0, 2, 0), (0, 0, 0, 0, 2), (0, 0, 0, 1, 1),
    }
    b3 = hilbert_basis(build_root_system("B", 3))
    assert set(b3.elements) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_hilbert_basis_e6_golden():
    basis = hilbert_basis(build_root_system("E", 6))
    expected = {
        (3, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0),
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 3, 0), (0, 0, 0, 0, 0, 3),
        (1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 2, 0), (2, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 2), (0, 0, 2, 0, 0, 1),
    }
    assert set(basis.elements) == expected
    assert len(basis.elements) == 14


def test_hilbert_basis_classification_structure():
    basis = hilbert_basis(build_root_system("A", 4))
    assert basis.self_conjugate == {1: (1, 0, 0, 1), 2: (0, 1, 1, 0)}
    assert basis.scaled_fundamentals == (
        (5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5),
    )
    assert len(basis.pairs) == 6
    covered = set(basis.self_conjugate.values())
    for a, b in basis.pairs:
        covered.add(a)
        covered.add(b)
    assert covered == set(basis.elements)


def test_hilbert_basis_brute_force_oracle():
    # independent recomputation: enumerate coords <= max(s)+2, strip decomposables
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 3),
                   ("C", 3), ("D", 4), ("D", 5), ("G", 2)]:
        rsys = build_root_system(fam, n)
        basis = hilbert_basis(rsys)
        cap = max(basis.s) + 2
        members = [
            v for v in product(range(cap + 1), repeat=n)
            if any(v) and in_half_lattice(rsys, v)
        ]
        member_set = set(members)
        brute = set()
        for lam in members:
            decomposable = any(
                mu != lam and all(x <= y for x, y in zip(mu, lam))
                for mu in members
            )
            if not decomposable:
                brute.add(lam)
        assert brute == set(basis.elements), (fam, n)


def _search_box(rsys, s):
    """The box a_i <= s_i, with the type A sum cap r but no sum cap for D and E.

    The library searches only sum(a) <= r for every type, so the pairwise
    test over this larger box also checks that cap for D and E.
    """
    n = rsys.rank
    if rsys.family != "A":
        return list(product(*(range(b + 1) for b in s)))
    cap = (n + 1) // gcd(n + 1, 2)
    # a multiset of cap symbols from {0..n} is a vector with sum <= cap
    vectors = {
        tuple(c.count(i) for i in range(n))
        for c in combinations_with_replacement(range(n + 1), cap)
    }
    return [v for v in vectors if all(x <= b for x, b in zip(v, s))]


@pytest.mark.parametrize(
    "fam,n",
    [("A", k) for k in range(2, 10)]
    + [("D", 5), ("D", 7), ("D", 9), ("E", 6), ("E", 7), ("E", 8)],
)
def test_hilbert_basis_sieve_matches_pairwise_definition(fam, n):
    # a member is irreducible iff no other member lies componentwise below it
    rsys = build_root_system(fam, n)
    basis = hilbert_basis(rsys)
    members = sorted(
        (v for v in _search_box(rsys, basis.s) if any(v) and in_half_lattice(rsys, v)),
        key=sum,
    )
    pairwise = [
        lam
        for k, lam in enumerate(members)
        if not any(
            mu != lam and all(x <= y for x, y in zip(mu, lam))
            for mu in members[:k]  # a member below lam has a smaller sum
        )
    ]
    assert basis.elements == tuple(sorted(pairwise))


WALK_TYPES = (
    [("A", n) for n in range(1, 13)]
    + [("D", n) for n in range(4, 16)]
    + [("E", 6), ("E", 7), ("E", 8)]
    + [("B", 2), ("B", 5), ("C", 3), ("C", 6), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,n", WALK_TYPES)
def test_walk_matches_box_scan(fam, n):
    # same elements in the same order as testing each member of the box
    rsys = build_root_system(fam, n)
    assert hilbert_basis(rsys).elements == atoms_in_box(
        *half_lattice_monoid.residue_classes(rsys)
    )


def test_a_returned_basis_cannot_change_the_memoised_one():
    # hilbert_basis is memoised, so a writable self_conjugate would let one
    # caller change every later presentation in the process
    e6 = build_root_system("E", 6)
    want = presentation(e6).to_json()
    basis = hilbert_basis(e6)
    try:
        with pytest.raises(TypeError):
            basis.self_conjugate[1] = basis.elements[0]
        with pytest.raises(TypeError):
            del basis.self_conjugate[1]
        assert presentation(e6).to_json() == want
        assert hilbert_basis(e6).self_conjugate == {
            1: (1, 0, 0, 0, 0, 1), 2: (0, 1, 0, 0, 0, 0),
            3: (0, 0, 1, 0, 1, 0), 4: (0, 0, 0, 1, 0, 0),
        }
    finally:
        hilbert_basis.cache_clear()


def test_safety_checks_raise_under_python_O(monkeypatch):
    # a wrong multiplier gives nu_1 = w_1, which is no basis element; the
    # check in hilbert_basis must not be an assert
    hilbert_basis.cache_clear()
    monkeypatch.setattr(half_lattice_monoid, "min_multipliers", lambda rsys: (1, 3))
    with pytest.raises(ArithmeticError):
        hilbert_basis(build_root_system("A", 2))

    script = (
        "from uqcentre import build_root_system, half_lattice_monoid as h\n"
        "h.min_multipliers = lambda rsys: (1, 3)\n"
        "try:\n"
        "    h.hilbert_basis(build_root_system('A', 2))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(uqcentre.__file__))
    optimised = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert optimised.stdout == "raised\n", optimised.stderr


def test_hilbert_basis_irreducibility_and_generation():
    for fam, n in [("A", 3), ("D", 5)]:
        rsys = build_root_system(fam, n)
        basis = hilbert_basis(rsys)
        members4 = [
            v for v in product(range(5), repeat=n) if in_half_lattice(rsys, v)
        ]
        member_set = set(members4)
        # irreducibility within the coordinate box
        for lam in basis.elements:
            for mu in members4:
                if any(mu) and mu != lam and all(x <= y for x, y in zip(mu, lam)):
                    diff = tuple(y - x for x, y in zip(mu, lam))
                    assert not in_half_lattice(rsys, diff) or not any(diff), (lam, mu)
        # generation: every member with coords <= 4 factors over the basis
        def factors(rem, start):
            if not any(rem):
                return True
            for i in range(start, len(basis.elements)):
                g = basis.elements[i]
                if all(x >= y for x, y in zip(rem, g)):
                    if factors(tuple(x - y for x, y in zip(rem, g)), i):
                        return True
            return False

        for v in members4:
            assert factors(v, 0), (fam, n, v)


def test_non_self_conjugate_support_structure():
    # non-self-conjugate basis elements vanish on fixed nodes and on one side
    # of each swapped node pair
    for fam, n in [("A", 4), ("A", 5), ("D", 5), ("E", 6)]:
        rsys = build_root_system(fam, n)
        sigma = involution(rsys)
        for lam in hilbert_basis(rsys).elements:
            bar = conjugate(rsys, lam)
            if bar == lam:
                continue
            for i in range(n):
                if sigma[i] == i:
                    assert lam[i] == 0
                else:
                    assert lam[i] * lam[sigma[i]] == 0


def test_rel1():
    a2 = build_root_system("A", 2)
    assert rel1(a2, (3, 0)) == {1: 3}
    d5 = build_root_system("D", 5)
    assert rel1(d5, (0, 0, 0, 2, 0)) == {4: 2}
    e6 = build_root_system("E", 6)
    assert rel1(e6, (1, 0, 0, 0, 2, 0)) == {1: 1, 3: 2}
    with pytest.raises(DomainError):
        rel1(a2, (1, 1))  # self-conjugate


def test_rel1_weight_identity_all_type_ii_rank_le_6():
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                   ("D", 5), ("E", 6)]:
        rsys = build_root_system(fam, n)
        basis = hilbert_basis(rsys)
        for lam, bar in basis.pairs:
            exps = rel1(rsys, lam)
            total = (0,) * n
            for i, e in exps.items():
                total = add_weights(total, scale_weight(e, basis.self_conjugate[i]))
            assert total == add_weights(lam, bar)


def test_ell():
    e6 = build_root_system("E", 6)
    assert ell(e6, (1, 0, 1, 0, 0, 0)) == 3
    d5 = build_root_system("D", 5)
    assert ell(d5, (0, 0, 0, 1, 1)) == 2
    g2 = build_root_system("G", 2)
    assert ell(g2, (1, 1)) == 1
    with pytest.raises(DomainError):
        ell(d5, (0, 0, 0, 0, 0))


def test_rel2():
    e6 = build_root_system("E", 6)
    assert rel2(e6, (1, 0, 0, 0, 2, 0)) == {1: 1, 5: 2}
    a2 = build_root_system("A", 2)
    assert rel2(a2, (1, 1)) == {1: 1, 2: 1}
    # at lambda = nu_1 the identity ell*lambda = ell*nu_1 is trivially true
    assert rel2(a2, (3, 0)) == {1: 3}


def test_rel2_weight_identity_all_type_ii_rank_le_6():
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                   ("D", 5), ("E", 6)]:
        rsys = build_root_system(fam, n)
        basis = hilbert_basis(rsys)
        for lam in basis.elements:
            exps = rel2(rsys, lam)
            l = ell(rsys, lam)
            total = (0,) * n
            for i, e in exps.items():
                total = add_weights(total, scale_weight(e, basis.scaled_fundamentals[i - 1]))
            assert total == scale_weight(l, lam)


def test_basis_json_shape():
    js = hilbert_basis(build_root_system("A", 2)).to_json()
    assert js["type"] == "A" and js["rank"] == 2
    assert js["s"] == [3, 3]
    assert [1, 1] in js["elements"]
    assert js["self_conjugate"] == {"1": [1, 1]}

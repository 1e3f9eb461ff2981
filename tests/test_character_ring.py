from fractions import Fraction
from itertools import product

import pytest

from uqcentre import (
    DomainError,
    TorusInvariant,
    build_root_system,
    in_monoid,
    independence_check,
    unitriangularity_check,
    verify_centre_relations,
    weight_multiplicities,
    xi_simple,
)
import uqcentre.character_ring as character_ring
from uqcentre.character_ring import _dominant_weights_below, full_character
from uqcentre.cli import main
from uqcentre.monoid_presentation import presentation
from oracles import (
    av_basis_element,
    expand_in_av,
    expand_in_simples,
    independence_rank,
    is_w_invariant,
    torus_power,
    torus_product,
    total,
    weyl_dim,
    xi_tensor,
)

F = Fraction


def test_sl2_string_multiplicities():
    a1 = build_root_system("A", 1)
    for m in range(6):
        table = weight_multiplicities(a1, (m,))
        assert table.dim == m + 1
        char = full_character(a1, (m,))
        assert char == {(m - 2 * j,): 1 for j in range(m + 1)}


def test_a2_adjoint_multiplicities():
    a2 = build_root_system("A", 2)
    table = weight_multiplicities(a2, (1, 1))
    assert table.mult == {(1, 1): 1, (0, 0): 2}
    assert table.dim == 8
    assert weyl_dim(a2, (1, 1)) == 8


def test_d5_vector_module_minuscule():
    d5 = build_root_system("D", 5)
    char = full_character(d5, (1, 0, 0, 0, 0))
    assert len(char) == 10
    assert set(char.values()) == {1}


def test_weyl_dim_cross_checks():
    # Weyl dimension formula as an oracle independent of Freudenthal
    cases = [
        ("A", 2, (3, 0), 10),
        ("A", 2, (2, 2), 27),
        ("A", 4, (1, 0, 0, 0), 5),
        ("A", 4, (0, 1, 0, 0), 10),
        ("B", 3, (0, 0, 1), 8),
        ("C", 3, (0, 0, 1), 14),
        ("G", 2, (1, 0), 7),
        ("G", 2, (0, 1), 14),
        ("D", 5, (0, 0, 0, 0, 1), 16),
    ]
    for fam, n, lam, dim in cases:
        rsys = build_root_system(fam, n)
        assert weyl_dim(rsys, lam) == dim, (fam, lam)
        assert weight_multiplicities(rsys, lam).dim == dim, (fam, lam)


def test_xi_simple_examples():
    a1 = build_root_system("A", 1)
    assert xi_simple(a1, (1,)).terms == {(1,): 1, (-1,): 1}
    a2 = build_root_system("A", 2)
    assert xi_simple(a2, (0, 0)).terms == {(0, 0): 1}
    adj = xi_simple(a2, (1, 1))
    assert adj.terms[(0, 0)] == 2
    assert total(adj) == 8
    orbit = build_root_system("A", 2).weyl_orbit((1, 1))
    assert all(adj.terms[w] == 1 for w in orbit)


def test_xi_simple_rejects_outside_m():
    a2 = build_root_system("A", 2)
    with pytest.raises(DomainError):
        xi_simple(a2, (1, 0))


def test_xi_tensor_examples():
    a2 = build_root_system("A", 2)
    t = xi_tensor(a2, (1, 1))
    assert t.terms[(0, 0)] == 3
    assert total(t) == 9
    # nu_i is the s_i-th power of one fundamental character
    fund = full_character(a2, (1, 0))
    cube = TorusInvariant({(0, 0): 1})
    for _ in range(3):
        cube = torus_product(cube, TorusInvariant(fund))
    assert xi_tensor(a2, (3, 0)) == cube

    a4 = build_root_system("A", 4)
    assert total(xi_tensor(a4, (2, 0, 1, 0))) == 250  # 5^2 * 10


def test_xi_tensor_keys_congruent_to_highest_weight():
    a2 = build_root_system("A", 2)
    t = xi_tensor(a2, (1, 1))
    for key in t.terms:
        diff = tuple(a - b for a, b in zip((1, 1), key))
        coords = a2.weight_to_root_coords(diff)
        assert all(c.denominator == 1 for c in coords)


def test_w_invariance_of_images():
    for fam, n, lam in [("A", 2, (1, 1)), ("A", 2, (3, 0)), ("D", 4, (0, 1, 0, 0))]:
        rsys = build_root_system(fam, n)
        assert is_w_invariant(rsys, xi_simple(rsys, lam))
        assert is_w_invariant(rsys, xi_tensor(rsys, lam))
        assert is_w_invariant(rsys, av_basis_element(rsys, lam))


def test_av_basis_element():
    a1 = build_root_system("A", 1)
    assert av_basis_element(a1, (1,)).terms == {(1,): 1, (-1,): 1}
    assert av_basis_element(a1, (0,)).terms == {(0,): 2}
    a2 = build_root_system("A", 2)
    av = av_basis_element(a2, (1, 1))
    assert len(av.terms) == 6 and set(av.terms.values()) == {1}
    assert av_basis_element(a2, (0, 0)).terms == {(0, 0): 6}


def test_expand_in_av():
    a1 = build_root_system("A", 1)
    # basis element round trip
    for lam in [(0,), (1,), (3,)]:
        assert expand_in_av(a1, av_basis_element(a1, lam)) == {lam: F(1)}
    assert expand_in_av(a1, xi_simple(a1, (2,))) == {(2,): F(1), (0,): F(1, 2)}
    assert expand_in_av(a1, TorusInvariant({})) == {}
    a2 = build_root_system("A", 2)
    for lam in [(0, 0), (1, 1), (3, 0)]:
        assert expand_in_av(a2, av_basis_element(a2, lam)) == {lam: F(1)}
    with pytest.raises(DomainError):
        expand_in_av(a2, TorusInvariant({(1, 1): 1}))  # not W-invariant


def test_av_lies_in_span_of_simples():
    # the surjectivity recursion: av(lam) = |W|/|W lam| (xi[L(lam)]
    #   - sum_(mu<lam) m(mu) |W mu|/|W| av(mu)) unwinds to a rational
    # combination of the xi images
    for fam, n in [("A", 1), ("A", 2)]:
        rsys = build_root_system(fam, n)
        order = rsys.weyl_group_order()
        from itertools import product as iproduct
        from uqcentre import in_monoid

        def av_recursive(lam):
            table = weight_multiplicities(rsys, lam)
            acc = {w: F(c) for w, c in xi_simple(rsys, lam).terms.items()}
            for mu, m in table.mult.items():
                if mu == lam:
                    continue
                sub = av_recursive(mu)
                f = F(m * rsys.orbit_size(mu), order)
                for w, c in sub.items():
                    acc[w] = acc.get(w, F(0)) - f * c
                    if not acc[w]:
                        del acc[w]
            f = F(order, rsys.orbit_size(lam))
            return {w: f * c for w, c in acc.items()}

        for lam in iproduct(range(3), repeat=n):
            if not in_monoid(rsys, lam):
                continue
            direct = av_basis_element(rsys, lam)
            rec = av_recursive(lam)
            assert rec == {w: F(c) for w, c in direct.terms.items()}, (fam, lam)


def test_expand_in_simples_round_trip():
    a2 = build_root_system("A", 2)
    for lam in [(0, 0), (1, 1), (3, 0)]:
        assert expand_in_simples(a2, xi_simple(a2, lam)) == {lam: F(1)}
    with pytest.raises(DomainError):
        expand_in_simples(a2, TorusInvariant({(1, 1): 1}))  # not W-invariant


def test_xi_multiplicative_against_tensor_decomposition():
    # sl2 Clebsch-Gordan as an independent oracle
    a1 = build_root_system("A", 1)
    for a in range(4):
        for b in range(4):
            prod = torus_product(xi_simple(a1, (a,)), xi_simple(a1, (b,)))
            decomp = expand_in_simples(a1, prod)
            expected = {
                (c,): F(1) for c in range(abs(a - b), a + b + 1, 2)
            }
            assert decomp == expected, (a, b)
    # A2: 3 (x) 3bar = 8 + 1, 3 (x) 3 = 6 + 3bar needs non-monoid weights, so
    # check the monoid product 8 (x) 8 = 27+10+10b+8+8+1 instead
    a2 = build_root_system("A", 2)
    adj = xi_simple(a2, (1, 1))
    decomp = expand_in_simples(a2, torus_product(adj, adj))
    assert decomp == {
        (2, 2): F(1), (3, 0): F(1), (0, 3): F(1),
        (1, 1): F(2), (0, 0): F(1),
    }


def test_unitriangularity_single_fundamental_factor():
    # for a fundamental weight inside M+ the tensor module IS the simple one
    b2 = build_root_system("B", 2)
    rep, mults = unitriangularity_check(b2, 1)
    assert rep.ok
    assert mults[(1, 0)] == {(1, 0): 1}
    assert mults[(0, 1)] == {(0, 1): 1}


def test_unitriangularity_a2():
    a2 = build_root_system("A", 2)
    rep, mults = unitriangularity_check(a2, 3)
    assert rep.ok
    assert mults[(1, 1)] == {(1, 1): 1, (0, 0): 1}
    assert mults[(3, 0)] == {(3, 0): 1, (1, 1): 2, (0, 0): 1}
    assert mults[(0, 0)] == {(0, 0): 1}
    # dimension sanity: 27 = 10 + 2*8 + 1
    assert weyl_dim(a2, (3, 0)) + 2 * 8 + 1 == 27


def test_verify_centre_relations():
    for fam, n in [("A", 2), ("A", 3), ("D", 5)]:
        rep = verify_centre_relations(build_root_system(fam, n))
        assert rep.ok, (fam, n, rep.lines())
    with pytest.raises(DomainError):
        verify_centre_relations(build_root_system("B", 2))


def test_verify_centre_relations_reports_unbalanced_binomial(monkeypatch, capsys):
    a3 = build_root_system("A", 3)
    pres = presentation(a3)
    bad = pres.relations[0]
    (i, e), *rest = bad.rhs
    bad = bad._replace(rhs=((i, e + 1), *rest))

    monkeypatch.setattr(
        character_ring, "presentation",
        lambda rsys: pres._replace(relations=(bad,) + pres.relations[1:]),
    )
    rep = verify_centre_relations(a3)
    assert not rep.ok
    assert [item.passed for item in rep.items] == [False] + [True] * (len(rep.items) - 1)
    assert " != " in rep.items[0].detail
    assert main(["verify", "--type", "A", "--rank", "3"]) == 1
    assert "FAILURES" in capsys.readouterr().out


def test_verify_centre_relations_e6_exponent_level_default():
    rep = verify_centre_relations(build_root_system("E", 6))
    assert rep.ok
    assert all("exponent" in item.name for item in rep.items)
    assert len(rep.items) == 8


def test_independence_check():
    rep = independence_check(build_root_system("A", 1), 3)
    assert rep.ok and "4 monomials" in rep.items[0].name
    rep = independence_check(build_root_system("B", 2), 3)
    assert rep.ok and "10 monomials" in rep.items[0].name
    rep = independence_check(build_root_system("A", 1), 0)
    assert rep.ok and "1 monomials" in rep.items[0].name
    # the certificate holds for every type, type II included
    rep = independence_check(build_root_system("A", 2), 2)
    assert rep.ok and rep.items[0].detail == "rank 6 of 6"
    rep = independence_check(build_root_system("E", 6), 3)
    assert rep.ok and rep.items[0].detail == "rank 84 of 84"


def test_upsilon_linearly_independent():
    # the weights {mu_i : i < sigma(i)} + {nu_i : sigma(i) = i} span freely
    from uqcentre import hilbert_basis, involution

    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 5), ("E", 6)]:
        rsys = build_root_system(fam, n)
        basis = hilbert_basis(rsys)
        sigma = involution(rsys)
        upsilon = [basis.self_conjugate[i + 1] for i in range(n)
                   if i < sigma[i]]
        upsilon += [basis.scaled_fundamentals[i] for i in range(n)
                    if sigma[i] == i]
        # rank over Q by Gaussian elimination
        rows = [list(map(F, w)) for w in upsilon]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            pv = rows[rank][col]
            rows[rank] = [x / pv for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        assert rank == len(upsilon), (fam, n)


def test_torus_invariant_json_sorted():
    a1 = build_root_system("A", 1)
    js = xi_simple(a1, (2,)).to_json()
    assert js == [[[-2], 1], [[0], 1], [[2], 1]]


def test_torus_invariant_product_exact_past_2_15():
    # weights are tuples of Python ints, so no coordinate can wrap
    assert torus_power(TorusInvariant({(20000,): 1}), 2) == TorusInvariant({(40000,): 1})
    assert torus_power(TorusInvariant({(0, 16384): 1}), 2).terms == {(0, 32768): 1}
    assert torus_power(TorusInvariant({(-20000, 3): 2}), 3).terms == {(-60000, 9): 8}


def test_inexact_character_arithmetic_raises(monkeypatch):
    # Without one positive root the Freudenthal step at (0, 0) below (1, 1)
    # is 8/6 and the Weyl dimension of (0, 1) is 3/2.  The errors are raised,
    # not asserted, so they survive python -O.
    a2 = build_root_system("A", 2)
    data = a2.positive_root_data()
    monkeypatch.setattr(a2, "positive_root_data", lambda: data[1:])
    character_ring._freudenthal_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            weight_multiplicities(a2, (1, 1))
        with pytest.raises(ArithmeticError):
            weyl_dim(a2, (0, 1))
    finally:
        character_ring._freudenthal_table.cache_clear()


# D5 stops at coordinates <= 1: at (2,2,2,2,2) the oracle alone convolves to
# 326k weights and needs Freudenthal tables for 497 dominant weights.
BRAUER_KLIMYK_CASES = [
    ("A", 2, 2), ("A", 3, 2), ("B", 2, 2), ("G", 2, 2), ("C", 3, 2), ("D", 5, 1)
]


@pytest.mark.parametrize("fam,n,bound", BRAUER_KLIMYK_CASES)
def test_brauer_klimyk_matches_full_support_product(fam, n, bound):
    rsys = build_root_system(fam, n)
    for lam in product(range(bound + 1), repeat=n):
        if in_monoid(rsys, lam):
            oracle = expand_in_simples(rsys, xi_tensor(rsys, lam))
            assert character_ring._tensor_decomposition(rsys, lam) == oracle, lam


def test_independence_check_fails_for_equal_fundamental_characters(monkeypatch):
    b2 = build_root_system("B", 2)
    w1, w2 = b2.fundamental_weight(0), b2.fundamental_weight(1)
    real = character_ring.weight_multiplicities
    monkeypatch.setattr(
        character_ring, "weight_multiplicities",
        lambda rsys, lam: real(rsys, w1 if tuple(lam) == w2 else lam),
    )
    rep = independence_check(b2, 2)
    assert not rep.ok
    assert "w2" in rep.items[0].detail
    assert rep.items[0].detail == f"xi[L(w2)] leads with 1·K_2{w1}"


def test_independence_check_fails_for_a_doubled_highest_weight(monkeypatch):
    g2 = build_root_system("G", 2)
    w2 = g2.fundamental_weight(1)
    real = character_ring.weight_multiplicities

    def doubled(rsys, lam):
        table = real(rsys, lam)
        if tuple(lam) != w2:
            return table
        return table._replace(mult={mu: 2 * m for mu, m in table.mult.items()})

    monkeypatch.setattr(character_ring, "weight_multiplicities", doubled)
    rep = independence_check(g2, 3)
    assert not rep.ok
    assert rep.items[0].detail == f"xi[L(w2)] leads with 2·K_2{w2}"


def test_independence_rank_drops_for_equal_fundamental_characters(monkeypatch):
    b2 = build_root_system("B", 2)
    w1, w2 = b2.fundamental_weight(0), b2.fundamental_weight(1)
    real = character_ring.full_character
    monkeypatch.setattr(
        character_ring, "full_character",
        lambda rsys, lam: real(rsys, w1 if tuple(lam) == w2 else lam),
    )
    assert independence_rank(b2, 2) == 3


def test_xi_simple_rejects_a_key_outside_M(monkeypatch):
    a2 = build_root_system("A", 2)
    monkeypatch.setattr(character_ring, "full_character", lambda rsys, lam: {(1, 0): 1})
    with pytest.raises(ArithmeticError, match="outside M"):
        xi_simple(a2, (1, 1))


def test_reports_multiply_without_full_support_products(capsys):
    # the library has no full-support product to fall back on
    with pytest.raises(TypeError):
        TorusInvariant({(0,): 1}) * TorusInvariant({(0,): 1})
    assert main(["verify", "--type", "F", "--rank", "4"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    rep, _ = unitriangularity_check(build_root_system("A", 2), 3)
    assert rep.ok


def _box_dominant_weights_below(rsys, lam):
    """Oracle: every mu = lam - sum c_j alpha_j with 0 <= c_j <= (root
    coordinate j of lam), the bound a dominant mu cannot exceed, kept when
    dominant."""
    D = rsys.root_coord_scale
    caps = [x // D for x in rsys.scaled_root_coords(lam)]
    level = [tuple(lam)]
    for j, cap in enumerate(caps):
        alpha = rsys.simple_root(j)
        level = [
            tuple(x - c * a for x, a in zip(mu, alpha))
            for mu in level
            for c in range(cap + 1)
        ]
    return {mu for mu in level if min(mu) >= 0}


RANK_UP_TO_6 = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(3, 7)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,n", RANK_UP_TO_6)
def test_dominant_weights_below_matches_box(fam, n):
    rsys = build_root_system(fam, n)
    for i in range(n):
        for k in (1, 2):
            lam = tuple(k * x for x in rsys.fundamental_weight(i))
            found = _dominant_weights_below(rsys, lam)
            assert len(found) == len(set(found)), lam
            assert set(found) == _box_dominant_weights_below(rsys, lam), lam

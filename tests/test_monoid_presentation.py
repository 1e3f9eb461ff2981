import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import uqcentre.cli as cli
from uqcentre import monoid_presentation
from uqcentre import (
    BinomialRelation,
    DomainError,
    ResourceLimitError,
    TorusInvariant,
    build_root_system,
    factorisation_counts,
    generation_check,
    hilbert_basis,
    phi,
    presentation,
    verify_relations,
)
from oracles import factorisation_counts_by_dict, in_half_lattice, torus_one, torus_product



def X(w):
    return TorusInvariant({w: 1})


def test_phi_examples():
    a2 = build_root_system("A", 2)
    gens = hilbert_basis(a2).elements  # ((0,3), (1,1), (3,0))
    assert phi(gens, {0: 1, 2: 1}) == X((3, 3))
    assert phi(gens, {1: 3}) == X((3, 3))
    assert phi(gens, {}) == X((0, 0))
    with pytest.raises(DomainError):
        phi(gens, {7: 1})


def test_monoid_algebra_laws():
    rng = random.Random(23)

    def rand_elem():
        return TorusInvariant(
            {
                tuple(rng.randint(0, 3) for _ in range(2)): rng.randint(-3, 3)
                for _ in range(3)
            }
        )

    mul = torus_product
    one = torus_one(2)
    for _ in range(20):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, one) == a
        assert mul(a, b + c) == mul(a, b) + mul(a, c)


def test_torus_invariant_keeps_exact_coefficients():
    half = TorusInvariant({(1,): Fraction(1, 2)})
    assert half.terms == {(1,): Fraction(1, 2)}
    assert (half + half).terms == {(1,): 1}
    assert torus_product(half, half).terms == {(2,): Fraction(1, 4)}
    assert (half * Fraction(2, 3)).terms == {(1,): Fraction(1, 3)}
    assert not half - half
    for bad in (2.7, 1.0, "1", None):
        with pytest.raises(TypeError):
            TorusInvariant({(0,): bad})
    with pytest.raises(TypeError):
        half * 0.5


def test_presentation_a2():
    pres = presentation(build_root_system("A", 2))
    assert len(pres.generators) == 3
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    assert rel.kind == "rel1"
    # x_nu1 x_nu2 = x_mu1^3
    gens = pres.generators
    lhs = {gens[i]: e for i, e in rel.lhs}
    rhs = {gens[i]: e for i, e in rel.rhs}
    assert lhs == {(3, 0): 1, (0, 3): 1}
    assert rhs == {(1, 1): 3}


def test_presentation_d5():
    pres = presentation(build_root_system("D", 5))
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    gens = pres.generators
    assert {gens[i]: e for i, e in rel.lhs} == {(0, 0, 0, 2, 0): 1, (0, 0, 0, 0, 2): 1}
    assert {gens[i]: e for i, e in rel.rhs} == {(0, 0, 0, 1, 1): 2}


def test_presentation_e6_golden():
    pres = presentation(build_root_system("E", 6))
    assert len(pres.generators) == 14
    assert len(pres.relations) == 8
    gens = pres.generators

    def norm(rel):
        lhs = frozenset((gens[i], e) for i, e in rel.lhs)
        rhs = frozenset((gens[i], e) for i, e in rel.rhs)
        return (rel.kind, lhs, rhs)

    mu1, mu3 = (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0)
    nu1, nu3 = (3, 0, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0)
    nu5, nu6 = (0, 0, 0, 0, 3, 0), (0, 0, 0, 0, 0, 3)
    expected = {
        ("rel1", frozenset({(nu1, 1), (nu6, 1)}), frozenset({(mu1, 3)})),
        ("rel1", frozenset({(nu3, 1), (nu5, 1)}), frozenset({(mu3, 3)})),
        ("rel1", frozenset({((1, 0, 1, 0, 0, 0), 1), ((0, 0, 0, 0, 1, 1), 1)}),
         frozenset({(mu1, 1), (mu3, 1)})),
        ("rel1", frozenset({((1, 0, 0, 0, 2, 0), 1), ((0, 0, 2, 0, 0, 1), 1)}),
         frozenset({(mu1, 1), (mu3, 2)})),
        ("rel1", frozenset({((2, 0, 0, 0, 1, 0), 1), ((0, 0, 1, 0, 0, 2), 1)}),
         frozenset({(mu1, 2), (mu3, 1)})),
        ("rel2", frozenset({((1, 0, 1, 0, 0, 0), 3)}),
         frozenset({(nu1, 1), (nu3, 1)})),
        ("rel2", frozenset({((1, 0, 0, 0, 2, 0), 3)}),
         frozenset({(nu1, 1), (nu5, 2)})),
        ("rel2", frozenset({((2, 0, 0, 0, 1, 0), 3)}),
         frozenset({(nu1, 2), (nu5, 1)})),
    }
    assert {norm(r) for r in pres.relations} == expected


def test_presentation_type_i_has_no_relations():
    for fam, n in [("G", 2), ("B", 3), ("C", 3), ("A", 1), ("E", 7)]:
        pres = presentation(build_root_system(fam, n))
        assert pres.relations == ()
        assert len(pres.generators) == n


def test_rel2_skipped_for_scaled_fundamentals():
    # A3: the only pair is {2w1, 2w3} = {nu1, nu3}; rel2 would be trivial
    pres = presentation(build_root_system("A", 3))
    assert [r.kind for r in pres.relations] == ["rel1"]
    # A4 has 6 pairs of which 2 are nu-pairs: 6 rel1 + 4 rel2
    pres = presentation(build_root_system("A", 4))
    kinds = [r.kind for r in pres.relations]
    assert kinds.count("rel1") == 6
    assert kinds.count("rel2") == 4


def test_verify_relations_all_type_ii():
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                   ("D", 5), ("E", 6)]:
        rep = verify_relations(build_root_system(fam, n))
        assert rep.ok, (fam, n, rep.lines())


def test_verify_relations_type_i_checks_freeness():
    for fam, n in [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rep = verify_relations(build_root_system(fam, n))
        assert rep.ok, (fam, n, rep.lines())
        assert [i.name for i in rep.items] == [
            "every fundamental weight lies in M+",
            "generators are the fundamental weights",
            "no relations: C[M+] is a polynomial algebra",
        ]


def test_verify_relations_type_i_rejects_wrong_generators():
    b2 = build_root_system("B", 2)
    pres = presentation(b2)
    # 2*w1 in place of w1: a generating set of a proper submonoid
    wrong = pres._replace(generators=((2, 0), (0, 1)))
    rep = verify_relations(b2, wrong)
    assert not rep.ok
    assert [i.passed for i in rep.items] == [True, False, True]
    # a dropped generator fails too
    rep = verify_relations(b2, pres._replace(generators=((0, 1),)))
    assert not rep.ok
    # and so does a relation between free generators
    bogus = BinomialRelation("rel1", (1, 0), ((0, 2),), ((1, 1),))
    rep = verify_relations(b2, pres._replace(relations=(bogus,)))
    assert not rep.ok


def test_generation_check():
    a2 = build_root_system("A", 2)
    rep, counts = generation_check(a2, 4), factorisation_counts(a2, 4)
    assert rep.ok
    assert counts[(3, 3)] >= 2  # witnesses the relation
    assert counts[(0, 0)] == 1
    rep0, counts0 = generation_check(a2, 0), factorisation_counts(a2, 0)
    assert rep0.ok and counts0 == {(0, 0): 1}

    d5 = build_root_system("D", 5)
    rep, counts = generation_check(d5, 2), factorisation_counts(d5, 2)
    assert rep.ok and all(c >= 1 for c in counts.values())


def _exponent_vector_counts(gens, bound, rank):
    """For each weight, the number of exponent vectors e with sum e_g g = it."""
    counts = Counter()

    def rec(i, acc):
        if i == len(gens):
            counts[acc] += 1
            return
        while max(acc, default=0) <= bound:
            rec(i + 1, acc)
            acc = tuple(x + y for x, y in zip(acc, gens[i]))

    rec(0, (0,) * rank)
    return counts


@pytest.mark.parametrize("fam,n,bound", [("A", 2, 4), ("A", 3, 3), ("D", 5, 2), ("E", 6, 2)])
def test_generation_counts_match_exponent_vectors(fam, n, bound):
    rsys = build_root_system(fam, n)
    rep, counts = generation_check(rsys, bound), factorisation_counts(rsys, bound)
    box = [v for v in product(range(bound + 1), repeat=n) if in_half_lattice(rsys, v)]
    assert list(counts) == box
    direct = _exponent_vector_counts(hilbert_basis(rsys).elements, bound, n)
    assert {w: c for w, c in counts.items() if c} == dict(direct)
    assert rep.ok == all(counts.values())


# at bounds <= 2 some generators lie outside the box, e.g. (0, 0, 0, 5) of A4
# and (0, 0, 0, 0, 0, 3) of E6
_ORACLE_CASES = [
    (fam, n, bound)
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("D", 5), ("D", 7),
                   ("E", 6), ("B", 3), ("F", 4), ("G", 2)]
    for bound in range(4)
] + [("E", 6, 5)]


@pytest.mark.parametrize("fam,n,bound", _ORACLE_CASES)
def test_factorisation_counts_match_the_dict_counter(fam, n, bound):
    rsys = build_root_system(fam, n)
    gens = hilbert_basis(rsys).elements
    counts = factorisation_counts(rsys, bound)
    oracle = factorisation_counts_by_dict(rsys, gens, bound)
    assert list(counts.items()) == list(oracle.items())
    assert generation_check(rsys, bound).ok == all(oracle.values())


def _report_from_count_table(rsys, bound):
    """The generation report read off the count table: members of count 0 fail."""
    residues, counts = monoid_presentation._factorisation_table(rsys, bound)
    box = list(product(range(bound + 1), repeat=rsys.rank))
    bad = [w for w, res, k in zip(box, residues, counts) if res == 0 and k == 0]
    return {
        "title": f"generation {rsys.family}{rsys.rank} bound {bound}",
        "ok": not bad,
        "checks": [
            {
                "name": f"all {residues.count(0)} monoid elements factor over Hilb(M+)",
                "passed": not bad,
                "detail": f"unfactorable: {bad[:5]}" if bad else "",
            }
        ],
    }


def _no_count_table(*args, **kwargs):
    raise AssertionError("the generation check built the count table")


@pytest.mark.parametrize("fam,n,bound", _ORACLE_CASES)
def test_generation_report_matches_the_count_table(monkeypatch, fam, n, bound):
    rsys = build_root_system(fam, n)
    basis = hilbert_basis(rsys)
    in_box = [g for g in basis.elements if max(g) <= bound] or list(basis.elements)
    rng = random.Random(f"{fam}{n} {bound}")
    for k in range(4):
        dropped = set(rng.sample(in_box, min(k, len(in_box))))
        smaller = basis._replace(
            elements=tuple(g for g in basis.elements if g not in dropped)
        )
        with monkeypatch.context() as m:
            m.setattr(monoid_presentation, "hilbert_basis", lambda rsys: smaller)
            want = _report_from_count_table(rsys, bound)
            m.setattr(monoid_presentation, "_factorisation_table", _no_count_table)
            assert generation_check(rsys, bound).to_json() == want


def test_generation_check_fails_fast_at_the_box_cap(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was allocated")

    e8 = build_root_system("E", 8)
    monkeypatch.setattr(monoid_presentation, "residue_classes", no_table)
    monkeypatch.setattr(monoid_presentation, "hilbert_basis", no_table)
    monkeypatch.setattr(monoid_presentation, "_member_bits", no_table)
    monkeypatch.setattr(monoid_presentation, "_reach_bits", no_table)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="over the cap"):
        generation_check(e8, 10)
    with pytest.raises(ResourceLimitError, match="over the cap"):
        factorisation_counts(e8, 10)
    assert time.perf_counter() - start < 1.0


def _dropping_first_generator_within(bound):
    def patched(rsys):
        basis = hilbert_basis(rsys)
        g = next(g for g in basis.elements if max(g) <= bound)
        return basis._replace(
            elements=tuple(e for e in basis.elements if e != g)
        )

    return patched


@pytest.mark.parametrize("fam,n", [("A", 2), ("D", 5)])
def test_generation_check_fails_without_a_generator(monkeypatch, capsys, fam, n):
    rsys = build_root_system(fam, n)
    patched = _dropping_first_generator_within(3)
    real_check = generation_check
    with monkeypatch.context() as m:
        m.setattr(monoid_presentation, "hilbert_basis", patched)
        rep, counts = real_check(rsys, 3), factorisation_counts(rsys, 3)
    dropped = (set(hilbert_basis(rsys).elements) - set(patched(rsys).elements)).pop()
    assert not rep.ok and counts[dropped] == 0
    assert str(dropped) in rep.to_json()["checks"][0]["detail"]

    def check_without_generator(rsys, bound):
        # only the generation check sees the smaller basis; the presentation
        # and its relations are built from the real one
        with monkeypatch.context() as m:
            m.setattr(monoid_presentation, "hilbert_basis", patched)
            return real_check(rsys, bound)

    monkeypatch.setattr(cli, "generation_check", check_without_generator)
    assert cli.main(["verify", "--type", fam, "--rank", str(n)]) == 1
    assert "unfactorable" in capsys.readouterr().out


def test_freeness_type_i_monomials_injective():
    # distinct degree <= 5 monomials in the generators give distinct weights
    for fam, n in [("G", 2), ("B", 3), ("C", 4), ("A", 1)]:
        rsys = build_root_system(fam, n)
        gens = hilbert_basis(rsys).elements
        seen = {}
        import itertools
        exps = [
            e
            for e in itertools.product(range(6), repeat=len(gens))
            if sum(e) <= 5
        ]
        for e in exps:
            img = phi(gens, dict(enumerate(e)))
            key = next(iter(img.terms))
            assert key not in seen or seen[key] == e
            seen[key] = e
        assert len(seen) == len(exps)


def test_presentation_json_and_render():
    pres = presentation(build_root_system("A", 2))
    js = pres.to_json()
    assert js["type"] == "A" and len(js["generators"]) == 3
    assert js["relations"][0]["kind"] == "rel1"
    text = pres.render()
    assert text == ["x_{ν1}·x_{ν2} = x_{μ1}^3"]

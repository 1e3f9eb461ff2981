"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import hashlib
import json
import time
import tracemalloc
from itertools import product
from math import comb

import pytest

from uqcentre import (
    SimpleModule,
    build_root_system,
    casimir,
    generation_check,
    hc_project,
    hilbert_basis,
    in_monoid,
    independence_check,
    is_central,
    min_multipliers,
    phi,
    presentation,
    verify_centre_relations,
    verify_relations,
    weight_multiplicities,
    xi_simple,
)
from uqcentre.qrational import q_power
from uqcentre.uq_rank1 import _q_binomial
from uqcentre.cli import main
from oracles import GEN_EP, GEN_F, GEN_K, GEN_KINV, check_K_intertwining, check_gamma_intertwines
from oracles import factorisation_counts_by_dict, unitriangularity_check
from oracles import independence_rank, type_A_membership, weyl_dim
from test_casimir_golden import JSON_SHA256, LARGE_JSON_SHA256


def _report(name: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    assert passed, name


def _fw(rsys, i):
    return rsys.fundamental_weight(i)


def test_criterion_01_hilbert_basis_golden():
    t0 = time.perf_counter()
    ok = True

    ok &= set(hilbert_basis(build_root_system("A", 2)).elements) == {
        (1, 1), (3, 0), (0, 3),
    }
    ok &= set(hilbert_basis(build_root_system("A", 3)).elements) == {
        (1, 0, 1), (0, 1, 0), (2, 0, 0), (0, 0, 2),
    }
    ok &= set(hilbert_basis(build_root_system("A", 4)).elements) == {
        (1, 0, 0, 1), (0, 1, 1, 0),
        (5, 0, 0, 0), (0, 5, 0, 0), (2, 0, 1, 0), (1, 2, 0, 0),
        (3, 1, 0, 0), (1, 0, 3, 0),
        (0, 0, 0, 5), (0, 0, 5, 0), (0, 1, 0, 2), (0, 0, 2, 1),
        (0, 0, 1, 3), (0, 3, 0, 1),
    }

    # D_{2k+1} shape for k = 2, 3: w_1..w_{n-2}, 2w_{n-1}, 2w_n, w_{n-1}+w_n
    for n in (5, 7):
        rsys = build_root_system("D", n)
        expected = {_fw(rsys, i) for i in range(n - 2)}
        expected.add(tuple(2 if k == n - 2 else 0 for k in range(n)))
        expected.add(tuple(2 if k == n - 1 else 0 for k in range(n)))
        expected.add(tuple(1 if k >= n - 2 else 0 for k in range(n)))
        ok &= set(hilbert_basis(rsys).elements) == expected

    e6 = build_root_system("E", 6)
    ok &= set(hilbert_basis(e6).elements) == {
        (3, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0),
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 3, 0), (0, 0, 0, 0, 0, 3),
        (1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 2, 0), (2, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 2), (0, 0, 2, 0, 0, 1),
    }

    for fam, n in [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                   ("D", 4), ("G", 2), ("F", 4), ("E", 7)]:
        rsys = build_root_system(fam, n)
        ok &= set(hilbert_basis(rsys).elements) == {
            _fw(rsys, i) for i in range(n)
        }

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(f"criterion 1: Hilbert-basis golden sets ({elapsed:.2f}s < 10s)", ok)


def test_criterion_02_s_vector_closed_form():
    from math import gcd

    ok = True
    for n in range(1, 9):
        got = min_multipliers(build_root_system("A", n))
        formula = tuple((n + 1) // gcd(n + 1, 2 * i) for i in range(1, n + 1))
        ok &= got == formula
        ok &= got == tuple(reversed(got))  # s_i = s_{n+1-i}
    ok &= min_multipliers(build_root_system("D", 5)) == (1, 1, 1, 2, 2)
    ok &= min_multipliers(build_root_system("D", 7)) == (1, 1, 1, 1, 1, 2, 2)
    ok &= min_multipliers(build_root_system("E", 6)) == (3, 1, 3, 1, 3, 3)
    _report("criterion 2: s-vector closed form A1-A8, D-odd, E6", ok)


def test_criterion_03_presentation_golden():
    ok = True

    def normalized(pres):
        gens = pres.generators
        return {
            (
                rel.kind,
                frozenset((gens[i], e) for i, e in rel.lhs),
                frozenset((gens[i], e) for i, e in rel.rhs),
            )
            for rel in pres.relations
        }

    pres = presentation(build_root_system("A", 2))
    ok &= normalized(pres) == {
        ("rel1", frozenset({((3, 0), 1), ((0, 3), 1)}), frozenset({((1, 1), 3)})),
    }

    pres = presentation(build_root_system("D", 5))
    ok &= normalized(pres) == {
        ("rel1",
         frozenset({((0, 0, 0, 2, 0), 1), ((0, 0, 0, 0, 2), 1)}),
         frozenset({((0, 0, 0, 1, 1), 2)})),
    }

    mu1, mu3 = (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0)
    nu1, nu3 = (3, 0, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0)
    nu5, nu6 = (0, 0, 0, 0, 3, 0), (0, 0, 0, 0, 0, 3)
    pres = presentation(build_root_system("E", 6))
    ok &= normalized(pres) == {
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
    _report("criterion 3: presentations match the worked binomials (A2, D5, E6)", ok)


def test_criterion_04_kernel_membership():
    t0 = time.perf_counter()
    ok = True
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                   ("D", 5), ("E", 6)]:
        ok &= verify_relations(build_root_system(fam, n)).ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(f"criterion 4: phi(lhs) = phi(rhs), type II rank <= 6 ({elapsed:.2f}s < 1s)", ok)


def test_criterion_05_generation():
    ok = True
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("D", 5)]:
        rsys = build_root_system(fam, n)
        ok &= generation_check(rsys, 4).ok
        if (fam, n) == ("A", 2):
            ok &= factorisation_counts_by_dict(rsys, hilbert_basis(rsys).elements, 4)[(3, 3)] >= 2
    _report("criterion 5: coords <= 4 factor over Hilb(M+); A2 (3,3) twice", ok)


def test_criterion_06_rank1_worked_example():
    t0 = time.perf_counter()
    V = SimpleModule(1)
    qmq = q_power(1) - q_power(-1)
    C = casimir(V, 1)
    ok = C == (
        GEN_K.scale(q_power(1)) + GEN_KINV.scale(q_power(-1))
        + (GEN_F * GEN_EP).scale(qmq)
    )
    C2, C3, C4 = casimir(V, 2), casimir(V, 3), casimir(V, 4)
    ok &= C2 == (C * C).scale(q_power(-1)) - q_power(-1) - q_power(-3)
    ok &= C3 == (C ** 3).scale(q_power(-2)) - C.scale(
        q_power(-2) * 2 + q_power(-4)
    )
    ok &= C4 == (
        (C ** 4).scale(q_power(-3))
        - (C ** 2).scale(q_power(-3) * 3 + q_power(-5))
        + q_power(-3) + q_power(-5)
    )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(f"criterion 6: C_V and C^(2..4) identities ({elapsed:.2f}s < 1s)", ok)


def test_criterion_07_centrality_suite():
    t0 = time.perf_counter()
    ok = True
    for m in range(5):
        V = SimpleModule(m)
        for k in (1, 2, 3):
            ok &= is_central(casimir(V, k))
        ok &= check_gamma_intertwines(V).ok
        ok &= check_K_intertwining(V).ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(
        f"criterion 7: centrality m<=4 k<=3, Gamma and K_V identities ({elapsed:.1f}s < 30s)",
        ok,
    )


def test_criterion_08_harish_chandra_consistency():
    a1 = build_root_system("A", 1)
    ok = True
    for m in range(5):
        image = hc_project(casimir(SimpleModule(m), 1))
        expected = {w[0]: c for w, c in xi_simple(a1, (m,)).items()}
        ok &= image == expected
        ok &= all(isinstance(v, int) and v > 0 for v in image.values())
    _report("criterion 8: hc(casimir(m,1)) = xi([L(m)]) for m <= 4", ok)


def test_criterion_09_centre_relations_character_level():
    # xi o T is multiplicative, so each relation holds in the HC model exactly
    # when its two sides have the same weight (the exponent identity)
    ok = True
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 5), ("D", 7), ("E", 6)]:
        rep = verify_centre_relations(build_root_system(fam, n))
        ok &= rep.ok and bool(rep.items)
        ok &= all(item.name.endswith("exponent identity") for item in rep.items)
    _report("criterion 9: centre relations in the HC model (A2-A5, D5, D7, E6)", ok)


def test_criterion_10_algebraic_independence():
    t0 = time.perf_counter()
    ok = True
    for fam, n in [("A", 1), ("B", 2), ("G", 2), ("C", 3)]:
        rsys = build_root_system(fam, n)
        rep = independence_check(rsys, 4)
        ok &= rep.ok
        # the leading-term certificate against the exact rank of the expansions
        ok &= independence_rank(rsys, 4) == comb(n + 4, n)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(
        f"criterion 10: fundamental xi monomials independent to degree 4 ({elapsed:.1f}s < 30s)",
        ok,
    )


def test_criterion_11_unitriangularity():
    a2 = build_root_system("A", 2)
    rep, mults = unitriangularity_check(a2, 3)
    ok = rep.ok
    ok &= mults[(1, 1)] == {(1, 1): 1, (0, 0): 1}
    for lam, entry in mults.items():
        ok &= entry.get(lam) == 1
        ok &= all(c >= 1 for c in entry.values())
    _report("criterion 11: [T] over [L] unitriangular for A2 coords <= 3", ok)


def test_criterion_12_oracle_cross_checks():
    ok = True
    # (a) fast-path membership vs generic half-lattice test
    for n in range(1, 6):
        rsys = build_root_system("A", n)
        for v in product(range(7), repeat=n):
            if type_A_membership(rsys, v) != in_monoid(rsys, v):
                ok = False
                break

    # (b) brute-force Hilbert basis oracle, rank <= 5
    for fam, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2),
                   ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("G", 2)]:
        rsys = build_root_system(fam, n)
        basis = hilbert_basis(rsys)
        cap = max(basis.s) + 2
        members = [
            v for v in product(range(cap + 1), repeat=n)
            if any(v) and in_monoid(rsys, v)
        ]
        brute = {
            lam
            for lam in members
            if not any(
                mu != lam and all(x <= y for x, y in zip(mu, lam))
                for mu in members
            )
        }
        ok &= brute == set(basis.elements)

    # (c) Weyl dimension totals for the characters the default suite touches
    char_cases = [
        ("A", 1, (m,)) for m in range(5)
    ] + [
        ("A", 2, (1, 1)), ("A", 2, (3, 0)), ("A", 2, (0, 3)),
        ("A", 2, (2, 2)), ("A", 2, (3, 3)), ("A", 2, (4, 1)),
        ("A", 3, (1, 0, 1)), ("A", 3, (0, 1, 0)),
        ("A", 4, (1, 0, 0, 0)), ("A", 4, (0, 1, 0, 0)),
        ("D", 5, (1, 0, 0, 0, 0)), ("D", 5, (0, 0, 0, 1, 0)),
        ("D", 5, (0, 0, 0, 0, 1)),
        ("B", 2, (1, 0)), ("B", 2, (0, 1)),
        ("G", 2, (1, 0)), ("G", 2, (0, 1)),
        ("C", 3, (1, 0, 0)), ("C", 3, (0, 1, 0)), ("C", 3, (0, 0, 1)),
        ("E", 6, (0, 1, 0, 0, 0, 0)),
    ]
    for fam, n, lam in char_cases:
        rsys = build_root_system(fam, n)
        ok &= weight_multiplicities(rsys, lam).dim == weyl_dim(rsys, lam)

    _report("criterion 12: membership, Hilbert-basis and dimension oracles agree", ok)


def test_criterion_13_hilbert_basis_time_gate():
    # A12 has r = 13 and 826 basis elements; testing each member of the
    # Davenport box on its own took about 6 s here, the prefix walk ~0.03 s
    rsys = build_root_system("A", 12)
    hilbert_basis.cache_clear()
    t0 = time.perf_counter()
    basis = hilbert_basis(rsys)
    elapsed = time.perf_counter() - t0
    ok = len(basis.elements) == 826 and elapsed < 1.0
    _report(f"criterion 13: Hilbert basis of A12 in process ({elapsed:.2f}s < 1s)", ok)


@pytest.mark.parametrize("n", [7, 8])
def test_criterion_14_verify_e7_e8_time_gate(n, capsys):
    # the independence certificate reads only the n fundamental dominant
    # tables, so E8 fits the gate at the default bound
    t0 = time.perf_counter()
    code = main(["verify", "--type", "E", "--rank", str(n), "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    (indep,) = [r for r in out["reports"] if r["title"].startswith("independence")]
    (item,) = indep["checks"]
    want = comb(n + 3, n)
    ok = code == 0 and out["ok"] and item["detail"] == f"rank {want} of {want}"
    ok &= elapsed < 10.0
    _report(f"criterion 14: verify E{n} at the default bound ({elapsed:.2f}s < 10s)", ok)


def test_criterion_15_verify_a9_bound_4_time_gate(capsys):
    # 5^9 cells: counting every factorisation in Python lists took ~6 s on a
    # 2-vCPU host, reachability on bitsets ~0.03 s
    t0 = time.perf_counter()
    code = main(["verify", "--type", "A", "--rank", "9", "--bound", "4"])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    ok = code == 0 and elapsed < 1.0
    _report(f"criterion 15: verify A9 --bound 4 in process ({elapsed:.2f}s < 1s)", ok)


def test_criterion_16_generation_check_memory_gate():
    # 7^8 cells of E8 at bound 6: two lists with one entry per cell peaked at
    # ~133 MB, the bitsets at a few MB
    e8 = build_root_system("E", 8)
    tracemalloc.start()
    try:
        ok = generation_check(e8, 6).ok
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    ok &= peak < 16
    _report(f"criterion 16: generation check of E8 at bound 6 ({peak:.1f} MB < 16 MB)", ok)


def test_criterion_17_casimir_time_gate(capsys):
    # casimir m = 6, k = 3 from cold caches, on a 2-vCPU host: ~0.3 s with
    # Laurent coefficients packed at stride 1 (a zero digit at every odd
    # offset), ~0.14 s packed in q^2, at half the length
    t0 = time.perf_counter()
    code = main(["casimir", "--m", "6", "--k", "3", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.encode()
    ok = code == 0 and hashlib.sha256(out).hexdigest() == JSON_SHA256[(6, 3)]
    ok &= elapsed < 1.8
    _report(f"criterion 17: casimir m=6 k=3 in process ({elapsed:.2f}s < 1.8s)", ok)


def test_criterion_18_casimir_m30_time_gate(capsys):
    # casimir m = 30, k = 1 from cold caches, on a 2-vCPU host: ~16 s with
    # q-binomials divided out of [30]!-sized q-factorials, ~0.27 s with
    # q-binomials by the q-Pascal rule and coefficients packed in q^2
    _q_binomial.cache_clear()
    t0 = time.perf_counter()
    code = main(["casimir", "--m", "30", "--k", "1", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.encode()
    ok = code == 0 and hashlib.sha256(out).hexdigest() == LARGE_JSON_SHA256[(30, 1)]
    ok &= elapsed < 3.0
    _report(f"criterion 18: casimir m=30 k=1 in process ({elapsed:.2f}s < 3s)", ok)


def test_criterion_19_casimir_m60_time_gate(capsys):
    # casimir m = 60, k = 1 from cold caches, on a 2-vCPU host: ~38 s with
    # coefficients past l1 norm 2^63 split and joined one digit at a time,
    # ~5.5 s with every digit width read off and joined from the bytes
    _q_binomial.cache_clear()
    t0 = time.perf_counter()
    code = main(["casimir", "--m", "60", "--k", "1", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out.encode()
    ok = code == 0 and hashlib.sha256(out).hexdigest() == (
        "c877774582b0c5a9721133f7a1217691d1e6994d36dcb1a376146ab181e3a0e4")
    ok &= elapsed < 15.0
    _report(f"criterion 19: casimir m=60 k=1 in process ({elapsed:.2f}s < 15s)", ok)

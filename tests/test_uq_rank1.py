import random
import time

import pytest

from uqcentre import (
    DomainError,
    K_operator,
    SimpleModule,
    UqElement,
    UqMatrix,
    build_root_system,
    casimir,
    check_K_intertwining,
    check_gamma_intertwines,
    gamma,
    hc_project,
    is_central,
    quasi_R,
    quasi_R_tilde_T,
    xi_simple,
)
from uqcentre import uq_rank1
from uqcentre.qrational import Q_ONE, Q_ZERO, QRat, q_factorial, q_int, q_power
from uqcentre.uq_rank1 import (
    GEN_E,
    GEN_EP,
    GEN_F,
    GEN_K,
    GEN_KINV,
    UQ_ONE,
    UQ_ZERO,
    _QMQ_ONE,
    _delta_matrix,
    _q_binomial,
    _qmat_id,
    _qmat_mul,
)
from oracles import (
    quasi_R_by_matrix_powers,
    quasi_R_tilde_T_by_matrix_powers,
    uq_product_by_triples,
)

QMQ = q_power(1) - q_power(-1)  # q - q^-1


# -- rational functions in q -------------------------------------------------


def test_qrat_canonical_form():
    x = QRat(0, (0, 0, 2), (0, 4))  # 2q^2 / 4q = q/2
    assert (x.qpow, x.num, x.den) == (1, (1,), (2,))
    y = QRat(0, (-1, 0, 1), (1, 1))  # (q^2-1)/(q+1) = q-1
    assert (y.qpow, y.num, y.den) == (0, (-1, 1), (1,))
    assert QRat(3, (0,), (5,)) == QRat.integer(0)
    # denominator sign normalisation
    z = QRat(0, (1,), (-2,))
    assert (z.num, z.den) == ((-1,), (2,))


def test_qrat_field_laws():
    rng = random.Random(31)

    def rand():
        num = tuple(rng.randint(-3, 3) for _ in range(3))
        den = tuple(rng.randint(-2, 2) for _ in range(2))
        if not any(den):
            den = (1,)
        return QRat(rng.randint(-2, 2), num if any(num) else (1,), den)

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == Q_ONE
        assert a - a == QRat.integer(0)


def test_q_integers():
    assert q_int(0).is_zero()
    assert q_int(1) == Q_ONE
    assert q_int(2) == q_power(1) + q_power(-1)
    assert q_int(3) == q_power(2) + Q_ONE + q_power(-2)
    assert q_int(2) * QMQ == q_power(2) - q_power(-2)
    assert q_factorial(3) == q_int(2) * q_int(3)


def test_qrat_laurent_interface():
    x = q_power(2) - 2 + q_power(-2)
    assert x.is_laurent()
    assert x.as_laurent() == {2: 1, 0: -2, -2: 1}
    y = Q_ONE / (q_power(1) + q_power(-1))
    assert not y.is_laurent()
    with pytest.raises(DomainError):
        y.as_laurent()


# -- the algebra -------------------------------------------------------------


def test_defining_relations():
    ef = GEN_E * GEN_F
    expected = GEN_F * GEN_E + (GEN_K - GEN_KINV).scale(QMQ.inverse())
    assert ef == expected
    assert GEN_K * GEN_E == (GEN_E * GEN_K).scale(q_power(2))
    assert GEN_K * GEN_F == (GEN_F * GEN_K).scale(q_power(-2))
    assert GEN_K * GEN_KINV == UQ_ONE
    assert UQ_ONE * GEN_F == GEN_F


def test_unsupported_operands_raise_type_error():
    ops = (
        lambda x, y: x * y,
        lambda x, y: x + y,
        lambda x, y: x - y,
    )
    for other in (2.5, "a"):
        for op in ops:
            with pytest.raises(TypeError):
                op(GEN_E, other)
            with pytest.raises(TypeError):
                op(other, GEN_E)
            with pytest.raises(TypeError):
                op(q_power(1), other)
            with pytest.raises(TypeError):
                op(other, q_power(1))


def test_qrat_on_the_left_of_an_element():
    # QRat returns NotImplemented for an element, so UqElement's reflected
    # operators take over, as they do for an int
    constant = UqElement({(0, 0, 0): q_power(1)})
    assert q_power(2) * GEN_E == GEN_E.scale(q_power(2)) == GEN_E * q_power(2)
    assert q_power(1) + GEN_E == constant + GEN_E == GEN_E + q_power(1)
    assert q_power(1) - GEN_E == constant - GEN_E
    assert 3 * GEN_E == GEN_E.scale(3)


def test_multiplication_associative_on_random_monomials():
    rng = random.Random(37)

    def rand_monomial():
        return UqElement.monomial(
            rng.randint(0, 2),
            rng.randint(-2, 2),
            rng.randint(0, 2),
            q_power(rng.randint(-1, 1)) * rng.randint(1, 3),
        )

    for _ in range(25):
        x, y, z = rand_monomial(), rand_monomial(), rand_monomial()
        assert (x * y) * z == x * (y * z)


def test_simple_module_matrices():
    V = SimpleModule(1)
    assert V.E == ((QRat.integer(0), Q_ONE), (QRat.integer(0), QRat.integer(0)))
    assert V.F == ((QRat.integer(0), QRat.integer(0)), (Q_ONE, QRat.integer(0)))
    assert V.K[0][0] == q_power(1) and V.K[1][1] == q_power(-1)
    V0 = SimpleModule(0)
    assert V0.dim == 1 and V0.E[0][0].is_zero() and V0.K[0][0] == Q_ONE
    V2 = SimpleModule(2)
    assert [V2.K[j][j] for j in range(3)] == [q_power(2), Q_ONE, q_power(-2)]
    with pytest.raises(DomainError):
        SimpleModule(-1)


def test_simple_module_representation_relations():
    for m in range(7):
        V = SimpleModule(m)
        d = V.dim
        KE = _qmat_mul(V.K, V.E)
        EK = _qmat_mul(V.E, V.K)
        assert all(
            KE[i][j] == q_power(2) * EK[i][j] for i in range(d) for j in range(d)
        )
        EF = _qmat_mul(V.E, V.F)
        FE = _qmat_mul(V.F, V.E)
        for i in range(d):
            for j in range(d):
                rhs = (V.K[i][j] - V.Kinv[i][j]) / QMQ if i == j else QRat.integer(0)
                assert EF[i][j] - FE[i][j] == rhs
        Fp = _qmat_id(d)
        for _ in range(m + 1):
            Fp = _qmat_mul(Fp, V.F)
        assert all(c.is_zero() for row in Fp for c in row)


def test_quasi_R_dim2():
    V = SimpleModule(1)
    R = quasi_R(V)
    assert R.rows[0][0] == UQ_ONE and R.rows[1][1] == UQ_ONE
    assert R.rows[1][0] == GEN_E.scale(QMQ)  # (q - q^-1) zeta(F) (x) E
    assert R.rows[0][1] == UQ_ZERO
    assert quasi_R(SimpleModule(0)) == UqMatrix.identity(1)


def test_quasi_R_dim3_coefficient():
    V = SimpleModule(2)
    R = quasi_R(V)
    c2 = q_power(3) * (Q_ONE - q_power(-2)) ** 2 / q_int(2)
    zeta_f2 = _qmat_mul(V.F, V.F)[2][0]
    assert R.rows[2][0].coefficient((0, 0, 2)) == c2 * zeta_f2


def test_quasi_R_tilde_dim2():
    V = SimpleModule(1)
    Rt = quasi_R_tilde_T(V)
    # (q - q^-1) zeta(EK) (x) K^-1 F, with zeta(EK)[0][1] = q^-1 and
    # K^-1 F = q^2 F K^-1
    assert Rt.rows[0][1] == UqElement.monomial(1, -1, 0, QMQ * q_power(-1) * q_power(2))
    assert Rt.rows[1][0] == UQ_ZERO
    assert quasi_R_tilde_T(SimpleModule(0)) == UqMatrix.identity(1)


def test_quasi_R_tilde_dim3_top_corner():
    # n = 2 term: c_2 zeta(E^2 K^2) (x) K^-2 F^2, normal-ordered q^8 F^2 K^-2
    V = SimpleModule(2)
    Rt = quasi_R_tilde_T(V)
    c2 = q_power(3) * (Q_ONE - q_power(-2)) ** 2 / q_int(2)
    zeta = _qmat_mul(_qmat_mul(V.E, V.E), _qmat_mul(V.K, V.K))[0][2]
    assert Rt.rows[0][2] == UqElement.monomial(2, -2, 0, c2 * zeta * q_power(8))


def test_q_binomial_pascal_rule():
    # [n choose k] = q^-k [n-1 choose k] + q^(n-k) [n-1 choose k-1]
    for n in range(13):
        assert _q_binomial(n, 0) == _q_binomial(n, n) == Q_ONE
        for k in range(1, n):
            rhs = _q_binomial(n - 1, k).shift(-k) + _q_binomial(n - 1, k - 1).shift(n - k)
            assert _q_binomial(n, k) == rhs


def test_quasi_R_matches_matrix_powers():
    for m in range(9):
        V = SimpleModule(m)
        assert quasi_R(V) == quasi_R_by_matrix_powers(V)
        assert quasi_R_tilde_T(V) == quasi_R_tilde_T_by_matrix_powers(V)


def test_K_operator():
    V = SimpleModule(1)
    KV = K_operator(V)
    assert KV.rows[0][0] == GEN_K and KV.rows[1][1] == GEN_KINV
    assert K_operator(SimpleModule(0)) == UqMatrix.identity(1)
    V2 = SimpleModule(2)
    KV2 = K_operator(V2)
    assert KV2.rows[1][1] == UQ_ONE
    assert KV2.rows[0][0] == UqElement.monomial(0, 2, 0)


def test_gamma_m1_matches_worked_example():
    V = SimpleModule(1)
    G = gamma(V)
    # Gamma = P_1 (x) K + P_-1 (x) K^-1 + (q-q^-1) zeta(F) (x) K^-1 E
    #       + (1-q^-2) zeta(E) (x) F + (q-q^-1)^2 q^-1 P_1 (x) F E
    assert G.rows[0][0] == GEN_K + (GEN_F * GEN_E).scale(QMQ ** 2 * q_power(-1))
    assert G.rows[1][1] == GEN_KINV
    assert G.rows[1][0] == (GEN_KINV * GEN_E).scale(QMQ)
    assert G.rows[0][1] == GEN_F.scale(Q_ONE - q_power(-2))
    assert gamma(SimpleModule(0)) == UqMatrix.identity(1)


def test_casimir_k1_matches_worked_example():
    C = casimir(SimpleModule(1), 1)
    expected = (
        GEN_K.scale(q_power(1))
        + GEN_KINV.scale(q_power(-1))
        + (GEN_F * GEN_E).scale(QMQ ** 2)
    )
    assert C == expected


def test_casimir_trivial_module():
    for k in (1, 2, 3):
        assert casimir(SimpleModule(0), k) == UQ_ONE
    with pytest.raises(DomainError):
        casimir(SimpleModule(1), 0)


def _matrix_product_by_triples(A, B):
    d = A.dim
    return UqMatrix(
        [
            [
                sum(
                    (uq_product_by_triples(A.rows[i][k], B.rows[k][j]) for k in range(d)),
                    UQ_ZERO,
                )
                for j in range(d)
            ]
            for i in range(d)
        ]
    )


@pytest.mark.parametrize("m", range(4))
def test_casimir_matches_the_trace_of_oracle_products(m):
    # C^(k)_V = sum_j q^(m-2j) (Gamma_V^k)_jj, every product by the oracle
    V = SimpleModule(m)
    G = _matrix_product_by_triples(
        _matrix_product_by_triples(K_operator(V), quasi_R_tilde_T(V)), quasi_R(V)
    )
    assert G == gamma(V)
    power = G
    for k in range(1, 4):
        if k > 1:
            power = _matrix_product_by_triples(power, G)
        trace = sum(
            (power.rows[j][j].scale(V.K[j][j]) for j in range(V.dim)), UQ_ZERO
        )
        assert casimir(V, k) == trace


def test_casimir_raises_on_non_laurent_coefficient(monkeypatch):
    # a Gamma_V whose entries are 1/[2]: the trace has non-Laurent coefficients
    half = UQ_ONE.scale(Q_ONE / q_int(2))
    monkeypatch.setattr(
        uq_rank1, "_gamma_power",
        lambda V, k: UqMatrix.tensor(_qmat_id(V.dim), half),
    )
    with pytest.raises(ArithmeticError, match="non-Laurent Casimir"):
        casimir(SimpleModule(1), 1)


def test_internal_basis_round_trip():
    # E-basis coefficients in, E-basis coefficients out; E' = (q - q^-1) E
    x = UqElement({(1, -1, 2): q_power(3), (0, 2, 0): 5, (0, 0, 1): Q_ONE / q_int(2)})
    assert x.terms == {
        (1, -1, 2): q_power(3), (0, 2, 0): QRat.integer(5), (0, 0, 1): Q_ONE / q_int(2)
    }
    assert x.coefficient((1, -1, 2)) == q_power(3)
    assert x.coefficient((2, 0, 2)).is_zero()
    assert x.sorted_terms() == sorted(x.terms.items())
    ep = UqElement.monomial(0, 0, 1, QMQ)
    assert ep * GEN_F == (GEN_E * GEN_F).scale(QMQ)
    # E' F = F E' + K - K^-1 has integer coefficients
    assert ep * GEN_F - GEN_F * ep == GEN_K - GEN_KINV
    assert all(c.is_laurent() for c in (ep * GEN_F).terms.values())


def test_casimir_pipeline_stays_laurent():
    # every entry of R_V, Rt_V, K_V and Gamma_V^k has stored coefficients in Z[q, q^-1]
    for m in range(5):
        V = SimpleModule(m)
        mats = [quasi_R(V), quasi_R_tilde_T(V), K_operator(V), gamma(V), gamma(V) ** 2]
        for M in mats:
            for row in M.rows:
                for e in row:
                    assert all(c.is_laurent() for c in e._terms.values()), m


def test_higher_casimir_identities():
    V = SimpleModule(1)
    C = casimir(V, 1)
    C2, C3, C4 = casimir(V, 2), casimir(V, 3), casimir(V, 4)
    assert C2 == (C * C).scale(q_power(-1)) - q_power(-1) - q_power(-3)
    assert C3 == (C ** 3).scale(q_power(-2)) - C.scale(q_power(-2) * 2 + q_power(-4))
    assert C4 == (
        (C ** 4).scale(q_power(-3))
        - (C ** 2).scale(q_power(-3) * 3 + q_power(-5))
        + q_power(-3)
        + q_power(-5)
    )


def test_centrality():
    assert is_central(UQ_ONE)
    assert not is_central(GEN_E)
    assert not is_central(GEN_K)
    for m in range(5):
        V = SimpleModule(m)
        for k in (1, 2, 3):
            assert is_central(casimir(V, k)), (m, k)


def test_gamma_intertwines():
    for m in range(5):
        rep = check_gamma_intertwines(SimpleModule(m))
        assert rep.ok, (m, rep.lines())


def test_K_intertwining_identities():
    for m in range(5):
        rep = check_K_intertwining(SimpleModule(m))
        assert rep.ok, (m, rep.lines())


def _phi_delta_prime_matrix(V, gen):
    """(zeta (x) id) of phi applied to the opposite coproduct of a generator."""
    if gen == "E":
        return UqMatrix.tensor(V.E, _QMQ_ONE) + UqMatrix.tensor(V.Kinv, GEN_EP)
    if gen == "F":
        return UqMatrix.tensor(_qmat_id(V.dim), GEN_F) + UqMatrix.tensor(V.F, GEN_K)
    return UqMatrix.tensor(V.K, GEN_K)  # "K"


def test_quasi_R_module_level_intertwining():
    # R_V (zeta (x) id)Delta(x) == (zeta (x) id)(phi Delta'(x)) R_V
    for m in range(4):
        V = SimpleModule(m)
        R = quasi_R(V)
        for gen in ("E", "F", "K"):
            lhs = R * _delta_matrix(V, gen)
            rhs = _phi_delta_prime_matrix(V, gen) * R
            assert lhs == rhs, (m, gen)


def test_centrality_and_intertwining_beyond_m4():
    # wider than acceptance criterion 7: m = 5..8 at k = 1 with the
    # Harish-Chandra image, m = 5, 6 at k = 2, and Gamma_V / K_V for m <= 8
    t0 = time.perf_counter()
    a1 = build_root_system("A", 1)
    for m in range(5, 9):
        C = casimir(SimpleModule(m), 1)
        assert is_central(C), m
        assert hc_project(C) == {w[0]: c for w, c in xi_simple(a1, (m,)).terms.items()}
    for m in (5, 6):
        assert is_central(casimir(SimpleModule(m), 2)), m
    for m in range(9):
        V = SimpleModule(m)
        assert check_gamma_intertwines(V).ok, m
        assert check_K_intertwining(V).ok, m
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0, f"{elapsed:.1f}s over the 15 s budget"


def test_hc_project():
    assert hc_project(casimir(SimpleModule(1), 1)) == {1: 1, -1: 1}
    assert hc_project(casimir(SimpleModule(2), 1)) == {2: 1, 0: 1, -2: 1}
    assert hc_project(UQ_ONE) == {0: 1}
    with pytest.raises(DomainError):
        hc_project(GEN_E)  # not in the zero-grade subalgebra


def test_hc_consistency_with_character_ring():
    a1 = build_root_system("A", 1)
    for m in range(5):
        image = hc_project(casimir(SimpleModule(m), 1))
        xs = xi_simple(a1, (m,))
        assert image == {w[0]: c for w, c in xs.terms.items()}
        assert all(v > 0 for v in image.values())


def test_casimirs_lie_in_subring_of_first():
    from uqcentre.uq_rank1 import express_in_powers

    C1 = casimir(SimpleModule(1), 1)
    for m in range(5):
        Cm = casimir(SimpleModule(m), 1)
        sol = express_in_powers(Cm, C1, m)
        assert sol is not None, m
        acc, basis_elem = UQ_ZERO, UQ_ONE
        for cj in sol:
            acc = acc + basis_elem.scale(cj)
            basis_elem = basis_elem * C1
        assert acc == Cm, m
        # integer coefficients: the expansion mirrors the character-ring
        # recursion [L(m)] = [L(1)][L(m-1)] - [L(m-2)]
        assert all(c.is_laurent() for c in sol)
    # the degree-2 Casimir of the 2-dimensional module, re-derived
    sol = express_in_powers(casimir(SimpleModule(1), 2), C1, 2)
    assert [c.render() for c in sol] == ["-q^-1 - q^-3", "0", "q^-1"]
    assert express_in_powers(GEN_E, C1, 3) is None


def _field_solve(target, base, max_degree):
    """Reference for express_in_powers: Gauss-Jordan over Q(q) on E-basis coefficients."""
    powers = [UQ_ONE]
    for _ in range(max_degree):
        powers.append(powers[-1] * base)
    mons = sorted(set(target.terms).union(*[set(p.terms) for p in powers]))
    rows = [[p.coefficient(mon) for p in powers] + [target.coefficient(mon)] for mon in mons]
    pivots, piv = [], 0
    for col in range(len(powers)):
        r = next((i for i in range(piv, len(rows)) if not rows[i][col].is_zero()), None)
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        rows[piv] = [x / rows[piv][col] for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        pivots.append((col, piv))
        piv += 1
    if any(all(x.is_zero() for x in row[:-1]) and not row[-1].is_zero() for row in rows):
        return None
    sol = [Q_ZERO] * len(powers)
    for col, r in pivots:
        sol[col] = rows[r][-1]
    return sol


def test_express_in_powers_matches_field_elimination():
    from uqcentre.uq_rank1 import express_in_powers

    rng = random.Random(41)

    def rand_coeff():
        num = tuple(rng.randint(-2, 2) for _ in range(3))
        den = rng.choice([(1,), (1, 1), (2, 0, 1), (-1, 3)])
        return QRat(rng.randint(-2, 2), num, den)

    bases = [casimir(SimpleModule(1), 1), casimir(SimpleModule(2), 1),
             GEN_F * GEN_E + GEN_K.scale(q_power(2)),
             # images whose extreme K-power is the lowest one
             UQ_ONE + GEN_KINV, GEN_F * GEN_E + GEN_KINV.scale(q_power(-1) + 3)]
    for base in bases:
        for degree in (1, 2, 3):
            coeffs = [rand_coeff() for _ in range(degree + 1)]
            target, p = UQ_ZERO, UQ_ONE
            for c in coeffs:
                target = target + p.scale(c)
                p = p * base
            assert express_in_powers(target, base, degree) == coeffs
            assert _field_solve(target, base, degree) == coeffs
            # an extra power leaves a free unknown, set to 0 by both
            sol = express_in_powers(target, base, degree + 1)
            assert sol == coeffs + [Q_ZERO] == _field_solve(target, base, degree + 1)
    # rank-deficient: all powers of a scalar are proportional
    scalar = UQ_ONE.scale(q_power(1) + 2)
    for target in (UQ_ONE.scale(q_power(-3)), GEN_E, GEN_K + 1):
        assert express_in_powers(target, scalar, 3) == _field_solve(target, scalar, 3)
    for m in range(5):
        Cm = casimir(SimpleModule(m), 1)
        C1 = casimir(SimpleModule(1), 1)
        assert express_in_powers(Cm, C1, m) == _field_solve(Cm, C1, m)


@pytest.mark.parametrize("k", [2, 3])
def test_higher_casimirs_in_powers_match_field_elimination(k):
    # m >= 3 has no solution: the image system alone must prove it
    from uqcentre.uq_rank1 import express_in_powers

    for m in range(6):
        V = SimpleModule(m)
        Ck, C1 = casimir(V, k), casimir(V, 1)
        sol = express_in_powers(Ck, C1, k)
        assert sol == _field_solve(Ck, C1, k), m
        assert (sol is None) == (m >= 3), m


def test_express_in_powers_certifies_the_image_solution():
    from uqcentre.uq_rank1 import express_in_powers

    C1 = casimir(SimpleModule(1), 1)
    # C1 + E has the image of C1, so the image system is solved by c = (0, 1, 0)
    target = C1 + GEN_E
    assert express_in_powers(target, C1, 2) is None
    assert _field_solve(target, C1, 2) is None
    # F E + 1 is not a scalar but its image is: F E + 2 = base + 1, which
    # the image cannot find, so the solve refuses rather than answer None
    base = GEN_F * GEN_E + 1
    assert _field_solve(base + 1, base, 1) == [Q_ONE, Q_ONE]
    with pytest.raises(DomainError):
        express_in_powers(base + 1, base, 1)
    assert express_in_powers(UQ_ONE.scale(3), base, 2) == [QRat.integer(3), Q_ZERO, Q_ZERO]
    with pytest.raises(DomainError):
        express_in_powers(C1, GEN_E, 2)  # a base outside the zero-grade subalgebra


def test_express_in_powers_rejects_a_negative_degree():
    from uqcentre.uq_rank1 import express_in_powers

    C1 = casimir(SimpleModule(1), 1)
    for target in (UQ_ONE, UQ_ZERO, C1):
        with pytest.raises(DomainError, match="max_degree must be >= 0"):
            express_in_powers(target, C1, -1)


def test_express_in_powers_forms_no_product_without_an_image_solution(monkeypatch):
    small, large = SimpleModule(1), SimpleModule(4)
    C2_small, C1_small = casimir(small, 2), casimir(small, 1)
    C3, C1 = casimir(large, 3), casimir(large, 1)
    calls = []
    real = uq_rank1._mul_into

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(uq_rank1, "_mul_into", counting)
    assert uq_rank1.express_in_powers(C3, C1, 3) is None
    assert calls == []
    # the counter sees the products of a certificate
    assert uq_rank1.express_in_powers(C2_small, C1_small, 2) is not None
    assert calls


def test_render_and_json():
    C = casimir(SimpleModule(1), 1)
    text = C.render()
    assert "F·E" in text and "K^-1" in text
    js = C.to_json()
    assert [[0, 1, 0], {"qpow": 1, "num": [1], "den": [1]}] in js
    assert UQ_ZERO.render() == "0"

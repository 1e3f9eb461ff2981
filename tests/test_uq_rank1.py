import random
import time
from functools import cache

import pytest

from uqcentre import (
    DomainError,
    SimpleModule,
    UqElement,
    build_root_system,
    casimir,
    hc_project,
    is_central,
    xi_simple,
)
from uqcentre import qrational, uq_rank1
from uqcentre.qrational import Q_ONE, Q_ZERO, QRat, laurent_quotient, q_int, q_power
from uqcentre.uq_rank1 import UQ_ONE, UQ_ZERO, _q_binomial
import oracles
from oracles import (
    GEN_EP,
    GEN_F,
    GEN_K,
    GEN_KINV,
    K_operator,
    UqMatrix,
    _matrix_power,
    _matrix_product,
    check_K_intertwining,
    casimir_by_gamma_trace,
    check_gamma_intertwines,
    coproduct_matrix,
    gamma_by_products,
    identity_matrix,
    middle_by_products,
    module_matrices,
    q_factorial,
    quasi_R,
    quasi_R_by_matrix_powers,
    quasi_R_tilde_T,
    quasi_R_tilde_T_by_matrix_powers,
    theta,
    uq_matrix_product_by_triples,
    uq_product_by_triples,
)

QMQ = q_power(1) - q_power(-1)  # q - q^-1


# -- Laurent polynomials in q -----------------------------------------------


def test_qrat_canonical_form():
    x = QRat(0, (0, 0, 4), (0, 2))  # 4q^2 / 2q = 2q
    assert (x.qpow, x.num) == (1, (2,))
    y = QRat(0, (-1, 0, 1), (1, 1))  # (q^2-1)/(q+1) = q-1
    assert (y.qpow, y.num) == (0, (-1, 1))
    assert y == q_power(1) - 1
    assert QRat(3, (0,), (5,)) == QRat.integer(0)
    # a negative denominator
    z = QRat(0, (2,), (-2,))
    assert (z.qpow, z.num) == (0, (-1,))


def test_qrat_constructor_raises_when_the_denominator_does_not_divide():
    # 1 / (1 + q) is not in Z[q, q^-1]
    with pytest.raises(DomainError, match="does not divide"):
        QRat(0, (1,), (1, 1))
    with pytest.raises(DomainError, match="does not divide"):
        QRat(0, (0, 0, 2), (0, 4))  # q/2


def test_a_negative_power_raises_domain_error():
    for x in (q_power(1), QMQ, Q_ONE):
        with pytest.raises(DomainError, match="negative powers"):
            x ** -1
    assert q_power(1) ** 0 == Q_ONE


def test_q_integers():
    assert q_int(0).is_zero()
    assert q_int(1) == Q_ONE
    assert q_int(2) == q_power(1) + q_power(-1)
    assert q_int(3) == q_power(2) + Q_ONE + q_power(-2)
    assert q_int(2) * QMQ == q_power(2) - q_power(-2)
    assert q_factorial(3) == q_int(2) * q_int(3)
    for m in range(1, 40):  # q^(1-m) + q^(3-m) + ... + q^(m-1), from its coefficients
        assert q_int(m) == QRat(1 - m, (1,) + (0, 1) * (m - 1), (1,)) == -q_int(-m)


def test_qrat_laurent_interface():
    x = q_power(2) - 2 + q_power(-2)
    assert x.as_laurent() == {2: 1, 0: -2, -2: 1}
    assert Q_ZERO.as_laurent() == {} and QRat.integer(-7).constant_value() == -7
    with pytest.raises(DomainError, match="not constant"):
        x.constant_value()


# -- the algebra -------------------------------------------------------------


def test_defining_relations():
    # E' F - F E' = K - K^-1 and K E' = q^2 E' K, for E' = (q - q^-1) E
    assert GEN_EP * GEN_F == GEN_F * GEN_EP + GEN_K - GEN_KINV
    assert GEN_K * GEN_EP == (GEN_EP * GEN_K).scale(q_power(2))
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
                op(GEN_EP, other)
            with pytest.raises(TypeError):
                op(other, GEN_EP)
            with pytest.raises(TypeError):
                op(q_power(1), other)
            with pytest.raises(TypeError):
                op(other, q_power(1))


def test_a_constant_element_equals_its_scalar():
    constant = UQ_ONE.scale(q_power(1))
    assert constant == q_power(1) and hash(constant) == hash(q_power(1))
    assert UQ_ONE.scale(3) == 3 and hash(UQ_ONE.scale(3)) == hash(3)
    assert UQ_ZERO == 0 and UQ_ZERO == Q_ZERO
    assert constant != q_power(2) and constant != 1
    assert GEN_K != q_power(1) and GEN_K + 1 != 1
    # and from the scalar's side: QRat defers to UqElement, as int does
    assert q_power(1) == constant and not q_power(1) != constant
    assert q_power(2) != constant and q_power(1) != GEN_K
    assert q_power(1).__eq__(constant) is NotImplemented and q_power(1) != "q"


def test_qrat_on_the_left_of_an_element():
    # QRat returns NotImplemented for an element, so UqElement's reflected
    # operators take over, as they do for an int
    constant = UqElement({(0, 0, 0): q_power(1)})
    assert q_power(2) * GEN_EP == GEN_EP.scale(q_power(2)) == GEN_EP * q_power(2)
    assert q_power(1) + GEN_EP == constant + GEN_EP == GEN_EP + q_power(1)
    assert q_power(1) - GEN_EP == constant - GEN_EP
    assert 3 * GEN_EP == GEN_EP.scale(3)


def test_multiplication_associative_on_random_monomials():
    rng = random.Random(37)

    def rand_monomial():
        # an E-exponent c takes a factor (q - q^-1)^c: an E'-monomial
        a, b, c = rng.randint(0, 2), rng.randint(-2, 2), rng.randint(0, 2)
        coeff = q_power(rng.randint(-1, 1)) * rng.randint(1, 3)
        return UqElement.monomial(a, b, c, coeff * QMQ ** c)

    for _ in range(25):
        x, y, z = rand_monomial(), rand_monomial(), rand_monomial()
        assert (x * y) * z == x * (y * z)


def test_simple_module_matrices():
    E, F, K, Kinv = module_matrices(1)
    assert E == [[Q_ZERO, Q_ONE], [Q_ZERO, Q_ZERO]]
    assert F == [[Q_ZERO, Q_ZERO], [Q_ONE, Q_ZERO]]
    assert K[0][0] == Kinv[1][1] == q_power(1) and K[1][1] == Kinv[0][0] == q_power(-1)
    E0, _, K0, _ = module_matrices(0)
    assert SimpleModule(0).dim == 1 and E0[0][0].is_zero() and K0[0][0] == Q_ONE
    K2 = module_matrices(2)[2]
    assert [K2[j][j] for j in range(3)] == [q_power(2), Q_ONE, q_power(-2)]
    assert SimpleModule(2).weights == (2, 0, -2)
    with pytest.raises(DomainError):
        SimpleModule(-1)


def test_simple_module_representation_relations():
    for m in range(7):
        E, F, K, Kinv = module_matrices(m)
        d = m + 1
        KE, EK = _matrix_product(K, E), _matrix_product(E, K)
        assert all(
            KE[i][j] == q_power(2) * EK[i][j] for i in range(d) for j in range(d)
        )
        EF, FE = _matrix_product(E, F), _matrix_product(F, E)
        for i in range(d):
            for j in range(d):
                rhs = K[i][j] - Kinv[i][j] if i == j else QRat.integer(0)
                assert (EF[i][j] - FE[i][j]) * QMQ == rhs
        assert all(c.is_zero() for row in _matrix_power(F, m + 1) for c in row)


def test_quasi_R_dim2():
    V = SimpleModule(1)
    R = quasi_R(V)
    assert R.rows[0][0] == UQ_ONE and R.rows[1][1] == UQ_ONE
    assert R.rows[1][0] == GEN_EP  # (q - q^-1) zeta(F) (x) E
    assert R.rows[0][1] == UQ_ZERO
    assert quasi_R(SimpleModule(0)) == identity_matrix(1)


def test_quasi_R_dim3_coefficient():
    V = SimpleModule(2)
    R = quasi_R(V)
    # c_2 = q^3 (1 - q^-2)^2 / [2]
    c2_times_2 = q_power(3) * (Q_ONE - q_power(-2)) ** 2
    zeta_f2 = _matrix_power(module_matrices(2)[1], 2)[2][0]
    assert R.rows[2][0].coefficient((0, 0, 2)) * q_int(2) == c2_times_2 * zeta_f2


def test_quasi_R_tilde_dim2():
    V = SimpleModule(1)
    Rt = quasi_R_tilde_T(V)
    # (q - q^-1) zeta(EK) (x) K^-1 F, with zeta(EK)[0][1] = q^-1 and
    # K^-1 F = q^2 F K^-1
    assert Rt.rows[0][1] == UqElement.monomial(1, -1, 0, QMQ * q_power(-1) * q_power(2))
    assert Rt.rows[1][0] == UQ_ZERO
    assert quasi_R_tilde_T(SimpleModule(0)) == identity_matrix(1)


def test_quasi_R_tilde_dim3_top_corner():
    # n = 2 term: c_2 zeta(E^2 K^2) (x) K^-2 F^2, normal-ordered q^8 F^2 K^-2
    V = SimpleModule(2)
    Rt = quasi_R_tilde_T(V)
    # c_2 = q^3 (1 - q^-2)^2 / [2]
    c2_times_2 = q_power(3) * (Q_ONE - q_power(-2)) ** 2
    E, _, K, _ = module_matrices(2)
    zeta = _matrix_product(_matrix_power(E, 2), _matrix_power(K, 2))[0][2]
    expected = UqElement.monomial(2, -2, 0, c2_times_2 * zeta * q_power(8))
    assert Rt.rows[0][2].scale(q_int(2)) == expected


def test_q_binomial_pascal_rule():
    # [n choose k] = q^-k [n-1 choose k] + q^(n-k) [n-1 choose k-1]
    for n in range(13):
        assert _q_binomial(n, 0) == _q_binomial(n, n) == Q_ONE
        for k in range(1, n):
            rhs = _q_binomial(n - 1, k).shift(-k) + _q_binomial(n - 1, k - 1).shift(n - k)
            assert _q_binomial(n, k) == rhs


def test_q_binomials_are_factorial_quotients_in_q_squared():
    # [n choose k] = [n]! / ([k]! [n-k]!) lies in q^(-k(n-k)) Z[q^2], packed in q^2
    for n in range(15):
        for k in range(n + 1):
            b = _q_binomial(n, k)
            assert b == laurent_quotient(q_factorial(n), q_factorial(k) * q_factorial(n - k))
            assert b.qpow == -k * (n - k) and b._s == 2


def test_straightening_coefficients_lie_in_q_squared():
    # the library's own product E'^c F^a, straightened by its levels
    for c in range(5):
        for a in range(5):
            ep_c, f_a = (UqElement._stored({mon: Q_ONE}) for mon in ((0, 0, c), (a, 0, 0)))
            product = ep_c * f_a
            assert product._terms, (c, a)
            for coeff in product._terms.values():
                assert coeff.qpow % 2 == 0 and coeff._s == 2, (c, a)


def test_levels_of_a_right_factor_are_built_once(monkeypatch):
    # x y applies E' to a level once per level, c_max(x) times in all, and a
    # matrix product builds the levels of each right entry once, not per row
    calls = []
    real = uq_rank1._left_e

    def counting(acc, terms):
        calls.append(None)
        return real(acc, terms)

    monkeypatch.setattr(uq_rank1, "_left_e", counting)
    y = GEN_F * GEN_F + GEN_K
    for x, c_max in ((GEN_EP ** 5 + GEN_EP, 5), (GEN_F * GEN_EP ** 3, 3), (GEN_K + GEN_F, 0),
                     (UQ_ZERO, 0)):
        calls.clear()
        x * y
        assert len(calls) == c_max, x
    # the columns of A have largest E'-exponents 2, 4 and 2: each right entry
    # (k, j) builds its levels up to that of column k once, for all three
    # rows; levels built afresh for each row would take 3 * (2 + 6 + 3)
    e2, e4 = GEN_EP ** 2, GEN_EP ** 4
    A = UqMatrix([[e2, GEN_K, UQ_ONE], [GEN_EP, e4, GEN_EP], [UQ_ONE, GEN_F * GEN_EP, e2]])
    B = UqMatrix([[y, GEN_F, UQ_ONE], [GEN_F ** 3, y, GEN_K], [GEN_F, UQ_ONE, y]])
    calls.clear()
    A * B
    assert len(calls) == 3 * (2 + 4 + 2)


def test_casimir_pipeline_is_packed_in_q_squared(monkeypatch):
    # every coefficient is q^e P(q^2), held at stride 2, and up to m = 4 every
    # product and sum is one packed operation: a fall-back to the stride-1
    # packing, or to the slow path of a sum or a product, fails here, not only
    # in the benchmark
    general = []
    monkeypatch.setattr(qrational, "_combine", lambda *args: general.append(args))
    monkeypatch.setattr(qrational, "_mul_add_slow", lambda *args: general.append(args))
    _q_binomial.cache_clear()
    for m in range(5):
        V = SimpleModule(m)
        C = casimir(V, 3)
        kappa, rho = oracles._gamma_factors(m)
        # the regrouped trace of the oracle: M and M M
        M = oracles._table(V.dim, oracles._middle_entries(V, kappa, rho))
        coeffs = [c for table in (kappa, rho) for row in table for c in row]
        coeffs += [c for row in M for e in row for c in e.values()]
        coeffs += [c for _, _, e in oracles._products(M, M) for c in e.values()]
        coeffs += list(C._terms.values()) + list(C.terms.values())
        assert coeffs and all(c._s == 2 for c in coeffs), m
    assert not general


def test_quasi_R_matches_matrix_powers():
    for m in range(9):
        V = SimpleModule(m)
        assert quasi_R(V) == quasi_R_by_matrix_powers(V)
        assert quasi_R_tilde_T(V) == quasi_R_tilde_T_by_matrix_powers(V)


def test_K_operator():
    V = SimpleModule(1)
    KV = K_operator(V)
    assert KV.rows[0][0] == GEN_K and KV.rows[1][1] == GEN_KINV
    assert K_operator(SimpleModule(0)) == identity_matrix(1)
    V2 = SimpleModule(2)
    KV2 = K_operator(V2)
    assert KV2.rows[1][1] == UQ_ONE
    assert KV2.rows[0][0] == UqElement.monomial(0, 2, 0)


def test_gamma_m1_matches_worked_example():
    # the oracle's K_V Rt_V R_V, whose diagonal casimir reads in closed form
    V = SimpleModule(1)
    G = gamma_by_products(V)
    # Gamma = P_1 (x) K + P_-1 (x) K^-1 + (q-q^-1) zeta(F) (x) K^-1 E
    #       + (1-q^-2) zeta(E) (x) F + (q-q^-1)^2 q^-1 P_1 (x) F E
    assert G.rows[0][0] == GEN_K + (GEN_F * GEN_EP).scale(QMQ * q_power(-1))
    assert G.rows[1][1] == GEN_KINV
    assert G.rows[1][0] == GEN_KINV * GEN_EP
    assert G.rows[0][1] == GEN_F.scale(Q_ONE - q_power(-2))
    assert gamma_by_products(SimpleModule(0)) == identity_matrix(1)


def test_casimir_k1_matches_worked_example():
    C = casimir(SimpleModule(1), 1)
    expected = (
        GEN_K.scale(q_power(1))
        + GEN_KINV.scale(q_power(-1))
        + (GEN_F * GEN_EP).scale(QMQ)
    )
    assert C == expected


def test_casimir_trivial_module():
    for k in (1, 2, 3):
        assert casimir(SimpleModule(0), k) == UQ_ONE
    with pytest.raises(DomainError):
        casimir(SimpleModule(1), 0)


@pytest.mark.parametrize("k", [True, 2.0, 3.0])
def test_casimir_and_express_in_powers_take_only_int_degrees(k):
    # True gave C^(1), 2.0 gave C^(2), 3.0 raised TypeError
    from uqcentre.uq_rank1 import express_in_powers

    V = SimpleModule(1)
    with pytest.raises(DomainError, match="k must be >= 1 and an int"):
        casimir(V, k)
    C1 = casimir(V, 1)
    with pytest.raises(DomainError, match="max_degree must be >= 0 and an int"):
        express_in_powers(casimir(V, 2), C1, k)


def _weighted_trace(V, M):
    """sum_j q^(m-2j) M_jj."""
    return sum((M.rows[j][j].scale(q_power(w)) for j, w in enumerate(V.weights)), UQ_ZERO)


@pytest.mark.parametrize("m", range(9))
def test_closed_form_gamma_matches_oracle_products(m):
    # C^(1) = sum_j q^(m-2j) (Gamma_V)_jj, read off the diagonal of Gamma_V
    # in closed form, against the triple product K_V Rt_V R_V
    V = SimpleModule(m)
    assert casimir(V, 1) == _weighted_trace(V, gamma_by_products(V))


def test_casimir_k1_forms_no_element_product(monkeypatch):
    # every C^(k) is a signed sum of closed forms C^(1)_L(nu): no product of
    # elements and no straightening, for any k
    expected = {(m, k): casimir(SimpleModule(m), k) for m in range(7) for k in range(1, 6)}

    def refuse(*args):
        raise AssertionError("C^(k) formed a product of elements")

    for name in ("_mul_into", "_grow", "_left_e"):
        monkeypatch.setattr(uq_rank1, name, refuse)
    for (m, k), C in expected.items():
        assert casimir(SimpleModule(m), k) == C, (m, k)
    with pytest.raises(AssertionError, match="product of elements"):
        C * C


@pytest.mark.parametrize("m", range(7))
def test_closed_form_middle_factor_matches_oracle_products(m):
    # M = R_V K_V Rt_V of Gamma_V^k = K_V Rt_V M^(k-1) R_V, in closed form,
    # against the triple product
    V = SimpleModule(m)
    entries = oracles._middle_entries(V, *oracles._gamma_factors(m))
    assert oracles._table(V.dim, entries) == middle_by_products(V).table()


@pytest.mark.parametrize("m", range(4))
def test_casimir_matches_the_trace_of_oracle_products(m):
    # C^(k)_V = sum_j q^(m-2j) (Gamma_V^k)_jj, every product by the oracle;
    # k = 4 for m <= 2
    V = SimpleModule(m)
    G = gamma_by_products(V)
    power = G
    for k in range(1, 4 if m > 2 else 5):
        if k > 1:
            power = uq_matrix_product_by_triples(power, G)
        assert casimir(V, k) == _weighted_trace(V, power)


def _q_binomial_by_factorials(m, t):
    return laurent_quotient(q_factorial(m), q_factorial(t) * q_factorial(m - t))


@pytest.mark.parametrize("n", range(11))
def test_casimir_k1_is_the_closed_formula_per_monomial(n):
    # the stored coefficient of F^i K^(w-i) E'^i in C^(1)_L(n), w = n - 2j, is
    # (q - q^-1)^i [j+i choose i] [n-j choose i] q^(-(i-1)(w-i)), with the
    # q-binomials as quotients of q-factorials, not by the q-Pascal rule
    expected = {}
    for j in range(n + 1):
        w = n - 2 * j
        for i in range(n - j + 1):
            binomials = _q_binomial_by_factorials(j + i, i) * _q_binomial_by_factorials(n - j, i)
            expected[i, w - i, i] = QMQ ** i * binomials * q_power(-(i - 1) * (w - i))
    assert casimir(SimpleModule(n), 1)._terms == expected


@pytest.mark.parametrize("m", range(7))
def test_theta_takes_R_to_Rt_up_to_the_scalars_D(m):
    # theta((R_V)_(t j)) D_t = D_j (Rt_V)_(j t) with
    # D_t = q^(t(m+1-t)) (q - q^-1)^t / [m choose t]; multiplied through by
    # [m choose t] [m choose j], both sides are Laurent
    V = SimpleModule(m)
    R, Rt = quasi_R(V), quasi_R_tilde_T(V)
    for j in range(V.dim):
        for t in range(V.dim):
            left = theta(R.rows[t][j]).scale(
                q_power(t * (m + 1 - t)) * QMQ ** t * _q_binomial_by_factorials(m, j))
            right = Rt.rows[j][t].scale(
                q_power(j * (m + 1 - j)) * QMQ ** j * _q_binomial_by_factorials(m, t))
            assert left == right, (j, t)
            assert (not left) == (t < j)


@pytest.mark.parametrize("m", range(5))
def test_the_trace_terms_of_t_t_prime_and_t_prime_t_agree(m):
    # T_(j,t,t') = (K_V Rt_V)_(j t) (M^(k-1))_(t t') (R_V)_(t' j) equals
    # T_(j,t',t), so casimir_by_gamma_trace forms only t <= t'; the weighted
    # sum of all of them is C^(k)
    V = SimpleModule(m)
    d = V.dim
    KRt = uq_matrix_product_by_triples(K_operator(V), quasi_R_tilde_T(V))
    R, M = quasi_R(V), middle_by_products(V)
    power = M
    for k in (2, 3):
        if k > 2:
            power = uq_matrix_product_by_triples(power, M)
        T = {
            (j, t, t2): uq_product_by_triples(
                uq_product_by_triples(KRt.rows[j][t], power.rows[t][t2]), R.rows[t2][j])
            for j in range(d) for t in range(d) for t2 in range(d)
        }
        for (j, t, t2), x in T.items():
            assert x == T[j, t2, t], (k, j, t, t2)
        trace = sum((x.scale(q_power(m - 2 * j)) for (j, _, _), x in T.items()), UQ_ZERO)
        assert casimir(V, k) == trace, k


@pytest.mark.parametrize("m", range(6))
def test_casimir_finishes_only_the_upper_half_of_its_last_product(monkeypatch, m):
    # the oracle's regrouped trace, k = 3: the last product M M is formed
    # entry by entry for t <= t' only, d(d+1)/2 entries; k = 2: likewise the
    # entries of M itself
    formed = {}

    def counting(name):
        entries = getattr(oracles, name)

        def counted(*args, **kwargs):
            for entry in entries(*args, **kwargs):
                formed.setdefault(name, []).append(entry[:2])
                yield entry
        return counted

    V = SimpleModule(m)
    d = V.dim
    upper = sorted((t, t2) for t in range(d) for t2 in range(t, d))
    monkeypatch.setattr(oracles, "_products", counting("_products"))
    monkeypatch.setattr(oracles, "_middle_entries", counting("_middle_entries"))
    assert casimir_by_gamma_trace(V, 2) == casimir(V, 2)
    assert list(formed) == ["_middle_entries"] and sorted(formed["_middle_entries"]) == upper
    formed.clear()
    assert casimir_by_gamma_trace(V, 3) == casimir(V, 3)
    assert sorted(formed["_products"]) == upper
    assert len(formed["_middle_entries"]) == d * d  # M whole, as the right factor


@pytest.mark.parametrize("m", range(7))
def test_casimir_equals_the_regrouped_trace_of_gamma_powers(m):
    # the Adams sum of closed forms against the oracle's trace of Gamma_V^k
    V = SimpleModule(m)
    for k in range(1, 5):
        assert casimir(V, k) == casimir_by_gamma_trace(V, k), k


@pytest.mark.parametrize("k", range(1, 7))
def test_rank1_adams_terms(k):
    # psi^k[L(m)] = sum a_nu [L(nu)]: k = 1 is L(m) itself, dimensions add
    # up to m + 1, and for k >= 2 the signed weights give distinct nu
    for m in range(13):
        terms = uq_rank1._adams_terms(m, k)
        nus = [nu for nu, _, _ in terms]
        assert sum(a * (nu + 1) for nu, a, _ in terms) == m + 1, (m, k)
        assert all(a in (1, -1) and nu >= 0 for nu, a, _ in terms), (m, k)
        if k == 1:
            assert terms == [(m, 1, 0)]
        else:
            assert len(set(nus)) == len(nus) == m + 1, (m, k)
        for nu, _, e in terms:  # e = c(nu)/k - k c(m), c(n) = n(n+2)/2
            assert 2 * k * e == nu * (nu + 2) - k * k * m * (m + 2), (m, k, nu)


def test_adams_sum_acts_by_the_clebsch_gordan_eigenvalues():
    # on the highest weight vector of L(n), C^(k)_L(m) acts by
    # sum_nu q^(k(c(nu) - c(n) - c(m))) [nu+1]/[n+1] over the Clebsch-Gordan
    # components nu of L(m) (x) L(n); FE kills that vector, so only the
    # F^0 K^b E^0 terms act, K by q^n
    for m in range(5):
        for k in range(1, 5):
            C = casimir(SimpleModule(m), k)
            for n in range(5):
                acts = sum((coeff.shift(b * n) for (a, b, c), coeff in C._terms.items()
                            if a == c == 0), Q_ZERO)
                traced = sum((q_power(k * (nu * (nu + 2) - n * (n + 2) - m * (m + 2)) // 2)
                              * q_int(nu + 1) for nu in range(abs(m - n), m + n + 1, 2)), Q_ZERO)
                assert acts * q_int(n + 1) == traced, (m, k, n)


def test_internal_basis_round_trip():
    # E-basis coefficients in, E-basis coefficients out; E' = (q - q^-1) E
    a, c = q_power(3) * QMQ ** 2, QMQ * q_int(2)
    x = UqElement({(1, -1, 2): a, (0, 2, 0): 5, (0, 0, 1): c})
    assert x._terms == {(1, -1, 2): q_power(3), (0, 2, 0): QRat.integer(5), (0, 0, 1): q_int(2)}
    assert x.terms == {(1, -1, 2): a, (0, 2, 0): QRat.integer(5), (0, 0, 1): c}
    assert x.coefficient((1, -1, 2)) == a
    assert x.coefficient((2, 0, 2)).is_zero()
    assert x.sorted_terms() == sorted(x.terms.items())
    ep = UqElement.monomial(0, 0, 1, QMQ)
    assert ep == GEN_EP
    # E' F = F E' + K - K^-1 has integer coefficients
    assert ep * GEN_F - GEN_F * ep == GEN_K - GEN_KINV


def test_e_prime_is_written_and_e_is_not():
    # (q - q^-1) E is E', stored with coefficient 1
    ep = UqElement({(0, 0, 1): QMQ})
    assert ep._terms == {(0, 0, 1): Q_ONE} and ep == GEN_EP
    # E alone, and (q - q^-1) F K E^2, lie outside the integral form
    for terms in ({(0, 0, 1): 1}, {(1, 1, 2): QMQ}, {(0, 0, 3): QMQ ** 2 * q_int(3)}):
        with pytest.raises(DomainError, match="does not divide"):
            UqElement(terms)
    with pytest.raises(DomainError, match="does not divide"):
        UqElement.monomial(0, 0, 1)


def test_casimir_pipeline_stays_laurent():
    # every entry of R_V, Rt_V, K_V and Gamma_V^k lies in the integral form:
    # its E-basis coefficients are (q - q^-1)^c times Laurent polynomials,
    # which the E-basis constructor divides out again
    for m in range(5):
        V = SimpleModule(m)
        G = gamma_by_products(V)
        mats = [quasi_R(V), quasi_R_tilde_T(V), K_operator(V), G, G * G]
        for M in mats:
            for row in M.rows:
                for e in row:
                    assert UqElement(e.terms)._terms == e._terms, m


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
    assert not is_central(GEN_EP)
    assert not is_central(GEN_K)
    for m in range(5):
        V = SimpleModule(m)
        for k in (1, 2, 3):
            assert is_central(casimir(V, k)), (m, k)


def test_lemma_checks_report_a_broken_operator(monkeypatch):
    V = SimpleModule(2)
    # K_V with K^(w+2) in place of K^w on e_0
    rows = [list(row) for row in K_operator(V).rows]
    rows[0][0] = UqElement.monomial(0, V.weights[0] + 2, 0)
    monkeypatch.setattr(oracles, "K_operator", lambda V: UqMatrix(rows))
    failed = [item.name for item in check_K_intertwining(V).items if not item.passed]
    assert "K_V (zeta(E) (x) 1) twists by K^2" in failed
    # Gamma_V with one entry scaled by q: a scalar still commutes with Delta(K)
    rows = [list(row) for row in gamma_by_products(V).rows]
    rows[0][1] = rows[0][1].scale(q_power(1))
    monkeypatch.setattr(oracles, "gamma_by_products", lambda V: UqMatrix(rows))
    rep = check_gamma_intertwines(V)
    failed = [item.name for item in rep.items if not item.passed]
    assert "[Gamma, Delta(E)] = 0" in failed
    assert "[Gamma, Delta(K)] = 0" not in failed


def test_quasi_R_module_level_intertwining():
    # R_V (zeta (x) id)Delta(x) == (zeta (x) id)(phi Delta'(x)) R_V
    for m in range(4):
        R = quasi_R(SimpleModule(m))
        for gen in ("E", "F", "K"):
            lhs = R * coproduct_matrix(m, gen)
            rhs = coproduct_matrix(m, gen, "phi") * R
            assert lhs == rhs, (m, gen)


def test_centrality_and_intertwining_beyond_m4():
    # wider than acceptance criterion 7: m = 5..8 at k = 1 with the
    # Harish-Chandra image, m = 5, 6 at k = 2, and the Gamma_V / K_V lemmas
    # for every m <= 8
    t0 = time.perf_counter()
    a1 = build_root_system("A", 1)
    for m in range(5, 9):
        C = casimir(SimpleModule(m), 1)
        assert is_central(C), m
        assert hc_project(C) == {w[0]: c for w, c in xi_simple(a1, (m,)).items()}
    for m in (5, 6):
        assert is_central(casimir(SimpleModule(m), 2)), m
    for m in range(9):
        for check in (check_gamma_intertwines, check_K_intertwining):
            rep = check(SimpleModule(m))
            assert rep.ok, (m, rep.lines())
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0, f"{elapsed:.1f}s over the 15 s budget"


def test_hc_project():
    assert hc_project(casimir(SimpleModule(1), 1)) == {1: 1, -1: 1}
    assert hc_project(casimir(SimpleModule(2), 1)) == {2: 1, 0: 1, -2: 1}
    assert hc_project(UQ_ONE) == {0: 1}
    with pytest.raises(DomainError):
        hc_project(GEN_EP)  # not in the zero-grade subalgebra


def test_hc_consistency_with_character_ring():
    a1 = build_root_system("A", 1)
    for m in range(5):
        image = hc_project(casimir(SimpleModule(m), 1))
        xs = xi_simple(a1, (m,))
        assert image == {w[0]: c for w, c in xs.items()}
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
        assert all(c == c.constant_value() for c in sol), m
    # the degree-2 Casimir of the 2-dimensional module, re-derived
    sol = express_in_powers(casimir(SimpleModule(1), 2), C1, 2)
    assert [c.render() for c in sol] == ["-q^-1 - q^-3", "0", "q^-1"]
    assert express_in_powers(GEN_EP, C1, 3) is None


@cache
def _fraction_field():
    """sympy's field Q(q) of rational functions over ZZ, and its generator q."""
    sympy = pytest.importorskip("sympy")
    return sympy.field("q", sympy.ZZ)


def _in_field(x):
    """The Laurent polynomial x as an element of sympy's Q(q)."""
    field, q = _fraction_field()
    return sum((c * q ** (x.qpow + i) for i, c in enumerate(x.num) if c), field(0))


def _solution_in_field(sol):
    return None if sol is None else [_in_field(c) for c in sol]


def _field_solve(target, base, max_degree):
    """Reference for express_in_powers: Gauss-Jordan over Q(q) on E-basis coefficients.

    The arithmetic is that of sympy's field Q(q), which shares no code with
    ``qrational``; the solution is a list of its elements, or None.
    """
    field, _ = _fraction_field()
    powers = [UQ_ONE]
    for _ in range(max_degree):
        powers.append(powers[-1] * base)
    mons = sorted(set(target.terms).union(*[set(p.terms) for p in powers]))
    rows = [[_in_field(p.coefficient(mon)) for p in powers] + [_in_field(target.coefficient(mon))]
            for mon in mons]
    pivots, piv = [], 0
    for col in range(len(powers)):
        r = next((i for i in range(piv, len(rows)) if rows[i][col] != 0), None)
        if r is None:
            continue
        rows[piv], rows[r] = rows[r], rows[piv]
        rows[piv] = [x / rows[piv][col] for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
        pivots.append((col, piv))
        piv += 1
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in rows):
        return None
    sol = [field(0)] * len(powers)
    for col, r in pivots:
        sol[col] = rows[r][-1]
    return sol


def test_express_in_powers_matches_field_elimination():
    from uqcentre.uq_rank1 import express_in_powers

    rng = random.Random(41)

    def rand_coeff():
        return QRat(rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(3)), (1,))

    bases = [casimir(SimpleModule(1), 1), casimir(SimpleModule(2), 1),
             GEN_F * GEN_EP + GEN_K.scale(q_power(2)),
             # images whose extreme K-power is the lowest one
             UQ_ONE + GEN_KINV, GEN_F * GEN_EP + GEN_KINV.scale(q_power(-1) + 3)]
    for base in bases:
        for degree in (1, 2, 3):
            coeffs = [rand_coeff() for _ in range(degree + 1)]
            target, p = UQ_ZERO, UQ_ONE
            for c in coeffs:
                target = target + p.scale(c)
                p = p * base
            assert express_in_powers(target, base, degree) == coeffs
            assert _field_solve(target, base, degree) == _solution_in_field(coeffs)
            # an extra power leaves a free unknown, set to 0 by both
            sol = express_in_powers(target, base, degree + 1)
            assert sol == coeffs + [Q_ZERO]
            assert _solution_in_field(sol) == _field_solve(target, base, degree + 1)
    # rank-deficient: all powers of a scalar are proportional
    scalar = UQ_ONE.scale(q_power(1) + 2)
    for target in (UQ_ONE.scale(q_power(-3)), GEN_EP, GEN_K + 1):
        sol = express_in_powers(target, scalar, 3)
        assert _solution_in_field(sol) == _field_solve(target, scalar, 3)
    for m in range(5):
        Cm = casimir(SimpleModule(m), 1)
        C1 = casimir(SimpleModule(1), 1)
        sol = express_in_powers(Cm, C1, m)
        assert _solution_in_field(sol) == _field_solve(Cm, C1, m)


def test_express_in_powers_returns_none_for_a_solution_outside_laurent_polynomials():
    # C^(1) = (1/2) (2 C^(1)): the one solution over Q(q) has a coefficient 1/2
    from uqcentre.uq_rank1 import express_in_powers

    field, _ = _fraction_field()
    C1 = casimir(SimpleModule(1), 1)
    for factor, degree in ((2, 1), (2, 3), (q_power(1) + 1, 2)):
        base = C1.scale(factor)
        expected = [field(0)] * (degree + 1)
        expected[1] = 1 / _in_field(QRat.coerce(factor))
        assert _field_solve(C1, base, degree) == expected
        assert express_in_powers(C1, base, degree) is None


@pytest.mark.parametrize("k", [2, 3])
def test_higher_casimirs_in_powers_match_field_elimination(k):
    # m >= 3 has no solution: the image system alone must prove it
    from uqcentre.uq_rank1 import express_in_powers

    for m in range(6):
        V = SimpleModule(m)
        Ck, C1 = casimir(V, k), casimir(V, 1)
        sol = express_in_powers(Ck, C1, k)
        assert _solution_in_field(sol) == _field_solve(Ck, C1, k), m
        assert (sol is None) == (m >= 3), m


def test_express_in_powers_certifies_the_image_solution():
    from uqcentre.uq_rank1 import express_in_powers

    C1 = casimir(SimpleModule(1), 1)
    # C1 + E' has the image of C1, so the image system is solved by c = (0, 1, 0)
    target = C1 + GEN_EP
    assert express_in_powers(target, C1, 2) is None
    assert _field_solve(target, C1, 2) is None
    # F E' + 1 is not a scalar but its image is: F E' + 2 = base + 1, which
    # the image cannot find, so the solve refuses rather than answer None
    base = GEN_F * GEN_EP + 1
    assert _field_solve(base + 1, base, 1) == _solution_in_field([Q_ONE, Q_ONE])
    with pytest.raises(DomainError):
        express_in_powers(base + 1, base, 1)
    assert express_in_powers(UQ_ONE.scale(3), base, 2) == [QRat.integer(3), Q_ZERO, Q_ZERO]
    with pytest.raises(DomainError):
        express_in_powers(C1, GEN_EP, 2)  # a base outside the zero-grade subalgebra


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


@pytest.mark.parametrize("mon", [(-1, 0, 0), (0, 0, -1), (-2, 1, -1)])
def test_negative_f_or_e_exponents_raise_domain_error(mon):
    with pytest.raises(DomainError, match="nonnegative"):
        UqElement({mon: 1})
    with pytest.raises(DomainError, match="nonnegative"):
        UqElement.monomial(*mon)
    # a negative K exponent is K^-1, which is allowed
    assert UqElement({(0, -1, 0): 1}) == GEN_KINV


@pytest.mark.parametrize("mon", [(1.5, 0, 0), (0, 0.5, 0), (0, 0), (0, 0, 0, 0), "abc",
                                 (True, 0, 0), (0, False, 0), (0, 0, True)])
def test_malformed_monomials_raise_domain_error(mon):
    # F^1.5 and K^0.5 would render, a short key would raise IndexError, and a
    # bool exponent would be written as true or false by to_json
    with pytest.raises(DomainError, match="triple of int exponents"):
        UqElement({mon: 1})


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None])
def test_qrat_constructor_rejects_an_exponent_or_coefficient_that_is_not_an_int(bad):
    # q^0.5 would render and reach to_json; a float coefficient would fail inside the codec
    for qpow, num, den in ((bad, (1,), (1,)), (0, (1, bad), (1,)), (0, (1,), (bad, 1))):
        with pytest.raises(DomainError, match="ints"):
            QRat(qpow, num, den)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None])
def test_q_power_rejects_an_exponent_that_is_not_an_int(bad):
    # q_power(0.5) + q_power(1) would fail with a bare TypeError
    with pytest.raises(DomainError, match="ints"):
        q_power(bad)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None])
def test_shift_rejects_an_exponent_that_is_not_an_int(bad):
    for x in (q_power(1), Q_ZERO, q_power(1) + 1):
        with pytest.raises(DomainError, match="ints"):
            x.shift(bad)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None])
def test_simple_module_rejects_a_label_that_is_not_an_int(bad):
    # SimpleModule(True) would equal SimpleModule(1)
    with pytest.raises(DomainError, match="int >= 0"):
        SimpleModule(bad)

"""Symbolic U_q(sl2): normal ordering, modules, quasi R-matrix, Casimirs.

Elements are finite sums of normally ordered monomials ``F^a K^b E'^c``
of the rescaled generator E' = (q - q^-1) E, with coefficients in
Z[q, q^-1]: the integral form of De Concini, Kac and Procesi.  The defining
relations are

    K E' = q^2 E' K,   K F = q^-2 F K,   E' F - F E' = K - K^-1,

and the straightening rule

    E' F^a = F^a E' + [a] (q^(1-a) F^(a-1) K - q^(a-1) F^(a-1) K^-1)

has Laurent-polynomial coefficients.  With E' K^b = q^(-2b) K^b E' it gives
E' times a normally ordered monomial (:func:`_left_e`), the one rule from
which every product and the centrality test are built.  The coefficient
of ``F^a K^b E^c`` is ``(q - q^-1)^c`` times the stored coefficient of
``F^a K^b E'^c``.  Conversion happens only at the public
boundary: the constructor and ``monomial`` take E-basis coefficients and
divide them by (q - q^-1)^c, which must leave them in Z[q, q^-1] (so E
itself cannot be written, and E' = (q - q^-1) E can), and ``terms``,
``coefficient``, ``sorted_terms``, ``render``, ``to_json`` and
``iter_json`` give them back, so callers never see the E' basis.

A product L R is formed from the levels R, E' R, E'^2 R, ..., each the
normal form of E' times the one before, built up to the largest
E'-exponent of the left factor; a level depends on its exponent and R
alone.  The left term r1 F^a1 K^b1 E'^c then adds r1 p q^(-2 b1 x) to
F^(a1+x) K^(b1+y) E'^z for every term p F^x K^y E'^z of level c: moving
K^b1 past F^x is a shift applied after the level is built, and r1 is
multiplied once per output monomial.  Powers of q are applied as shifts,
never as products: each term of a product or a Casimir is one packed
multiply-accumulate (:func:`qrational.mul_add`) into the running sum of
its output monomial, and each product or Casimir is made canonical once,
when it is finished (:func:`qrational.finished`).

The Casimirs are the weighted partial traces

    C^(k)_V = Tr_1((K_2rho (x) 1) Gamma_V^k)

of Drinfeld's Gamma_V = K_V Rt_V R_V on a simple module V, with K_V the
diagonal operator sum_eta P_eta (x) K_2eta and R_V, Rt_V the quasi
R-matrix and its transposed twin taken on V; they are central.  Gamma_V
is never formed: C^(1)_L(n) is one closed formula per monomial
(:func:`casimir`),

    C^(1)_L(n) = sum (q - q^-1)^i [j+i choose i] [n-j choose i]
                     q^(-(i-1)(w-i)) F^i K^(w-i) E'^i,   w = n - 2j,

over 0 <= j <= n and 0 <= i <= n - j.  Every higher Casimir is a signed
sum of these closed forms, by a q-twisted Adams operation:

    C^(k)_L(m) = q^(-k c(m)) sum_nu a_nu q^(c(nu)/k) C^(1)_L(nu),

with c(n) = n(n+2)/2 and psi^k[L(m)] = sum_nu a_nu [L(nu)] the k-th Adams
operation in the simple characters.  At rank 1 the Racah-Speiser rule for
the a_nu is a sign rule on the weights of L(m) (:func:`_adams_terms`), and
every exponent is an integer.  The identity follows from Drinfeld's
eigenvalues of Gamma_V on V (x) L(n) and Weyl's formula, as
:func:`casimir` proves; so C^(k) is formed with one
:func:`qrational.mul_add` per monomial of the C^(1)_L(nu), and no product
of elements, for every k.

The matrices R_V, Rt_V, K_V and Gamma_V, with their entries, and the
trace of Gamma_V^k as a product of matrices, are built only by
``tests/oracles.py``, as the oracles of these closed forms, which also
check the intertwining identities of Gamma_V and K_V, steps of the proof
that C^(k)_V is central.  The library shows centrality by direct
commutation (:func:`is_central`).  Every coefficient is a Laurent
polynomial, so the whole Casimir pipeline never needs a polynomial gcd.

Every such coefficient is moreover q^e P(q^2), with exponents of one
parity, which ``qrational`` packs in q^2 at half the length.  [a] lies in
q^(1-a) Z[q^2], so the factors [a] q^(+-(1-a)) and q^(-2b) of
:func:`_left_e` lie in Z[q^(+-2)], and each coefficient of E' X is a sum of
coefficients of X times such factors.  So when the coefficients of R have
exponents of one parity, those of every level E'^c R do too, and E'^c F^a
lies in Z[q^(+-2)].  The q-Pascal rule
[n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1] adds two terms of valuation
-k(n-k), so by induction [n k] lies in q^(-k(n-k)) Z[q^2]; the parity of
the Casimirs' coefficients follows (:func:`casimir`).
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError
from .qrational import Q_ONE, Q_ZERO, QRat, finished, laurent_quotient, mul_add, q_int, q_power

Mon = tuple[int, int, int]  # exponents (a, b, c) of F^a K^b E^c

_QMQ = q_power(1) - q_power(-1)  # q - q^-1


@cache
def _qmq_power(c: int) -> QRat:
    """(q - q^-1)^c: the factor from E'-basis to E-basis coefficients."""
    return _QMQ ** c


class UqElement:
    """A normally ordered element of U_q(sl2); immutable.

    ``_terms`` maps (a, b, c) to the coefficient of ``F^a K^b E'^c``; the
    public ``terms`` are those of ``F^a K^b E^c``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """The element sum coeff * F^a K^b E^c over ``{(a, b, c): coeff}``.

        Each key must be a triple of ints (not bools) with a, c >= 0, and
        (q - q^-1)^c must divide each coeff in Z[q, q^-1]; DomainError
        otherwise.
        """
        clean = {}
        if terms:
            for mon, coeff in terms.items():
                if not (isinstance(mon, tuple) and len(mon) == 3
                        and all(type(e) is int for e in mon)):
                    raise DomainError(f"a monomial is a triple of int exponents, not {mon!r}")
                if mon[0] < 0 or mon[2] < 0:
                    raise DomainError("F and E exponents must be nonnegative")
                coeff = QRat.coerce(coeff)
                if mon[2]:
                    try:
                        coeff = laurent_quotient(coeff, _qmq_power(mon[2]))
                    except ArithmeticError:
                        raise DomainError(f"(q - q^-1)^{mon[2]} does not divide {coeff} "
                                          f"at {mon!r} in Z[q, q^-1]") from None
                if not coeff.is_zero():
                    clean[mon] = coeff
        self._terms = clean

    @classmethod
    def _stored(cls, terms: dict) -> "UqElement":
        """The element with nonzero E'-basis coefficients ``terms`` (not copied)."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1) -> "UqElement":
        return cls({(a, b, c): coeff})

    @property
    def terms(self) -> dict[Mon, QRat]:
        """Coefficients in the F^a K^b E^c basis."""
        return {
            mon: coeff * _qmq_power(mon[2]) if mon[2] else coeff
            for mon, coeff in self._terms.items()
        }

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, (int, QRat)):
            other = UqElement({(0, 0, 0): other})
        return isinstance(other, UqElement) and self._terms == other._terms

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if self._terms.keys() <= {(0, 0, 0)}:
            return hash(self._terms.get((0, 0, 0), Q_ZERO))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, QRat)):
            other = UqElement({(0, 0, 0): other})
        elif not isinstance(other, UqElement):
            return NotImplemented
        out = dict(self._terms)
        for mon, c in other._terms.items():
            v = out.get(mon, Q_ZERO) + c
            if v.is_zero():
                out.pop(mon, None)
            else:
                out[mon] = v
        return UqElement._stored(out)

    __radd__ = __add__

    def __neg__(self):
        return UqElement._stored({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, QRat, UqElement)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, QRat)):
            return NotImplemented
        return (-self) + other

    def scale(self, coeff) -> "UqElement":
        coeff = QRat.coerce(coeff)
        if coeff.is_zero():
            return UQ_ZERO
        return UqElement._stored({m: c * coeff for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, QRat)):
            return self.scale(other)
        if not isinstance(other, UqElement):
            return NotImplemented
        out: dict = {}
        _mul_into(out, self._terms, [list(other._terms.items())])
        return UqElement._stored(finished(out))

    def __rmul__(self, other):
        if isinstance(other, (int, QRat)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined in U_q(sl2)")
        out = UQ_ONE
        for _ in range(n):
            out = out * self
        return out

    def coefficient(self, mon: Mon) -> QRat:
        coeff = self._terms.get(mon, Q_ZERO)
        return coeff * _qmq_power(mon[2]) if mon[2] else coeff

    def sorted_terms(self):
        return sorted(self.terms.items())

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (a, b, c), coeff in self.sorted_terms():
            factors = []
            if a:
                factors.append("F" if a == 1 else f"F^{a}")
            if b:
                factors.append("K" if b == 1 else f"K^{b}")
            if c:
                factors.append("E" if c == 1 else f"E^{c}")
            cs = coeff.render()
            if not factors:
                parts.append(f"({cs})" if " " in cs else cs)
                continue
            mono = "·".join(factors)
            if coeff.is_one():
                parts.append(mono)
            elif " " in cs or cs.startswith("-"):
                parts.append(f"({cs})·{mono}")
            else:
                parts.append(f"{cs}·{mono}")
        return " + ".join(parts)

    __repr__ = render

    def iter_json(self):
        """The items of :meth:`to_json` in order, each with its E-basis coefficient as a ``QRat``.

        Each coefficient is converted when it is reached; the JSON writer
        of ``cli`` writes it with :meth:`QRat.json_text`.
        """
        for mon in sorted(self._terms):
            yield [list(mon), self.coefficient(mon)]

    def to_json(self) -> list:
        return [[mon, coeff.to_json()] for mon, coeff in self.iter_json()]


UQ_ZERO = UqElement()
UQ_ONE = UqElement({(0, 0, 0): 1})


def _left_e(acc: dict, terms) -> None:
    """Add E' X to the running sums ``acc``, X given by its stored (monomial, coeff) pairs.

    By the straightening rule and E' K^b = q^(-2b) K^b E',

        E' F^a K^b E'^c = q^(-2b) F^a K^b E'^(c+1)
                          + [a] q^(1-a) F^(a-1) K^(b+1) E'^c
                          - [a] q^(a-1) F^(a-1) K^(b-1) E'^c.
    """
    for (a, b, c), t in terms:
        mul_add(acc, (a, b, c + 1), t, Q_ONE, -2 * b)
        if a:
            qa = q_int(a)
            mul_add(acc, (a - 1, b + 1, c), t, qa, 1 - a)
            mul_add(acc, (a - 1, b - 1, c), t, -qa, a - 1)


def _grow(levels: list, c: int) -> None:
    """Extend the levels [R, E' R, E'^2 R, ...] up to E'^c R, each E' times the one before."""
    while len(levels) <= c:
        acc: dict = {}
        _left_e(acc, levels[-1])
        levels.append(list(finished(acc).items()))


def _mul_into(out: dict, left: dict, levels: list) -> None:
    """Add the product L R of stored terms into ``out``.

    ``out`` holds running sums of :func:`mul_add`; ``finished(out)`` gives the
    product.  ``left`` holds the stored terms of L, and ``levels`` is the list
    [R, E' R, E'^2 R, ...] of stored (monomial, coefficient) pairs, started as
    ``[list(R._terms.items())]``; level c + 1 is E' times level c, added by
    :func:`_grow` when a left E'-exponent first needs it.  It
    belongs to R and may be shared by every product with the same right
    factor.  Moving K^b1 right past F^x gives q^(-2 b1 x).
    """
    for (a1, b1, c1), r1 in left.items():
        if len(levels) <= c1:
            _grow(levels, c1)
        for (x, y, z), p in levels[c1]:
            mul_add(out, (a1 + x, b1 + y, z), r1, p, -2 * b1 * x)


def is_central(x: UqElement) -> bool:
    """Whether x commutes with E, F and K.

    E enters as E' = (q - q^-1) E.  For a term t F^a K^b E'^c,

        [K, t F^a K^b E'^c] = (q^(-2a) - q^(-2c)) t F^a K^(b+1) E'^c,

    which sends distinct terms to distinct monomials, so x commutes with K
    iff every term has a = c.  Then [E', x] is E' x (:func:`_left_e`) minus
    the terms t F^a K^b E'^(c+1) of x E'.  Such an x that commutes with E'
    commutes with F too.  By the straightening rule, E' F - F E' = K - K^-1,
    so y = [F, x] has [E', y] = [K - K^-1, x] + [F, [E', x]] = 0, and every
    term of y has a = c + 1.  Let a0 be the least F-exponent of y and Y(K)
    its part F^a0 Y(K) E'^(a0-1).  By the rule for E' F^a K^b E'^c, the
    monomials F^(a0-1) K^b E'^(a0-1) of [E', y] come from that part alone,
    and sum to F^(a0-1) [a0] (q^(1-a0) K - q^(a0-1) K^-1) Y(K) E'^(a0-1);
    Laurent polynomials in K over Q(q) form a domain, so Y = 0, and hence
    y = 0.
    """
    terms = x._terms
    if any(a != c for a, _, c in terms):
        return False
    acc: dict = {}
    _left_e(acc, terms.items())
    for (a, b, c), t in terms.items():
        mul_add(acc, (a, b, c + 1), -t, Q_ONE)
    return not finished(acc)


# -- the operators on V (x) U_q(sl2) -----------------------------------------


@cache
def _q_binomial(n: int, k: int) -> QRat:
    """The balanced q-binomial [n choose k] = [n]! / ([k]! [n-k]!), 0 <= k <= n.

    Built by the q-Pascal rule [n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1],
    with shifts and sums only: the two terms lie in q^(-k(n-k)) Z[q^2].
    """
    if k == 0 or k == n:
        return Q_ONE
    return _q_binomial(n - 1, k).shift(k) + _q_binomial(n - 1, k - 1).shift(k - n)


class SimpleModule:
    """The (m+1)-dimensional simple module L(m varpi), known by its label m.

    Basis e_0..e_m with K e_j = q^(m-2j) e_j, E e_j = [j] e_(j-1) and
    F e_j = [m-j] e_(j+1); no module matrix is stored.  Modules with the
    same m compare equal.
    """

    def __init__(self, m: int):
        if type(m) is not int or m < 0:
            raise DomainError(f"highest weight label must be an int >= 0, not {m!r}")
        self.m = m
        self.dim = m + 1

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.m - 2 * j for j in range(self.dim))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleModule) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self):
        return f"SimpleModule(m={self.m})"


def _adams_terms(m: int, k: int) -> list[tuple[int, int, int]]:
    """The terms (nu, a, e) of C^(k)_L(m) = sum a q^e C^(1)_L(nu); see :func:`casimir`.

    The a are the coefficients of the Adams operation psi^k[L(m)] in the
    simple characters, by the Racah-Speiser rule: a weight mu of L(m) gives
    nu = k mu with a = +1 when mu >= 0, and nu = k|mu| - 2 with a = -1 when
    mu < 0, reflecting k mu + 1 to the dominant side; k mu + 1 = 0 lies on
    the wall and gives nothing.  The exponent is
    e = c(nu)/k - k c(m) = mu + k(mu^2 - m(m+2))/2, with c(n) = n(n+2)/2, an
    integer as mu = m mod 2.  For k >= 2 no two mu give the same nu
    (k mu and k|mu| - 2 differ mod 4 for k = 2 and mod k for k >= 3), and for
    k = 1 every other term cancels, leaving (m, 1, 0): each a is +-1.
    """
    coeff: dict = {}
    shift = {}
    for mu in range(m, -m - 1, -2):
        if k * mu + 1:
            nu, a = (k * mu, 1) if mu >= 0 else (-k * mu - 2, -1)
            coeff[nu] = coeff.get(nu, 0) + a
            shift[nu] = mu + k * (mu * mu - m * (m + 2)) // 2
    return [(nu, a, shift[nu]) for nu, a in coeff.items() if a]


def casimir(V: SimpleModule, k: int) -> UqElement:
    """C^(k)_V = Tr_1((K_2rho (x) 1) Gamma_V^k); central for every k >= 1.

    K_2rho acts as zeta(K) in rank 1, so for V = L(n)
    C^(1)_V = sum_j q^(w_j) (Gamma_V)_jj, w_j = n - 2j, and the entry (j, j)
    of Gamma_V = K_V Rt_V R_V is the sum over i of
    K^(w_j) (Rt_V)_(j, j+i) (R_V)_(j+i, j).  With
    c_i E^i = q^(i(i-1)/2) E'^i / [i]! and the divided powers
    F^(i) e_j = [n-j choose i] e_(j+i) and E^(i) e_t = [t choose i] e_(t-i):

    * (R_V)_(j+i, j) = q^(i(i-1)/2) [n-j choose i] E'^i;
    * (Rt_V)_(j, j+i) = (q - q^-1)^i q^(i(i-1)/2 + i(w_j - 2i)) [j+i choose i] K^-i F^i,
      and K^-i F^i = q^(2i^2) F^i K^-i;
    * K^(w_j) F^i K^-i E'^i = q^(-2i w_j) F^i K^(w_j - i) E'^i.

    Summing the exponents with the trace weight's w_j gives
    (i-1)(i - w_j), so the term (j, i) is

        (q - q^-1)^i [j+i choose i] [n-j choose i] q^(-(i-1)(w_j-i)) F^i K^(w_j-i) E'^i,

    and distinct (j, i) give distinct monomials: one
    :func:`qrational.mul_add` per monomial, with no table and no product of
    elements.  Every factor lies in q^s Z[q^(+-2)] ((q - q^-1)^i for s = i,
    [N choose i] for s = -i(N-i)), so the term's exponents have the parity
    of i + ij + i(n-j-i) + (i-1)(w_j-i) = n = b + i mod 2 at F^i K^b E'^i; and
    as every shift e below is (1-k)m mod 2, each coefficient of C^(k) has
    exponents of one parity, which ``qrational`` packs in q^2.

    Every higher Casimir is a signed sum of these closed forms, a q-twisted
    Adams operation (:func:`_adams_terms`):

        C^(k)_L(m) = q^(-k c(m)) sum_nu a_nu q^(c(nu)/k) C^(1)_L(nu),

    with c(n) = n(n+2)/2 and psi^k[L(m)] = sum_nu a_nu [L(nu)]; each term of
    each C^(1)_L(nu) is one :func:`qrational.mul_add` with the q-power as its
    shift.  The proof compares the scalars by which both sides act on every
    L(n); central elements that agree on every L(n) are equal, as the
    Harish-Chandra map is injective on the centre (Jantzen, ch. 6).

    * Gamma_V acts on the L(nu)-component of V (x) L(n) by
      q^(c(nu) - c(n) - c(m)) (Drinfeld 1990), and the quantum partial trace
      of the projection to it is [nu+1]/[n+1] times the identity.  So
      C^(k)_V acts on L(n) by sum_nu q^(k(c(nu) - c(n) - c(m))) [nu+1]/[n+1]
      over the Clebsch-Gordan components nu of V (x) L(n).
    * The summand is odd in x = nu + 1, so by Brauer's cancellation that is
      the sum over the weights mu of V of the same expression at
      x = n + 1 + mu.  With Z = q^(n+1) and
      g(x) = q^((x^2 - 1)/(2k)) Z^x, it is
      q^(-k c(m)) sum_mu (g(k mu + 1) - g(k mu - 1)) / ((q - q^-1) [n+1]),
      and as the weights are symmetric, mu -> -mu turns the second sum
      into that of g(-(k mu + 1)).  So each mu gives A(k mu + 1), with A
      the odd function A(x) = g(x) - g(-x).
    * A(0) = 0 and A(-x) = -A(x): each weight gives a_nu A(nu + 1) by the
      sign rule of :func:`_adams_terms`, and
      A(nu + 1) = q^(c(nu)/k) (Z^(nu+1) - Z^(-nu-1)).  At k = 1 the same
      computation shows that C^(1)_L(nu) acts on L(n) by
      q^(-c(nu)) A_1(nu + 1) / ((q - q^-1) [n+1]) with
      A_1(nu + 1) = q^(c(nu)) (Z^(nu+1) - Z^(-nu-1)), so each a_nu A(nu + 1)
      is a_nu q^(c(nu)/k) times (q - q^-1) [n+1] times the scalar of
      C^(1)_L(nu); the identity follows.

    Every term is a Laurent coefficient, so no division is made.
    """
    if type(k) is not int or k < 1:
        raise DomainError(f"k must be >= 1 and an int, not {k!r}")
    acc: dict = {}
    for n, a, e in _adams_terms(V.m, k):
        for i in range(n + 1):
            u = _qmq_power(i) if a > 0 else -_qmq_power(i)
            for j in range(n - i + 1):
                w = n - 2 * j
                mul_add(acc, (i, w - i, i), u * _q_binomial(j + i, i), _q_binomial(n - j, i),
                        e - (i - 1) * (w - i))
    return UqElement._stored(finished(acc))


def _check_zero_grade(x: UqElement) -> None:
    """Raise DomainError unless every monomial F^a K^b E^c of x has a = c."""
    for a, b, c in x._terms:
        if a != c:
            raise DomainError(
                f"monomial F^{a} K^{b} E^{c} is outside the zero-grade subalgebra"
            )


def _hc_image(x: UqElement) -> dict[int, QRat]:
    """The Harish-Chandra image {K-power: coefficient} of x.

    The terms F^0 K^b E^0 of x are kept, each shifted by q^-b; every other
    term is projected away.  The map is linear.  On the zero-grade
    subalgebra U_0 it is an algebra map, because U_0 meets F U E in a
    two-sided ideal of U_0, and the shift K -> q^-1 K is an automorphism of
    the Laurent polynomials in K.
    """
    # with a = c = 0 the stored coefficient is the public one
    return {b: coeff.shift(-b) for (a, b, c), coeff in x._terms.items() if a == c == 0}


def express_in_powers(
    target: UqElement, base: UqElement, max_degree: int
) -> list[QRat] | None:
    """Coefficients c_j with ``target = sum c_j base^j``, or None.

    The base must lie in the zero-grade subalgebra U_0 = span{F^a K^b E^a};
    DomainError is raised otherwise, and for a negative ``max_degree``.  The
    system is solved in the Harish-Chandra image (:func:`_hc_image`).  The
    image is linear, and on U_0 it is an algebra map, so it sends a solution
    in U_q(sl2) to a solution in the image: an inconsistent image system
    proves that no solution exists, for any target.

    * When the image p of the base is not a scalar, let e be its largest
      K-exponent if that is positive, else its smallest.  Then p^j has
      extreme exponent j e, which no lower power reaches, so the powers of p
      are linearly independent and the solution is unique: for j =
      ``max_degree`` down to 0, c_j is the coefficient of K^(j e) left in the target's image,
      divided by that of K^e in p to the j-th power, and c_j p^j is
      subtracted.  The system is consistent iff nothing is left.  If a
      division is inexact, the one solution over Q(q) has a coefficient
      outside Z[q, q^-1], so no solution exists and None is returned.
    * When the image of the base is a scalar, every power of it is, so the
      image system is consistent iff the target's image is a scalar t_0;
      the answer is then (t_0, 0, ..., 0), the higher unknowns being free
      and set to 0.

    A solution c of the image system is certified by forming sum c_j base^j
    once and comparing it with the target.  If they differ, None is
    returned, since c was the only candidate or (for a scalar base) the
    target is not a scalar; but when the base is not a scalar and its image
    is, as for F E + 1, the image loses the information needed to decide,
    and DomainError is raised.  Used to express higher Casimirs as
    polynomials in the degree-one Casimir; on the centre the image is
    injective (Jantzen, Lectures on Quantum Groups, ch. 6).
    """
    if type(max_degree) is not int or max_degree < 0:
        raise DomainError(f"max_degree must be >= 0 and an int, not {max_degree!r}")
    _check_zero_grade(base)
    image, rest = _hc_image(base), _hc_image(target)
    if image.keys() <= {0}:
        if not rest.keys() <= {0}:
            return None
        sol = [rest.get(0, Q_ZERO)] + [Q_ZERO] * max_degree
    else:
        e = max(image) if max(image) > 0 else min(image)
        powers = [{0: Q_ONE}]
        for _ in range(max_degree):
            acc: dict = {}
            for b1, c1 in powers[-1].items():
                for b2, c2 in image.items():
                    mul_add(acc, b1 + b2, c1, c2)
            powers.append(finished(acc))
        sol = [Q_ZERO] * (max_degree + 1)
        for j in range(max_degree, -1, -1):
            if j * e in rest:
                try:
                    sol[j] = c = laurent_quotient(rest[j * e], powers[j][j * e])
                except ArithmeticError:
                    return None
                for b, coeff in powers[j].items():
                    v = rest.get(b, Q_ZERO) - c * coeff
                    if v.is_zero():
                        rest.pop(b, None)
                    else:
                        rest[b] = v
        if rest:
            return None
    total = UQ_ZERO
    for c in reversed(sol):  # Horner
        total = total * base + c
    if total == target:
        return sol
    if image.keys() <= {0} and not base._terms.keys() <= {(0, 0, 0)}:
        raise DomainError(
            "the base has a scalar Harish-Chandra image but is not a scalar, "
            "so the image cannot decide the system"
        )
    return None


def hc_project(x: UqElement) -> dict[int, int]:
    """Harish-Chandra image of a zero-grade element, as {K-power: coefficient}.

    Monomials with balanced positive E/F powers are projected away; the
    remaining K^b coefficients are shifted by q^-b.  The input must be in the
    zero-grade subalgebra (every monomial with a = c), and the shifted
    coefficients must be q-independent integers, as they are for the central
    elements this is applied to.
    """
    _check_zero_grade(x)
    return {b: coeff.constant_value() for b, coeff in _hc_image(x).items()}

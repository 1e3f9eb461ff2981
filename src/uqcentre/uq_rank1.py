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
K^b1 past F^x is a shift applied after the level is built, and r1, the
large coefficient in M^(k-1), is multiplied once per output monomial.
A matrix product shares the levels of each right entry down its column,
so every row reuses them, and nothing outlives the product.  Powers of
q are applied as shifts, never as products: each term of a product is one
packed multiply-accumulate (:func:`qrational.mul_add`) into the running
sum of its output monomial, and each product, matrix entry or Casimir
trace is made canonical once, when it is finished
(:func:`qrational.finished`).

From the (m+1)-dimensional simple module V the three operators

    R_V      = sum_n c_n  zeta(F^n) (x) E^n,
    Rt_V     = sum_n c_n  zeta(E^n K^n) (x) K^-n F^n,
    K_V      = sum_eta P_eta (x) K_2eta   (diagonal),

with c_n = q^(n(n+1)/2) (1-q^-2)^n / [n]!, define
Gamma_V = K_V Rt_V R_V, whose weighted partial traces

    C^(k)_V = Tr_1((K_2rho (x) 1) Gamma_V^k)

are central.  Each term K^(w_l) kappa F^n K^-n rho E'^n' of an entry of
Gamma_V is already the normally ordered monomial
q^(-2n w_l) kappa rho F^n K^(w_l - n) E'^n', and the terms of one entry
fall on distinct monomials, so Gamma_V is written down in closed form, one
coefficient product per term and no product of elements; C^(1)_V is read
off its diagonal the same way.  For k >= 2 the same factors are
regrouped, Gamma_V^k = K_V Rt_V M^(k-1) R_V with M = R_V K_V Rt_V.  This
only reassociates the product, so it is exact.  Each term of
E'^a K^w F^b K^-b in M is a term of E'^a F^b, which is level a of F^b
under the one straightening rule, moved to a new monomial with a shift of
q; so M too is written down with no product of elements.  M^(k-1) takes
k - 2 matrix products, and the outer factors K_V Rt_V and R_V are applied
to it by re-keying its terms.

Only half of the last factor is formed.  Let theta be the
Z[q, q^-1]-linear anti-involution with theta(E') = F K^-1, theta(F) = K E'
and theta(K) = K.  It takes F^a K^b E'^c to
q^(c(c-1) - a(a-1)) F^c K^(b-c+a) E'^a, so it fixes the zero-grade
subalgebra U^0 pointwise, and it takes (R_V)_(t j) to
(D_j / D_t) (Rt_V)_(j t), with D_t = q^(t(m+1-t)) (q - q^-1)^t / [m choose t].
Hence it takes (M^p)_(t t') to (D_t' / D_t) (M^p)_(t' t), and the D's
cancel around each closed path j -> t -> t' -> j: the trace terms
T_(j,t,t') = (K_V Rt_V)_(j t) (M^(k-1))_(t t') (R_V)_(t' j) and T_(j,t',t)
lie in U^0 and are each other's theta-image, so they are equal (the steps
are in :func:`casimir`).  So only the entries t <= t' of M for k = 2, or of
the last product of M^(k-1) for k >= 3, are formed, each re-keyed into the
trace as soon as it is finished, with coefficient 2 off the diagonal; that
product is never held whole, and D enters no computation.

The products K_V Rt_V R_V and
R_V K_V Rt_V are formed only by the tests, as the oracles of these closed
forms; R_V, Rt_V and K_V as matrices are built only there.  The library shows
centrality by direct commutation (:func:`is_central`); the intertwining
identities of Gamma_V and K_V, steps of the proof, are checked by
``tests/oracles.py``, which builds the module matrices of zeta(E), zeta(F)
and zeta(K) itself.  The truncation of the quasi R-matrix at n = dim V is
exact (zeta(F)^dim V = 0), not an approximation.  Since c_n E^n = q^(n(n-1)/2) E'^n / [n]!, the entries of R_V and Rt_V are
built from the divided powers F^(n) e_j = [m-j choose n] e_(j+n) and
E^(n) e_j = [j choose n] e_(j-n), one balanced q-binomial per nonzero
entry, so every entry of R_V, Rt_V, K_V, Gamma_V and M^(k-1) has stored
coefficients in Z[q, q^-1]: the whole Casimir pipeline runs on Laurent
polynomials and never needs a polynomial gcd.  Nothing of M or its powers
is kept between calls.

Every such coefficient is moreover q^e P(q^2), with exponents of one
parity, which ``qrational`` packs in q^2 at half the length.  [a] lies in
q^(1-a) Z[q^2], so the factors [a] q^(+-(1-a)) and q^(-2b) of
:func:`_left_e` lie in Z[q^(+-2)], and each coefficient of E' X is a sum of
coefficients of X times such factors.  So when the coefficients of R have
exponents of one parity, those of every level E'^c R do too, and E'^c F^a
lies in Z[q^(+-2)].  The q-Pascal rule
[n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1] adds two terms of valuation
-k(n-k), so by induction [n k] lies in q^(-k(n-k)) Z[q^2].  For the
matrices: q -> -q together with K -> -K and F -> -F (E' fixed) preserves
the relations, so it is a ring automorphism psi, and psi multiplies a
coefficient c(q) of F^a K^b E'^c by (-1)^(a+b) as it takes it to c(-q).  It
sends R_V and Rt_V to D R_V D^-1 and D Rt_V D^-1, for the sign matrix
D = diag((-1)^(i(i-1)/2 + i(m+1))), and K_V to (-1)^m K_V.  So every
entry of Gamma_V^k, M^(k-1) and C^(k) is fixed by psi up to one sign, and
each of its coefficients has exponents of one parity.
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


class UqMatrix:
    """A matrix with UqElement entries: an element of End(V) (x) U_q(sl2)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other):
        if isinstance(other, UqMatrix):
            return _assembled(self.dim, _products(self, other))
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, UqMatrix) and self.rows == other.rows

    def __repr__(self):
        return "UqMatrix(%s)" % "; ".join(
            "[" + ", ".join(e.render() for e in row) + "]" for row in self.rows
        )


def _products(left: UqMatrix, right: UqMatrix, upper: bool = False):
    """Yield (i, j, stored terms) for the entries of left right, one column j at a time.

    The levels of right entry (k, j) serve every row of column j
    (:func:`_mul_into`), and each entry is made canonical as it is
    finished.  With ``upper`` only the entries i <= j are formed.
    """
    d = right.dim
    for j in range(d):
        levels = [[list(right.rows[k][j]._terms.items())] for k in range(d)]
        for i, row in enumerate(left.rows[:j + 1] if upper else left.rows):
            out: dict = {}
            for k in range(d):
                _mul_into(out, row[k]._terms, levels[k])
            yield i, j, finished(out)


def _assembled(d: int, entries) -> UqMatrix:
    """The d x d UqMatrix of the (i, j, stored terms) ``entries``, every entry given."""
    rows = [[None] * d for _ in range(d)]
    for i, j, terms in entries:
        rows[i][j] = UqElement._stored(terms)
    return UqMatrix(rows)


class SimpleModule:
    """The (m+1)-dimensional simple module L(m varpi), known by its label m.

    Basis e_0..e_m with K e_j = q^(m-2j) e_j, E e_j = [j] e_(j-1) and
    F e_j = [m-j] e_(j+1); the operators below are built from these
    actions entry by entry, so no module matrix is stored.  Modules with
    the same m compare equal.
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


def _r_entry(m: int, t: int, j: int) -> QRat:
    """The coefficient of E'^n in entry (t, j) of R_V, n = t - j >= 0.

    The n-th term c_n zeta(F^n) (x) E^n is zeta(F^(n)) (x) q^(n(n-1)/2) E'^n,
    and the divided power F^(n) sends e_j to [m-j choose n] e_(j+n).
    """
    n = t - j
    return _q_binomial(m - j, n).shift(n * (n - 1) // 2)


def _rt_entry(m: int, l: int, t: int) -> QRat:
    """The coefficient of F^n K^-n in entry (l, t) of Rt_V, n = t - l >= 0.

    Here c_n = q^(n(n-1)/2) (q - q^-1)^n / [n]!.  zeta(E^n K^n) / [n]! sends
    e_t to q^(n(m-2t)) [t choose n] e_(t-n), and K^-n F^n normal-ordered is
    q^(2n^2) F^n K^-n.
    """
    n = t - l
    return _qmq_power(n).mul_shift(
        _q_binomial(t, n), n * (m - 2 * t) + n * (n - 1) // 2 + 2 * n * n
    )


def _gamma_factors(V: SimpleModule) -> tuple[list, list]:
    """The tables kappa, rho of the closed forms of Gamma_V (:func:`gamma`) and M (:func:`_middle`).

    kappa[l][n] is the coefficient of Rt_V at (l, l+n), rho[j][n] that of
    R_V at (j+n, j), for every nonzero entry.
    """
    m, d = V.m, V.dim
    kappa = [[_rt_entry(m, l, t) for t in range(l, d)] for l in range(d)]
    rho = [[_r_entry(m, t, j) for t in range(j, d)] for j in range(d)]
    return kappa, rho


def gamma(V: SimpleModule) -> UqMatrix:
    """Gamma_V = K_V Rt_V R_V, in closed form; commutes with the coproduct image of U_q(sl2).

    K_V is diagonal, Rt_V upper and R_V lower triangular, so entry (l, j)
    of Gamma_V = K_V Rt_V R_V is the sum over t >= max(l, j) of
    K^(w_l) kappa F^n K^-n rho E'^n' with n = t - l, n' = t - j, w_l = m - 2l,
    and kappa, rho the coefficients of Rt_V at (l, t) and R_V at (t, j).
    K^w F^n = q^(-2nw) F^n K^w, so each term is already the normally ordered
    monomial kappa rho q^(-2 n w_l) F^n K^(w_l - n) E'^n': one packed product
    of coefficients.  Distinct t give distinct F-powers n, so the terms fall
    on distinct monomials and no sum is formed.
    """
    m, d = V.m, V.dim
    kappa, rho = _gamma_factors(V)
    rows = [[None] * d for _ in range(d)]
    for l in range(d):
        w = m - 2 * l
        for j in range(d):
            terms = {}
            for t in range(max(l, j), d):
                n, n2 = t - l, t - j
                terms[n, w - n, n2] = kappa[l][n].mul_shift(rho[j][n2], -2 * n * w)
            rows[l][j] = UqElement._stored(terms)
    return UqMatrix(rows)


def _middle(V: SimpleModule, kappa: list, rho: list) -> UqMatrix:
    """M = R_V K_V Rt_V in closed form, from the tables of :func:`_gamma_factors`."""
    return _assembled(V.dim, _middle_entries(V, kappa, rho))


def _middle_entries(V: SimpleModule, kappa: list, rho: list, upper: bool = False):
    """Yield (t, t', stored terms) for the entries of M = R_V K_V Rt_V; only t <= t' if ``upper``.

    Entry (t, t') of M is the sum over s <= min(t, t') of
    rho E'^a K^(w_s) kappa F^b K^-b, with a = t - s, b = t' - s and
    rho, kappa the coefficients of R_V at (t, s) and Rt_V at (s, t').
    E'^a K^w = q^(-2aw) K^w E'^a, and E'^a F^b is level a of F^b
    (:func:`_grow`).  Moving K^(w_s) left past F^x and K^-b right past E'^z
    turns its term p F^x K^y E'^z into
    q^(-2a w_s - 2x w_s + 2zb) p F^x K^(y + w_s - b) E'^z: one
    :func:`qrational.mul_add` of rho kappa and p per term, and no product of
    elements.  The levels of each F^b serve every entry.
    """
    m, d = V.m, V.dim
    f_levels = [[[((b, 0, 0), Q_ONE)]] for b in range(d)]
    for t in range(d):
        for t2 in range(t if upper else 0, d):
            acc: dict = {}
            for s in range(min(t, t2) + 1):
                a, b, w = t - s, t2 - s, m - 2 * s
                levels = f_levels[b]
                if len(levels) <= a:
                    _grow(levels, a)
                c = rho[s][a].mul_shift(kappa[s][b], -2 * a * w)
                for (x, y, z), p in levels[a]:
                    mul_add(acc, (x, y + w - b, z), c, p, 2 * (z * b - x * w))
            yield t, t2, finished(acc)


def casimir(V: SimpleModule, k: int) -> UqElement:
    """C^(k)_V = Tr_1((K_2rho (x) 1) Gamma_V^k); central for every k >= 1.

    K_2rho acts as zeta(K) in rank 1, so C^(k)_V = sum_j q^(w_j) (Gamma_V^k)_jj.
    For k = 1 the sum is read off the closed form of Gamma_V
    (:func:`gamma`): the diagonal entry (j, j) has one term
    F^n K^(w_j - n) E'^n per n, and distinct (j, n) give distinct monomials,
    so C^(1)_V is formed term by term, one packed product of coefficients
    each, with no product of elements.  For k >= 2 the same three factors
    are regrouped, Gamma_V^k = K_V Rt_V M^(k-1) R_V with M = R_V K_V Rt_V;
    this only reassociates the product, so it is exact.  M is written down
    in closed form (:func:`_middle_entries`), and M^(k-1) takes k - 2 matrix
    products, none for k = 2.  The outer factors are applied by re-keying:
    a term p F^x K^y E'^z of (M^(k-1))_(t t') adds
    q^(w_j + 2nx - 2 w_j (n + x)) kappa rho p to F^(n+x) K^(y - n + w_j) E'^(z + n')
    for each j <= min(t, t'), with n = t - j, n' = t' - j, and kappa, rho
    the coefficients of Rt_V at (j, t) and R_V at (t', j): one
    :func:`qrational.mul_add` per term and j.

    That re-keyed term is q^(w_j) T_(j,t,t'), with the path term
    T_(j,t,t') = (K_V Rt_V)_(j t) (M^(k-1))_(t t') (R_V)_(t' j), and
    T_(j,t,t') = T_(j,t',t).  So only the entries t <= t' of the last
    factor, M for k = 2 and the last product of M^(k-1) for k >= 3, are
    formed (:func:`_products`), each re-keyed for j <= t as soon as it is
    finished, an entry off the diagonal with coefficient 2.  The proof:

    * theta, the Z[q, q^-1]-linear anti-involution with theta(E') = F K^-1,
      theta(F) = K E' and theta(K) = K, keeps the defining relations.  As
      (F K^-1)^c = q^(c(c-1)) F^c K^-c and (K E')^a = q^(-a(a-1)) K^a E'^a,
      theta(F^a K^b E'^c) = q^(c(c-1) - a(a-1)) F^c K^(b-c+a) E'^a, so theta
      needs no straightening, and it fixes the zero-grade subalgebra U^0
      (a = c) pointwise.
    * With n = t - j, (R_V)_(t j) = rho E'^n and (Rt_V)_(j t) = kappa F^n K^-n
      (:func:`_r_entry`, :func:`_rt_entry`), and
      theta(E'^n) = q^(n(n-1)) F^n K^-n.  So theta((R_V)_(t j)) =
      (D_j / D_t) (Rt_V)_(j t), with
      D_t = q^(t(m+1-t)) (q - q^-1)^t / [m choose t]: the q-binomials agree
      as [m choose j] [m-j choose n] = [m choose t] [t choose n], the powers
      of q - q^-1 as t = j + n, and the powers of q as
      n(n-1) + t(m+1-t) - j(m+1-j) = n(m-2t) + 2n^2.
    * theta fixes K^(w_s) and reverses products, so
      theta(M_(t t')) = sum_s theta((Rt_V)_(s t')) K^(w_s) theta((R_V)_(t s))
      = (D_t' / D_t) M_(t' t), and the same holds for every power of M.
    * Around the closed path j -> t -> t' -> j the D's cancel:
      theta(T_(j,t,t')) = (Rt_V)_(j t') (M^(k-1))_(t' t) (R_V)_(t j) K^(w_j).
      That product lies in U^0, so it commutes with K^(w_j) and is
      T_(j,t',t); and T_(j,t,t') lies in U^0, which theta fixes.

    D enters only the proof: no division is made, and every coefficient
    stays in Z[q, q^-1].
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    kappa, rho = _gamma_factors(V)
    if k == 1:
        terms = {
            (n, w - n, n): kappa[j][n].mul_shift(rho[j][n], w - 2 * n * w)
            for j, w in enumerate(V.weights)
            for n in range(V.dim - j)
        }
    else:
        if k == 2:
            last = _middle_entries(V, kappa, rho, upper=True)
        else:
            M = head = _middle(V, kappa, rho)
            for _ in range(k - 3):
                head = head * M
            last = _products(head, M, upper=True)
        acc: dict = {}
        for t, t2, entry in last:
            for j in range(t + 1):
                n, n2, w = t - j, t2 - j, V.m - 2 * j
                c = kappa[j][n].mul_shift(rho[j][n2], w - 2 * n * w)
                if t < t2:  # T_(j,t,t') = T_(j,t',t)
                    c = 2 * c
                for (x, y, z), p in entry.items():
                    mul_add(acc, (n + x, y + w - n, z + n2), c, p, 2 * x * (n - w))
        terms = finished(acc)
    return UqElement._stored(terms)


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
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
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

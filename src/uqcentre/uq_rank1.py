"""Symbolic U_q(sl2): normal ordering, modules, quasi R-matrix, Casimirs.

Elements are finite sums of normally ordered monomials ``F^a K^b E^c`` with
exact rational-function coefficients.  The defining relations are

    K E = q^2 E K,   K F = q^-2 F K,   E F - F E = (K - K^-1)/(q - q^-1).

Internally an element is stored in the basis ``F^a K^b E'^c`` of the
rescaled generator E' = (q - q^-1) E (the integral form of De Concini, Kac
and Procesi), where the straightening rule

    E' F^a = F^a E' + [a] (q^(1-a) F^(a-1) K - q^(a-1) F^(a-1) K^-1)

has Laurent-polynomial coefficients; products are straightened into normal
order by an induction on ``E'^c F^a``, memoized in a module-level table.
The coefficient of ``F^a K^b E^c`` is ``(q - q^-1)^c`` times the stored
coefficient of ``F^a K^b E'^c``.  Conversion happens only at the public
boundary: the constructor and ``monomial`` take E-basis coefficients, and
``terms``, ``coefficient``, ``sorted_terms``, ``render`` and ``to_json``
give them back, so callers never see the E' basis.

A product L R is formed from tables of E'^c R, one per E'-exponent c of
the left factor.  Every right term r2 F^a2 K^b2 E'^c2 and every term
s F^x K^y E'^z of the straightened E'^c F^a2 contribute r2 s q^(-2 z b2)
to the monomial F^x K^(y+b2) E'^(z+c2) of E'^c R; the table keeps the
nonzero sums, and it depends on c and R alone.  The left term
r1 F^a1 K^b1 E'^c then adds r1 p q^(-2 b1 x) to F^(a1+x) K^(b1+y) E'^z for
every table entry p F^x K^y E'^z: moving K^b1 past F^x is a shift applied
after the table is built, and r1, the large coefficient in Gamma_V^k, is
multiplied once per output monomial.  A matrix product shares the tables
of each right entry down its column, so every row reuses them.  Powers of
q are applied as shifts (``QRat.shift``), never as products.

From the (m+1)-dimensional simple module V the three operators

    R_V      = sum_n c_n  zeta(F^n) (x) E^n,
    Rt_V     = sum_n c_n  zeta(E^n K^n) (x) K^-n F^n,
    K_V      = sum_eta P_eta (x) K_2eta   (diagonal),

with c_n = q^(n(n+1)/2) (1-q^-2)^n / [n]!, are assembled into
Gamma_V = K_V Rt_V R_V, whose weighted partial traces

    C^(k)_V = Tr_1((K_2rho (x) 1) Gamma_V^k)

are central.  The truncation of the quasi R-matrix at n = dim V is exact
(zeta(F)^dim V = 0), not an approximation.  Since c_n E^n =
q^(n(n-1)/2) E'^n / [n]!, R_V and Rt_V are built from the divided powers
F^(n) e_j = [m-j choose n] e_(j+n) and E^(n) e_j = [j choose n] e_(j-n),
one balanced q-binomial per nonzero entry, so every entry of R_V, Rt_V,
K_V and Gamma_V^k has stored coefficients in Z[q, q^-1]: the whole Casimir
pipeline runs on Laurent polynomials and never needs a polynomial gcd.
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError
from .qrational import (
    Q_ONE,
    Q_ZERO,
    QRat,
    laurent_quotient,
    q_factorial,
    q_int,
    q_power,
)
from .report import Report

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
        """The element sum coeff * F^a K^b E^c over ``{(a, b, c): coeff}``."""
        clean = {}
        if terms:
            for mon, coeff in terms.items():
                coeff = QRat.coerce(coeff)
                if not coeff.is_zero():
                    clean[mon] = coeff * _qmq_power(-mon[2]) if mon[2] else coeff
        self._terms = clean

    @classmethod
    def _stored(cls, terms: dict) -> "UqElement":
        """The element with nonzero E'-basis coefficients ``terms`` (not copied)."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff=1) -> "UqElement":
        if a < 0 or c < 0:
            raise DomainError("F and E exponents must be nonnegative")
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
        if isinstance(other, int):
            other = UqElement({(0, 0, 0): other})
        return isinstance(other, UqElement) and self._terms == other._terms

    def __hash__(self):
        # a constant equals its coefficient's int value, so it hashes like it
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
        out: dict[Mon, QRat] = {}
        _mul_into(out, self._terms, other._terms, {})
        return UqElement._stored(out)

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
                parts.append(f"({cs})" if (" " in cs or "/" in cs) else cs)
                continue
            mono = "·".join(factors)
            if coeff.is_one():
                parts.append(mono)
            elif (" " in cs) or ("/" in cs) or cs.startswith("-"):
                parts.append(f"({cs})·{mono}")
            else:
                parts.append(f"{cs}·{mono}")
        return " + ".join(parts)

    __repr__ = render

    def to_json(self) -> list:
        return [[list(m), c.to_json()] for m, c in self.sorted_terms()]


UQ_ZERO = UqElement()
UQ_ONE = UqElement({(0, 0, 0): 1})
GEN_E = UqElement({(0, 0, 1): 1})
GEN_F = UqElement({(1, 0, 0): 1})
GEN_K = UqElement({(0, 1, 0): 1})
GEN_KINV = UqElement({(0, -1, 0): 1})
GEN_EP = UqElement._stored({(0, 0, 1): Q_ONE})  # E' = (q - q^-1) E
_QMQ_ONE = UqElement({(0, 0, 0): _QMQ})  # (q - q^-1) * 1


@cache
def _straighten(c: int, a: int) -> UqElement:
    """Normal form of E'^c F^a.

    E' F^a = F^a E' + [a] (q^(1-a) F^(a-1) K - q^(a-1) F^(a-1) K^-1),
    applied inductively in c.  Moving K^(+-1) left past E'^z gives q^(-+2z).
    """
    if c == 0 or a == 0:
        return UqElement._stored({(a, 0, c): Q_ONE})
    out = {(x, y, z + 1): s for (x, y, z), s in _straighten(c - 1, a)._terms.items()}
    coef = q_int(a)
    for dy in (1, -1):
        for (x, y, z), s in _straighten(c - 1, a - 1)._terms.items():
            t = (s * coef).shift(dy * (1 - a - 2 * z))
            mon = (x, y + dy, z)
            v = out.get(mon, Q_ZERO) + (t if dy > 0 else -t)
            if v.is_zero():
                out.pop(mon, None)
            else:
                out[mon] = v
    return UqElement._stored(out)


def _table(c: int, right: dict) -> list:
    """The nonzero ((x, y, z), p) with E'^c R = sum p F^x K^y E'^z.

    ``right`` holds the stored terms of R; moving K^b2 left past E'^z gives
    q^(-2 z b2).
    """
    acc: dict[Mon, QRat] = {}
    for (a2, b2, c2), r2 in right.items():
        for (x, y, z), s in _straighten(c, a2)._terms.items():
            mon = (x, y + b2, z + c2)
            coeff = (r2 * s).shift(-2 * z * b2)
            prev = acc.get(mon)
            acc[mon] = coeff if prev is None else prev + coeff
    return [(mon, p) for mon, p in acc.items() if not p.is_zero()]


def _mul_into(out: dict, left: dict, right: dict, tables: dict) -> None:
    """Add the product of stored terms ``left`` and ``right`` into ``out``.

    ``tables`` maps an E'-exponent c to ``_table(c, right)``, built on first
    use; it belongs to ``right`` and may be shared by every product with the
    same right factor.  Moving K^b1 right past F^x gives q^(-2 b1 x).
    """
    for (a1, b1, c1), r1 in left.items():
        table = tables.get(c1)
        if table is None:
            table = tables[c1] = _table(c1, right)
        for (x, y, z), p in table:
            mon = (a1 + x, b1 + y, z)
            v = (r1 * p).shift(-2 * b1 * x)
            prev = out.get(mon)
            if prev is not None:
                v = prev + v
                if v.is_zero():
                    del out[mon]
                    continue
            out[mon] = v


def is_central(x: UqElement) -> bool:
    """Whether x commutes with E, F and K (E enters as E' = (q - q^-1) E).

    x g and (-g) x are summed into one dict, free of zero terms: the commutator.
    """
    for g in (GEN_EP, GEN_F, GEN_K):
        out: dict[Mon, QRat] = {}
        _mul_into(out, x._terms, g._terms, {})
        _mul_into(out, (-g)._terms, x._terms, {})
        if out:
            return False
    return True


# -- matrices over QRat (module actions) and over UqElement -----------------


def _qmat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return tuple(
        tuple(
            sum((A[i][k] * B[k][j] for k in range(m)), Q_ZERO) for j in range(p)
        )
        for i in range(n)
    )


def _qmat_id(d):
    return tuple(
        tuple(Q_ONE if i == j else Q_ZERO for j in range(d)) for i in range(d)
    )


@cache
def _q_binomial(n: int, k: int) -> QRat:
    """The balanced q-binomial [n choose k] = [n]! / ([k]! [n-k]!), 0 <= k <= n."""
    return laurent_quotient(q_factorial(n), q_factorial(k) * q_factorial(n - k))


class UqMatrix:
    """A matrix with UqElement entries: an element of End(V) (x) U_q(sl2)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)

    @classmethod
    def identity(cls, d: int) -> "UqMatrix":
        return cls(
            [[UQ_ONE if i == j else UQ_ZERO for j in range(d)] for i in range(d)]
        )

    @classmethod
    def tensor(cls, qmat, u: UqElement) -> "UqMatrix":
        """The operator ``M (x) u`` for a scalar matrix M acting on V."""
        return cls([[u.scale(entry) for entry in row] for row in qmat])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __add__(self, other):
        return UqMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return UqMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, UqMatrix):
            # one column at a time: the tables of entry (k, j) serve every row
            d = self.dim
            columns = []
            for j in range(d):
                right = [other.rows[k][j]._terms for k in range(d)]
                tables = [{} for _ in range(d)]
                column = []
                for row in self.rows:
                    out: dict[Mon, QRat] = {}
                    for k in range(d):
                        _mul_into(out, row[k]._terms, right[k], tables[k])
                    column.append(UqElement._stored(out))
                columns.append(column)
            return UqMatrix(zip(*columns))
        return UqMatrix([[e * other for e in row] for row in self.rows])

    def __pow__(self, n: int):
        out = UqMatrix.identity(self.dim)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, UqMatrix) and self.rows == other.rows

    def commutator(self, other) -> "UqMatrix":
        return self * other - other * self

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __repr__(self):
        return "UqMatrix(%s)" % "; ".join(
            "[" + ", ".join(e.render() for e in row) + "]" for row in self.rows
        )


class SimpleModule:
    """The (m+1)-dimensional simple module L(m varpi) with explicit matrices.

    Basis e_0..e_m with K e_j = q^(m-2j) e_j, E e_j = [j] e_(j-1) and
    F e_j = [m-j] e_(j+1); for m = 1 these are the standard 2x2 matrices
    [[0,1],[0,0]], [[0,0],[1,0]], diag(q, q^-1).  Modules with the same m
    compare equal, so the powers of Gamma_V are cached once per m.
    """

    def __init__(self, m: int):
        if m < 0:
            raise DomainError("highest weight label must be >= 0")
        self.m = m
        d = m + 1
        self.dim = d
        E = [[Q_ZERO] * d for _ in range(d)]
        F = [[Q_ZERO] * d for _ in range(d)]
        K = [[Q_ZERO] * d for _ in range(d)]
        Kinv = [[Q_ZERO] * d for _ in range(d)]
        for j in range(d):
            K[j][j] = q_power(m - 2 * j)
            Kinv[j][j] = q_power(2 * j - m)
            if j > 0:
                E[j - 1][j] = q_int(j)
            if j < m:
                F[j + 1][j] = q_int(m - j)
        self.E = tuple(map(tuple, E))
        self.F = tuple(map(tuple, F))
        self.K = tuple(map(tuple, K))
        self.Kinv = tuple(map(tuple, Kinv))

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.m - 2 * j for j in range(self.dim))

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleModule) and self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self):
        return f"SimpleModule(m={self.m})"


def quasi_R(V: SimpleModule) -> UqMatrix:
    """(zeta (x) id) of the quasi R-matrix, truncated exactly at n = dim V.

    The n-th term c_n zeta(F^n) (x) E^n is zeta(F^(n)) (x) q^(n(n-1)/2) E'^n,
    and the divided power F^(n) sends e_j to [m-j choose n] e_(j+n).
    """
    m, d = V.m, V.dim
    rows = [[UQ_ZERO] * d for _ in range(d)]
    for j in range(d):
        for n in range(d - j):
            coeff = _q_binomial(m - j, n).shift(n * (n - 1) // 2)
            rows[j + n][j] = UqElement._stored({(0, 0, n): coeff})
    return UqMatrix(rows)


def quasi_R_tilde_T(V: SimpleModule) -> UqMatrix:
    """(zeta (x) id) phi(R^T): sum_n c_n zeta(E^n K^n) (x) K^-n F^n.

    Here c_n = q^(n(n-1)/2) (q - q^-1)^n / [n]!.  zeta(E^n K^n) / [n]! sends
    e_j to q^(n(m-2j)) [j choose n] e_(j-n), and K^-n F^n normal-ordered is
    q^(2n^2) F^n K^-n.
    """
    m, d = V.m, V.dim
    rows = [[UQ_ZERO] * d for _ in range(d)]
    for j in range(d):
        for n in range(j + 1):
            coeff = (_qmq_power(n) * _q_binomial(j, n)).shift(
                n * (m - 2 * j) + n * (n - 1) // 2 + 2 * n * n
            )
            rows[j - n][j] = UqElement._stored({(n, -n, 0): coeff})
    return UqMatrix(rows)


def K_operator(V: SimpleModule) -> UqMatrix:
    """The diagonal operator sum_eta P_eta (x) K_2eta (here K^(m-2j))."""
    d = V.dim
    rows = [[UQ_ZERO] * d for _ in range(d)]
    for j, w in enumerate(V.weights):
        rows[j][j] = UqElement.monomial(0, w, 0)
    return UqMatrix(rows)


def gamma(V: SimpleModule) -> UqMatrix:
    """Gamma_V = K_V Rt_V R_V; commutes with the coproduct image of U_q(sl2)."""
    return _gamma_power(V, 1)


@cache
def _gamma_power(V: SimpleModule, k: int) -> UqMatrix:
    if k == 0:
        return UqMatrix.identity(V.dim)
    if k == 1:
        return K_operator(V) * quasi_R_tilde_T(V) * quasi_R(V)
    return _gamma_power(V, k - 1) * _gamma_power(V, 1)


def casimir(V: SimpleModule, k: int) -> UqElement:
    """C^(k)_V = Tr_1((K_2rho (x) 1) Gamma_V^k); central for every k >= 1.

    K_2rho acts as zeta(K) in rank 1.  Only the diagonal of Gamma_V^k is
    formed, as that of Gamma_V^(k-1) Gamma_V.  The coefficients of the result
    are Laurent polynomials; ArithmeticError is raised if one is not.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    head, G = _gamma_power(V, k - 1).rows, _gamma_power(V, 1).rows
    terms: dict[Mon, QRat] = {}
    for j, w in enumerate(V.weights):  # zeta(K) e_j = q^w e_j
        for l in range(V.dim):
            left = {mon: r.shift(w) for mon, r in head[j][l]._terms.items()}
            _mul_into(terms, left, G[l][j]._terms, {})
    out = UqElement._stored(terms)
    for mon, coeff in out.terms.items():
        if not coeff.is_laurent():
            raise ArithmeticError(
                f"non-Laurent Casimir coefficient {coeff.render()} at {mon}"
            )
    return out


def _delta_matrix(V: SimpleModule, gen: str) -> UqMatrix:
    """(zeta (x) id) of the coproduct of a generator.

    Here and in the two functions below, "E" stands for E' = (q - q^-1) E:
    every identity they enter is linear in E, and the rescaling keeps the
    coefficients in Z[q, q^-1].
    """
    if gen == "E":
        return UqMatrix.tensor(V.K, GEN_EP) + UqMatrix.tensor(V.E, _QMQ_ONE)
    if gen == "F":
        return UqMatrix.tensor(V.F, GEN_KINV) + UqMatrix.tensor(_qmat_id(V.dim), GEN_F)
    if gen == "K":
        return UqMatrix.tensor(V.K, GEN_K)
    if gen == "Kinv":
        return UqMatrix.tensor(V.Kinv, GEN_KINV)
    raise DomainError(f"unknown generator {gen!r}")


def _phi2_delta_matrix(V: SimpleModule, gen: str) -> UqMatrix:
    """(zeta (x) id) of phi^2 applied to the coproduct of a generator."""
    if gen == "E":
        # phi^2(Delta(E)) = K^-1 (x) E + E (x) K^-2
        return UqMatrix.tensor(V.Kinv, GEN_EP) + UqMatrix.tensor(
            V.E, UqElement.monomial(0, -2, 0, _QMQ)
        )
    if gen == "F":
        # phi^2(Delta(F)) = F (x) K + K^2 (x) F
        return UqMatrix.tensor(V.F, GEN_K) + UqMatrix.tensor(
            _qmat_mul(V.K, V.K), GEN_F
        )
    if gen == "K":
        return UqMatrix.tensor(V.K, GEN_K)
    raise DomainError(f"unknown generator {gen!r}")


def check_gamma_intertwines(V: SimpleModule) -> Report:
    """Commutators of Gamma_V with the coproduct images of E, F, K^(+-1)."""
    rep = Report(title=f"Gamma commutation, m={V.m}")
    G = gamma(V)
    for gen in ("E", "F", "K", "Kinv"):
        comm = G.commutator(_delta_matrix(V, gen))
        rep.add(f"[Gamma, Delta({gen})] = 0", comm.is_zero())
    return rep


def check_K_intertwining(V: SimpleModule) -> Report:
    """The five diagonal-operator identities and the phi^2 intertwining law.

    The identities are linear in E, which enters as E' = (q - q^-1) E.
    """
    rep = Report(title=f"K_V intertwining, m={V.m}")
    KV = K_operator(V)
    ident = _qmat_id(V.dim)
    for s1, s2 in (("K", "K"), ("Kinv", "Kinv")):
        mat = {"K": V.K, "Kinv": V.Kinv}[s1]
        elem = {"K": GEN_K, "Kinv": GEN_KINV}[s2]
        lhs = KV * UqMatrix.tensor(mat, elem)
        rhs = UqMatrix.tensor(mat, elem) * KV
        rep.add(f"K_V commutes with zeta({s1}) (x) {s2}", lhs == rhs)
    checks = [
        ("zeta(E) (x) 1", UqMatrix.tensor(V.E, UQ_ONE),
         UqMatrix.tensor(V.E, UqElement.monomial(0, 2, 0))),
        ("1 (x) E", UqMatrix.tensor(ident, GEN_EP),
         UqMatrix.tensor(_qmat_mul(V.K, V.K), GEN_EP)),
        ("zeta(F) (x) 1", UqMatrix.tensor(V.F, UQ_ONE),
         UqMatrix.tensor(V.F, UqElement.monomial(0, -2, 0))),
        ("1 (x) F", UqMatrix.tensor(ident, GEN_F),
         UqMatrix.tensor(_qmat_mul(V.Kinv, V.Kinv), GEN_F)),
    ]
    for name, plain, twisted in checks:
        rep.add(f"K_V ({name}) twists by K^2", KV * plain == twisted * KV)
    for gen in ("E", "F", "K"):
        lhs = KV * _phi2_delta_matrix(V, gen)
        rhs = _delta_matrix(V, gen) * KV
        rep.add(f"K_V phi^2(Delta({gen})) = Delta({gen}) K_V", lhs == rhs)
    return rep


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
      subtracted.  The system is consistent iff nothing is left.
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
            acc: dict[int, QRat] = {}
            for b1, c1 in powers[-1].items():
                for b2, c2 in image.items():
                    acc[b1 + b2] = acc.get(b1 + b2, Q_ZERO) + c1 * c2
            powers.append({b: c for b, c in acc.items() if not c.is_zero()})
        sol = [Q_ZERO] * (max_degree + 1)
        for j in range(max_degree, -1, -1):
            if j * e in rest:
                sol[j] = c = rest[j * e] / powers[j][j * e]
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

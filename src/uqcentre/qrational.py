"""Exact rational functions in the quantum parameter q.

An element is stored in the canonical form ``q^k * num(q) / den(q)`` where
``num`` and ``den`` are integer-coefficient polynomials with nonzero constant
terms (powers of q are factored into ``k``), the polynomial gcd of ``num``
and ``den`` is trivial, the integer contents of ``num`` and ``den`` are
coprime, and ``den`` has positive leading coefficient.  The canonical form is
unique, so equality is structural.

Laurent polynomials (``den == (1,)``) take a fast path through the
constructor, addition and multiplication: the q-valuation is stripped into
``k`` and nothing else is done, since ``q^k * num`` with ``num(0) != 0`` and
``den = 1`` already is the canonical form.  Content and gcd reduction run
only when a true denominator is involved, so arithmetic that stays in
Z[q, q^-1] never reaches ``_pgcd``.

A factor q^k is a shift of ``k`` (``QRat.shift``), with no polynomial
product.  The Z[q] kernels ``_pmul`` and ``_pdiv_exact`` loop only over
nonzero coefficients: the products of q-integers that the rank-1 code
forms lie in q^k Z[q^2], so about half of their coefficients are zero.

Polynomials are little-endian integer tuples; the zero polynomial is ``()``.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim(
        tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))
    )


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    """Schoolbook product over the nonzero coefficients of both operands."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    nb = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nb:
                out[i + j] += x * y
    return _trim(out)


def _pcontent(a):
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def _pprimitive(a):
    c = _pcontent(a)
    if c in (0, 1):
        return a
    return tuple(x // c for x in a)


def _pscale(a, k):
    return tuple(x * k for x in a)


def _pdiv_exact(a, b):
    """Quotient a/b when the division is exact in Z[q]."""
    if not b:
        raise ZeroDivisionError
    if not a:
        return ()
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    nb = [(j, y) for j, y in enumerate(b) if y]
    for i in range(len(a) - len(b), -1, -1):
        coef, r = divmod(a[i + len(b) - 1], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if coef:
            q[i] = coef
            for j, y in nb:
                a[i + j] -= coef * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        la = a[-1]
        a = [x * lb for x in a]
        for j, y in enumerate(b):
            a[shift + j] -= la * y
    return _trim(a)


def _pgcd(a, b):
    """Primitive gcd in Z[q] (positive leading coefficient)."""
    a, b = _pprimitive(_trim(a)), _pprimitive(_trim(b))
    if not a:
        g = b
    elif not b:
        g = a
    else:
        if len(a) < len(b):
            a, b = b, a
        while b:
            r = _pprimitive(_pseudo_rem(a, b))
            a, b = b, r
        g = a
    if g and g[-1] < 0:
        g = _pneg(g)
    return g


def _laurent_add(k1, a, k2, b):
    """q^k1 a + q^k2 b for polynomials a, b with nonzero constant terms."""
    if k1 > k2:
        k1, a, k2, b = k2, b, k1, a
    out = list(a)
    shift = k2 - k1
    if len(out) < shift + len(b):
        out.extend([0] * (shift + len(b) - len(out)))
    for i, y in enumerate(b, shift):
        out[i] += y
    return QRat(k1, out, (1,))


class QRat:
    """An exact element of the field of rational functions in q."""

    __slots__ = ("qpow", "num", "den")

    def __init__(self, qpow, num, den, _canonical=False):
        if _canonical:
            self.qpow, self.num, self.den = qpow, num, den
            return
        if den == (1,):
            # Laurent fast path: only the q-valuation needs stripping
            num = _trim(num)
            if not num:
                self.qpow, self.num, self.den = 0, (), (1,)
                return
            if not num[0]:
                vn = next(i for i, x in enumerate(num) if x)
                qpow += vn
                num = num[vn:]
            self.qpow, self.num, self.den = qpow, num, den
            return
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.qpow, self.num, self.den = 0, (), (1,)
            return
        vn = next(i for i, x in enumerate(num) if x)
        vd = next(i for i, x in enumerate(den) if x)
        qpow += vn - vd
        num = num[vn:]
        den = den[vd:]
        cn, cd = abs(_pcontent(num)), abs(_pcontent(den))
        pn = tuple(x // cn for x in num)
        pd = tuple(x // cd for x in den)
        g = _pgcd(pn, pd)
        if len(g) > 1 or g != (1,):
            pn = _pdiv_exact(pn, g)
            pd = _pdiv_exact(pd, g)
        c = gcd(cn, cd)
        cn //= c
        cd //= c
        num = _pscale(pn, cn)
        den = _pscale(pd, cd)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self.qpow, self.num, self.den = qpow, num, den

    # -- constructors -------------------------------------------------------

    @classmethod
    def integer(cls, n: int) -> "QRat":
        if n == 0:
            return Q_ZERO
        return cls(0, (n,), (1,), _canonical=True)

    @classmethod
    def coerce(cls, x) -> "QRat":
        if isinstance(x, QRat):
            return x
        if isinstance(x, int):
            return cls.integer(x)
        raise TypeError(f"cannot coerce {x!r} to QRat")

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.qpow == 0 and self.num == (1,) and self.den == (1,)

    def is_laurent(self) -> bool:
        """Whether the element is a Laurent polynomial in q."""
        return self.den == (1,) or self.is_zero()

    def as_laurent(self) -> dict[int, int]:
        """Exponent -> coefficient map; raises if not a Laurent polynomial."""
        if not self.is_laurent():
            raise DomainError(f"{self} is not a Laurent polynomial")
        return {self.qpow + i: c for i, c in enumerate(self.num) if c}

    def constant_value(self) -> int:
        """The integer value of a constant element; raises otherwise."""
        lau = self.as_laurent()
        if not lau:
            return 0
        if set(lau) != {0}:
            raise DomainError(f"{self} is not constant")
        return lau[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QRat):
            if not isinstance(other, int):
                return NotImplemented
            other = QRat.integer(other)
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == (1,) and other.den == (1,):
            return _laurent_add(self.qpow, self.num, other.qpow, other.num)
        # align the q-valuations by prepending zeros to the later numerator
        k = min(self.qpow, other.qpow)
        num = _padd(
            (0,) * (self.qpow - k) + _pmul(self.num, other.den),
            (0,) * (other.qpow - k) + _pmul(other.num, self.den),
        )
        return QRat(k, num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return QRat(self.qpow, _pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, (int, QRat)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, QRat)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, QRat):
            if not isinstance(other, int):
                return NotImplemented
            other = QRat.integer(other)
        if not self.num or not other.num:
            return Q_ZERO
        # a factor q^k is applied as a shift
        if other.num == (1,) and other.den == (1,):
            return self.shift(other.qpow)
        if self.num == (1,) and self.den == (1,):
            return other.shift(self.qpow)
        if self.den == (1,) and other.den == (1,):
            # a product of polynomials with nonzero constant terms has one too
            return QRat(self.qpow + other.qpow, _pmul(self.num, other.num), (1,),
                        _canonical=True)
        return QRat(
            self.qpow + other.qpow,
            _pmul(self.num, other.num),
            _pmul(self.den, other.den),
        )

    __rmul__ = __mul__

    def shift(self, k: int) -> "QRat":
        """q^k * self, by moving the q-valuation; no polynomial product."""
        if not self.num or not k:
            return self
        return QRat(self.qpow + k, self.num, self.den, _canonical=True)

    def inverse(self) -> "QRat":
        if self.is_zero():
            raise ZeroDivisionError
        return QRat(-self.qpow, self.den, self.num)

    def __truediv__(self, other):
        return self * QRat.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QRat.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Q_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = QRat.integer(other)
        return (
            isinstance(other, QRat)
            and self.qpow == other.qpow
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # an integer constant equals that int, so it must hash like it
        if self.qpow == 0 and self.den == (1,) and len(self.num) <= 1:
            return hash(self.num[0] if self.num else 0)
        return hash((self.qpow, self.num, self.den))

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return self.render()

    def render(self) -> str:
        if self.is_zero():
            return "0"
        if self.is_laurent():
            return _laurent_str(self.as_laurent())
        num = _poly_str(self.num)
        den = _poly_str(self.den)
        s = f"({num})/({den})"
        if self.qpow:
            s = f"q^{self.qpow}*" + s
        return s

    def to_json(self) -> dict:
        return {"qpow": self.qpow, "num": list(self.num), "den": list(self.den)}


def _monomial_str(c: int, e: int) -> str:
    if e == 0:
        return str(c)
    qe = "q" if e == 1 else f"q^{e}"
    if c == 1:
        return qe
    if c == -1:
        return "-" + qe
    return f"{c}*{qe}"


def _laurent_str(lau: dict[int, int]) -> str:
    if not lau:
        return "0"
    parts = []
    for e in sorted(lau, reverse=True):
        t = _monomial_str(lau[e], e)
        if parts:
            t = ("- " + t[1:]) if t.startswith("-") else ("+ " + t)
        parts.append(t)
    return " ".join(parts)


def _poly_str(p) -> str:
    return _laurent_str({i: c for i, c in enumerate(p) if c})


Q_ZERO = QRat(0, (), (1,), _canonical=True)
Q_ONE = QRat(0, (1,), (1,), _canonical=True)


def laurent_quotient(x: QRat, y: QRat) -> QRat:
    """x / y for Laurent polynomials x, y where y divides x in Z[q, q^-1].

    Exact long division of the coefficient polynomials, with no gcd; raises
    ArithmeticError when the quotient is not a Laurent polynomial.
    """
    if not (x.is_laurent() and y.is_laurent()):
        raise ArithmeticError("laurent_quotient needs Laurent polynomials")
    if y.is_zero():
        raise ZeroDivisionError
    if x.is_zero():
        return Q_ZERO
    return QRat(x.qpow - y.qpow, _pdiv_exact(x.num, y.num), (1,), _canonical=True)


def q_power(k: int) -> QRat:
    """q^k."""
    return QRat(k, (1,), (1,), _canonical=True)


def q_int(m: int) -> QRat:
    """The balanced q-integer [m] = (q^m - q^-m)/(q - q^-1)."""
    if m == 0:
        return Q_ZERO
    if m < 0:
        return -q_int(-m)
    num = [0] * (2 * m - 1)
    num[0::2] = [1] * m
    return QRat(1 - m, tuple(num), (1,), _canonical=True)


def q_factorial(m: int) -> QRat:
    """[m]! = [1][2]...[m]."""
    out = Q_ONE
    for j in range(2, m + 1):
        out = out * q_int(j)
    return out

"""Exact Laurent polynomials in the quantum parameter q: the ring Z[q, q^-1].

An element is ``q^k * num(q)`` in canonical form: ``num`` is an
integer-coefficient polynomial with a nonzero constant term (powers of q are
factored into ``k``).  The canonical form is unique, so equality is
structural.  ``qpow`` and ``num`` give it back, the polynomial as a
little-endian integer tuple (the zero polynomial is ``()``).  A quotient is
taken only where it is exact, by ``laurent_quotient``.

Values are stored packed, by Kronecker substitution.  A value whose
exponents all share one parity is q^k P(q^2), and it is held at stride 2:
as the one integer N = P(2^B).  Any other value is held at stride 1, as
N = num(2^B).  In both, the balanced base-2^B digits of N, each in
[-2^(B-1), 2^(B-1)), are the coefficients, and a proven bound h on their
l1 norm is kept with N.  The stride is a function of the value, so the
form stays canonical: (1 + q)(1 - q) and 1 - q^2 are both stored at
stride 2, and equal values have equal (k, N, B, stride).  Every value in
the rank-1 Casimir pipeline has stride 2, so its N is half the length of
the stride-1 packing, which would hold a zero digit at every odd offset.

- A product of two stride-2 values is the big-integer product N1*N2,
  with bound h1*h2 (the l1 norm is submultiplicative).
- A sum of two stride-2 values whose valuations have one parity
  left-shifts the N of larger valuation by B/2 bits per power of q and
  adds, with bound h1 + h2; trailing zero digits, which only equal
  valuations can leave, move into ``k``.
- A shift by q^k changes only ``k``, and a negation only the sign of N;
  neither changes the bound or the stride.
- Any other pair (a stride-1 operand, stride-2 summands of valuations of
  opposite parity, or a bound past the limit below) is a one- or two-term
  sum of ``mul_add``, below; at stride 1 a stride-2 N is spread by
  evaluating its digits at 2^(2B), and a result whose odd-offset digits
  all vanish, such as (1 + q)(1 - q), is packed again at stride 2.

While h < 2^(B-1) every coefficient is below 2^(B-1) in absolute value, so
N has one balanced digit expansion, and N = 0 iff the value is 0.  Every
stored value keeps that invariant, so any value may be unpacked or
zero-tested.  When the bound of a sum or product reaches the limit, the
one slow path below refreshes bounds to exact l1 norms (unpacking a valid
value is exact); if the bound is still too large, it repacks the operands
at a wider B.  B is a function of the value, the least multiple of 64
above the bit length of its l1 norm (64 below 2^63), so an integer
constant of any size is valid.  At every B one codec, linear in the
length of N, packs digits d by joining the B-bit words d + 2^(B-1) into
one integer and taking the offsets off, and reads them back with no carry
between words: it puts the offsets on again, flips the top bit of every
word and reads the words as signed.
``laurent_quotient`` divides the packed integers and certifies the quotient
by the same bound; a quotient of two stride-2 values has stride 2.

A sum of products, sum q^k x y, is built by ``mul_add`` into one running
sum per key and read by ``finished``.  While the terms are stride-2 values
of one valuation parity, a running sum is the bare (valuation, N, bound)
at B = 64: a term adds its product N_x N_y, shifted as in a sum, and its
bound h_x h_y; the trailing zero digits that cancellation leaves move into
the valuation once, in ``finished``.  Every other term, and the slow
branches of ``+`` and ``mul_shift``, go to ``_mul_add_slow``, the one slow
path: it keeps the sum packed at its own B and stride, refreshes a bound
only where it would pass 2^(B-1), and leaves the sum to ``finished``.
"""

from __future__ import annotations

from .errors import DomainError

_B = 64  # the digit width of every value whose l1 norm is below 2^63
_LIMIT = 1 << (_B - 1)
_MASK = (1 << _B) - 1


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


# -- the packed Laurent form ---------------------------------------------------


def _width(h: int) -> int:
    """The digit width B of a packed value with l1 bound h: h < 2^(B-1)."""
    return _B * ((h.bit_length() + _B) // _B)


def _digits(n: int, b: int) -> list[int]:
    """The balanced base-2^b digits of n, little-endian, with no trailing zero.

    Adding 2^(b-1) to every b-bit word turns each digit d into the unsigned
    word d + 2^(b-1), with no carry between words; flipping the top bit of
    each word then leaves d as a b-bit two's-complement word.  Two words
    more than the b-bit words of |n| hold every digit, with room to spare:
    the words above the top digit read 0.
    """
    size = b // 8
    count = abs(n).bit_length() // b + 2
    offset = int.from_bytes((1 << (b - 1)).to_bytes(size, "little") * count, "little")
    raw = ((n + offset) ^ offset).to_bytes(count * size, "little")
    out = memoryview(raw).cast("q").tolist() if b == _B else [
        int.from_bytes(raw[i:i + size], "little", signed=True) for i in range(0, len(raw), size)]
    while out and not out[-1]:
        out.pop()
    return out


def _evaluate(coeffs, b: int) -> int:
    """The polynomial with little-endian ``coeffs`` in [-2^(b-1), 2^(b-1)) at q = 2^b.

    It is read off the joined b-bit words c + 2^(b-1), less their offsets.
    """
    size, half = b // 8, 1 << (b - 1)
    words = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(words, "little") - int.from_bytes(
        half.to_bytes(size, "little") * len(coeffs), "little")


def _stored(qpow: int, n, h, s) -> "QRat":
    """The QRat with the given slots, which must already be canonical."""
    out = _new(QRat)
    out.qpow, out._n, out._h, out._s = qpow, n, h, s
    return out


def _from_coefficients(qpow: int, coeffs, s: int = 1) -> "QRat":
    """q^qpow times sum_i coeffs[i] q^(s i), packed canonically at the width of its l1 norm.

    A stride-1 polynomial whose odd-offset coefficients all vanish is packed
    at stride 2.
    """
    coeffs = _trim(coeffs)
    if not coeffs:
        return Q_ZERO
    if not coeffs[0]:
        v = next(i for i, x in enumerate(coeffs) if x)
        qpow += s * v
        coeffs = coeffs[v:]
    if s == 1 and not any(coeffs[1::2]):
        coeffs, s = coeffs[::2], 2
    h = sum(map(abs, coeffs))
    return _stored(qpow, _evaluate(coeffs, _width(h)), h, s)


def _refresh(x: "QRat") -> list[int]:
    """Tighten the bound of packed x to its exact l1 norm; return the digits it was read off.

    The width is unchanged: it is a function of the l1 norm, which the old
    bound already shared.
    """
    digits = _digits(x._n, _width(x._h))
    x._h = sum(map(abs, digits))
    return digits


def _at(x: "QRat", b: int, s: int, digits=None) -> int:
    """N of packed x repacked at width b (at least the width of x) and stride s (at most that of x).

    Spreading stride 2 to stride 1 puts digit i at offset 2i: the digits
    are evaluated at 2^(2b).  ``digits``, if given, are those of x, as
    :func:`_refresh` returns them, so x is not unpacked again.
    """
    w = _width(x._h)
    if w == b and x._s == s:
        return x._n
    return _evaluate(_digits(x._n, w) if digits is None else digits, b * x._s // s)


def _combine(x: "QRat", y: "QRat", product: bool) -> "QRat":
    """x*y or x + y, for nonzero packed x, y that the one-operation path cannot combine.

    It is the one- or two-term sum of :func:`mul_add`, made canonical by
    :func:`finished`, so it widens B and changes stride by their one rule.
    """
    acc: dict = {}
    if product:
        mul_add(acc, 0, x, y)
    else:
        mul_add(acc, 0, x, Q_ONE)
        mul_add(acc, 0, y, Q_ONE)
    return finished(acc).get(0, Q_ZERO)


def _quotient_certified(x: "QRat", y: "QRat") -> "QRat":
    """x / y for nonzero packed x, y, conclusively.

    Both are taken at stride 2 if both have it (a quotient of polynomials
    in q^2 is one), else at stride 1; degrees below count digits at that
    stride.  If y divides x in Z[q, q^-1], the quotient z has l1 norm at most
    2^deg(z) |x|_1 (Mignotte's bound for a factor of x), so at a width with
    2^deg(z) h_x h_y < 2^(B-1) the product y z of the decoded quotient has
    valid coefficients; it then equals x exactly iff it evaluates to N_x.
    """
    s = 2 if x._s == y._s == 2 else 1
    ux, uy = _refresh(x), _refresh(y)
    hx, hy = x._h, y._h
    # a valid N with d + 1 digits at width w has d*w <= bit length < (d+1)*w
    dx = abs(x._n).bit_length() // _width(hx) * (x._s // s)
    dz = dx - abs(y._n).bit_length() // _width(hy) * (y._s // s)
    if dz < 0:
        raise ArithmeticError("inexact polynomial division")
    b = max(_width(hx), _width(hy), _width((hx << dz) * hy))
    n, r = divmod(_at(x, b, s, ux), _at(y, b, s, uy))
    if r:
        raise ArithmeticError("inexact polynomial division")
    z = _digits(n, b)
    if sum(map(abs, z)) * hy >= 1 << (b - 1):
        raise ArithmeticError("inexact polynomial division")
    return _from_coefficients(x.qpow - y.qpow, z, s)


class QRat:
    """An exact element of Z[q, q^-1].

    It keeps its packed N in ``_n``, its l1 bound in ``_h`` and its stride,
    2 or 1, in ``_s``.
    """

    __slots__ = ("qpow", "_n", "_h", "_s")

    def __init__(self, qpow, num, den):
        """q^qpow num(q) / den(q), which must lie in Z[q, q^-1]; DomainError otherwise."""
        num, den = tuple(num), tuple(den)
        if any(type(x) is not int for x in (qpow, *num, *den)):
            raise DomainError(f"exponents and coefficients are ints, not {(qpow, num, den)!r}")
        try:
            x = laurent_quotient(_from_coefficients(qpow, num), _from_coefficients(0, den))
        except ArithmeticError:
            raise DomainError(f"{den!r} does not divide {num!r} in Z[q, q^-1]") from None
        self.qpow, self._n, self._h, self._s = x.qpow, x._n, x._h, x._s

    @property
    def num(self) -> tuple:
        digits = _digits(self._n, _width(self._h))
        if self._s == 1:
            return tuple(digits)
        spread = [0] * (2 * len(digits) - 1)
        spread[::2] = digits
        return tuple(spread)

    # -- constructors -------------------------------------------------------

    @classmethod
    def integer(cls, n: int) -> "QRat":
        if n == 0:
            return Q_ZERO
        return _stored(0, n, abs(n), 2)

    @classmethod
    def coerce(cls, x) -> "QRat":
        if isinstance(x, QRat):
            return x
        if isinstance(x, int):
            return cls.integer(x)
        raise TypeError(f"cannot coerce {x!r} to QRat")

    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self.qpow == 0 and self._n == 1

    def as_laurent(self) -> dict[int, int]:
        """Exponent -> coefficient map."""
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
        if not self._n:
            return other
        if not other._n:
            return self
        h = self._h + other._h
        k1, k2 = self.qpow, other.qpow
        if h >= _LIMIT or not self._s == other._s == 2 or (k1 - k2) & 1:
            return _combine(self, other, False)
        # the N of larger valuation moves up one digit per power of q^2
        if k1 < k2:
            return _stored(k1, self._n + (other._n << _B * (k2 - k1) // 2), h, 2)
        if k2 < k1:
            return _stored(k2, other._n + (self._n << _B * (k1 - k2) // 2), h, 2)
        return _packed_sum(k1, self._n + other._n, h)

    __radd__ = __add__

    def __neg__(self):
        return _stored(self.qpow, -self._n, self._h, self._s)

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
        return self.mul_shift(other, 0)

    __rmul__ = __mul__

    def mul_shift(self, other: "QRat", k: int) -> "QRat":
        """q^k * self * other: for stride-2 values, one packed product and one new value."""
        if not self._n or not other._n:
            return Q_ZERO
        # a product of polynomials with nonzero constant terms has one too
        h = self._h * other._h
        if h >= _LIMIT or not self._s == other._s == 2:
            return _combine(self, other, True).shift(k)
        return _stored(self.qpow + other.qpow + k, self._n * other._n, h, 2)

    def shift(self, k: int) -> "QRat":
        """q^k * self, by moving the q-valuation; no polynomial product."""
        if type(k) is not int:
            raise DomainError(f"exponents and coefficients are ints, not {k!r}")
        if not self._n or not k:
            return self
        return _stored(self.qpow + k, self._n, self._h, self._s)

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not taken; q^-k is q_power(-k)")
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
        elif not isinstance(other, QRat):
            return NotImplemented
        # one N stands for different polynomials at different widths and strides
        return (
            self.qpow == other.qpow
            and self._n == other._n
            and self._s == other._s
            and _width(self._h) == _width(other._h)
        )

    def __hash__(self):
        # an integer constant equals that int, and its N is that int
        return hash((self.qpow, self._n)) if self.qpow else hash(self._n)

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return self.render()

    def render(self) -> str:
        return _laurent_str(self.as_laurent())

    def to_json(self) -> dict:
        return {"qpow": self.qpow, "num": list(self.num), "den": [1]}

    def json_text(self, newline: str) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, indent=2)``, lines started by ``newline``.

        The digits are read once off N; at stride 2 the literal ``0`` lines
        of the spread ``num`` are joined in between.
        """
        inner = newline + "  "
        item = "," + inner + "  "
        digits = _digits(self._n, _width(self._h))
        sep = item + "0" + item if self._s == 2 else item
        num = "[" + inner + "  " + sep.join(map(str, digits)) + inner + "]" if digits else "[]"
        return (f'{{{inner}"den": [{inner}  1{inner}],{inner}"num": {num},'
                f'{inner}"qpow": {self.qpow}{newline}}}')


_new = object.__new__


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


Q_ZERO = _stored(0, 0, 0, 2)
Q_ONE = _stored(0, 1, 1, 2)


def laurent_quotient(x: QRat, y: QRat) -> QRat:
    """x / y where y divides x in Z[q, q^-1].

    One division of the packed integers, with no gcd, decided by
    ``_quotient_certified``: a remainder proves the polynomial division
    inexact, since q^2 -> 2^B (q -> 2^B at stride 1) is a ring map.  Raises
    ArithmeticError when the quotient is not a Laurent polynomial.
    """
    if not y._n:
        raise ZeroDivisionError
    if not x._n:
        return Q_ZERO
    return _quotient_certified(x, y)


def _packed_sum(k: int, n: int, h: int) -> QRat:
    """The stride-2 value with valuation k, N = n and bound h < 2^(B-1), made canonical.

    Cancellation can leave n with trailing zero digits; they move into the
    valuation.
    """
    if not n:
        return Q_ZERO
    if not n & _MASK:
        z = (n & -n).bit_length() // _B
        k, n = k + 2 * z, n >> (_B * z)
    return _stored(k, n, h, 2)


# -- sums of products, made canonical once -----------------------------------


def mul_add(acc: dict, key, x: QRat, y: QRat, k: int = 0) -> None:
    """Add q^k x y to the running sum ``acc[key]``; :func:`finished` reads the sums.

    While x and y are stride-2 values and every term of the sum has
    valuations of one parity, the running sum is the list [valuation, N,
    bound] at B = 64: a term adds its N (the N of larger valuation moved up
    B/2 bits per power of q) and its bound h_x h_y, and nothing is made
    canonical until :func:`finished`.  A term that would lift the bound to
    2^(B-1) goes to ``_mul_add_slow``, as does any other term.
    """
    if x._s == 2 == y._s:
        h = x._h * y._h
        e = acc.get(key)
        if e is None:
            if h < _LIMIT:
                acc[key] = [x.qpow + y.qpow + k, x._n * y._n, h]
                return
        elif e.__class__ is list:
            v = x.qpow + y.qpow + k
            d = v - e[0]
            if not d & 1 and e[2] + h < _LIMIT:
                if d > 0:
                    e[1] += x._n * y._n << (_B // 2 * d)
                elif d:
                    e[0], e[1] = v, x._n * y._n + (e[1] << (_B // 2 * -d))
                else:
                    e[1] += x._n * y._n
                e[2] += h
                return
    _mul_add_slow(acc, key, x, y, k)


def _mul_add_slow(acc: dict, key, x: QRat, y: QRat, k: int) -> None:
    """:func:`mul_add` for a term or a sum that the packed path does not take.

    The sum stays packed as (valuation, N, bound, B, stride), and the term
    joins it at its B, at stride 2 only if all three have it at one
    valuation parity.  A bound that would reach 2^(B-1) is refreshed: the
    factors' while both are at B = 64 (a wider value's norm is at least
    2^63), each by one unpack whose digits also repack it, then the sum's,
    by the one unpack that repacks it when its B grows or its stride drops.
    At B = 64 and stride 2 it is a list again.
    """
    e = acc.get(key)
    if not (x._n and y._n):
        return
    v, h = x.qpow + y.qpow + k, x._h * y._h
    ve, n, he, b, se = (
        (v, 0, 0, _B, min(x._s, y._s)) if e is None else (*e, _B, 2) if e.__class__ is list else e)
    s = 1 if (v - ve) & 1 else min(x._s, y._s, se)
    ux = uy = None
    if he + h >= 1 << (b - 1) and h >= _LIMIT and x._h < _LIMIT and y._h < _LIMIT:
        ux, uy = _refresh(x), _refresh(y)
        h = x._h * y._h
    if s != se or he + h >= 1 << (b - 1):
        digits = _digits(n, b)
        he = sum(map(abs, digits))
        nb = max(b, _width(he + h))
        if nb != b or s != se:
            b, n = nb, _evaluate(digits, nb * se // s)
    lo = min(v, ve)
    n = (n << b * ((ve - lo) // s)) + (_at(x, b, s, ux) * _at(y, b, s, uy) << b * ((v - lo) // s))
    acc[key] = [lo, n, he + h] if b == _B and s == 2 else (lo, n, he + h, b, s)


def finished(acc: dict) -> dict:
    """The nonzero sums of ``acc`` (filled by :func:`mul_add`), each made canonical once."""
    out = {}
    for key, e in acc.items():
        if e.__class__ is list:
            e = _packed_sum(*e)
        else:
            e = _from_coefficients(e[0], _digits(e[1], e[3]), e[4])
        if e._n:
            out[key] = e
    return out


def q_power(k: int) -> QRat:
    """q^k."""
    return Q_ONE.shift(k)


def q_int(m: int) -> QRat:
    """The balanced q-integer [m] = (q^m - q^-m)/(q - q^-1) = q^(1-m) sum_{i<m} q^(2i)."""
    if m == 0:
        return Q_ZERO
    if m < 0:
        return -q_int(-m)
    return _stored(1 - m, ((1 << _B * m) - 1) // ((1 << _B) - 1), m, 2)  # a base-2^B repunit

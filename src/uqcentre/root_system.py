"""Exact root-system combinatorics for the simple Lie types A-G.

Weights are integer coordinate tuples in the fundamental-weight basis: the
weight ``sum a_i w_i`` is stored as ``(a_1, ..., a_n)``.  All arithmetic is
exact and the library never touches floating point: the inverse Cartan
matrix is computed in integers, as numerators over one common denominator.
Only ``weight_to_root_coords`` and ``bilinear_form`` return rational values,
as ``fractions.Fraction``; they import ``fractions`` themselves, so that
importing this module does not load it.

Conventions, fixed here once and consumed by every other module:

* Node labelling follows Bourbaki.  A_n, B_n, C_n, F_4, G_2 are chains
  ``1 - 2 - ... - n``; D_n attaches nodes n-1 and n to node n-2; E_n attaches
  node 2 to node 4 of the chain ``1 - 3 - 4 - 5 - ... - n`` (so the branch
  node of E_6 is node 2).
* ``cartan[i][j] = 2(alpha_i, alpha_j) / (alpha_i, alpha_i)``.  With this
  orientation the row of a short simple root carries the -2 (-3 in G_2):
  B_n has ``cartan[n-1][n-2] = -2``, C_n has ``cartan[n-2][n-1] = -2``,
  F_4 has ``cartan[2][1] = -2``, and G_2 is ``[[2, -3], [-1, 2]]``.
* The invariant form is normalised so that short roots have
  ``(alpha, alpha) = 2``, i.e. ``sym[i] = (alpha_i, alpha_i)/2`` with
  ``min(sym) = 1``.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import DomainError, ResourceLimitError

Weight = tuple[int, ...]
RationalVector = tuple  # of fractions.Fraction

# Weyl orbits of more points than this raise ResourceLimitError
ORBIT_CAP = 10_000_000

# the valid ranks of each family, and how the error message states them
_RANKS = {
    "A": (lambda n: n >= 1, "rank >= 1"),
    "B": (lambda n: n >= 2, "rank >= 2"),
    "C": (lambda n: n >= 3, "rank >= 3"),
    "D": (lambda n: n >= 4, "rank >= 4"),
    "E": (lambda n: n in (6, 7, 8), "rank in {6, 7, 8}"),
    "F": (lambda n: n == 4, "rank == 4"),
    "G": (lambda n: n == 2, "rank == 2"),
}


def _cartan_and_sym(family: str, rank: int):
    n = rank
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j):
        A[i][j] = -1
        A[j][i] = -1

    if family in ("A", "B", "C", "F"):
        for i in range(n - 1):
            join(i, i + 1)
    if family == "A":
        d = [1] * n
    elif family == "B":
        A[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
    elif family == "C":
        A[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
    elif family == "D":
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
        d = [1] * n
    elif family == "E":
        chain = [0, 2, 3] + list(range(4, n))
        for u, v in zip(chain, chain[1:]):
            join(u, v)
        join(1, 3)
        d = [1] * n
    elif family == "F":
        A[2][1] = -2
        d = [2, 2, 1, 1]
    elif family == "G":
        A[0][1] = -3
        A[1][0] = -1
        d = [1, 3]
    return tuple(map(tuple, A)), tuple(d)


def _invert_integer_matrix(A):
    """Exact inverse of an invertible integer matrix, as (numerators, common denominator).

    Fraction-free Gauss-Jordan (Bareiss) on [A | I]: by Sylvester's
    identity every entry stays a minor of [A | I] up to sign, so each
    division by the previous pivot is exact, and the last step leaves
    [d I | d A^-1] with d = +-det A.  Dividing d and d A^-1 by their gcd,
    signed so that the denominator is positive, gives the least common
    denominator.
    """
    n = len(A)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = pivot
    adj = [row[n:] for row in rows]
    g = gcd(prev, *(x for row in adj for x in row))
    if prev < 0:
        g = -g
    return tuple(tuple(x // g for x in row) for row in adj), prev // g


class RootSystem:
    """Cartan data of one simple type, with exact coordinate conversions.

    Instances are immutable values; two instances with the same
    ``(family, rank)`` compare equal.  Internal lookup tables are cached on
    first use; these caches, like the module-level caches of the library,
    assume single-threaded use.
    """

    def __init__(self, family: str, rank: int):
        if family not in _RANKS:
            raise DomainError(
                f"unknown family {family!r}; expected one of A, B, C, D, E, F, G"
            )
        valid, rule = _RANKS[family]
        if not valid(rank):
            raise DomainError(f"invalid rank {rank} for type {family}: requires {rule}")
        self.family = family
        self.rank = rank
        self.cartan, self.sym = _cartan_and_sym(family, rank)
        # inv_num / inv_den is the exact inverse Cartan matrix; root
        # coordinates of a weight are (inv_num @ coords) / inv_den.
        self._inv_num, self._inv_den = _invert_integer_matrix(self.cartan)
        self._check_invariants()

    def _check_invariants(self) -> None:
        A, d, n = self.cartan, self.sym, self.rank
        pairs = [(i, j) for i in range(n) for j in range(n)]
        ok = (
            all(A[i][i] == 2 for i in range(n))
            and all(A[i][j] <= 0 for i, j in pairs if i != j)
            and all((A[i][j] == 0) == (A[j][i] == 0) for i, j in pairs)
            and all(d[i] * A[i][j] == d[j] * A[j][i] for i, j in pairs)
            and min(d) == 1
        )
        if not ok:
            raise ArithmeticError(
                f"{self.family}{self.rank}: {A} with {d} is not a "
                "symmetrisable Cartan matrix"
            )

    def __repr__(self) -> str:
        return f"RootSystem({self.family}{self.rank})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.family == other.family
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    # -- coordinates and the bilinear form ---------------------------------

    def zero(self) -> Weight:
        return (0,) * self.rank

    def fundamental_weight(self, i: int) -> Weight:
        return tuple(1 if k == i else 0 for k in range(self.rank))

    def simple_root(self, i: int) -> Weight:
        """alpha_i in fundamental-weight coordinates (column i of the Cartan matrix)."""
        return tuple(self.cartan[k][i] for k in range(self.rank))

    def rho(self) -> Weight:
        return (1,) * self.rank

    def _check_weight(self, w) -> None:
        if len(w) != self.rank:
            raise DomainError(
                f"weight {w} has length {len(w)}, expected rank {self.rank}"
            )

    def scaled_root_coords(self, w: Weight) -> tuple[int, ...]:
        """Root coordinates of ``w`` times ``self.root_coord_scale`` (exact integers)."""
        self._check_weight(w)
        B = self._inv_num
        return tuple(
            sum(B[j][k] * w[k] for k in range(self.rank)) for j in range(self.rank)
        )

    @property
    def root_coord_scale(self) -> int:
        return self._inv_den

    def weight_to_root_coords(self, w: Weight) -> RationalVector:
        """Coefficients c with ``w = sum c_j alpha_j``, as exact rationals."""
        from fractions import Fraction

        D = self._inv_den
        return tuple(Fraction(x, D) for x in self.scaled_root_coords(w))

    def bilinear_form(self, lam: Weight, mu: Weight) -> Fraction:
        """The invariant form (lam, mu), normalised with (alpha,alpha)=2 for short alpha."""
        from fractions import Fraction

        self._check_weight(lam)
        c = self.scaled_root_coords(mu)
        dot = sum(lam[j] * self.sym[j] * c[j] for j in range(self.rank))
        return Fraction(dot, self._inv_den)

    # -- Weyl group --------------------------------------------------------

    def simple_reflection(self, i: int, w: Weight) -> Weight:
        """s_i(w) = w - w_i * alpha_i, in fundamental-weight coordinates."""
        wi = w[i]
        if wi == 0:
            return tuple(w)
        A = self.cartan
        return tuple(w[k] - wi * A[k][i] for k in range(self.rank))

    def _closure(self, *seeds: Weight) -> set[Weight]:
        """Closure of the set of ``seeds`` under simple reflections (breadth-first)."""
        seen = set(seeds)
        frontier = list(seen)
        while frontier:
            nxt = []
            for u in frontier:
                for i in range(self.rank):
                    if u[i] == 0:
                        continue
                    v = self.simple_reflection(i, u)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return seen

    def weyl_orbit(self, w: Weight) -> set[Weight]:
        """The Weyl orbit of ``w``, as a set of weights.

        Raises :class:`ResourceLimitError` before it builds an orbit of more
        than ``ORBIT_CAP`` points, the size being known from :meth:`orbit_size`.

        The walk starts at the dominant weight mu and needs no seen-set.  A
        point v != mu has one parent, s_i v for the least i with v_i < 0,
        which is higher than v in the dominance order.  So from each point u
        the walk applies s_i where u_i > 0 and keeps v = s_i u (with
        v_i = -u_i < 0) only if v_j >= 0 for every j < i: every point is
        reached exactly once, from its parent.
        """
        self._check_weight(w)
        size = self.orbit_size(w)
        if size > ORBIT_CAP:
            raise ResourceLimitError(
                f"Weyl orbit of {w} in {self} has {size} points, over the cap {ORBIT_CAP}"
            )
        A, r = self.cartan, self.rank
        columns = [tuple(A[k][i] for k in range(r)) for i in range(r)]
        orbit = [self.dominant_representative(w)]
        for u in orbit:  # the list grows while it is walked
            for i, ui in enumerate(u):
                if ui > 0:
                    col = columns[i]
                    # v_j = u_j - u_i A_ji for j < i, tested before v is built
                    if all(u[j] >= ui * col[j] for j in range(i)):
                        orbit.append(tuple(x - ui * a for x, a in zip(u, col)))
        return set(orbit)

    def orbit_size(self, w: Weight) -> int:
        """|W w| = |W| / |W_mu| for the dominant mu in the orbit of ``w``.

        This is the product of (ht alpha + 1) / ht alpha over the positive
        roots alpha with (mu, alpha) != 0: the product over all positive roots
        is |W|, and the roots with (mu, alpha) = 0 form the root system of the
        stabiliser W_mu, with the same heights.
        """
        self._check_weight(w)
        mu = self.dominant_representative(w)
        num = den = 1
        for _, calpha in self.positive_root_data():
            # (mu, alpha) = sum_j calpha_j mu_j (alpha_j, alpha_j) / 2, all terms >= 0
            if any(c and m for c, m in zip(calpha, mu)):
                height = sum(calpha)
                num *= height + 1
                den *= height
        size, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"orbit size of {w} in {self} is {num}/{den}")
        return size

    def weyl_group_order(self) -> int:
        """|W|, the orbit size of the regular weight rho."""
        return self.orbit_size(self.rho())

    def dominant_representative(self, w: Weight) -> Weight:
        """The unique dominant weight in the Weyl orbit of ``w``."""
        v = list(w)
        A = self.cartan
        while True:
            for i in range(self.rank):
                if v[i] < 0:
                    vi = v[i]
                    for k in range(self.rank):
                        v[k] -= vi * A[k][i]
                    break
            else:
                return tuple(v)

    def is_dominant(self, w: Weight) -> bool:
        return all(x >= 0 for x in w)

    def dominates(self, lam: Weight, mu: Weight) -> bool:
        """True iff lam - mu is a nonnegative integer sum of simple roots.

        Reflexive: ``dominates(lam, lam)`` is true.
        """
        diff = tuple(a - b for a, b in zip(lam, mu))
        D = self._inv_den
        for x in self.scaled_root_coords(diff):
            if x < 0 or x % D != 0:
                return False
        return True

    # -- roots ---------------------------------------------------------------

    def positive_roots(self) -> tuple[Weight, ...]:
        """All positive roots, as fundamental-weight coordinate tuples."""
        return self._positive

    @cached_property
    def _positive(self) -> tuple[Weight, ...]:
        return tuple(r for r, _ in self._positive_data)

    def positive_root_data(self) -> tuple[tuple[Weight, tuple[int, ...]], ...]:
        """Positive roots paired with their integer root-coordinate vectors."""
        return self._positive_data

    @cached_property
    def _positive_data(self) -> tuple[tuple[Weight, tuple[int, ...]], ...]:
        # every root is W-conjugate to a simple root; not weyl_orbit, whose
        # size check needs the positive roots
        roots = self._closure(*(self.simple_root(i) for i in range(self.rank)))
        coords = ((r, self.scaled_root_coords(r)) for r in sorted(roots))
        pos = [(r, c) for r, c in coords if all(x >= 0 for x in c)]
        D = self._inv_den
        if 2 * len(pos) != len(roots) or any(x % D for _, c in pos for x in c):
            raise ArithmeticError(f"the roots of {self} are not integral and signed")
        return tuple((r, tuple(x // D for x in c)) for r, c in pos)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "sym": list(self.sym),
        }


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of the given simple type.

    Raises :class:`DomainError` for an invalid (family, rank) pair.
    """
    return RootSystem(family, rank)


def add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def sub_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def scale_weight(k: int, a: Weight) -> Weight:
    return tuple(k * x for x in a)

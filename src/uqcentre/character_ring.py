"""Characters, Harish-Chandra images and the torus-invariant algebra.

A :class:`TorusInvariant` is a finite integer combination of the even torus
elements ``K_2mu`` with ``mu`` in M, multiplied by ``K_2mu K_2nu =
K_2(mu+nu)``.  The image of the central element attached to a module is its
character written in this basis: ``xi([V]) = sum m_V(mu) K_2mu``.

Weight multiplicities come from Freudenthal's recursion, run entirely in
integer arithmetic; the Weyl dimension formula is kept as an independent
oracle and is never used as the source of multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError, ResourceLimitError
from .half_lattice_monoid import TYPE_I, classify_type, in_monoid
from .monoid_presentation import presentation
from .report import Report
from .root_system import (
    RootSystem,
    Weight,
    add_weights,
    scale_weight,
    sub_weights,
)

_table_cache: dict[tuple, "CharacterTable"] = {}
_full_cache: dict[tuple, dict[Weight, int]] = {}


@dataclass(frozen=True)
class CharacterTable:
    """Multiplicities of the simple module with the given highest weight.

    ``mult`` is keyed by the dominant weights only; values on the rest of the
    orbit follow by Weyl invariance.  ``dim`` sums the multiplicities over
    full orbits.
    """

    highest: Weight
    mult: dict[Weight, int]
    dim: int

    def multiplicity(self, rsys: RootSystem, w: Weight) -> int:
        return self.mult.get(rsys.dominant_representative(w), 0)


class TorusInvariant:
    """An integer combination sum m(mu) K_2mu with all keys in M."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = int(c)
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def one(cls, rank: int) -> "TorusInvariant":
        return cls({(0,) * rank: 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, TorusInvariant) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, 0) + c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return TorusInvariant(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            v = out.get(w, 0) - c
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return TorusInvariant(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return TorusInvariant({w: c * other for w, c in self.terms.items()})
        if not self.terms or not other.terms:
            return TorusInvariant({})
        # |x + y| <= max|x| + max|y| bounds every coordinate of the product
        reach = _max_abs_coord(self.terms) + _max_abs_coord(other.terms)
        if reach >= _PACK_HALF:
            raise ResourceLimitError(
                f"product coordinates may reach {reach}; packed weights "
                f"hold |x| < {_PACK_HALF}"
            )
        rank = len(next(iter(self.terms)))
        packed = _convolve(_pack_map(self.terms), _pack_map(other.terms))
        return TorusInvariant(_unpack_map(packed, rank))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined")
        if not self.terms:
            raise DomainError("0^n")
        rank = len(next(iter(self.terms)))
        out = TorusInvariant.one(rank)
        for _ in range(n):
            out = out * self
        return out

    def total(self) -> int:
        """Sum of all coefficients (the dimension, for a character image)."""
        return sum(self.terms.values())

    def is_w_invariant(self, rsys: RootSystem) -> bool:
        for w, c in self.terms.items():
            for i in range(rsys.rank):
                if self.terms.get(rsys.simple_reflection(i, w), 0) != c:
                    return False
        return True

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self) -> list:
        return [[list(w), c] for w, c in self.sorted_terms()]

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            mu = ",".join(map(str, w))
            parts.append(f"{c}·K_2({mu})")
        return " + ".join(parts)

    __repr__ = render


# Weight vectors are packed into single integers (balanced digits, base
# 2^16) so that weight addition becomes integer addition; convolutions then
# run over int-keyed dicts.  A digit must satisfy |x| < 2^15, which
# TorusInvariant.__mul__ checks before it packs.
_PACK_BITS = 16
_PACK_BASE = 1 << _PACK_BITS
_PACK_HALF = _PACK_BASE >> 1


def _max_abs_coord(terms) -> int:
    return max(abs(x) for w in terms for x in w)


def _pack_weight(w: Weight) -> int:
    acc = 0
    for x in reversed(w):
        acc = (acc << _PACK_BITS) + x
    return acc


def _unpack_weight(v: int, rank: int) -> Weight:
    out = []
    for _ in range(rank):
        r = v & (_PACK_BASE - 1)
        if r >= _PACK_HALF:
            r -= _PACK_BASE
        out.append(r)
        v = (v - r) >> _PACK_BITS
    return tuple(out)


def _pack_map(terms) -> dict[int, int]:
    return {_pack_weight(w): c for w, c in terms.items()}


def _unpack_map(packed: dict[int, int], rank: int) -> dict[Weight, int]:
    return {_unpack_weight(k, rank): c for k, c in packed.items() if c}


def _convolve(d1: dict[int, int], d2: dict[int, int]) -> dict[int, int]:
    if len(d1) > len(d2):
        d1, d2 = d2, d1
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _assert_keys_in_M(rsys: RootSystem, terms) -> None:
    D = rsys.root_coord_scale
    for w in terms:
        if any((2 * x) % D != 0 for x in rsys.scaled_root_coords(w)):
            raise AssertionError(f"key {w} is outside M for {rsys}")


# -- weight multiplicities ---------------------------------------------------


def _dominant_weights_below(rsys: RootSystem, lam: Weight) -> list[Weight]:
    """All dominant mu with lam - mu a nonnegative integer root combination.

    Searches down from lam, subtracting one positive root at a time and
    keeping the dominant results.  This reaches every such mu: two dominant
    weights mu < lam are joined by a chain of dominant weights, each a
    positive root below the previous one (Stembridge, "The partial order of
    dominant weights", 1998).
    """
    found = [lam]
    seen = {lam}
    for mu in found:  # grows while it is walked: breadth-first
        for alpha in rsys.positive_roots():
            nu = sub_weights(mu, alpha)
            if nu not in seen and rsys.is_dominant(nu):
                seen.add(nu)
                found.append(nu)
    return found


def weight_multiplicities(rsys: RootSystem, lam: Weight) -> CharacterTable:
    """Exact weight multiplicities of L(lam) via Freudenthal's recursion.

    For each dominant mu < lam,

        (|lam+rho|^2 - |mu+rho|^2) m(mu)
            = 2 sum_(alpha>0) sum_(k>=1) m(mu + k alpha) (mu + k alpha, alpha),

    evaluated in scaled integer arithmetic (the string property lets the
    inner sum stop at the first zero multiplicity).
    """
    if not rsys.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    lam = tuple(lam)
    key = (rsys.family, rsys.rank, lam)
    if key in _table_cache:
        return _table_cache[key]

    n = rsys.rank
    d = rsys.sym
    D = rsys.root_coord_scale
    pos = rsys.positive_root_data()
    rho = rsys.rho()

    def form_with_root(x, calpha) -> int:
        return sum(x[j] * d[j] * calpha[j] for j in range(n))

    doms = _dominant_weights_below(rsys, lam)
    # fill from lam downwards: sort by decreasing height of mu
    def height_scaled(w):
        return sum(rsys.scaled_root_coords(w))

    doms.sort(key=height_scaled, reverse=True)
    assert doms and doms[0] == lam

    mult: dict[Weight, int] = {lam: 1}
    lam_rho = add_weights(lam, rho)
    for mu in doms[1:]:
        num = 0
        for alpha, calpha in pos:
            k = 1
            while True:
                nu = add_weights(mu, scale_weight(k, alpha))
                m = mult.get(rsys.dominant_representative(nu), 0)
                if m == 0:
                    break
                num += m * form_with_root(nu, calpha)
                k += 1
        diff = sub_weights(lam, mu)
        cdiff = tuple(x // D for x in rsys.scaled_root_coords(diff))
        den = form_with_root(add_weights(lam_rho, add_weights(mu, rho)), cdiff)
        q, r = divmod(2 * num, den)
        assert r == 0 and q > 0, (rsys, lam, mu)
        mult[mu] = q

    dim = sum(m * rsys.orbit_size(mu) for mu, m in mult.items())
    table = CharacterTable(highest=lam, mult=mult, dim=dim)
    _table_cache[key] = table
    return table


def weyl_dim(rsys: RootSystem, lam: Weight) -> int:
    """dim L(lam) by the Weyl dimension formula (independent of Freudenthal)."""
    if not rsys.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    rho = rsys.rho()
    lam_rho = add_weights(lam, rho)
    out = Fraction(1)
    for alpha, calpha in rsys.positive_root_data():
        n = rsys.rank
        top = sum(lam_rho[j] * rsys.sym[j] * calpha[j] for j in range(n))
        bot = sum(rho[j] * rsys.sym[j] * calpha[j] for j in range(n))
        out *= Fraction(top, bot)
    assert out.denominator == 1
    return int(out)


def full_character(rsys: RootSystem, lam: Weight) -> dict[Weight, int]:
    """The complete weight-multiplicity map of L(lam), keyed by every weight."""
    key = (rsys.family, rsys.rank, tuple(lam))
    if key in _full_cache:
        return _full_cache[key]
    table = weight_multiplicities(rsys, lam)
    out: dict[Weight, int] = {}
    for mu, m in table.mult.items():
        for v in rsys.weyl_orbit(mu):
            out[v] = m
    assert sum(out.values()) == table.dim
    _full_cache[key] = out
    return out


# -- xi images ----------------------------------------------------------------


def xi_simple(rsys: RootSystem, lam: Weight) -> TorusInvariant:
    """xi([L(lam)]) = sum m(mu) K_2mu; requires lam in M+."""
    if not in_monoid(rsys, lam):
        raise DomainError(f"{lam} is not in M+; 2mu would leave the root lattice")
    out = TorusInvariant(full_character(rsys, lam))
    _assert_keys_in_M(rsys, out.terms)
    return out


def xi_tensor(rsys: RootSystem, lam: Weight) -> TorusInvariant:
    """xi([T(lam)]) for the tensor product of fundamental modules.

    The factors' characters may individually have keys outside M; the full
    product lands in M again, which is asserted.
    """
    if not in_monoid(rsys, lam):
        raise DomainError(f"{lam} is not in M+")
    out = TorusInvariant.one(rsys.rank)
    for i, a in enumerate(lam):
        if not a:
            continue
        fund = TorusInvariant(full_character(rsys, rsys.fundamental_weight(i)))
        for _ in range(a):
            out = out * fund
    _assert_keys_in_M(rsys, out.terms)
    return out


def av_basis_element(rsys: RootSystem, lam: Weight) -> TorusInvariant:
    """av(lam) = sum_(w in W) K_2(w lam); orbit coefficients are |W|/|W lam|."""
    if not in_monoid(rsys, lam):
        raise DomainError(f"{lam} is not in M+")
    orbit = rsys.weyl_orbit(lam)
    coeff = rsys.weyl_group_order() // len(orbit)
    return TorusInvariant({w: coeff for w in orbit})


def _order_key(rsys: RootSystem):
    """A total order on weights extending the dominance order.

    Dominance raises the root-coordinate height, so height comes first; ties
    break by coordinate sum then lexicographically.
    """

    def key(w: Weight):
        return (sum(rsys.scaled_root_coords(w)), sum(w), w)

    return key


def expand_in_av(rsys: RootSystem, t: TorusInvariant) -> dict[Weight, Fraction]:
    """Coefficients of a W-invariant element in the av basis (exact, unique)."""
    if not t.is_w_invariant(rsys):
        raise DomainError("element is not Weyl-invariant")
    key = _order_key(rsys)
    work = dict(t.terms)
    out: dict[Weight, Fraction] = {}
    order = rsys.weyl_group_order()
    while work:
        top = max(work, key=key)
        lam = rsys.dominant_representative(top)
        orbit = rsys.weyl_orbit(lam)
        coeff = Fraction(work[top] * len(orbit), order)
        out[lam] = coeff
        for w in orbit:
            v = Fraction(work.get(w, 0)) - coeff * (order // len(orbit))
            if v:
                work[w] = v
            else:
                work.pop(w, None)
    return out


def expand_in_simples(rsys: RootSystem, t: TorusInvariant) -> dict[Weight, Fraction]:
    """Triangular expansion of a W-invariant element over the xi([L(mu)]).

    Repeatedly strips the maximal key (necessarily dominant for genuine
    character combinations) with its coefficient.
    """
    key = _order_key(rsys)
    work: dict[Weight, Fraction] = {
        w: Fraction(c) for w, c in t.terms.items()
    }
    out: dict[Weight, Fraction] = {}
    while work:
        top = max(work, key=key)
        if not rsys.is_dominant(top):
            raise DomainError(
                f"maximal remaining key {top} is not dominant; "
                "the element is not a character combination"
            )
        coeff = work[top]
        out[top] = coeff
        for w, m in full_character(rsys, top).items():
            v = work.get(w, Fraction(0)) - coeff * m
            if v:
                work[w] = v
            else:
                work.pop(w, None)
    return out


# -- verification reports ------------------------------------------------------


def unitriangularity_check(rsys: RootSystem, bound: int):
    """Expand [T(lam)] over the [L(mu)] for all lam in M+ with coords <= bound.

    Asserts the diagonal coefficient 1 and nonnegative integer multiplicities
    supported strictly below lam.  Returns ``(report, multiplicities)``.
    """
    rep = Report(title=f"unitriangularity {rsys.family}{rsys.rank} bound {bound}")
    mults: dict[Weight, dict[Weight, int]] = {}
    for w in sorted(product(range(bound + 1), repeat=rsys.rank)):
        if not in_monoid(rsys, w):
            continue
        decomp = expand_in_simples(rsys, xi_tensor(rsys, w))
        ok = decomp.get(w) == 1
        entry: dict[Weight, int] = {}
        for mu, c in decomp.items():
            if c.denominator != 1 or c < 0:
                ok = False
                break
            entry[mu] = int(c)
            if mu != w and not rsys.dominates(w, mu):
                ok = False
                break
        mults[w] = entry
        rep.add(
            f"[T{w}] = [L{w}] + lower",
            ok,
            " + ".join(f"{c}[L{mu}]" for mu, c in sorted(entry.items())),
        )
    return rep, mults


def verify_centre_relations(rsys: RootSystem) -> Report:
    """Check every presentation relation in the Harish-Chandra image model.

    A generator x_g maps to xi([T(g)]), and xi o T is multiplicative:
    xi([T(lam)]) = prod_i xi([L(w_i)])^(lam_i).  A monomial prod x_g^(e_g)
    therefore maps to prod_i xi([L(w_i)])^(lam_i) with lam = sum e_g g, the
    weight of the monomial.  The fundamental characters are algebraically
    independent, so the two sides of a binomial have the same image exactly
    when they have the same weight; that exponent identity is what is checked.
    """
    if classify_type(rsys) == TYPE_I:
        raise DomainError(f"{rsys} is of type I; its centre has no relations")
    pres = presentation(rsys)
    rep = Report(title=f"centre relations {rsys.family}{rsys.rank}")

    def weight_of(side) -> Weight:
        total = rsys.zero()
        for i, e in side:
            total = add_weights(total, scale_weight(e, pres.generators[i]))
        return total

    for rel in pres.relations:
        lw, rw = weight_of(rel.lhs), weight_of(rel.rhs)
        rep.add(
            f"{rel.kind}[{rel.source}] exponent identity",
            lw == rw,
            "" if lw == rw else f"{lw} != {rw}",
        )
    return rep


def independence_check(rsys: RootSystem, degree_bound: int) -> Report:
    """Exact-rank test that the fundamental xi images are algebraically independent.

    Collects every monomial in xi([L(w_i)]) of total degree <= degree_bound
    and computes the rank of the coefficient matrix over Q.
    """
    if classify_type(rsys) != TYPE_I:
        raise DomainError(f"{rsys} is of type II; use verify_centre_relations")
    if degree_bound < 0:
        raise DomainError("degree bound must be >= 0")
    n = rsys.rank
    exps = []

    def rec(pos, remaining, cur):
        if pos == n:
            exps.append(tuple(cur))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, cur + [e])

    rec(0, degree_bound, [])

    fund = [xi_simple(rsys, rsys.fundamental_weight(i)) for i in range(n)]
    # Rows are keyed by the order key of each weight, computed once per weight
    # and shared between rows; elimination only uses keys already in a row.
    order_key = _order_key(rsys)
    keys: dict[Weight, tuple] = {}
    rows = []
    for e in exps:
        acc = TorusInvariant.one(n)
        for i, ei in enumerate(e):
            if ei:
                acc = acc * (fund[i] ** ei)
        row = {}
        for w, c in acc.terms.items():
            k = keys.get(w)
            if k is None:
                k = keys[w] = order_key(w)
            row[k] = Fraction(c)
        rows.append(row)

    rank = 0
    live = [r for r in rows if r]
    while live:
        piv_row = max(live, key=max)
        piv_key = max(piv_row)
        piv_val = piv_row[piv_key]
        rank += 1
        nxt = []
        for r in live:
            if r is piv_row:
                continue
            if piv_key in r:
                f = r[piv_key] / piv_val
                for w, c in piv_row.items():
                    v = r.get(w, Fraction(0)) - f * c
                    if v:
                        r[w] = v
                    else:
                        r.pop(w, None)
            if r:
                nxt.append(r)
        live = nxt
    rep = Report(title=f"independence {rsys.family}{rsys.rank} degree {degree_bound}")
    rep.add(
        f"{len(exps)} monomials of degree <= {degree_bound} are independent",
        rank == len(exps),
        f"rank {rank} of {len(exps)}",
    )
    return rep

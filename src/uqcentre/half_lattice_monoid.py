"""The monoid M+ of dominant weights in the half root lattice.

``M+`` consists of the dominant weights lambda with all root coordinates in
(1/2)Z.  This module computes membership, the finite Hilbert basis (the
irreducible elements), the diagram involution and conjugation, the minimal
multipliers s_i with ``s_i w_i`` in M+, and the two relation families that the
non-self-conjugate basis elements satisfy.

The simple types split in two classes:

* type I  (A_1, B_n, C_n, D_even, E_7, E_8, F_4, G_2): M+ is all of P+ and
  the Hilbert basis is the set of fundamental weights;
* type II (A_n with n >= 2, D_odd with rank >= 5, E_6): the Dynkin diagram
  has a nontrivial involution and the basis splits into self-conjugate
  elements mu_i, scaled fundamentals nu_i = s_i w_i, and conjugate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import DomainError
from .root_system import (
    RootSystem,
    Weight,
    add_weights,
    scale_weight,
    sub_weights,
)

TYPE_I = "I"
TYPE_II = "II"

_basis_cache: dict[tuple[str, int], "HilbertBasis"] = {}


def classify_type(rsys: RootSystem) -> str:
    """Whether the Hilbert basis is the fundamental weights (I) or not (II)."""
    fam, n = rsys.family, rsys.rank
    if fam == "A" and n >= 2:
        return TYPE_II
    if fam == "D" and n % 2 == 1:
        return TYPE_II
    if fam == "E" and n == 6:
        return TYPE_II
    return TYPE_I


def involution(rsys: RootSystem) -> tuple[int, ...]:
    """The diagram involution as a 0-indexed permutation (identity for type I).

    A_n: i <-> n+1-i;  D_odd: swaps the two fork nodes;  E_6: (1 6)(3 5).
    """
    n = rsys.rank
    sigma = list(range(n))
    if classify_type(rsys) == TYPE_I:
        return tuple(sigma)
    if rsys.family == "A":
        sigma = [n - 1 - i for i in range(n)]
    elif rsys.family == "D":
        sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    elif rsys.family == "E":
        sigma[0], sigma[5] = 5, 0
        sigma[2], sigma[4] = 4, 2
    return tuple(sigma)


def in_monoid(rsys: RootSystem, w: Weight) -> bool:
    """True iff ``w`` is dominant and all its root coordinates are half-integers."""
    if any(x < 0 for x in w):
        return False
    D = rsys.root_coord_scale
    return all((2 * x) % D == 0 for x in rsys.scaled_root_coords(w))


def type_A_membership(rsys: RootSystem, w: Weight) -> bool:
    """Fast-path membership for type A: sum(i * a_i) must fall in r_{n+1} Z."""
    if rsys.family != "A":
        raise DomainError(f"type-A membership test called for {rsys}")
    if any(x < 0 for x in w):
        return False
    n = rsys.rank
    r = (n + 1) // gcd(n + 1, 2)
    return sum((i + 1) * a for i, a in enumerate(w)) % r == 0


def _type_A_multiplier(n: int, i: int) -> int:
    # closed form for the minimal s with s*w_i in M+, i 1-based
    return (n + 1) // gcd(n + 1, 2 * i)


def min_multipliers(rsys: RootSystem) -> tuple[int, ...]:
    """Minimal s_i >= 1 with ``s_i w_i`` in M+, found by direct search."""
    out = []
    for i in range(rsys.rank):
        e = rsys.fundamental_weight(i)
        s = 1
        # |P/Q| * w_i lies in Q, so the search terminates well before this cap
        cap = 2 * rsys.root_coord_scale + 1
        while not in_monoid(rsys, scale_weight(s, e)):
            s += 1
            if s > cap:
                raise ArithmeticError(f"multiplier search runaway for {rsys}, i={i}")
        if rsys.family == "A" and s != _type_A_multiplier(rsys.rank, i + 1):
            raise ArithmeticError(
                f"multiplier {s} at node {i + 1} of {rsys} is not the closed form"
            )
        out.append(s)
    return tuple(out)


def conjugate(rsys: RootSystem, w: Weight) -> Weight:
    """The involution image of ``w`` in M+ (coordinates permuted by sigma)."""
    if not in_monoid(rsys, w):
        raise DomainError(f"{w} is not in M+ for {rsys}")
    sigma = involution(rsys)
    return tuple(w[sigma[i]] for i in range(rsys.rank))


@dataclass(frozen=True)
class HilbertBasis:
    """The irreducible elements of M+, with their classification.

    ``self_conjugate`` maps the smaller index of each sigma-orbit (1-based)
    to the element mu_i; ``scaled_fundamentals`` lists nu_i = s_i w_i for
    every node; ``pairs`` holds the non-self-conjugate elements grouped as
    (lambda, conjugate) with lambda the lexicographically larger member.
    For type I all three views coincide with the fundamental weights.
    """

    family: str
    rank: int
    elements: tuple[Weight, ...]
    self_conjugate: dict[int, Weight]
    scaled_fundamentals: tuple[Weight, ...]
    s: tuple[int, ...]
    pairs: tuple[tuple[Weight, Weight], ...]

    def to_json(self) -> dict:
        return {
            "type": self.family,
            "rank": self.rank,
            "elements": [list(w) for w in self.elements],
            "self_conjugate": {str(i): list(w) for i, w in sorted(self.self_conjugate.items())},
            "scaled_fundamentals": [list(w) for w in self.scaled_fundamentals],
            "pairs": [[list(a), list(b)] for a, b in self.pairs],
            "s": list(self.s),
        }


def _bounded_vectors(limits, total_cap=None):
    """All integer vectors with 0 <= v_i <= limits[i] and sum(v) <= total_cap.

    The vectors come in ascending lexicographic order, so every vector comes
    after all the other vectors that lie componentwise below it.
    """
    if total_cap is None:
        total_cap = sum(limits)
    n = len(limits)
    out = []
    vec = [0] * n

    def rec(pos, remaining):
        if pos == n:
            out.append(tuple(vec))
            return
        for v in range(min(limits[pos], remaining) + 1):
            vec[pos] = v
            rec(pos + 1, remaining - v)
        vec[pos] = 0

    rec(0, total_cap)
    return out


def hilbert_basis(rsys: RootSystem) -> HilbertBasis:
    """Compute the Hilbert basis of M+ by a sieve over a bounded search.

    Every irreducible element satisfies a_i <= s_i; in type A additionally
    sum(a_i) <= r_{n+1}.  The monoid elements within those bounds are walked
    in lexicographic order, so each comes after every element componentwise
    below it.  An element lam is kept iff lam - g is not a monoid element for
    every element g kept so far: if lam = mu + nu with mu, nu nonzero in M+,
    some irreducible g <= mu was kept earlier and lam - g = (mu - g) + nu is
    a nonzero monoid element.
    """
    key = (rsys.family, rsys.rank)
    if key in _basis_cache:
        return _basis_cache[key]

    n = rsys.rank
    s = min_multipliers(rsys)
    if rsys.family == "A":
        total_cap = (n + 1) // gcd(n + 1, 2)
    else:
        total_cap = sum(s)

    members: set[Weight] = set()
    irreducible: list[Weight] = []
    for w in _bounded_vectors(s, total_cap):
        if not any(w) or not in_monoid(rsys, w):
            continue
        if all(sub_weights(w, g) not in members for g in irreducible):
            irreducible.append(w)
        members.add(w)
    elements = tuple(irreducible)

    sigma = involution(rsys)
    self_conj: dict[int, Weight] = {}
    for i in range(n):
        j = sigma[i]
        if i > j:
            continue
        mu = rsys.fundamental_weight(i)
        if i < j:
            mu = add_weights(mu, rsys.fundamental_weight(j))
        if mu not in elements:
            raise ArithmeticError(
                f"self-conjugate {mu} of node {i + 1} is reducible in {rsys}"
            )
        self_conj[i + 1] = mu

    scaled = tuple(scale_weight(s[i], rsys.fundamental_weight(i)) for i in range(n))
    if not all(w in elements for w in scaled):
        raise ArithmeticError(f"a scaled fundamental weight is reducible in {rsys}")

    pairs = []
    seen = set()
    for lam in elements:
        bar = tuple(lam[sigma[i]] for i in range(n))
        if bar == lam or lam in seen:
            continue
        if bar not in elements:
            raise ArithmeticError(f"the conjugate of {lam} is reducible in {rsys}")
        big, small = (lam, bar) if lam > bar else (bar, lam)
        pairs.append((big, small))
        seen.add(lam)
        seen.add(bar)

    covered = set(self_conj.values()) | seen | set(scaled)
    if covered != set(elements):
        raise ArithmeticError(
            f"unclassified basis elements of {rsys}: {covered ^ set(elements)}"
        )

    basis = HilbertBasis(
        family=rsys.family,
        rank=n,
        elements=elements,
        self_conjugate=self_conj,
        scaled_fundamentals=scaled,
        s=s,
        pairs=tuple(sorted(pairs)),
    )
    _basis_cache[key] = basis
    return basis


def rel1(rsys: RootSystem, lam: Weight) -> dict[int, int]:
    """Exponents e_i with ``lam + conj(lam) = sum e_i mu_i`` (keys are mu indices).

    Only defined for non-self-conjugate Hilbert basis elements.
    """
    basis = hilbert_basis(rsys)
    if lam not in basis.elements:
        raise DomainError(f"{lam} is not a Hilbert basis element of {rsys}")
    sigma = involution(rsys)
    bar = conjugate(rsys, lam)
    if bar == lam:
        raise DomainError(f"{lam} is self-conjugate")
    exps: dict[int, int] = {}
    for i in range(rsys.rank):
        j = sigma[i]
        if i == j:
            if lam[i]:
                raise ArithmeticError(
                    f"non-self-conjugate {lam} is nonzero on fixed node {i + 1}"
                )
            continue
        if i > j:
            continue
        e = max(lam[i], lam[j])
        if e:
            exps[i + 1] = e
    total = rsys.zero()
    for i, e in exps.items():
        total = add_weights(total, scale_weight(e, basis.self_conjugate[i]))
    if total != add_weights(lam, bar):
        raise ArithmeticError(f"rel1 exponents {exps} do not give {lam} + {bar}")
    return exps


def ell(rsys: RootSystem, lam: Weight) -> int:
    """lcm of the multipliers s_i over the support of ``lam``."""
    if not any(lam):
        raise DomainError("ell is undefined at 0")
    s = hilbert_basis(rsys).s
    return lcm(*[s[i] for i, a in enumerate(lam) if a])


def rel2(rsys: RootSystem, lam: Weight) -> dict[int, int]:
    """Exponents e_i with ``ell(lam) * lam = sum e_i nu_i`` (keys are node indices)."""
    basis = hilbert_basis(rsys)
    if lam not in basis.elements:
        raise DomainError(f"{lam} is not a Hilbert basis element of {rsys}")
    l = ell(rsys, lam)
    s = basis.s
    exps: dict[int, int] = {}
    for i, a in enumerate(lam):
        if not a:
            continue
        e, r = divmod(l * a, s[i])
        if r:
            raise ArithmeticError(f"non-integral exponent for {lam} at node {i + 1}")
        exps[i + 1] = e
    total = rsys.zero()
    for i, e in exps.items():
        total = add_weights(total, scale_weight(e, basis.scaled_fundamentals[i - 1]))
    if total != scale_weight(l, lam):
        raise ArithmeticError(f"rel2 exponents {exps} do not give {l} * {lam}")
    return exps

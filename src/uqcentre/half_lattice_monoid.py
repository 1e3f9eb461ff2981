"""The monoid M+ of dominant weights in the half root lattice, read off the root datum.

``M+`` consists of the dominant weights lambda with all root coordinates in
(1/2)Z.  P/(P cap (1/2)Q) is cyclic of order r, with w_i in class c_i
(:func:`residue_classes`), so lambda is in M+ iff the sequence holding
lambda_i copies of c_i sums to zero mod r, and the Hilbert basis of M+ is
the set of minimal zero-sum sequences among those.  The simple types split
in two classes:

* type I, r = 1 (A_1, B_n, C_n, D_even, E_7, E_8, F_4, G_2): M+ is all of
  P+ and the Hilbert basis is the set of fundamental weights;
* type II, r > 1 (A_n with n >= 2, D_odd, E_6): the involution -w_0 of the
  diagram is nontrivial and the basis splits into self-conjugate elements
  mu_i, scaled fundamentals nu_i = s_i w_i, and conjugate pairs, which
  satisfy the relation families rel1 and rel2.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property
from itertools import accumulate
from math import gcd, lcm, prod

from .errors import DomainError, ResourceLimitError
from .root_system import (
    RootSystem,
    Weight,
    add_weights,
    scale_weight,
)

TYPE_I = "I"
TYPE_II = "II"

# enumerations over more points than this raise ResourceLimitError
BOX_CAP = 10_000_000


def classify_type(rsys: RootSystem) -> str:
    """Type II iff the class group P/(P cap (1/2)Q) is nontrivial (r > 1), else type I."""
    return TYPE_II if residue_classes(rsys)[0] > 1 else TYPE_I


@cache
def involution(rsys: RootSystem) -> tuple[int, ...]:
    """The diagram involution -w_0 as a 0-indexed permutation of the nodes.

    -w_0 permutes the fundamental weights: sigma(i) is the node of the
    dominant weight in the Weyl orbit of -w_i.  Raises ``ArithmeticError``
    if that weight is not fundamental or sigma is not an involution.
    """
    fund = [rsys.fundamental_weight(i) for i in range(rsys.rank)]
    dom = [rsys.dominant_representative(scale_weight(-1, w)) for w in fund]
    if not all(d in fund for d in dom):
        raise ArithmeticError(f"-w_0 of {rsys} maps the fundamental weights to {dom}")
    sigma = tuple(fund.index(d) for d in dom)
    if any(sigma[j] != i for i, j in enumerate(sigma)):
        raise ArithmeticError(f"-w_0 of {rsys} gives {sigma}, not an involution")
    return sigma


@cache
def residue_classes(rsys: RootSystem) -> tuple[int, tuple[int, ...]]:
    """``(r, c)`` with P/(P cap (1/2)Q) cyclic of order r and w_i of class c_i.

    The class of w_i is column i of the inverse Cartan matrix, doubled, mod
    its common denominator: a weight lies in (1/2)Q iff its doubled root
    coordinates are integers.  The classes form a cyclic group; the column
    of largest additive order generates it, and c_i is the discrete log of
    column i to that base.  So M+ = {a >= 0 : sum c_i a_i = 0 mod r}.  A_n:
    r = (n+1)/gcd(n+1, 2), c_i = i mod r; D_odd: r = 2; E_6: r = 3; type I:
    r = 1.
    """
    n, D = rsys.rank, rsys.root_coord_scale
    cols = [tuple(2 * rsys._inv_num[j][i] % D for j in range(n)) for i in range(n)]

    def order(col):
        return D // gcd(D, *col)

    base = max(cols, key=order)
    r = order(base)
    c = []
    for i, col in enumerate(cols):
        k = next(
            (k for k in range(r) if all(k * x % D == y for x, y in zip(base, col))),
            None,
        )
        if k is None:
            raise ArithmeticError(
                f"the class of w_{i + 1} in {rsys} is not a multiple of {base}"
            )
        c.append(k)
    return r, tuple(c)


def residue(rsys: RootSystem, w: Weight) -> int:
    """The class sum c_i w_i mod r of ``w`` in P/(P cap (1/2)Q); 0 iff w is in P cap (1/2)Q."""
    r, c = residue_classes(rsys)
    return sum(ci * x for ci, x in zip(c, w)) % r


def in_monoid(rsys: RootSystem, w: Weight) -> bool:
    """True iff ``w`` is dominant and its :func:`residue` is 0."""
    if any(x < 0 for x in w):
        return False
    rsys._check_weight(w)
    return residue(rsys, w) == 0


def min_multipliers(rsys: RootSystem) -> tuple[int, ...]:
    """Minimal s_i >= 1 with ``s_i w_i`` in M+: the order r / gcd(r, c_i) of c_i mod r."""
    r, c = residue_classes(rsys)
    return tuple(r // gcd(r, ci) for ci in c)


def conjugate(rsys: RootSystem, w: Weight) -> Weight:
    """The involution image of ``w`` in M+ (coordinates permuted by sigma)."""
    if not in_monoid(rsys, w):
        raise DomainError(f"{w} is not in M+ for {rsys}")
    sigma = involution(rsys)
    return tuple(w[sigma[i]] for i in range(rsys.rank))


class HilbertBasis(namedtuple(
    "HilbertBasis",
    "family rank elements self_conjugate scaled_fundamentals s pairs",
)):
    """The irreducible elements of M+, with their classification.

    ``elements`` is a tuple of weights and ``s`` a tuple of ints.
    ``self_conjugate`` maps the smaller index of each sigma-orbit (1-based)
    to the element mu_i; ``scaled_fundamentals`` lists nu_i = s_i w_i for
    every node; ``pairs`` holds the non-self-conjugate elements grouped as
    (lambda, conjugate) with lambda the lexicographically larger member.
    For type I all three views coincide with the fundamental weights.
    """

    # no ``__slots__ = ()``: the cached ``element_set`` lives in the instance dict

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

    @cached_property
    def element_set(self) -> frozenset[Weight]:
        return frozenset(self.elements)


def _box_size(limits, total_cap: int) -> int:
    """The number of integer vectors with 0 <= v_i <= limits[i] and sum(v) <= total_cap."""
    if total_cap >= sum(limits):
        return prod(lim + 1 for lim in limits)
    ways = [1] + [0] * total_cap  # ways[t]: vectors so far with sum t
    for lim in limits:
        prefix = list(accumulate(ways))
        ways = [
            prefix[t] - (prefix[t - lim - 1] if t > lim else 0)
            for t in range(total_cap + 1)
        ]
    return sum(ways)


def _count_str(n: int) -> str:
    """n exactly while it has at most 18 digits, else "at least 10^e" with 10^e <= n < 10^(e+1)."""
    if n < 10**18:
        return str(n)
    e = (n.bit_length() - 1) * 30102 // 100000  # 0.30102 < log10(2), so 10^e <= n
    while 10 ** (e + 1) <= n:
        e += 1
    return f"at least 10^{e}"


def _check_box(limits, total_cap: int) -> None:
    """Raise :class:`ResourceLimitError` if the box of :func:`_box_size` has over ``BOX_CAP`` points."""
    size = _box_size(limits, total_cap)
    if size > BOX_CAP:
        raise ResourceLimitError(
            f"the box of {len(limits)} coordinates, each at most {max(limits)}, with sum "
            f"<= {total_cap} has {_count_str(size)} points, over the cap {BOX_CAP}"
        )


def _bounded_vectors(limits, total_cap=None, classes=None):
    """The vectors with 0 <= v_i <= limits[i], sum(v) <= total_cap, sum c_i v_i = 0 mod r.

    ``classes`` is ``(r, c)`` as from :func:`residue_classes`; without it,
    or with r = 1, every vector of the box is yielded.  The residue is
    carried down the recursion, and the last coordinate runs only over the
    values that close it.  The vectors come in ascending lexicographic order,
    so every vector comes after all the other vectors that lie componentwise
    below it.  Raises :class:`ResourceLimitError` at once, before the first
    vector, when the box has more than ``BOX_CAP`` points.
    """
    n = len(limits)
    if total_cap is None:
        total_cap = sum(limits)
    _check_box(limits, total_cap)
    r, c = classes or (1, (0,) * n)
    # closing[res]: the last coordinates v with res + c[-1] * v = 0 mod r
    closing = [
        [v for v in range(limits[-1] + 1) if (res + c[-1] * v) % r == 0]
        for res in range(r)
    ]
    vec = [0] * n

    def rec(pos, remaining, res):
        if pos == n - 1:
            for v in closing[res]:
                if v > remaining:
                    break
                vec[pos] = v
                yield tuple(vec)
            return
        for v in range(min(limits[pos], remaining) + 1):
            vec[pos] = v
            yield from rec(pos + 1, remaining - v, (res + c[pos] * v) % r)

    return rec(0, total_cap, 0)


def _minimal_zero_sums(r: int, c: tuple[int, ...]) -> list[Weight]:
    """The vectors w whose sequence of w_i copies of c_i is a minimal zero-sum sequence in Z/r.

    One depth-first walk over the vectors in ascending lexicographic order,
    one node per prefix; see :func:`hilbert_basis` for why it is exact.
    ``reach`` is the bitmask of the sums of the nonempty subsequences of the
    prefix minus its first unit, so each further unit costs one cyclic
    shift of r bits, ORed into the old mask.
    """
    n = len(c)
    full = (1 << r) - 1
    vec = [0] * n
    out = []

    def walk(pos, res, reach, started):
        if pos == n:
            if started and not res:
                out.append(tuple(vec))
            return
        walk(pos + 1, res, reach, started)
        ci = c[pos]
        while True:
            if started:
                reach |= (reach << ci | reach >> (r - ci)) & full | 1 << ci
                if reach & 1:
                    break  # so is every extension of this prefix
            started = True
            res = (res + ci) % r
            vec[pos] += 1
            walk(pos + 1, res, reach, True)
        vec[pos] = 0

    walk(0, 0, 0, False)
    return out


@cache
def hilbert_basis(rsys: RootSystem) -> HilbertBasis:
    """The Hilbert basis of M+: the members that are minimal zero-sum sequences.

    With (r, c) from :func:`residue_classes`, lam is in M+ iff the sequence
    S holding lam_i copies of c_i sums to zero in Z/r, and lam is
    irreducible iff S is minimal: no proper nonempty subsequence sums to
    zero.  For any term g of S, S is minimal iff S minus g is zero-sum free:
    if S = TU with T, U nonempty zero-sum, the one without g lies in S minus
    g; if T in S minus g sums to zero, so does the rest of S, which holds g.
    A sequence of length > r has a proper nonempty zero-sum subsequence
    (two of its r + 1 partial sums agree), so every irreducible element has
    sum(a_i) <= r (the Davenport bound) and a_i <= s_i; a box of that shape
    over ``BOX_CAP`` points raises :class:`ResourceLimitError` at once.

    :func:`_minimal_zero_sums` finds them in one walk over the vectors in
    ascending lexicographic order, adding units node by node.  Take g to be
    the first unit of the first nonzero node; every extension of a prefix
    keeps that g.  Each prefix carries its residue and the mask of the sums
    of the nonempty subsequences of the prefix minus g.  Once the mask holds
    0, the prefix minus g has a zero-sum subsequence, and that subsequence
    also lies in every extension minus g, so no extension is minimal and
    the walk skips the whole subtree.  A leaf is kept iff it is nonzero with
    residue 0: its sequence minus g is zero-sum free, so by the lemma above
    it is minimal.  That sequence minus g has fewer than r terms and fewer
    than s_i copies of each c_i, so every kept leaf lies in the Davenport
    box, and the elements come in the order of :func:`_bounded_vectors` on
    that box.
    """
    n = rsys.rank
    s = min_multipliers(rsys)
    r, c = residue_classes(rsys)
    _check_box(s, r)
    elements = tuple(_minimal_zero_sums(r, c))
    element_set = set(elements)

    sigma = involution(rsys)
    self_conj: dict[int, Weight] = {}
    for i in range(n):
        j = sigma[i]
        if i > j:
            continue
        mu = rsys.fundamental_weight(i)
        if i < j:
            mu = add_weights(mu, rsys.fundamental_weight(j))
        if mu not in element_set:
            raise ArithmeticError(
                f"self-conjugate {mu} of node {i + 1} is reducible in {rsys}"
            )
        self_conj[i + 1] = mu

    scaled = tuple(scale_weight(s[i], rsys.fundamental_weight(i)) for i in range(n))
    if not all(w in element_set for w in scaled):
        raise ArithmeticError(f"a scaled fundamental weight is reducible in {rsys}")

    pairs = []
    seen = set()
    for lam in elements:
        bar = tuple(lam[sigma[i]] for i in range(n))
        if bar == lam or lam in seen:
            continue
        if bar not in element_set:
            raise ArithmeticError(f"the conjugate of {lam} is reducible in {rsys}")
        big, small = (lam, bar) if lam > bar else (bar, lam)
        pairs.append((big, small))
        seen.add(lam)
        seen.add(bar)

    covered = set(self_conj.values()) | seen | set(scaled)
    if covered != element_set:
        raise ArithmeticError(
            f"unclassified basis elements of {rsys}: {covered ^ element_set}"
        )

    return HilbertBasis(
        family=rsys.family,
        rank=n,
        elements=elements,
        self_conjugate=self_conj,
        scaled_fundamentals=scaled,
        s=s,
        pairs=tuple(sorted(pairs)),
    )


def rel1(rsys: RootSystem, lam: Weight) -> dict[int, int]:
    """Exponents e_i with ``lam + conj(lam) = sum e_i mu_i`` (keys are mu indices).

    Only defined for non-self-conjugate Hilbert basis elements.
    """
    basis = hilbert_basis(rsys)
    if lam not in basis.element_set:
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
    if lam not in basis.element_set:
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

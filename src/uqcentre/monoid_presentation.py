"""The monoid algebra C[M+], its generators and binomial relations.

The algebra has basis ``X^lam`` for ``lam`` in M+ with ``X^lam X^mu =
X^(lam+mu)``.  The map phi sending the abstract polynomial generator
``x_lam`` to ``X^lam``, for each Hilbert basis element, exhibits C[M+] as a
quotient of a polynomial algebra.  For the type I algebras phi is an
isomorphism.  For type II, :func:`presentation` emits one ``rel1`` and one
``rel2`` binomial per conjugate pair.  They lie in ker phi, but for E6 and
A4-A7, the cases checked, they do not generate it: the E6 binomial
x_nu6 x_mu3 - x_(w5+w6) x_(w3+2w6) is in ker phi and not in their ideal.
Emitting the full presentation is on the ROADMAP.
Elements are :class:`TorusInvariant` combinations, ``X^lam`` being ``K_2lam``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .errors import DomainError
from .half_lattice_monoid import (
    TYPE_I,
    _check_box,
    classify_type,
    ell,
    hilbert_basis,
    in_monoid,
    rel1,
    rel2,
    residue_classes,
)
from .report import Report
from .root_system import RootSystem, Weight, add_weights, scale_weight


class TorusInvariant:
    """A finite exact combination sum c(mu) K_2mu of weights mu.

    This is the group algebra of the weight lattice, ``K_2mu K_2nu =
    K_2(mu+nu)``; the monoid algebra C[M+] is the part with keys in M+
    (``X^lam`` is ``K_2lam``), and Harish-Chandra images are its
    Weyl-invariant elements.  Only the vector-space operations are defined:
    sums, differences and scalar multiples.  Characters are multiplied in
    the basis of simple modules instead (see ``character_ring``).
    Coefficients are ``int`` or ``Fraction`` values kept as given; the zero
    element has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(c, int):
                    # a caller holding a Fraction has loaded ``fractions`` already
                    from fractions import Fraction

                    if not isinstance(c, Fraction):
                        raise TypeError(
                            f"coefficient {c!r} is not an int or a Fraction"
                        )
                if c:
                    clean[tuple(w)] = c
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusInvariant) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return TorusInvariant(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, TorusInvariant):
            return NotImplemented
        return TorusInvariant({w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

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


class BinomialRelation(namedtuple("BinomialRelation", "kind source lhs rhs")):
    """lhs - rhs with both sides monomials in the generators (index -> exponent).

    ``kind`` is "rel1" or "rel2"; ``source`` is the pair representative the
    relation was built from; ``lhs`` and ``rhs`` are tuples of
    (generator index, exponent) pairs.
    """

    __slots__ = ()


class Presentation(namedtuple("Presentation", "family rank generators labels relations")):
    """Generators (weights, with their labels) and BinomialRelations of C[M+]."""

    __slots__ = ()

    def to_json(self) -> dict:
        def side(mono):
            return {self.labels[i]: e for i, e in mono}

        return {
            "type": self.family,
            "rank": self.rank,
            "generators": [
                {"label": lab, "coords": list(w)}
                for lab, w in zip(self.labels, self.generators)
            ],
            "relations": [
                {"kind": r.kind, "lhs": side(r.lhs), "rhs": side(r.rhs)}
                for r in self.relations
            ],
        }

    def render(self) -> list[str]:
        def side(mono):
            if not mono:
                return "1"
            parts = []
            for i, e in mono:
                t = "x_{%s}" % self.labels[i]
                if e != 1:
                    t += f"^{e}"
                parts.append(t)
            return "·".join(parts)

        return [f"{side(r.lhs)} = {side(r.rhs)}" for r in self.relations]


def monomial_weight(generators, monomial) -> Weight:
    """The weight sum e * g of a generator monomial {index: exponent} (or its items)."""
    gens = list(generators)
    if not gens:
        raise DomainError("empty generator list")
    total = (0,) * len(gens[0])
    for i, e in dict(monomial).items():
        if not 0 <= i < len(gens):
            raise DomainError(f"unknown generator index {i}")
        if e < 0:
            raise DomainError(f"negative exponent {e}")
        total = add_weights(total, scale_weight(e, gens[i]))
    return total


def phi(generators, monomial) -> TorusInvariant:
    """Evaluate a generator monomial {index: exponent} to a single X^lam term."""
    return TorusInvariant({monomial_weight(generators, monomial): 1})


def _weight_label(w: Weight) -> str:
    parts = []
    for i, a in enumerate(w):
        if a == 0:
            continue
        parts.append(("w%d" % (i + 1)) if a == 1 else ("%dw%d" % (a, i + 1)))
    return "+".join(parts) if parts else "0"


def generator_labels(rsys: RootSystem, basis) -> tuple[str, ...]:
    """Display labels of the Hilbert basis elements, in basis order."""
    if classify_type(rsys) == TYPE_I:
        return tuple(_weight_label(w) for w in basis.elements)
    by_weight: dict[Weight, str] = {}
    for i, w in basis.self_conjugate.items():
        by_weight[w] = f"μ{i}"
    for i, w in enumerate(basis.scaled_fundamentals):
        by_weight.setdefault(w, f"ν{i + 1}")
    out = []
    for w in basis.elements:
        out.append(by_weight.get(w, _weight_label(w)))
    return tuple(out)


def presentation(rsys: RootSystem) -> Presentation:
    """Generators (the Hilbert basis) of C[M+] and binomial relations in ker phi.

    For type II these relations need not generate ker phi (see the module
    docstring); for type I there are none.

    For each conjugate pair the representative lambda is the lexicographically
    larger member.  rel1 is ``x_lam x_bar = prod x_mu_i^max(a_i, a_sigma(i))``;
    rel2 is ``x_lam^ell = prod x_nu_i^(ell a_i / s_i)`` and is omitted exactly
    when lambda is itself one of the nu_i.
    """
    basis = hilbert_basis(rsys)
    gens = basis.elements
    idx = {w: i for i, w in enumerate(gens)}

    def mono(pairs):
        # factors in descending generator weight, matching the usual display
        return tuple(sorted(pairs, key=lambda t: -t[0]))

    relations = []
    scaled = set(basis.scaled_fundamentals)
    for lam, bar in sorted(basis.pairs, reverse=True):
        exps = rel1(rsys, lam)
        rhs = mono((idx[basis.self_conjugate[i]], e) for i, e in exps.items())
        lhs = mono(((idx[lam], 1), (idx[bar], 1)))
        relations.append(BinomialRelation("rel1", lam, lhs, rhs))
        if lam not in scaled:
            l = ell(rsys, lam)
            exps2 = rel2(rsys, lam)
            rhs2 = mono(
                (idx[basis.scaled_fundamentals[i - 1]], e)
                for i, e in exps2.items()
            )
            relations.append(
                BinomialRelation("rel2", lam, ((idx[lam], l),), rhs2)
            )
    return Presentation(
        family=rsys.family,
        rank=rsys.rank,
        generators=gens,
        labels=generator_labels(rsys, basis),
        relations=tuple(relations),
    )


def verify_relations(rsys: RootSystem, pres: Presentation | None = None) -> Report:
    """Check phi(lhs) == phi(rhs) for every relation (and the conjugate rel2).

    For the type I algebras M+ = P+ is free, so the kernel of phi is zero:
    the report checks that every fundamental weight lies in M+, that the
    generators are exactly the fundamental weights, and that the
    presentation has no relations.
    """
    if pres is None:
        pres = presentation(rsys)
    basis = hilbert_basis(rsys)
    rep = Report(title=f"kernel membership {rsys.family}{rsys.rank}")
    if classify_type(rsys) == TYPE_I:
        fundamentals = [rsys.fundamental_weight(i) for i in range(rsys.rank)]
        outside = [w for w in fundamentals if not in_monoid(rsys, w)]
        rep.add(
            "every fundamental weight lies in M+",
            not outside,
            f"outside: {outside}" if outside else "",
        )
        gens = sorted(pres.generators)
        same = gens == sorted(fundamentals)
        rep.add(
            "generators are the fundamental weights",
            same,
            "" if same else f"generators {gens}",
        )
        rep.add(
            "no relations: C[M+] is a polynomial algebra",
            not pres.relations,
            f"{len(pres.relations)} relations" if pres.relations else "",
        )
    for rel in pres.relations:
        left = phi(pres.generators, dict(rel.lhs))
        right = phi(pres.generators, dict(rel.rhs))
        rep.add(
            f"{rel.kind}[{_weight_label(rel.source)}]",
            left == right,
            f"{left!r} vs {right!r}" if left != right else "",
        )
    # The partner's rel2 binomial is not emitted; that it lies in ker phi is
    # one more kernel-membership check.
    scaled = set(basis.scaled_fundamentals)
    idx = {w: i for i, w in enumerate(pres.generators)}
    for lam, bar in basis.pairs:
        if bar in scaled:
            continue
        l = ell(rsys, bar)
        exps = rel2(rsys, bar)
        lhs = phi(pres.generators, {idx[bar]: l})
        rhs = phi(
            pres.generators,
            {idx[basis.scaled_fundamentals[i - 1]]: e for i, e in exps.items()},
        )
        rep.add(f"rel2-conjugate[{_weight_label(bar)}]", lhs == rhs)
    return rep


def _box_radix(rsys: RootSystem, bound: int) -> int:
    """The radix ``bound + 1`` of the box [0, bound]^rank, once its size is checked.

    Raises :class:`ResourceLimitError`, before anything is allocated, when
    the box has more than ``BOX_CAP`` points.
    """
    if bound < 0:
        raise DomainError("bound must be >= 0")
    _check_box([bound] * rsys.rank, bound * rsys.rank)
    return bound + 1


def _factorisation_table(rsys: RootSystem, bound: int):
    """``(residues, counts)`` over the box [0, bound]^rank, as two flat lists.

    Cell ``j`` is the weight whose digits in radix ``bound + 1`` are ``j``,
    most significant first, so the cells run in lexicographic order.
    ``residues[j]`` is the class sum c_i w_i mod r of :func:`residue_classes`
    (0 iff w is in M+) and ``counts[j]`` is the number of factorisations of w
    over Hilb(M+) as a multiset.  They are counted one generator g at a
    time, in ascending j, by ``counts[j + off] += counts[j]`` over the cells
    u <= bound - g, ``off`` being the index of g: for w >= g the digits of
    w - g need no borrow, so the index of w - g is ``index(w) - off``.  The
    first rank - 1 digits of u are walked as prefixes and the last one is a
    contiguous range; the sub-box is empty when g leaves the box.
    Non-members keep the count 0, since the generators are members.

    Only :func:`factorisation_counts` reads this table;
    :func:`generation_check` asks whether a factorisation exists and
    answers it on bitsets.  Raises :class:`ResourceLimitError`, before any
    list is allocated, when the box has more than ``BOX_CAP`` points.
    """
    radix = _box_radix(rsys, bound)
    r, c = residue_classes(rsys)
    residues = [0]
    for ci in c:
        residues = [(x + ci * v) % r for x in residues for v in range(radix)]
    counts = [0] * len(residues)
    counts[0] = 1
    for g in hilbert_basis(rsys).elements:
        off = 0
        for gi in g:
            off = off * radix + gi
        prefixes = [0]
        for gi in g[:-1]:
            prefixes = [p * radix + u for p in prefixes for u in range(radix - gi)]
        width = radix - g[-1]
        for p in prefixes:
            start = p * radix
            for j in range(start, start + width):
                k = counts[j]
                if k:
                    counts[j + off] += k
    return residues, counts


def _member_bits(r: int, classes, bound: int) -> int:
    """The cells of the box [0, bound]^rank whose class sum c_i w_i is 0 mod r, as a bitset.

    Bit ``j`` is cell ``j`` of :func:`_cell_weight`.  The digits are
    added from the least significant one: ``res[t]`` holds the cells of the
    digits seen so far with class sum t, all below ``stride``, so the copy
    of ``res[t]`` for digit value v is ``res[t] << v * stride`` and the
    copies do not overlap.
    """
    radix = bound + 1
    res = [1] + [0] * (r - 1)
    stride = 1
    for ci in reversed(classes):
        new = [0] * r
        for t, bits in enumerate(res):
            if bits:
                for v in range(radix):
                    new[(t + ci * v) % r] |= bits << (v * stride)
        res = new
        stride *= radix
    return res[0]


def _reach_bits(generators, bound: int, rank: int) -> int:
    """The cells of the box [0, bound]^rank that are sums of ``generators``, as a bitset.

    Bit ``j`` is cell ``j`` of :func:`_cell_weight`, and the empty sum is
    cell 0.  For each generator g that fits in the box, ``mask``
    holds the sub-box u <= bound - g, built one digit at a time from the
    least significant one.  For u in it, every digit u_i + g_i is at most
    bound, so adding g carries into no digit and ``index(u + g) = index(u)
    + index(g)``: the shift ``(reach & mask) << index(g)`` adds g to every
    reached cell that stays in the box, and no other borrow or carry mask is
    needed.  Each w >= g of the box has w - g in the sub-box, so repeating
    the shift until ``reach`` stops growing (at most bound + 1 rounds) adds
    every multiple of g that fits.
    """
    radix = bound + 1
    reach = 1
    for g in generators:
        if max(g) > bound:
            continue
        mask, stride, off = 1, 1, 0
        for gi in reversed(g):
            digit = 0
            for v in range(radix - gi):
                digit |= mask << (v * stride)
            mask = digit
            off += gi * stride
            stride *= radix
        while True:
            grown = reach | (reach & mask) << off
            if grown == reach:
                break
            reach = grown
    return reach


def _cell_weight(j: int, radix: int, rank: int) -> Weight:
    """The weight of cell ``j`` of the box [0, radix - 1]^rank.

    Its digits in radix ``radix`` are ``j``, most significant first, so the
    cells run in lexicographic order.
    """
    digits = []
    for _ in range(rank):
        j, d = divmod(j, radix)
        digits.append(d)
    return tuple(reversed(digits))


def factorisation_counts(rsys: RootSystem, bound: int) -> dict[Weight, int]:
    """The number of Hilbert-basis factorisations of every member of M+ with coords <= bound.

    Keys are the members of the box [0, bound]^rank in lexicographic order;
    factorisations are counted as multisets of generators.
    """
    residues, counts = _factorisation_table(rsys, bound)
    box = product(range(bound + 1), repeat=rsys.rank)
    return {w: k for w, res, k in zip(box, residues, counts) if not res}


def generation_check(rsys: RootSystem, bound: int) -> Report:
    """Check that every member of M+ with coords <= bound factors over Hilb(M+).

    The question is whether a factorisation exists, so it is decided by
    reachability on bitsets over the cells of the box: the members of
    :func:`_member_bits` less the sums of :func:`_reach_bits`.  The first
    five failures are the lowest set bits, which come in lexicographic
    order, and only they are decoded into weights.
    :func:`factorisation_counts` gives the counts themselves.
    """
    radix = _box_radix(rsys, bound)
    r, c = residue_classes(rsys)
    members = _member_bits(r, c, bound)
    bad = members & ~_reach_bits(hilbert_basis(rsys).elements, bound, rsys.rank)
    unfactorable, rest = [], bad
    while rest and len(unfactorable) < 5:
        low = rest & -rest
        unfactorable.append(_cell_weight(low.bit_length() - 1, radix, rsys.rank))
        rest ^= low
    rep = Report(title=f"generation {rsys.family}{rsys.rank} bound {bound}")
    rep.add(
        f"all {members.bit_count()} monoid elements factor over Hilb(M+)",
        not bad,
        f"unfactorable: {unfactorable}" if bad else "",
    )
    return rep

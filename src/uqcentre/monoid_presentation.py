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
A basis element ``X^lam`` is known by its weight lam, so :func:`phi` returns
the weight of a generator monomial, and a binomial lies in ker phi exactly
when its two sides have the same weight.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, islice, product
from math import lcm

from .errors import DomainError
from .half_lattice_monoid import (
    TYPE_I,
    _check_box,
    classify_type,
    hilbert_basis,
    in_monoid,
    rel1,
    rel2,
    residue_classes,
)
from .report import Report
from .root_system import RootSystem, Weight, add_weights, scale_weight


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


def phi(generators, monomial) -> Weight:
    """phi(x^e) = X^lam, given by lam = sum e * g, for a monomial {index: exponent} (or its items)."""
    gens = list(generators)
    if not gens:
        raise DomainError("empty generator list")
    total = (0,) * len(gens[0])
    for i, e in dict(monomial).items():
        if type(i) is not int or not 0 <= i < len(gens):
            raise DomainError(f"unknown generator index {i!r}")
        if type(e) is not int or e < 0:
            raise DomainError(f"exponent {e!r} is not an int >= 0")
        total = add_weights(total, scale_weight(e, gens[i]))
    return total


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


def _mono(pairs):
    """The (generator index, exponent) factors in descending index, matching the usual display."""
    return tuple(sorted(pairs, key=lambda t: -t[0]))


def _rel2_binomial(rsys: RootSystem, basis, idx, lam: Weight) -> BinomialRelation:
    """The rel2 binomial x_lam^ell = prod x_nu_i^e_i; ``idx`` maps weights to generator indices.

    The support of ``lam`` is that of the exponents of :func:`rel2`, so
    ell(lam) is the lcm of the s_i over their keys.
    """
    exps = rel2(rsys, lam)
    l = lcm(*[basis.s[i - 1] for i in exps])
    rhs = _mono((idx[basis.scaled_fundamentals[i - 1]], e) for i, e in exps.items())
    return BinomialRelation("rel2", lam, ((idx[lam], l),), rhs)


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
    relations = []
    scaled = set(basis.scaled_fundamentals)
    for lam, bar in sorted(basis.pairs, reverse=True):
        rhs = _mono((idx[basis.self_conjugate[i]], e) for i, e in rel1(rsys, lam).items())
        lhs = _mono(((idx[lam], 1), (idx[bar], 1)))
        relations.append(BinomialRelation("rel1", lam, lhs, rhs))
        if lam not in scaled:
            relations.append(_rel2_binomial(rsys, basis, idx, lam))
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
        _add_balance(rep, f"{rel.kind}[{_weight_label(rel.source)}]", pres.generators, rel)
    # The partner's rel2 binomial is not emitted; that it lies in ker phi is
    # one more kernel-membership check.
    scaled = set(basis.scaled_fundamentals)
    idx = {w: i for i, w in enumerate(pres.generators)}
    for _, bar in basis.pairs:
        if bar not in scaled:
            rel = _rel2_binomial(rsys, basis, idx, bar)
            _add_balance(rep, f"rel2-conjugate[{_weight_label(bar)}]", pres.generators, rel)
    return rep


def _add_balance(rep: Report, name: str, generators, rel: BinomialRelation) -> None:
    """Add item ``name`` to ``rep``: whether phi gives both sides of ``rel`` the same weight.

    This one comparison serves :func:`verify_relations` and the centre-relations report.
    """
    left = phi(generators, rel.lhs)
    right = phi(generators, rel.rhs)
    rep.add(name, left == right, "" if left == right else f"{left} != {right}")


def _box_radix(rsys: RootSystem, bound: int) -> int:
    """The radix ``bound + 1`` of the box [0, bound]^rank, once its size is checked.

    Raises :class:`ResourceLimitError`, before anything is allocated, when
    the box has more than ``BOX_CAP`` points.
    """
    if type(bound) is not int or bound < 0:
        raise DomainError(f"bound must be >= 0 and an int, not {bound!r}")
    _check_box([bound] * rsys.rank, bound * rsys.rank)
    return bound + 1


def _cell_weights(bits: int, radix: int, rank: int):
    """The weights of the cells set in ``bits``, lazily, in ascending lexicographic order.

    Cell ``j`` of the box [0, radix - 1]^rank is the weight whose digits in
    radix ``radix`` are ``j``, most significant first: the ``j``-th point of
    :func:`product`, selected by bit ``j``.
    """
    return compress(product(range(radix), repeat=rank), map(int, bin(bits)[:1:-1]))


def _member_bits(r: int, classes, bound: int) -> int:
    """The cells of the box [0, bound]^rank whose class sum c_i w_i is 0 mod r, as a bitset.

    Bit ``j`` is cell ``j`` of :func:`_cell_weights`.  The digits are
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


def _reach_bits(generators, bound: int) -> int:
    """The cells of the box [0, bound]^rank that are sums of ``generators``, as a bitset.

    Bit ``j`` is cell ``j`` of :func:`_cell_weights`, and the empty sum is
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


def generation_check(rsys: RootSystem, bound: int) -> Report:
    """Check that every member of M+ with coords <= bound factors over Hilb(M+).

    The question is whether a factorisation exists, so it is decided by
    reachability on bitsets over the cells of the box: the members of
    :func:`_member_bits` less the sums of :func:`_reach_bits`.  Only when
    that leaves a cell are the first five decoded by :func:`_cell_weights`.
    ``bound`` must be an int >= 0; DomainError otherwise.
    """
    radix = _box_radix(rsys, bound)
    r, c = residue_classes(rsys)
    members = _member_bits(r, c, bound)
    bad = members & ~_reach_bits(hilbert_basis(rsys).elements, bound)
    first = list(islice(_cell_weights(bad, radix, rsys.rank), 5)) if bad else None
    rep = Report(title=f"generation {rsys.family}{rsys.rank} bound {bound}")
    rep.add(
        f"all {members.bit_count()} monoid elements factor over Hilb(M+)",
        not bad,
        f"unfactorable: {first}" if bad else "",
    )
    return rep

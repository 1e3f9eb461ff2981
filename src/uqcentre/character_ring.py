"""Characters, Harish-Chandra images and products in the character ring.

The image of the central element attached to a module is its character
written as a :class:`TorusInvariant`, a combination of the even torus
elements ``K_2mu``: ``xi([V]) = sum m_V(mu) K_2mu``.

Weight multiplicities come from Freudenthal's recursion, run entirely in
integer arithmetic.  Characters are multiplied in one way only: in the basis
of simple modules, one fundamental character at a time, by the
Brauer-Klimyk rule.  That product serves the unitriangularity report; the
algebraic-independence report reads leading terms off the dominant tables
and multiplies nothing.  The second implementations that the tests check
these against (the full-support product of ``TorusInvariant`` combinations,
the av basis, triangular expansions, the Weyl dimension formula and the
exact rank of the monomials in the fundamental characters) live in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb

from .errors import DomainError
from .half_lattice_monoid import (
    TYPE_I,
    _bounded_vectors,
    classify_type,
    in_monoid,
    residue,
    residue_classes,
)
from .monoid_presentation import TorusInvariant, monomial_weight, presentation
from .report import Report
from .root_system import (
    RootSystem,
    Weight,
    add_weights,
    scale_weight,
    sub_weights,
)


class CharacterTable(namedtuple("CharacterTable", "highest mult dim")):
    """Multiplicities of the simple module with the given highest weight.

    ``mult`` is keyed by the dominant weights only; values on the rest of the
    orbit follow by Weyl invariance.  ``dim`` sums the multiplicities over
    full orbits.
    """

    __slots__ = ()


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
    return _freudenthal_table(rsys, tuple(lam))


@cache
def _freudenthal_table(rsys: RootSystem, lam: Weight) -> CharacterTable:
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
    if doms[0] != lam:
        raise ArithmeticError(f"{doms[0]} sorts above the highest weight {lam}")

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
        if r or q <= 0:
            raise ArithmeticError(
                f"Freudenthal step for {rsys} at {mu} below {lam} gives "
                f"{2 * num}/{den}, not a positive integer"
            )
        mult[mu] = q

    dim = sum(m * rsys.orbit_size(mu) for mu, m in mult.items())
    return CharacterTable(highest=lam, mult=mult, dim=dim)


def full_character(rsys: RootSystem, lam: Weight) -> dict[Weight, int]:
    """The complete weight-multiplicity map of L(lam), keyed by every weight."""
    return _full_character(rsys, tuple(lam))


@cache
def _full_character(rsys: RootSystem, lam: Weight) -> dict[Weight, int]:
    table = weight_multiplicities(rsys, lam)
    out: dict[Weight, int] = {}
    for mu, m in table.mult.items():
        for v in rsys.weyl_orbit(mu):
            out[v] = m
    if sum(out.values()) != table.dim:
        raise ArithmeticError(
            f"character of {lam} for {rsys} sums to {sum(out.values())}, "
            f"not the dimension {table.dim}"
        )
    return out


# -- xi images ----------------------------------------------------------------


def xi_simple(rsys: RootSystem, lam: Weight) -> TorusInvariant:
    """xi([L(lam)]) = sum m(mu) K_2mu; requires lam in M+."""
    if not in_monoid(rsys, lam):
        raise DomainError(f"{lam} is not in M+; 2mu would leave the root lattice")
    out = TorusInvariant(full_character(rsys, lam))
    for w in out.terms:
        if residue(rsys, w):
            raise ArithmeticError(f"key {w} is outside M for {rsys}")
    return out


def _order_key(rsys: RootSystem):
    """A total order on weights extending the dominance order.

    Dominance raises the root-coordinate height, so height comes first; ties
    break by coordinate sum then lexicographically.  Each part of the key is
    additive or lexicographic, so the order is compatible with addition:
    a < b implies a + c < b + c.
    """

    def key(w: Weight):
        return (sum(rsys.scaled_root_coords(w)), sum(w), w)

    return key


# -- products in the basis of simple modules -----------------------------------


def _times_fundamental(
    rsys: RootSystem, decomp: dict[Weight, int], i: int
) -> dict[Weight, int]:
    """The Brauer-Klimyk rule: sum c [L(lam)] times [L(w_i)], in the same basis.

    [L(lam)][L(w_i)] = sum over the weights nu of L(w_i), with multiplicity
    m(nu), of sign(w) [L(w(lam+nu+rho) - rho)], where w reflects lam+nu+rho
    into the dominant chamber; a term whose lam+nu+rho lies on a wall is
    fixed by a reflection and cancels.
    """
    roots = [rsys.simple_root(j) for j in range(rsys.rank)]
    shifted = [
        (add_weights(nu, rsys.rho()), m)
        for nu, m in full_character(rsys, rsys.fundamental_weight(i)).items()
    ]
    out: dict[Weight, int] = {}
    for lam, c in decomp.items():
        for nu_rho, m in shifted:
            v = add_weights(lam, nu_rho)
            term = c * m
            while min(v) < 0:
                j = v.index(min(v))
                vj = v[j]
                v = tuple(x - vj * a for x, a in zip(v, roots[j]))
                term = -term
            if 0 not in v:
                mu = tuple(x - 1 for x in v)
                out[mu] = out.get(mu, 0) + term
    return {mu: c for mu, c in out.items() if c}


def _tensor_decomposition(rsys: RootSystem, lam: Weight) -> dict[Weight, int]:
    """[T(lam)] = prod_i [L(w_i)]^(lam_i) in the basis of simple modules."""
    decomp = {rsys.zero(): 1}
    for i, a in enumerate(lam):
        for _ in range(a):
            decomp = _times_fundamental(rsys, decomp, i)
    return decomp


# -- verification reports ------------------------------------------------------


def unitriangularity_check(rsys: RootSystem, bound: int):
    """Expand [T(lam)] over the [L(mu)] for all lam in M+ with coords <= bound.

    The expansion multiplies by one fundamental character at a time with the
    Brauer-Klimyk rule.

    Asserts the diagonal coefficient 1 and nonnegative integer multiplicities
    supported strictly below lam.  Returns ``(report, multiplicities)``.
    """
    rep = Report(title=f"unitriangularity {rsys.family}{rsys.rank} bound {bound}")
    mults: dict[Weight, dict[Weight, int]] = {}
    for w in _bounded_vectors([bound] * rsys.rank, classes=residue_classes(rsys)):
        decomp = _tensor_decomposition(rsys, w)
        ok = decomp.get(w) == 1
        entry: dict[Weight, int] = {}
        for mu, c in decomp.items():
            if c < 0:
                ok = False
                break
            entry[mu] = c
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
    independent (``independence_check`` certifies this by leading terms, for
    every type), so the two sides of a binomial have the same image exactly
    when they have the same weight; that exponent identity is what is checked.
    """
    if classify_type(rsys) == TYPE_I:
        raise DomainError(f"{rsys} is of type I; its centre has no relations")
    pres = presentation(rsys)
    rep = Report(title=f"centre relations {rsys.family}{rsys.rank}")

    for rel in pres.relations:
        lw = monomial_weight(pres.generators, rel.lhs)
        rw = monomial_weight(pres.generators, rel.rhs)
        rep.add(
            f"{rel.kind}[{rel.source}] exponent identity",
            lw == rw,
            "" if lw == rw else f"{lw} != {rw}",
        )
    return rep


def independence_check(rsys: RootSystem, degree_bound: int) -> Report:
    """Certify by leading terms that the fundamental xi images are independent.

    ``_order_key`` is compatible with addition, so leading terms multiply.
    Every weight of L(w_i) is w(mu) <= mu for a key mu of its dominant table,
    so xi([L(w_i)]) leads with the table's largest key, 1*K_2w_i in a
    correct table (every key lies below w_i, and m(w_i) = 1).  Then
    prod_i xi([L(w_i)])^(e_i) leads with 1*K_2(sum e_i w_i), distinct for
    distinct e, so in a nontrivial combination of distinct monomials the
    largest leading term cannot cancel: independence in every degree.  The
    report counts the C(n + degree_bound, n) monomials of degree <=
    degree_bound; it fails, naming w_i and the leading term found, when a
    fundamental character does not lead with 1*K_2w_i.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be >= 0")
    order_key = _order_key(rsys)
    faults = []
    for i in range(rsys.rank):
        wi = rsys.fundamental_weight(i)
        mult = weight_multiplicities(rsys, wi).mult
        lead = max(mult, key=order_key)
        if lead != wi or mult[lead] != 1:
            faults.append(f"xi[L(w{i + 1})] leads with {mult[lead]}·K_2{lead}")
    count = comb(rsys.rank + degree_bound, rsys.rank)
    rep = Report(title=f"independence {rsys.family}{rsys.rank} degree {degree_bound}")
    rep.add(
        f"{count} monomials of degree <= {degree_bound} are independent",
        not faults,
        "; ".join(faults) or f"rank {count} of {count}",
    )
    return rep

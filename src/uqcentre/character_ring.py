"""Characters and Harish-Chandra images in the character ring.

The image of the central element attached to a module is its character, a
combination of the even torus elements ``K_2mu``: ``xi([V]) = sum m_V(mu)
K_2mu``, held as the multiplicity map ``{mu: m_V(mu)}``.

Weight multiplicities come from Freudenthal's recursion over stabiliser
orbits, run entirely in integer arithmetic.  What the orbits are depends
only on the zero pattern J = {j : mu_j = 0} of the dominant weight mu, a
node bitmask.  A table build forms the roots supported on J, the
W_J-dominant roots and their orbit counts once per J, not once per mu, by
mask tests on the root table of :class:`RootSystem`, and its ``dim`` takes
one orbit size |W| / |W_J| per J.  The descent to the dominant weights
below lam skips every root that is positive at a node where mu is 0.

The library multiplies no characters.  The algebraic-independence report
reads leading terms off the dominant tables, and the unitriangularity of
the tensor modules follows from the same certificate (see
:func:`independence_check`): [T(lam)] = [L(lam)] + sum_(mu < lam) c_mu
[L(mu)] with integers c_mu >= 0, for every lam at once.  The second
implementations that the tests check these against (Freudenthal over every
positive root, the full-support product of multiplicity maps, the
Brauer-Klimyk product in the basis of simple modules with the
unitriangularity run over a box of M+, the av basis, triangular
expansions, the Weyl dimension formula and the exact rank of the monomials
in the fundamental characters) live in ``tests/oracles.py``.
The memoised tables are handed out as read-only ``MappingProxyType`` views.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb
from types import MappingProxyType

from .errors import DomainError
from .half_lattice_monoid import TYPE_I, classify_type, in_monoid, residue
from .monoid_presentation import _add_balance, presentation
from .report import Report
from .root_system import (
    RootSystem,
    Weight,
    add_weights,
    height_product,
    node_mask,
    sub_weights,
)


class CharacterTable(namedtuple("CharacterTable", "highest mult dim")):
    """Multiplicities of the simple module with the given highest weight.

    ``mult`` is a read-only map keyed by the dominant weights only; values on
    the rest of the orbit follow by Weyl invariance.  ``dim`` sums the
    multiplicities over full orbits.
    """

    __slots__ = ()


# -- weight multiplicities ---------------------------------------------------


def _dominant_weights_below(rsys: RootSystem, lam: Weight) -> list[Weight]:
    """All dominant mu with lam - mu a nonnegative integer root combination.

    Searches down from lam, subtracting one positive root at a time and
    keeping the dominant results.  This reaches every such mu: two dominant
    weights mu < lam are joined by a chain of dominant weights, each a
    positive root below the previous one (Stembridge, "The partial order of
    dominant weights", 1998).  mu - alpha can be dominant only if alpha is
    positive only at nodes where mu is, so a root whose ``pos`` mask leaves
    supp(mu) is skipped before mu - alpha is formed.
    """
    roots = rsys.positive_root_table()
    found = [lam]
    seen = {lam}
    for mu in found:  # grows while it is walked: breadth-first
        outside = ~node_mask(mu)
        for alpha, _, _, _, pos, _ in roots:
            if not pos & outside:
                nu = sub_weights(mu, alpha)
                if min(nu) >= 0 and nu not in seen:
                    seen.add(nu)
                    found.append(nu)
    return found


def _check_integral(lam) -> None:
    if not all(type(x) is int for x in lam):
        raise DomainError(f"highest weight {lam} has a coordinate that is not an int")


def weight_multiplicities(rsys: RootSystem, lam: Weight) -> CharacterTable:
    """Exact weight multiplicities of L(lam) via Freudenthal's recursion.

    For each dominant mu < lam,

        (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_(alpha>0) S(alpha),
        S(alpha) = sum_(k>=1) m(mu + k alpha) (mu + k alpha, alpha),

    evaluated in scaled integer arithmetic (the string property lets the
    inner sum stop at the first zero multiplicity).  As in Moody and Patera,
    "Fast recursion formula for weight multiplicities" (Bull. AMS 7, 1982),
    the sum runs over orbits of the stabiliser W_J of mu, J = {i : mu_i = 0}.
    Phi_J, the roots supported on J, are the roots orthogonal to mu, and:

    * S is W_J-invariant, since W_J fixes mu and the form;
    * W_J permutes the positive roots outside Phi_J; on Phi_J,
      S(-alpha) = S(alpha), the alpha-string through mu being symmetric;
    * each W_J-orbit holds one W_J-dominant root (alpha_i >= 0 for i in J).

    So the sum is sum c_alpha S(alpha) over the W_J-dominant alpha > 0, with
    c_alpha = |W_J alpha| outside Phi_J and |W_J alpha| / 2 in it, exact
    quotients of :func:`height_product` over Phi_J+.  A ``lam`` with a
    coordinate that is not an int, or of a length other than the rank,
    raises DomainError (a short one would descend forever).
    """
    _check_integral(lam)
    if not rsys.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    return _freudenthal_table(rsys, tuple(lam))


@cache
def _freudenthal_table(rsys: RootSystem, lam: Weight) -> CharacterTable:
    n = rsys.rank
    d = rsys.sym
    D = rsys.root_coord_scale
    table = rsys.positive_root_table()
    rho = rsys.rho()
    full = (1 << n) - 1

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
    patterns = {}  # zero pattern J of mu -> _stabiliser_orbits(table, J)
    zeros = [full & ~node_mask(mu) for mu in doms]
    for mu, zero in zip(doms[1:], zeros[1:]):
        if zero not in patterns:
            patterns[zero] = _stabiliser_orbits(table, zero)
        roots = patterns[zero]
        num = 0
        for alpha, calpha, c_alpha in roots:
            s, nu = 0, add_weights(mu, alpha)
            while m := mult.get(rsys.dominant_representative(nu), 0):
                s += m * form_with_root(nu, calpha)
                nu = add_weights(nu, alpha)
            num += s * c_alpha
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

    sizes = _orbit_sizes(table, zeros)
    dim = sum(mult[mu] * sizes[zero] for mu, zero in zip(doms, zeros))
    return CharacterTable(highest=lam, mult=MappingProxyType(mult), dim=dim)


def _orbit_sizes(table, zeros) -> dict[int, int]:
    """{J: |W| / |W_J|} over the zero patterns J in ``zeros``.

    |W| / |W_J| is the size of the Weyl orbit of every dominant weight whose
    zero nodes are J: one :func:`height_product` over the roots whose
    support leaves J, per pattern rather than per weight.
    """
    return {zero: height_product(table, ~zero) for zero in set(zeros)}


def _stabiliser_orbits(table, zero: int):
    """The W_J-dominant positive roots, J = {j : bit j of ``zero``}, with their counts.

    The W_J-dominant roots are those with ``neg & J == 0``, and Phi_J+, the
    positive roots supported on J, those with ``supp & ~J == 0``.  Each
    alpha comes with its calpha and its count c_alpha = |W_J alpha|, halved
    when alpha is in Phi_J: :func:`height_product` over Phi_J+ at the nodes
    where alpha is positive, which on J are the nodes where it is nonzero.
    For dominant mu, (mu, alpha) = 0 exactly when alpha is supported on J,
    so all of it depends on J alone and a table build forms it once per J.
    """
    sub = [root for root in table if not root.supp & ~zero]
    return [
        (alpha, calpha, height_product(sub, pos, 1 if supp & ~zero else 2))
        for alpha, calpha, _, supp, pos, neg in table
        if not neg & zero
    ]


def full_character(rsys: RootSystem, lam: Weight) -> MappingProxyType:
    """The complete weight-multiplicity map of L(lam), keyed by every weight, read-only."""
    _check_integral(lam)
    return _full_character(rsys, tuple(lam))


@cache
def _full_character(rsys: RootSystem, lam: Weight) -> MappingProxyType:
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
    return MappingProxyType(out)


# -- xi images ----------------------------------------------------------------


def xi_simple(rsys: RootSystem, lam: Weight) -> dict[Weight, int]:
    """xi([L(lam)]) = sum m(mu) K_2mu as a new dict {mu: m(mu)}; requires lam in M+."""
    if not in_monoid(rsys, lam):
        raise DomainError(f"{lam} is not in M+; 2mu would leave the root lattice")
    out = dict(full_character(rsys, lam))
    for w in out:
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


# -- verification reports ------------------------------------------------------


def verify_centre_relations(rsys: RootSystem) -> Report:
    """Check every presentation relation in the Harish-Chandra image model.

    A generator x_g maps to xi([T(g)]), and xi o T is multiplicative:
    xi([T(lam)]) = prod_i xi([L(w_i)])^(lam_i).  A monomial prod x_g^(e_g)
    therefore maps to prod_i xi([L(w_i)])^(lam_i) with lam = sum e_g g, the
    weight of the monomial.  The fundamental characters are algebraically
    independent (``independence_check`` certifies this by leading terms, for
    every type), so the two sides of a binomial have the same image exactly
    when they have the same weight; that exponent identity is what is checked,
    by the comparison that ``verify_relations`` uses.
    """
    if classify_type(rsys) == TYPE_I:
        raise DomainError(f"{rsys} is of type I; its centre has no relations")
    pres = presentation(rsys)
    rep = Report(title=f"centre relations {rsys.family}{rsys.rank}")

    for rel in pres.relations:
        _add_balance(rep, f"{rel.kind}[{rel.source}] exponent identity", pres.generators, rel)
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
    degree_bound, an int >= 0 (DomainError otherwise); it fails, naming w_i
    and the leading term found, when a fundamental character does not lead
    with 1*K_2w_i.

    Corollary (unitriangularity): let T(lam) be the tensor product of lam_i
    copies of each L(w_i).  Then [T(lam)] = [L(lam)] + sum_(mu < lam) c_mu
    [L(mu)] with integers c_mu >= 0, for every dominant lam, and no box of
    M+ need be walked to see it:

    * the certificate gives the coefficient 1 at [L(lam)]: the character of
      T(lam) leads with 1*K_2lam, and no L(mu) with mu != lam has the
      weight lam;
    * every weight of L(w_i) lies below w_i, so every weight of T(lam) lies
      below lam; hence every other [L(mu)] has mu < lam;
    * complete reducibility makes every coefficient a nonnegative integer.
    """
    if type(degree_bound) is not int or degree_bound < 0:
        raise DomainError(f"degree bound must be >= 0 and an int, not {degree_bound!r}")
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

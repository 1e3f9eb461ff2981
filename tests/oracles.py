"""Test oracles: second implementations that the library itself never uses.

Each oracle computes what a library routine computes by another route, and
shares no code with the routine it checks.  Membership in M+ is read off the
root coordinates, not the congruence mod r; factorisations are counted with
a dict keyed by weight, where the library decides only whether one exists.
The library multiplies no characters.  Here they are multiplied in two ways:
as full-support convolutions of ``{weight: coefficient}`` dicts, and in the
basis of simple modules by the Brauer-Klimyk rule
(:func:`times_fundamental`), with which :func:`unitriangularity_check` walks
a box of M+ and checks the corollary of the leading-term certificate that
the library states instead.  The dominant weight of an orbit is reached by
reflecting at the first negative coordinate over dense Cartan columns, not
from a stack over sparse ones, and -w_0 by one such walk per node, not by
one walk for all nodes.  The positive roots are the Weyl closure of the
simple roots, not built height by height; Freudenthal's recursion sums over every
positive root, not over stabiliser orbits, descends to the dominant weights
below lam by subtracting every positive root from every weight found
(:func:`dominant_weights_below_by_roots`), and counts each orbit by the root
heights over root-coordinate tuples (:func:`orbit_size_by_heights`), where
the library tests node masks.  The oracles may read the
library's Freudenthal tables (``weight_multiplicities``,
``full_character``) and its total order on weights (``_order_key``); the
exact rank of the monomials in the fundamental characters expands them by
the Brauer-Klimyk rule, where the library certifies their independence by
leading terms.
The product in U_q(sl2) is formed one straightening triple at a time, from
the normal forms of E'^c F^a by a two-term induction on c
(:func:`straighten_by_induction`), where the library applies E' to a whole
element at a time; it reads only the stored terms.  With it
Gamma_V is the matrix product K_V Rt_V R_V (:func:`gamma_by_products`), and
the middle factor M of Gamma_V^k = K_V Rt_V M^(k-1) R_V the product
R_V K_V Rt_V (:func:`middle_by_products`), where the library writes each
entry of both down in closed form.  The matrices R_V, Rt_V and K_V are
built only here (:func:`quasi_R`, :func:`quasi_R_tilde_T`,
:func:`K_operator`), entry by entry from the library's coefficients.  The
matrices of zeta(E), zeta(F) and zeta(K) on the simple module are built here
from its label m.  R_V and the transposed R~_V are sums of QRat matrix
powers, each divided entrywise by [n]!, tensored with U_q(sl2) monomials.
The intertwining lemmas on the way to the centrality of C^(k)_V (Gamma_V
commutes with the coproduct; K_V twists it by phi^2) are checked here on the
library's Gamma_V and K_V, with the coproducts as sums of matrix (x) element
terms.
Polynomial products are dict convolutions.  The packed form of a Laurent
coefficient is decoded by one mask and one shift per digit and encoded by
Horner's rule, where the library reads and joins the bytes of the integer.
The inverse Cartan matrix is Gauss-Jordan over ``Fraction``; the Hilbert
basis is a scan of the Davenport box (:func:`bounded_vectors`, which shares
no code with the library's box) that tests each member on its own for
minimality.  The anti-involution theta of U_q(sl2) (:func:`theta`), under
which the two halves of the library's Casimir trace agree, is applied to
monomials by its closed form.  The generators F, K, K^-1 and E', the
q-factorial [m]!, the identity matrix and the simple reflections live
here: only tests and oracles use them.  E itself lies outside the integral
form in which the library works, so E' = (q - q^-1) E stands in for it.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm
from operator import add

from uqcentre import (
    DomainError,
    Report,
    UqElement,
    UqMatrix,
    gamma,
    weight_multiplicities,
)
from uqcentre.character_ring import CharacterTable, _order_key, full_character
from uqcentre.qrational import Q_ONE, Q_ZERO, laurent_quotient, q_int, q_power
from uqcentre.uq_rank1 import UQ_ONE, UQ_ZERO, _r_entry, _rt_entry


# -- membership in M+ ---------------------------------------------------------


def in_half_root_lattice(rsys, w):
    """All root coordinates of ``w`` lie in (1/2)Z, by the inverse Cartan matrix."""
    D = rsys.root_coord_scale
    return all(2 * x % D == 0 for x in rsys.scaled_root_coords(w))


def in_half_lattice(rsys, w):
    """``w`` is dominant and all its root coordinates lie in (1/2)Z."""
    return all(x >= 0 for x in w) and in_half_root_lattice(rsys, w)


def type_A_membership(rsys, w):
    """Membership in M+ for type A by the closed-form classes.

    r = (n+1)/gcd(n+1, 2) and c_i = i, written out rather than read from the
    inverse Cartan matrix, so the two derivations cross-check each other.
    """
    if rsys.family != "A":
        raise DomainError(f"type-A membership test called for {rsys}")
    if any(x < 0 for x in w):
        return False
    n = rsys.rank
    r = (n + 1) // gcd(n + 1, 2)
    return sum((i + 1) * a for i, a in enumerate(w)) % r == 0


def type_A_multiplier(n, i):
    """The closed form (n+1)/gcd(n+1, 2i) of the minimal s with s w_i in M+ for A_n, i 1-based."""
    return (n + 1) // gcd(n + 1, 2 * i)


def min_multiplier_search(rsys, i):
    """The least s >= 1 with ``s w_i`` in M+, by trying s = 1, 2, ..."""
    e = rsys.fundamental_weight(i)
    s = 1
    while not in_half_lattice(rsys, tuple(s * x for x in e)):
        s += 1
    return s


def is_atom(r, c, w):
    """True iff the zero-sum sequence with w_i copies of c_i in Z/r is minimal.

    It is minimal iff it is nonempty and zero-sum free after one unit is
    taken off its first nonzero node.  ``reach`` is the bitmask of the sums
    of the nonempty subsequences of the terms so far, so each term costs one
    cyclic shift of r bits.
    """
    first = next((i for i, a in enumerate(w) if a), None)
    if first is None:
        return False
    full = (1 << r) - 1
    reach = 0
    for i, (ci, a) in enumerate(zip(c, w)):
        for _ in range(a - (i == first)):
            reach |= (reach << ci | reach >> (r - ci)) & full | 1 << ci
            if reach & 1:
                return False
    return True


def bounded_vectors(limits, total_cap, classes=None):
    """The vectors with 0 <= v_i <= limits[i], sum(v) <= total_cap, sum c_i v_i = 0 mod r.

    ``classes`` is ``(r, c)``; without it every vector of the box is
    yielded.  The vectors come in ascending lexicographic order.  The
    residue is carried down the recursion, and the last coordinate runs
    only over the precomputed values that close it.
    """
    n = len(limits)
    r, c = classes or (1, (0,) * n)
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


def atoms_in_box(r, c):
    """The minimal zero-sum vectors over (r, c): each member of the Davenport box tested by :func:`is_atom`.

    The box is 0 <= w_i <= r / gcd(r, c_i) with sum(w) <= r, in ascending
    lexicographic order.
    """
    s = tuple(r // gcd(r, ci) for ci in c)
    return tuple(w for w in bounded_vectors(s, r, (r, c)) if is_atom(r, c, w))


def diagram_involution(family, n):
    """The diagram involution -w_0 from the tables, as a 0-indexed permutation.

    A_n: i <-> n+1-i;  D_odd: swaps the two fork nodes;  E_6: (1 6)(3 5);
    every other type: the identity.
    """
    sigma = list(range(n))
    if family == "A":
        sigma.reverse()
    elif family == "D" and n % 2 == 1:
        sigma[n - 2], sigma[n - 1] = n - 1, n - 2
    elif family == "E" and n == 6:
        sigma[0], sigma[5] = 5, 0
        sigma[2], sigma[4] = 4, 2
    return tuple(sigma)


def dominant_by_first_negative(rsys, w):
    """The dominant weight in the orbit of ``w``, reflecting at the first negative coordinate.

    Every reflection runs over all rank coordinates of the dense Cartan column.
    """
    v = list(w)
    A = rsys.cartan
    while True:
        for i in range(rsys.rank):
            if v[i] < 0:
                vi = v[i]
                for k in range(rsys.rank):
                    v[k] -= vi * A[k][i]
                break
        else:
            return tuple(v)


def involution_by_nodes(rsys):
    """-w_0 node by node: sigma(i) is the node of the dominant weight in the orbit of -w_i.

    One walk (:func:`dominant_by_first_negative`) per node; raises
    ``ArithmeticError`` if a walk does not end at a fundamental weight.
    """
    fund = [rsys.fundamental_weight(i) for i in range(rsys.rank)]
    dom = [dominant_by_first_negative(rsys, tuple(-x for x in w)) for w in fund]
    if not all(d in fund for d in dom):
        raise ArithmeticError(f"-w_0 of {rsys} maps the fundamental weights to {dom}")
    return tuple(fund.index(d) for d in dom)


def centre_type(family, n):
    """The centre type from the table: II for A_n (n >= 2), D_odd and E_6, else I."""
    if (family == "A" and n >= 2) or (family == "D" and n % 2 == 1) or (family, n) == ("E", 6):
        return "II"
    return "I"


def factorisation_counts_by_dict(rsys, generators, bound):
    """Multiset factorisations over ``generators`` of every member of the box [0, bound]^rank.

    The coin-change counter over a dict keyed by weight tuples: one pass per
    generator g over the members in lexicographic order, adding the count of
    w - g to that of w.  Members are found by root coordinates, and the keys
    come in lexicographic order.
    """
    members = [
        w for w in product(range(bound + 1), repeat=rsys.rank) if in_half_lattice(rsys, w)
    ]
    counts = dict.fromkeys(members, 0)
    counts[(0,) * rsys.rank] = 1
    for g in generators:
        for w in members:
            c = counts.get(tuple(x - y for x, y in zip(w, g)))
            if c:
                counts[w] += c
    return counts


# -- root coordinates and dimensions ------------------------------------------


def inverse_by_fractions(A):
    """Inverse of an invertible integer matrix by Gauss-Jordan over ``Fraction``, as (numerators, lcm of denominators)."""
    n = len(A)
    aug = [
        [Fraction(A[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    den = lcm(*(x.denominator for row in inv for x in row))
    num = tuple(tuple(int(x * den) for x in row) for row in inv)
    return num, den


def root_coords_to_weight(rsys, coords):
    """The weight sum c_j alpha_j, by the Cartan matrix; inverse of ``weight_to_root_coords``."""
    return tuple(
        sum(rsys.cartan[k][j] * coords[j] for j in range(rsys.rank))
        for k in range(rsys.rank)
    )


def weyl_dim(rsys, lam):
    """dim L(lam) by the Weyl dimension formula (independent of Freudenthal)."""
    if not rsys.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    lam_rho = tuple(x + 1 for x in lam)
    out = Fraction(1)
    for _, calpha in rsys.positive_root_data():
        top = sum(lam_rho[j] * rsys.sym[j] * calpha[j] for j in range(rsys.rank))
        bot = sum(rsys.sym[j] * calpha[j] for j in range(rsys.rank))
        out *= Fraction(top, bot)
    if out.denominator != 1:
        raise ArithmeticError(f"Weyl dimension of {lam} for {rsys} is {out}")
    return int(out)


def simple_reflection(rsys, i, w):
    """s_i(w) = w - w_i * alpha_i, in fundamental-weight coordinates; 0 <= i < rank."""
    if not 0 <= i < rsys.rank:
        raise DomainError(f"node index {i} is outside 0..{rsys.rank - 1}")
    rsys._check_weight(w)
    return tuple(x - w[i] * row[i] for x, row in zip(w, rsys.cartan))


def weyl_closure(rsys, *seeds):
    """Closure of the set of ``seeds`` under simple reflections (breadth-first)."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(rsys.rank):
                if u[i] == 0:
                    continue
                v = simple_reflection(rsys, i, u)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def positive_roots_by_closure(rsys):
    """The (weight, root coordinates) pairs of the positive roots, sorted by weight.

    Every root is W-conjugate to a simple root, so the roots are the closure
    of the simple roots; the positive ones have nonnegative root coordinates.
    """
    D = rsys.root_coord_scale
    roots = weyl_closure(rsys, *(rsys.simple_root(i) for i in range(rsys.rank)))
    coords = ((r, rsys.scaled_root_coords(r)) for r in sorted(roots))
    pos = [(r, c) for r, c in coords if all(x >= 0 for x in c)]
    if 2 * len(pos) != len(roots) or any(x % D for _, c in pos for x in c):
        raise ArithmeticError(f"the roots of {rsys} are not integral and signed")
    return tuple((r, tuple(x // D for x in c)) for r, c in pos)


def dominant_weights_below_by_roots(rsys, lam):
    """All dominant mu below lam, breadth-first: every positive root is
    subtracted from every weight found, and the dominant results kept."""
    found = [lam]
    seen = {lam}
    for mu in found:
        for alpha in rsys.positive_roots():
            nu = tuple(x - a for x, a in zip(mu, alpha))
            if nu not in seen and min(nu) >= 0:
                seen.add(nu)
                found.append(nu)
    return found


def orbit_size_by_heights(rsys, mu):
    """|W mu| for dominant ``mu``: prod (ht beta + 1) / ht beta over the positive
    roots beta with (mu, beta) != 0, read off their root-coordinate tuples."""
    num = den = 1
    for _, cbeta in rsys.positive_root_data():
        if any(c and x for c, x in zip(cbeta, mu)):
            num *= sum(cbeta) + 1
            den *= sum(cbeta)
    size, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"orbit count of {mu} is {num}/{den}, not an integer")
    return size


def freudenthal_by_roots(rsys, lam):
    """The table of L(lam) by Freudenthal's recursion summed over every positive root.

    The library sums over the orbits of the stabiliser of each mu instead.
    Returns a :class:`CharacterTable` with ``mult`` a plain dict.
    """
    n, d, D = rsys.rank, rsys.sym, rsys.root_coord_scale
    rho = rsys.rho()

    def form_with_root(x, calpha):
        return sum(x[j] * d[j] * calpha[j] for j in range(n))

    doms = dominant_weights_below_by_roots(rsys, lam)
    doms.sort(key=lambda w: sum(rsys.scaled_root_coords(w)), reverse=True)
    mult = {lam: 1}
    for mu in doms[1:]:
        num = 0
        for alpha, calpha in rsys.positive_root_data():
            k = 1
            while True:
                nu = tuple(x + k * a for x, a in zip(mu, alpha))
                m = mult.get(rsys.dominant_representative(nu), 0)
                if m == 0:
                    break
                num += m * form_with_root(nu, calpha)
                k += 1
        cdiff = [(x - y) // D for x, y in zip(
            rsys.scaled_root_coords(lam), rsys.scaled_root_coords(mu))]
        den = form_with_root([a + b + 2 for a, b in zip(lam, mu)], cdiff)
        q, r = divmod(2 * num, den)
        if r or q <= 0:
            raise ArithmeticError(f"Freudenthal step at {mu} below {lam} gives {2 * num}/{den}")
        mult[mu] = q
    dim = sum(m * orbit_size_by_heights(rsys, mu) for mu, m in mult.items())
    return CharacterTable(highest=lam, mult=mult, dim=dim)


# -- the full-support product on {weight: coefficient} dicts ------------------
#
# A combination sum c(mu) K_2mu is the dict {mu: c(mu)} of its nonzero
# coefficients.


def torus_one(rank):
    """K_0, the unit of the group algebra of the weight lattice."""
    return {(0,) * rank: 1}


def torus_product(a, b):
    """The full-support product, K_2mu K_2nu = K_2(mu+nu), of two combinations."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = tuple(map(add, w1, w2))
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def torus_power(t, n):
    """t^n for a nonzero ``t`` and n >= 0, by repeated full-support products."""
    out = torus_one(len(next(iter(t))))
    for _ in range(n):
        out = torus_product(out, t)
    return out


def total(t):
    """Sum of all coefficients (the dimension, for a character image)."""
    return sum(t.values())


def is_w_invariant(rsys, t):
    """``t`` is fixed by every simple reflection."""
    return all(
        t.get(simple_reflection(rsys, i, w), 0) == c
        for w, c in t.items()
        for i in range(rsys.rank)
    )


# -- characters by full-support products --------------------------------------


def xi_tensor(rsys, lam):
    """xi([T(lam)]), the product of lam_i copies of each fundamental character.

    The factors' characters may individually have keys outside M; the full
    product lands in M again, which is checked.
    """
    if not in_half_lattice(rsys, lam):
        raise DomainError(f"{lam} is not in M+")
    out = torus_one(rsys.rank)
    for i, a in enumerate(lam):
        fund = full_character(rsys, rsys.fundamental_weight(i))
        for _ in range(a):
            out = torus_product(out, fund)
    if not all(in_half_root_lattice(rsys, w) for w in out):
        raise ArithmeticError(f"a key of xi([T{lam}]) is outside M for {rsys}")
    return out


def av_basis_element(rsys, lam):
    """av(lam) = sum_(w in W) K_2(w lam); orbit coefficients are |W|/|W lam|."""
    if not in_half_lattice(rsys, lam):
        raise DomainError(f"{lam} is not in M+")
    orbit = rsys.weyl_orbit(lam)
    coeff = rsys.weyl_group_order() // len(orbit)
    return {w: coeff for w in orbit}


def expand_in_av(rsys, t):
    """Coefficients of a W-invariant element in the av basis (exact, unique)."""
    if not is_w_invariant(rsys, t):
        raise DomainError("element is not Weyl-invariant")
    key = _order_key(rsys)
    work = dict(t)
    out = {}
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


def expand_in_simples(rsys, t):
    """Triangular expansion of a W-invariant element over the xi([L(mu)]).

    Both sides are W-invariant, so they agree exactly when they agree on the
    dominant keys: repeatedly strips the maximal dominant key with its
    coefficient, subtracting the dominant part of that simple character.
    """
    if not is_w_invariant(rsys, t):
        raise DomainError("element is not Weyl-invariant")
    key = _order_key(rsys)
    work = {w: Fraction(c) for w, c in t.items() if rsys.is_dominant(w)}
    out = {}
    while work:
        top = max(work, key=key)
        coeff = work[top]
        out[top] = coeff
        for w, m in weight_multiplicities(rsys, top).mult.items():
            v = work.get(w, Fraction(0)) - coeff * m
            if v:
                work[w] = v
            else:
                work.pop(w, None)
    return out


# -- products in the basis of simple modules -----------------------------------


def times_fundamental(rsys, decomp, i):
    """The Brauer-Klimyk rule: sum c [L(lam)] times [L(w_i)], in the same basis.

    [L(lam)][L(w_i)] = sum over the weights nu of L(w_i), with multiplicity
    m(nu), of sign(w) [L(w(lam+nu+rho) - rho)], where w reflects lam+nu+rho
    into the dominant chamber; a term whose lam+nu+rho lies on a wall is
    fixed by a reflection and cancels.
    """
    roots = [rsys.simple_root(j) for j in range(rsys.rank)]
    rho = rsys.rho()
    shifted = [
        (tuple(map(add, nu, rho)), m)
        for nu, m in full_character(rsys, rsys.fundamental_weight(i)).items()
    ]
    out = {}
    for lam, c in decomp.items():
        for nu_rho, m in shifted:
            v = tuple(map(add, lam, nu_rho))
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


def tensor_decomposition(rsys, lam):
    """[T(lam)] = prod_i [L(w_i)]^(lam_i) in the basis of simple modules."""
    decomp = {rsys.zero(): 1}
    for i, a in enumerate(lam):
        for _ in range(a):
            decomp = times_fundamental(rsys, decomp, i)
    return decomp


def unitriangularity_check(rsys, bound):
    """Expand [T(lam)] over the [L(mu)] for all lam in M+ with coords <= bound.

    The members are the vectors of the box (:func:`bounded_vectors`) that
    :func:`in_half_lattice` accepts, in lexicographic order; a negative
    bound, whose box is empty, raises :class:`DomainError`.  Each expansion
    is :func:`tensor_decomposition`.  Asserts the diagonal coefficient 1 and
    nonnegative integer multiplicities supported on dominant weights
    strictly below lam.
    Returns ``(report, multiplicities)``.
    """
    if bound < 0:
        raise DomainError("bound must be >= 0")
    rep = Report(title=f"unitriangularity {rsys.family}{rsys.rank} bound {bound}")
    mults = {}
    for w in bounded_vectors([bound] * rsys.rank, bound * rsys.rank):
        if not in_half_lattice(rsys, w):
            continue
        decomp = tensor_decomposition(rsys, w)
        ok = decomp.get(w) == 1
        entry = {}
        for mu, c in decomp.items():
            if c < 0:
                ok = False
                break
            entry[mu] = c
            if mu != w and not (rsys.is_dominant(mu) and rsys.dominates(w, mu)):
                ok = False
                break
        mults[w] = entry
        rep.add(
            f"[T{w}] = [L{w}] + lower",
            ok,
            " + ".join(f"{c}[L{mu}]" for mu, c in sorted(entry.items())),
        )
    return rep, mults


def independence_rank(rsys, degree_bound):
    """The exact rank of the monomials of degree <= degree_bound in the xi([L(w_i)]).

    Expands each monomial in the basis of simple characters, as a monomial
    of one degree less times one fundamental character by the
    Brauer-Klimyk rule (:func:`times_fundamental`), then eliminates over
    ``Fraction``.  The simple characters are linearly independent, so this
    is the rank of the monomials themselves.
    """
    n = rsys.rank
    # lexicographic, so e minus a unit at its first nonzero entry comes earlier
    exps = list(bounded_vectors([degree_bound] * n, degree_bound))
    decomps = {}
    for e in exps:
        i = next((j for j, x in enumerate(e) if x), None)
        if i is None:
            decomps[e] = {rsys.zero(): 1}
        else:
            lower = e[:i] + (e[i] - 1,) + e[i + 1:]
            decomps[e] = times_fundamental(rsys, decomps[lower], i)

    order_key = _order_key(rsys)
    live = [
        {order_key(lam): Fraction(c) for lam, c in decomps[e].items()}
        for e in exps
    ]
    live = [r for r in live if r]
    rank = 0
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
    return rank


# -- the packed form's codec, by shifts ----------------------------------------


def digits_by_shifts(n, b):
    """The balanced base-2^b digits of n, little-endian: one mask and one shift per digit."""
    half, full = 1 << (b - 1), 1 << b
    out = []
    while n:
        d = n & (full - 1)
        if d >= half:
            d -= full
        out.append(d)
        n = (n - d) >> b
    return out


def evaluate_by_horner(coeffs, b):
    """The polynomial with little-endian ``coeffs`` at q = 2^b, by Horner's rule."""
    n = 0
    for c in reversed(coeffs):
        n = (n << b) + c
    return n


# -- products of polynomials and in U_q(sl2) ----------------------------------


def poly_product_by_dict(a, b):
    """The product of two little-endian integer polynomials, by a dict convolution."""
    out = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out.get(i + j, 0) + x * y
    coeffs = [out.get(n, 0) for n in range(max(out, default=-1) + 1)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@cache
def straighten_by_induction(c, a):
    """The stored terms {(u, v, w): s} of the normal form of E'^c F^a.

    E' F^a = F^a E' + [a] (q^(1-a) F^(a-1) K - q^(a-1) F^(a-1) K^-1),
    applied inductively in c: E'^c F^a = E'^(c-1) F^a E' plus the two terms
    of E'^(c-1) F^(a-1) K^(+-1), and moving K^(+-1) left past E'^w gives
    q^(-+2w).
    """
    if c == 0 or a == 0:
        return {(a, 0, c): Q_ONE}
    out = {}
    for (u, v, w), s in straighten_by_induction(c - 1, a).items():
        out[u, v, w + 1] = s
    for dy in (1, -1):  # +-[a] q^(+-(1-a)) F^(a-1) K^(+-1)
        for (u, v, w), s in straighten_by_induction(c - 1, a - 1).items():
            mon = (u, v + dy, w)
            total = out.get(mon, Q_ZERO) + (s * q_int(dy * a)).shift(dy * (1 - a - 2 * w))
            if total.is_zero():
                out.pop(mon, None)
            else:
                out[mon] = total
    return out


def uq_product_by_triples(x, y):
    """x * y in U_q(sl2), one coefficient product r1 r2 s q^e per triple.

    The triples are (left term, right term, term s F^u K^v E'^w of the
    straightened E'^c1 F^a2); each adds r1 r2 s q^-2(b1 u + w b2) to the
    monomial F^(a1+u) K^(b1+v+b2) E'^(w+c2).
    """
    out = {}
    for (a1, b1, c1), r1 in x._terms.items():
        for (a2, b2, c2), r2 in y._terms.items():
            for (u, v, w), s in straighten_by_induction(c1, a2).items():
                mon = (a1 + u, b1 + v + b2, w + c2)
                coeff = r1 * r2 * s * q_power(-2 * (b1 * u + w * b2))
                total = out.get(mon, Q_ZERO) + coeff
                if total.is_zero():
                    out.pop(mon, None)
                else:
                    out[mon] = total
    return UqElement._stored(out)



def uq_matrix_product_by_triples(A, B):
    """A B for UqMatrix A, B, every entry product by :func:`uq_product_by_triples`."""
    d = A.dim
    return UqMatrix(
        [
            [
                sum((uq_product_by_triples(A.rows[i][k], B.rows[k][j]) for k in range(d)),
                    UQ_ZERO)
                for j in range(d)
            ]
            for i in range(d)
        ]
    )


def theta(x):
    """The anti-involution theta of U_q(sl2): theta(E') = F K^-1, theta(F) = K E', theta(K) = K.

    It is Z[q, q^-1]-linear and reverses products, so on a normally ordered
    monomial it is theta(E')^c theta(K)^b theta(F)^a, and with
    (F K^-1)^c = q^(c(c-1)) F^c K^-c and (K E')^a = q^(-a(a-1)) K^a E'^a
    that is q^(c(c-1) - a(a-1)) F^c K^(b-c+a) E'^a: one shift per term and
    no straightening.  It reads and writes the stored terms.
    """
    return UqElement._stored({
        (c, b - c + a, a): coeff.shift(c * (c - 1) - a * (a - 1))
        for (a, b, c), coeff in x._terms.items()
    })


def identity_matrix(d):
    """The d x d identity UqMatrix."""
    return UqMatrix([[UQ_ONE if i == j else UQ_ZERO for j in range(d)] for i in range(d)])


def quasi_R(V):
    """(zeta (x) id) of the quasi R-matrix, truncated exactly at n = dim V.

    Entry (j+n, j) is the library's coefficient ``_r_entry`` times E'^n.
    """
    m, d = V.m, V.dim
    rows = [[UQ_ZERO] * d for _ in range(d)]
    for j in range(d):
        for t in range(j, d):
            rows[t][j] = UqElement._stored({(0, 0, t - j): _r_entry(m, t, j)})
    return UqMatrix(rows)


def quasi_R_tilde_T(V):
    """(zeta (x) id) phi(R^T): sum_n c_n zeta(E^n K^n) (x) K^-n F^n.

    Entry (j-n, j) is the library's coefficient ``_rt_entry`` times F^n K^-n.
    """
    m, d = V.m, V.dim
    rows = [[UQ_ZERO] * d for _ in range(d)]
    for j in range(d):
        for l in range(j + 1):
            rows[l][j] = UqElement._stored({(j - l, l - j, 0): _rt_entry(m, l, j)})
    return UqMatrix(rows)


def K_operator(V):
    """The diagonal operator sum_eta P_eta (x) K_2eta (here K^(m-2j))."""
    d = V.dim
    rows = [[UQ_ZERO] * d for _ in range(d)]
    for j, w in enumerate(V.weights):
        rows[j][j] = UqElement.monomial(0, w, 0)
    return UqMatrix(rows)


def gamma_by_products(V):
    """Gamma_V = K_V Rt_V R_V, both matrix products by :func:`uq_matrix_product_by_triples`."""
    return uq_matrix_product_by_triples(
        uq_matrix_product_by_triples(K_operator(V), quasi_R_tilde_T(V)), quasi_R(V)
    )


def middle_by_products(V):
    """M = R_V K_V Rt_V, both matrix products by :func:`uq_matrix_product_by_triples`."""
    return uq_matrix_product_by_triples(
        uq_matrix_product_by_triples(quasi_R(V), K_operator(V)), quasi_R_tilde_T(V)
    )


# -- the simple module, its coproduct operators and the quasi R-matrix --------


QMQ = q_power(1) - q_power(-1)  # q - q^-1
GEN_F = UqElement({(1, 0, 0): 1})
GEN_K = UqElement({(0, 1, 0): 1})
GEN_KINV = UqElement({(0, -1, 0): 1})
GEN_EP = UqElement._stored({(0, 0, 1): Q_ONE})  # E' = (q - q^-1) E


def q_factorial(m):
    """[m]! = [1][2]...[m]."""
    out = Q_ONE
    for j in range(2, m + 1):
        out = out * q_int(j)
    return out


def _matrix_product(A, B):
    return [
        [sum((a * B[k][j] for k, a in enumerate(row)), Q_ZERO) for j in range(len(B[0]))]
        for row in A
    ]


def _matrix_power(A, n):
    out = [[Q_ONE if i == j else Q_ZERO for j in range(len(A))] for i in range(len(A))]
    for _ in range(n):
        out = _matrix_product(out, A)
    return out


def _divided_power(A, n):
    """A^n / [n]!, entrywise; the division is exact for A = zeta(E), zeta(F)."""
    fact = q_factorial(n)
    return [[laurent_quotient(x, fact) for x in row] for row in _matrix_power(A, n)]


def module_matrices(m):
    """zeta(E), zeta(F), zeta(K), zeta(K^-1) on L(m varpi), from the label m.

    Basis e_0..e_m with K e_j = q^(m-2j) e_j, E e_j = [j] e_(j-1) and
    F e_j = [m-j] e_(j+1); for m = 1 these are [[0,1],[0,0]], [[0,0],[1,0]],
    diag(q, q^-1) and diag(q^-1, q).
    """
    d = m + 1
    E, F, K, Kinv = ([[Q_ZERO] * d for _ in range(d)] for _ in range(4))
    for j in range(d):
        K[j][j], Kinv[j][j] = q_power(m - 2 * j), q_power(2 * j - m)
        if j > 0:
            E[j - 1][j] = q_int(j)
        if j < m:
            F[j + 1][j] = q_int(m - j)
    return E, F, K, Kinv


def tensor_sum(pairs):
    """The operator sum of M (x) u over the pairs (QRat matrix M, UqElement u)."""
    pairs = list(pairs)
    d = len(pairs[0][0])
    return UqMatrix(
        [[sum((u.scale(M[i][j]) for M, u in pairs), UQ_ZERO) for j in range(d)] for i in range(d)]
    )


def coproduct_matrix(m, gen, twist=""):
    """(zeta (x) id) of Delta(gen), of phi^2 Delta(gen) (twist "phi2") or of phi Delta'(gen) ("phi").

    "E" stands for E' = (q - q^-1) E: every identity these enter is linear
    in E, and the rescaling keeps the coefficients in Z[q, q^-1].
    """
    E, F, K, Kinv = module_matrices(m)
    one, qmq = _matrix_power(K, 0), UQ_ONE.scale(QMQ)
    if gen == "K":  # K (x) K, fixed by both twists
        return tensor_sum([(K, GEN_K)])
    return tensor_sum({
        ("", "E"): [(K, GEN_EP), (E, qmq)],  # K (x) E + E (x) 1
        ("", "F"): [(F, GEN_KINV), (one, GEN_F)],  # F (x) K^-1 + 1 (x) F
        ("", "Kinv"): [(Kinv, GEN_KINV)],
        # K^-1 (x) E + E (x) K^-2
        ("phi2", "E"): [(Kinv, GEN_EP), (E, UqElement.monomial(0, -2, 0, QMQ))],
        ("phi2", "F"): [(F, GEN_K), (_matrix_power(K, 2), GEN_F)],  # F (x) K + K^2 (x) F
        ("phi", "E"): [(E, qmq), (Kinv, GEN_EP)],  # E (x) 1 + K^-1 (x) E
        ("phi", "F"): [(one, GEN_F), (F, GEN_K)],  # 1 (x) F + F (x) K
    }[twist, gen])


def quasi_R_by_matrix_powers(V):
    """sum_n (zeta(F)^n / [n]!) (x) q^(n(n-1)/2) E'^n over n < dim V."""
    F = module_matrices(V.m)[1]
    return tensor_sum(
        (_divided_power(F, n), UqElement._stored({(0, 0, n): q_power(n * (n - 1) // 2)}))
        for n in range(V.dim)
    )


def quasi_R_tilde_T_by_matrix_powers(V):
    """sum_n (zeta(E)^n / [n]!) zeta(K)^n (x) c'_n K^-n F^n over n < dim V.

    c'_n = (q - q^-1)^n q^(n(n-1)/2), and K^-n F^n = q^(2n^2) F^n K^-n.
    """
    E, _, K, _ = module_matrices(V.m)
    return tensor_sum(
        (
            _matrix_product(_divided_power(E, n), _matrix_power(K, n)),
            UqElement.monomial(n, -n, 0, QMQ ** n * q_power(n * (n - 1) // 2 + 2 * n * n)),
        )
        for n in range(V.dim)
    )


# -- the intertwining lemmas behind the centrality of C^(k)_V -----------------


def check_gamma_intertwines(V):
    """Commutators of Gamma_V with the coproduct images of E, F, K^(+-1)."""
    rep = Report(title=f"Gamma commutation, m={V.m}")
    G = gamma(V)
    for gen in ("E", "F", "K", "Kinv"):
        D = coproduct_matrix(V.m, gen)
        rep.add(f"[Gamma, Delta({gen})] = 0", G * D == D * G)
    return rep


def check_K_intertwining(V):
    """The five diagonal-operator identities and the phi^2 intertwining law.

    The identities are linear in E, which enters as E' = (q - q^-1) E.
    """
    rep = Report(title=f"K_V intertwining, m={V.m}")
    KV = K_operator(V)
    E, F, K, Kinv = module_matrices(V.m)
    one = _matrix_power(K, 0)
    for gen in ("K", "Kinv"):
        D = coproduct_matrix(V.m, gen)
        rep.add(f"K_V commutes with zeta({gen}) (x) {gen}", KV * D == D * KV)
    checks = [
        ("zeta(E) (x) 1", E, UQ_ONE, E, UqElement.monomial(0, 2, 0)),
        ("1 (x) E", one, GEN_EP, _matrix_power(K, 2), GEN_EP),
        ("zeta(F) (x) 1", F, UQ_ONE, F, UqElement.monomial(0, -2, 0)),
        ("1 (x) F", one, GEN_F, _matrix_power(Kinv, 2), GEN_F),
    ]
    for name, A, u, B, v in checks:
        plain, twisted = tensor_sum([(A, u)]), tensor_sum([(B, v)])
        rep.add(f"K_V ({name}) twists by K^2", KV * plain == twisted * KV)
    for gen in ("E", "F", "K"):
        lhs = KV * coproduct_matrix(V.m, gen, "phi2")
        rhs = coproduct_matrix(V.m, gen) * KV
        rep.add(f"K_V phi^2(Delta({gen})) = Delta({gen}) K_V", lhs == rhs)
    return rep

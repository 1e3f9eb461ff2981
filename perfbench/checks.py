"""Independent checks of the output of every benchmark op.

Nothing here imports ``uqcentre`` or compares against stored output.  Each
check either recomputes a quantity by a different method (closed forms, a
degree-ordered Hilbert-basis sieve, the Weyl dimension formula, explicit
matrices of U_q(sl2) at a rational value of q) or tests a property the result
must have (a central element acts as a scalar, a binomial balances as a
weight).  A failed check raises :class:`CheckFailed`.
"""


import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd

# A rational value of q that is not a root of unity: two elements of Q(q)
# that differ would have to differ at q = 2 for a check here to be fooled.
Q_VALUE = Fraction(2)

# Published dimensions of the fundamental modules of E7 (Bourbaki labels).
E7_FUNDAMENTAL_DIMS = (133, 912, 8645, 365750, 27664, 1539, 56)


class CheckFailed(AssertionError):
    """An op's output is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- Cartan data of the simply-laced types (Bourbaki labels) -----------------


def _cartan(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    edges = []
    if family == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif family == "E":
        chain = [0, 2] + list(range(3, n))
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    else:
        raise ValueError(f"no simply-laced Cartan matrix for {family}{n}")
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        A[i][j] = A[j][i] = -1
    return tuple(map(tuple, A))


@lru_cache(maxsize=None)
def _inverse_cartan(family: str, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse Cartan matrix, by Gauss-Jordan elimination over Q."""
    A = _cartan(family, n)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def _double_root_coords(family: str, n: int):
    """(M, D): 2 * (root coordinates of w) = (M @ w) / D, exact integers."""
    inv = _inverse_cartan(family, n)
    D = 1
    for row in inv:
        for x in row:
            D = D * x.denominator // gcd(D, x.denominator)
    return tuple(tuple(int(2 * x * D) for x in row) for row in inv), D


def _involution(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(n - 1, -1, -1))
    if family == "D":
        return tuple(range(n - 2)) + (n - 1, n - 2)
    if family == "E" and n == 6:
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(n))


def is_type_ii(family: str, n: int) -> bool:
    return (family == "A" and n >= 2) or (family == "D" and n % 2 == 1) or (
        family == "E" and n == 6)


def membership(family: str, n: int):
    """A test for w in M+, dominant with root coordinates in (1/2)Z.

    A_n uses the closed form sum(i a_i) = 0 mod (n+1)/gcd(n+1, 2); D_odd uses
    a_(n-1) + a_n even (P/Q = Z/4 with w_n a generator); E_6 solves with the
    inverse Cartan matrix.  Type I algebras have M+ = P+.
    """
    if not is_type_ii(family, n):
        return lambda w: min(w) >= 0
    if family == "A":
        r = (n + 1) // gcd(n + 1, 2)
        return lambda w: min(w) >= 0 and sum(
            (i + 1) * a for i, a in enumerate(w)) % r == 0
    if family == "D":
        return lambda w: min(w) >= 0 and (w[n - 2] + w[n - 1]) % 2 == 0
    M, D = _double_root_coords(family, n)
    return lambda w: min(w) >= 0 and all(
        sum(m * a for m, a in zip(row, w)) % D == 0 for row in M)


def multipliers(family: str, n: int) -> tuple[int, ...]:
    """Minimal s_i with s_i w_i in M+; the closed form (n+1)/gcd(n+1, 2i) for A_n."""
    if family == "A":
        return tuple((n + 1) // gcd(n + 1, 2 * i) for i in range(1, n + 1))
    member = membership(family, n)
    out = []
    for i in range(n):
        s = 1
        while not member(tuple(s if k == i else 0 for k in range(n))):
            s += 1
        out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def hilbert_basis_oracle(family: str, n: int) -> frozenset:
    """The irreducible elements of M+, by a sieve in order of total degree.

    An irreducible w satisfies w_i <= s_i (else s_i w_i splits off), and in
    type A also sum(w) <= r = (n+1)/gcd(n+1, 2): a sequence of r or more
    residues mod r has a nonempty zero-sum subsequence (the Davenport
    constant of Z/r), which would split off.  A candidate is reducible iff
    some irreducible g of smaller degree has w - g in M+.
    """
    if not is_type_ii(family, n):
        return frozenset(tuple(int(k == i) for k in range(n)) for i in range(n))
    member = membership(family, n)
    s = multipliers(family, n)
    cap = (n + 1) // gcd(n + 1, 2) if family == "A" else sum(s)
    cands = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            cands.append(tuple(prefix))
            return
        for v in range(min(s[len(prefix)], remaining) + 1):
            rec(prefix + [v], remaining - v)

    rec([], cap)
    cands = sorted((w for w in cands if any(w) and member(w)), key=sum)
    basis: list[tuple[int, ...]] = []
    for w in cands:
        if not any(member(tuple(x - y for x, y in zip(w, g))) for g in basis):
            basis.append(w)
    return frozenset(basis)


def d_odd_shape(n: int) -> frozenset:
    """w_1..w_(n-2), 2w_(n-1), 2w_n and w_(n-1)+w_n."""
    out = {tuple(int(k == i) for k in range(n)) for i in range(n - 2)}
    out.add(tuple(2 * int(k == n - 2) for k in range(n)))
    out.add(tuple(2 * int(k == n - 1) for k in range(n)))
    out.add(tuple(int(k >= n - 2) for k in range(n)))
    return frozenset(out)


def expected_basis(family: str, n: int) -> frozenset:
    if family == "D" and n % 2 == 1:
        return d_odd_shape(n)
    return hilbert_basis_oracle(family, n)


def _pairs(family: str, n: int, basis) -> list[tuple[tuple, tuple]]:
    """Conjugate pairs (lambda, bar) of the basis, lambda the lex-larger member."""
    sigma = _involution(family, n)
    out = set()
    for w in basis:
        bar = tuple(w[sigma[i]] for i in range(n))
        if bar != w:
            out.add((max(w, bar), min(w, bar)))
    return sorted(out)


def relation_count(family: str, n: int) -> int:
    """One rel1 per conjugate pair, and one rel2 unless lambda is some s_i w_i."""
    basis = expected_basis(family, n)
    s = multipliers(family, n)
    scaled = {tuple(s[i] * int(k == i) for k in range(n)) for i in range(n)}
    return sum(1 + (lam not in scaled) for lam, _ in _pairs(family, n, basis))


def count_m_plus_in_box(family: str, n: int, bound: int) -> int:
    member = membership(family, n)
    return sum(1 for w in product(range(bound + 1), repeat=n) if member(w))


# -- hilb and presentation ----------------------------------------------------


def check_hilb(out: dict, family: str, n: int) -> None:
    _require((out["type"], out["rank"]) == (family, n), "wrong type or rank")
    elements = [tuple(w) for w in out["elements"]]
    _require(set(elements) == expected_basis(family, n),
             f"Hilbert basis of {family}{n} differs from the oracle")
    _require(len(elements) == len(set(elements)), "repeated basis element")
    s = multipliers(family, n)
    _require(tuple(out["s"]) == s, f"s-vector {out['s']} != {list(s)}")
    scaled = [tuple(w) for w in out["scaled_fundamentals"]]
    _require(scaled == [tuple(s[i] * int(k == i) for k in range(n)) for i in range(n)],
             "scaled fundamentals are not s_i w_i")
    pairs = sorted((tuple(a), tuple(b)) for a, b in out["pairs"])
    _require(pairs == _pairs(family, n, elements), "conjugate pairs are wrong")


def _side_weight(side: dict, coords: dict, n: int) -> tuple[int, ...]:
    total = [0] * n
    for label, e in side.items():
        for i, x in enumerate(coords[label]):
            total[i] += e * x
    return tuple(total)


def check_presentation(out: dict, family: str, n: int) -> None:
    _require((out["type"], out["rank"]) == (family, n), "wrong type or rank")
    coords = {g["label"]: tuple(g["coords"]) for g in out["generators"]}
    _require(len(coords) == len(out["generators"]), "repeated generator label")
    _require(set(coords.values()) == expected_basis(family, n),
             f"generators of {family}{n} differ from the oracle Hilbert basis")
    for rel in out["relations"]:
        _require(rel["lhs"] != rel["rhs"], f"trivial relation {rel}")
        _require(_side_weight(rel["lhs"], coords, n) == _side_weight(rel["rhs"], coords, n),
                 f"binomial {rel['lhs']} = {rel['rhs']} does not balance")
    want = relation_count(family, n) if is_type_ii(family, n) else 0
    _require(len(out["relations"]) == want,
             f"{len(out['relations'])} relations, expected {want}")


# -- verify -------------------------------------------------------------------


def _report(out: dict, title_prefix: str) -> dict:
    found = [r for r in out["reports"] if r["title"].startswith(title_prefix)]
    _require(len(found) == 1, f"expected one '{title_prefix}' report")
    return found[0]


def check_verify(out: dict, family: str, n: int, bound: int) -> None:
    _require(out["ok"] is True, "verification reported failure")
    for rep in out["reports"]:
        _require(rep["ok"] is True and all(c["passed"] for c in rep["checks"]),
                 f"report {rep['title']!r} has a failed check")
    gen = _report(out, "generation")
    found = re.fullmatch(r"all (\d+) monoid elements factor over Hilb\(M\+\)",
                         gen["checks"][0]["name"])
    _require(len(gen["checks"]) == 1 and found is not None,
             "generation report has an unexpected shape")
    want = count_m_plus_in_box(family, n, bound)
    _require(int(found.group(1)) == want,
             f"generation check covered {found.group(1)} elements, box holds {want}")
    if is_type_ii(family, n):
        rels = _report(out, "centre relations")["checks"]
        want = relation_count(family, n)
        _require(len(rels) == want,
                 f"{len(rels)} centre-relation checks for {want} relations")
        _require(len(_report(out, "kernel membership")["checks"]) >= want,
                 "kernel membership report misses relations")
    else:
        (item,) = _report(out, "independence")["checks"]
        want = comb(n + 3, 3)
        _require(item["detail"] == f"rank {want} of {want}",
                 f"independence rank '{item['detail']}', expected {want}")


# -- E7 character tables ------------------------------------------------------


@lru_cache(maxsize=None)
def _positive_roots(A: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Positive roots of a simply-laced Cartan matrix A, in root coordinates:
    raise by simple roots while (b, a_i) = -1."""
    n = len(A)
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for b in frontier:
            for i in range(n):
                if sum(A[i][j] * b[j] for j in range(n)) == -1:
                    c = tuple(x + (k == i) for k, x in enumerate(b))
                    if c not in roots:
                        roots.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(roots))


@lru_cache(maxsize=None)
def weyl_group_order(A: tuple[tuple[int, ...], ...]) -> int:
    """prod (e + 1) over the exponents e, read off the heights of the positive
    roots: e occurs (#roots of height e) - (#roots of height e + 1) times."""
    heights = [sum(c) for c in _positive_roots(A)]
    order = 1
    for e in range(1, max(heights, default=0) + 1):
        order *= (e + 1) ** (heights.count(e) - heights.count(e + 1))
    return order


def orbit_size(family: str, n: int, mu) -> int:
    """|W| / |W_mu| for dominant mu; W_mu is generated by the s_i with mu_i = 0."""
    A = _cartan(family, n)
    J = [i for i in range(n) if mu[i] == 0]
    return weyl_group_order(A) // weyl_group_order(tuple(tuple(A[i][j] for j in J) for i in J))


@lru_cache(maxsize=None)
def dominant_weights_below(family: str, n: int, lam) -> frozenset:
    """Dominant mu = lam - A c with c >= 0 integral.

    A dominant weight has non-negative root coordinates, so c is bounded by
    the root coordinates of lam; a branch stops once some coordinate of mu
    stays negative whatever the unassigned c_j are.
    """
    A = _cartan(family, n)
    inv = _inverse_cartan(family, n)
    cap = [int(sum(inv[i][j] * lam[j] for j in range(n))) for i in range(n)]
    out = set()
    c = [0] * n

    def rec(j):
        if j == n:
            out.add(tuple(lam[i] - sum(A[i][t] * c[t] for t in range(n)) for i in range(n)))
            return
        for v in range(cap[j] + 1):
            c[j] = v
            best = [lam[i] - sum(A[i][t] * c[t] for t in range(j + 1))
                    - sum(A[i][t] * cap[t] for t in range(j + 1, n) if A[i][t] < 0)
                    for i in range(j + 1)]
            if best[j] < 0:
                break  # mu_j only falls as c_j grows
            if min(best) >= 0:
                rec(j + 1)
        c[j] = 0

    rec(0)
    return frozenset(out)


def weyl_dimension(family: str, n: int, lam) -> int:
    """prod over positive roots of (lam + rho, a) / (rho, a), simply-laced."""
    out = Fraction(1)
    for c in _positive_roots(_cartan(family, n)):
        out *= Fraction(sum((l + 1) * x for l, x in zip(lam, c)), sum(c))
    _require(out.denominator == 1, "non-integral Weyl dimension")
    return int(out)


def _form(family: str, n: int, u, v) -> Fraction:
    """(u, v) of weights in fundamental-weight coordinates, (a, a) = 2."""
    inv = _inverse_cartan(family, n)
    return sum(u[i] * inv[i][j] * v[j] for i in range(n) for j in range(n))


def check_e7_table(out: dict, index: int) -> None:
    """The table must list every dominant weight below w_(index+1) and no other,
    give the highest weight multiplicity 1, and sum over Weyl orbits to the
    right first and second moments:

        sum_mu m(mu) |W mu|          = dim L(lam),
        sum_mu m(mu) |W mu| (mu, mu) = dim L(lam) (lam, lam + 2 rho) rank / dim g.
    """
    family, n = "E", 7
    lam = tuple(int(k == index) for k in range(n))
    _require(tuple(out["highest"]) == lam, "wrong highest weight")
    dim = weyl_dimension(family, n, lam)
    _require(out["dim"] == dim == E7_FUNDAMENTAL_DIMS[index],
             f"dim {out['dim']} of L(w{index + 1}) != {E7_FUNDAMENTAL_DIMS[index]}")
    mult = {tuple(w): m for w, m in out["mult"]}
    _require(len(mult) == len(out["mult"]), "repeated weight in the table")
    _require(set(mult) == dominant_weights_below(family, n, lam),
             "table keys are not the dominant weights below the highest weight")
    _require(mult[lam] == 1, "highest weight multiplicity is not 1")
    _require(all(m > 0 for m in mult.values()), "table has a non-positive multiplicity")
    sizes = {mu: orbit_size(family, n, mu) for mu in mult}
    table_dim = sum(m * sizes[mu] for mu, m in mult.items())
    _require(table_dim == dim, f"the table sums to dimension {table_dim}, not {dim}")
    rho = (1,) * n
    dim_g = n + 2 * len(_positive_roots(_cartan(family, n)))
    moment = sum(m * sizes[mu] * _form(family, n, mu, mu) for mu, m in mult.items())
    want = dim * _form(family, n, lam, tuple(l + 2 * r for l, r in zip(lam, rho))) * n / dim_g
    _require(moment == want, f"second moment of the table {moment} != {want}")


# -- rank-1 Casimirs ----------------------------------------------------------


def _qrat_value(c: dict, q: Fraction) -> Fraction:
    num = sum(x * q ** i for i, x in enumerate(c["num"]))
    den = sum(x * q ** i for i, x in enumerate(c["den"]))
    return q ** c["qpow"] * num / den


def _q_int(j: int, q: Fraction) -> Fraction:
    return (q ** j - q ** -j) / (q - 1 / q)


def casimir_action(element: list, n: int, q: Fraction) -> dict:
    """Matrix entries {(row, col): value} of the element on L(n).

    Basis e_0..e_n with K e_j = q^(n-2j) e_j, E e_j = [j] e_(j-1) and
    F e_j = [n-j] e_(j+1).
    """
    mat: dict[tuple[int, int], Fraction] = {}
    for (a, b, c), coeff in element:
        value = _qrat_value(coeff, q)
        for j in range(c, n + 1 - a + c):
            v = value
            for t in range(c):
                v *= _q_int(j - t, q)
            i = j - c
            v *= q ** (b * (n - 2 * i))
            for t in range(a):
                v *= _q_int(n - i - t, q)
            mat[(i + a, j)] = mat.get((i + a, j), 0) + v
    return mat


def casimir_scalar(element: list, n: int, q: Fraction) -> Fraction:
    """The scalar by which the element acts on L(n); fails if it is not one."""
    mat = casimir_action(element, n, q)
    _require(all(v == 0 for (i, j), v in mat.items() if i != j),
             f"element is not diagonal on L({n})")
    diag = {mat.get((j, j), Fraction(0)) for j in range(n + 1)}
    _require(len(diag) == 1, f"element is not a scalar on L({n})")
    return diag.pop()


def casimir_eigenvalue(m: int, k: int, n: int, q: Fraction) -> Fraction:
    """The scalar of C^(k) built from L(m), on L(n), in closed form.

    Gamma_V^k acts on the summand L(p) of L(m) (x) L(n) by
    q^(k (c(p) - c(m) - c(n))), c(p) = p (p + 2) / 2, and the partial quantum
    trace over L(m) weights it by [p + 1] / [n + 1].  At k = 1 this is
    sum_j q^((m - 2j)(n + 1)), the sum over the weights of L(m).
    """
    def c(p):
        return p * (p + 2)

    return sum(_q_int(p + 1, q) / _q_int(n + 1, q) * q ** (k * (c(p) - c(m) - c(n)) // 2)
               for p in range(abs(m - n), m + n + 1, 2))


def check_casimir(out: dict, m: int, k: int) -> None:
    _require((out["m"], out["k"]) == (m, k), "wrong m or k")
    _require(out["central"] is True, "element reported as not central")
    q = Q_VALUE
    for n in range(m + 3):
        scalar = casimir_scalar(out["element"], n, q)
        _require(scalar == casimir_eigenvalue(m, k, n, q),
                 f"C^({k}) acts on L({n}) by the wrong scalar")
        if "powers_of_C1" in out:
            c1 = casimir_eigenvalue(m, 1, n, q)
            poly = sum(_qrat_value(c, q) * c1 ** j for j, c in enumerate(out["powers_of_C1"]))
            _require(scalar == poly,
                     f"powers_of_C1 does not reproduce C^({k}) on L({n})")
    if k == 1:
        want = sorted([m - 2 * j, 1] for j in range(m + 1))
        _require(out["hc_image"] == want, "Harish-Chandra image is not the character of L(m)")


# -- dispatch -----------------------------------------------------------------


def _flag(args: list[str], name: str, default=None):
    return args[args.index(name) + 1] if name in args else default


def check_op(kind: str, args: list[str], out: dict) -> None:
    """Check the parsed JSON output of one op; raise CheckFailed if it is wrong."""
    if kind == "e7_table":
        check_e7_table(out, int(args[0]))
        return
    command = args[0]
    if command == "casimir":
        check_casimir(out, int(_flag(args, "--m")), int(_flag(args, "--k")))
        return
    family, n = _flag(args, "--type"), int(_flag(args, "--rank"))
    if command == "hilb":
        check_hilb(out, family, n)
    elif command == "presentation":
        check_presentation(out, family, n)
    elif command == "verify":
        check_verify(out, family, n, int(_flag(args, "--bound", "3")))
    else:
        raise CheckFailed(f"no check for command {command!r}")

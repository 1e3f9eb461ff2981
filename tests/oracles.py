"""Test oracles that share no code with the library routines they check."""

from itertools import product


def in_half_lattice(rsys, w):
    """``w`` is dominant and all its root coordinates lie in (1/2)Z.

    Root coordinates come from the inverse Cartan matrix, not from the
    congruence mod r that the library uses for membership in M+.
    """
    if any(x < 0 for x in w):
        return False
    D = rsys.root_coord_scale
    return all(2 * x % D == 0 for x in rsys.scaled_root_coords(w))


def min_multiplier_search(rsys, i):
    """The least s >= 1 with ``s w_i`` in M+, by trying s = 1, 2, ..."""
    e = rsys.fundamental_weight(i)
    s = 1
    while not in_half_lattice(rsys, tuple(s * x for x in e)):
        s += 1
    return s


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

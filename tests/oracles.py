"""Test oracles that share no code with the library routines they check."""


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

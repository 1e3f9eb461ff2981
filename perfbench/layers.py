"""Per-layer profile of one op, aggregated by the uqcentre module that defines each function.

A layer's self time is the self time of its functions plus the time spent
in code outside uqcentre (builtins, the standard library) that they call,
shared out along the profiler's caller edges; time with no uqcentre caller
is ``other``.  Call counts are
the profiler's primitive-plus-recursive call counts, so they repeat exactly
for the same op under the same hash seed.
"""

import cProfile
import os
import pstats

import uqcentre
from uqcentre import root_system

PACKAGE_DIR = os.path.dirname(uqcentre.__file__)


def start():
    """A profiler (not yet enabled) and a one-item list counting Weyl-orbit points."""
    orbit_points = [0]
    original = root_system.RootSystem.weyl_orbit

    def weyl_orbit(self, *args, **kwargs):
        orbit = original(self, *args, **kwargs)
        orbit_points[0] += len(orbit)
        return orbit

    root_system.RootSystem.weyl_orbit = weyl_orbit
    return cProfile.Profile(), orbit_points


def _owner(func):
    """The uqcentre module that defines ``func``, or None outside uqcentre."""
    path = func[0]
    if os.path.dirname(path) != PACKAGE_DIR:
        return None
    return os.path.basename(path)[:-3]


def summarise(profiler, orbit_points, args) -> dict:
    stats = pstats.Stats(profiler).stats
    shares_memo: dict = {}

    def shares(func) -> dict:
        """How the time of ``func`` is charged to owners, by the callers' cumulative time."""
        owner = _owner(func)
        if owner is not None:
            return {owner: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        shares_memo[func] = {"other": 1.0}  # a cycle among foreign functions
        callers = {c: e for c, e in stats[func][4].items() if c != func}
        total = sum(e[3] for e in callers.values())
        out: dict = {}
        if total > 0:
            for caller, edge in callers.items():
                for o, w in shares(caller).items():
                    out[o] = out.get(o, 0.0) + w * edge[3] / total
        shares_memo[func] = out or {"other": 1.0}
        return shares_memo[func]

    self_s: dict = {}
    calls: dict = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        owner = _owner(func)
        if owner is not None:
            calls[owner] = calls.get(owner, 0) + nc
        for o, w in shares(func).items():
            self_s[o] = self_s.get(o, 0.0) + w * tt

    def count(module, name, caller=None) -> int:
        for func, entry in stats.items():
            if _owner(func) == module and func[2] == name:
                if caller is None:
                    return entry[1]
                return sum(e[1] for c, e in entry[4].items()
                           if _owner(c) == module and c[2] == caller)
        return 0

    basis_elements = 0
    if count("half_lattice_monoid", "hilbert_basis") and "--type" in args:
        rsys = uqcentre.build_root_system(
            args[args.index("--type") + 1], int(args[args.index("--rank") + 1]))
        basis_elements = len(uqcentre.hilbert_basis(rsys).elements)
    return {
        "self_s": self_s,
        "calls": calls,
        "canonicalisations": count("qrational", "_pgcd", caller="__init__"),
        "membership_tests": count("half_lattice_monoid", "in_monoid"),
        "basis_elements": basis_elements,
        "orbit_points": orbit_points[0],
    }

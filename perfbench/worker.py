"""Run one benchmark op in a fresh interpreter.

    python3 worker.py TRACE cli ARGS...      # one ``uqcentre`` command line
    python3 worker.py TRACE e7_table INDEX   # weight_multiplicities(E7, w_(INDEX+1))
    python3 worker.py 0 setup                # nothing: start and import only

The op's output goes to stdout.  The last line on stderr is a record
``PERFBENCH {json}`` with the time spent inside the uqcentre call, the host
speed factor of ``speed.Probe`` and the time the probe took, the process's
peak RSS, the file uqcentre was imported from and, with TRACE = 1, the
per-layer profile of the call.
"""

import json
import sys
import time

import uqcentre
import uqcentre.cli
from speed import Probe


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter, ``VmHWM`` in kB.

    ``ru_maxrss`` is not used: it also counts the parent's resident set at
    the time it spawned this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    trace, kind, args = sys.argv[1] == "1", sys.argv[2], sys.argv[3:]
    if kind == "cli":
        call = lambda: uqcentre.cli.main(args)
    elif kind == "e7_table":
        index = int(args[0])

        def call():
            rsys = uqcentre.build_root_system("E", 7)
            return uqcentre.weight_multiplicities(rsys, rsys.fundamental_weight(index))
    elif kind == "setup":
        call = lambda: 0
    else:
        raise SystemExit(f"unknown op kind {kind!r}")

    layers = None
    if trace:
        import layers as tracing

        profiler, orbit_points = tracing.start()
    # no probe during a profiled call: the profiler would charge it to the op
    t_probe = time.perf_counter()
    with Probe(during=not trace) as probe:
        if trace:
            profiler.enable()
        t0 = time.perf_counter()
        result = call()
        compute_s = time.perf_counter() - t0 - probe.during_s
        if trace:
            profiler.disable()
    probe_s = time.perf_counter() - t_probe - compute_s
    if trace:
        layers = tracing.summarise(profiler, orbit_points, args)

    rc = result if kind == "cli" else 0
    if kind == "e7_table":
        print(json.dumps({
            "highest": list(result.highest),
            "dim": result.dim,
            "mult": sorted([list(w), m] for w, m in result.mult.items()),
        }))
    sys.stdout.flush()
    record = {
        "compute_s": compute_s,
        "speed": probe.factor(),
        "probe_s": probe_s,
        "rss_kb": peak_rss_kb(),
        "module": uqcentre.__file__,
        "layers": layers,
    }
    print("PERFBENCH " + json.dumps(record), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())

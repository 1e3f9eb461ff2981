"""Benchmark of uqcentre: fixed op lists, each op in a fresh interpreter, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

NAME is one of the workloads below, or ``all`` to run each in turn.  An op is
one ``uqcentre`` command line or one library call, run by ``worker.py`` in
its own interpreter, so every module cache starts cold as it does for a CLI
user.  The inputs are fixed; the seed only permutes the order of the ops.

With ``--trace 0`` the run measures set-up, then repeats whole rounds of the
op list until S seconds have passed, and reports the end-to-end metrics
(medians over rounds).  With ``--trace 1`` it runs one plain round and one
profiled round and reports the per-layer metrics of the profiled round and
the profiler's overhead.  Every time is scaled to a reference host speed
measured in the process it was taken in (``speed.py``).  The metric names and
units are those of ``BENCHMARK.json``.
``--quick`` runs one small op per workload.  The last line of standard
output is the result as one JSON object.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

OP_TIMEOUT_S = 60  # the slowest op takes ~13 s; the E6 full-character path never ends
TRACED_OP_TIMEOUT_S = 120  # profiling makes an op ~3x slower
SETUP_SAMPLES = 15

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

# uqcentre modules reported as layers; the CLI, reports and unattributed time are "other"
LAYERS = ("qrational", "uq_rank1", "half_lattice_monoid", "root_system",
          "monoid_presentation", "character_ring")


def _cli(*words):
    return ("cli", [*words, "--format", "json"])


# Each workload stresses layers the others leave alone (see README.md).
WORKLOADS = {
    "casimir_rank1": [
        _cli("casimir", "--m", str(m), "--k", str(k)) for m in range(5) for k in (1, 2, 3)
    ],
    "hilbert_search": [
        _cli(cmd, "--type", f, "--rank", str(n))
        for f, n in (("A", 8), ("A", 9), ("A", 11), ("D", 13), ("D", 15),
                     ("E", 6), ("E", 7), ("E", 8))
        for cmd in ("hilb", "presentation")
    ],
    "centre_relations": [
        _cli("verify", "--type", f, "--rank", str(n))
        for f, n in (("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 5), ("D", 7), ("E", 6))
    ] + [
        _cli("verify", "--type", "E", "--rank", "6", "--bound", "5"),
        _cli("verify", "--type", "D", "--rank", "7", "--bound", "4"),
    ],
    "characters_typeI": [
        _cli("verify", "--type", f, "--rank", str(n))
        for f, n in (("F", 4), ("D", 4), ("B", 3), ("C", 3), ("B", 2), ("G", 2))
    ] + [("e7_table", [str(i)]) for i in range(7)],
}

QUICK = {
    "casimir_rank1": _cli("casimir", "--m", "1", "--k", "2"),
    "hilbert_search": _cli("presentation", "--type", "E", "--rank", "6"),
    "centre_relations": _cli("verify", "--type", "A", "--rank", "2"),
    "characters_typeI": _cli("verify", "--type", "B", "--rank", "2"),
}

class HarnessError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    """The environment of every child: no uqcentre settings, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("UQCENTRE_", "PYTHON"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def label(op) -> str:
    kind, args = op
    if kind == "e7_table":
        return f"weight_multiplicities E7 w{int(args[0]) + 1}"
    return " ".join(args[:-2])


def run_op(op, trace: bool = False) -> dict:
    """Run one op in a fresh interpreter; the worker's record plus wall_s and stdout.

    An op that is killed at its time limit, exits with a code other than 0
    or 1 (1 is a verification failure, still checked), or leaves no record
    has ``failed`` set to the reason, and is charged the time limit as its
    wall and compute time, so that a failed op never reads as a speed-up.
    """
    kind, args = op
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), str(int(trace)), kind, *args]
    limit = TRACED_OP_TIMEOUT_S if trace else OP_TIMEOUT_S
    charged = {"wall_s": limit, "compute_s": limit}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"failed": f"killed after {limit} s", **charged}
    wall_s = time.perf_counter() - t0
    records = [l for l in proc.stderr.splitlines() if l.startswith("PERFBENCH ")]
    if proc.returncode not in (0, 1) or not records:
        return {"failed": f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}",
                **charged}
    record = json.loads(records[-1][len("PERFBENCH "):])
    if not os.path.abspath(record["module"]).startswith(SRC + os.sep):
        raise HarnessError(f"uqcentre was imported from {record['module']}, not {SRC}")
    # times at the reference speed of speed.Probe, which ran in the op's
    # process; the probes' own time is taken out of the wall time first
    raw_s = record["compute_s"]
    record.update(failed=None, stdout=proc.stdout, compute_raw_s=raw_s,
                  compute_s=raw_s * record["speed"],
                  wall_s=(wall_s - record["probe_s"]) * record["speed"])
    return record


def check_output(op, record) -> str | None:
    """None if the op's output passes its independent check, else the reason."""
    try:
        checks.check_op(op[0], op[1], json.loads(record["stdout"]))
    except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_round(ops, trace: bool) -> list[dict]:
    records = []
    for op in ops:
        rec = run_op(op, trace)
        rec["error"] = None if rec["failed"] else check_output(op, rec)
        records.append(rec)
        if rec["failed"]:
            status = "FAILED " + rec["failed"]
        else:
            status = "ok" if rec["error"] is None else "WRONG " + rec["error"]
            status = (f"wall {rec['wall_s']:8.3f} s  compute {rec['compute_s']:8.3f} s  "
                      f"(unscaled {rec['compute_raw_s']:8.3f} s, speed {rec['speed']:5.3f})  "
                      f"rss {rec['rss_kb'] / 1024:6.1f} MB  {status}")
        print(f"  {('traced ' if trace else '') + label(op):51s} {status}", flush=True)
    return records


def measure_setup() -> float:
    """Median wall time of a fresh worker that imports uqcentre and its CLI and calls nothing."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        rec = run_op(("setup", []))
        if rec["failed"]:
            raise HarnessError(f"set-up failed: {rec['failed']}")
        if i:  # the first import writes the bytecode caches
            times.append(rec["wall_s"])
    return statistics.median(times)


def _completed(records):
    return [r for r in records if not r["failed"]]


def end_to_end_metrics(setup_s: float, rounds: list[list[dict]]) -> dict:
    """Medians over rounds; a failed op counts with the time limit it was charged."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r["wall_s"] for r in rs) for rs in rounds),
        "compute_s": statistics.median(sum(r["compute_s"] for r in rs) for rs in rounds),
        "peak_rss_mb": max((r["rss_kb"] for rs in rounds for r in _completed(rs)),
                           default=0) / 1024,
    }


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer sums over the traced round; the base of the overhead is the plain round."""
    layers = [r["layers"] for r in _completed(traced)]
    speeds = [r["speed"] for r in _completed(traced)]
    out = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = sum(l["self_s"].get(name, 0.0) * f
                                    for l, f in zip(layers, speeds))
        out[f"{name}.calls"] = sum(l["calls"].get(name, 0) for l in layers)
    out["other.self_s"] = sum(v * f for l, f in zip(layers, speeds)
                              for k, v in l["self_s"].items() if k not in LAYERS)
    out["qrational.canonicalisations"] = sum(l["canonicalisations"] for l in layers)
    tests = sum(l["membership_tests"] for l in layers)
    out["half_lattice_monoid.membership_tests"] = tests
    out["half_lattice_monoid.basis_yield"] = (
        sum(l["basis_elements"] for l in layers) / tests if tests else 0.0)
    out["root_system.orbit_points"] = sum(l["orbit_points"] for l in layers)
    traced_s = sum(r["compute_s"] for r in _completed(traced))
    out["trace.compute_s"] = traced_s
    out["trace.overhead_s"] = traced_s - sum(r["compute_s"] for r in _completed(plain))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    ops = [QUICK[name]] if quick else list(WORKLOADS[name])
    rng = random.Random(seed)
    print(f"workload {name}: {len(ops)} ops, seed {seed}, trace {int(trace)}", flush=True)
    setup_s = measure_setup()  # also writes the bytecode caches before any op
    rounds = []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < seconds):
        order = list(ops)
        rng.shuffle(order)
        rounds.append(run_round(order, trace=False))
    if trace:
        rounds.append(run_round(order, trace=True))
        metrics = per_layer_metrics(rounds[0], rounds[1])
    else:
        metrics = end_to_end_metrics(setup_s, rounds)
    records = [r for rs in rounds for r in rs]
    result = {
        "correct": all(r["error"] is None for r in _completed(records)),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(f"{name}: {result['attempted']} attempted, {result['failed']} failed, "
          f"{len(rounds)} round(s), outputs {'correct' if result['correct'] else 'WRONG'}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one small op per workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uqcentre", "__init__.py")):
        print(f"error: no uqcentre sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.quick)
                   for n in names}
    except (HarnessError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

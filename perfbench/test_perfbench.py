"""Tests of the benchmark itself: quick runs through the real code paths, and
one corrupted output per check to show that each check can reject."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_traced_run_reports_every_layer(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "1", "--quick"))
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_quick_untraced_run_reports_end_to_end_metrics():
    res = _result(_run("--workload", "casimir_rank1", "--seed", "4", "--seconds", "1",
                       "--trace", "0", "--quick"))
    # whole rounds of the one op until a second has passed
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "casimir_rank1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_environment_is_hermetic(monkeypatch):
    monkeypatch.setenv("UQCENTRE_CACHE_DIR", "/nonexistent")
    monkeypatch.setenv("UQCENTRE_E6_FULL", "1")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.child_env()
    assert not any(k.startswith("UQCENTRE_") for k in env)
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == run.SRC


def test_op_over_its_time_limit_is_killed_and_failed(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.01)
    rec = run.run_op(run.QUICK["casimir_rank1"])
    assert rec["failed"].startswith("killed")
    # charged the limit, so a killed op cannot shorten the round
    assert rec["wall_s"] == rec["compute_s"] == 0.01
    done = {"failed": None, "wall_s": 0.002, "compute_s": 0.001, "rss_kb": 2048}
    metrics = run.end_to_end_metrics(0.1, [[done, rec]])
    assert metrics["wall_s"] == 0.012 and metrics["compute_s"] == 0.011
    assert metrics["peak_rss_mb"] == 2.0


def test_speed_probe_samples_during_a_block_and_removes_its_timer():
    import signal
    import time

    with speed.Probe(during=True) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
            pass
    assert len(probe.samples) > 2 * speed.SAMPLES_AROUND
    assert probe.during_s > 0 and probe.factor() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


GENUINE_OPS = {
    "casimir_k1": run._cli("casimir", "--m", "1", "--k", "1"),
    "casimir_k2": run._cli("casimir", "--m", "1", "--k", "2"),
    "hilb": run._cli("hilb", "--type", "A", "--rank", "4"),
    "presentation": run._cli("presentation", "--type", "E", "--rank", "6"),
    "verify_ii": run._cli("verify", "--type", "A", "--rank", "3"),
    "verify_i": run._cli("verify", "--type", "B", "--rank", "2"),
    "e7_table": ("e7_table", ["2"]),
}


@pytest.fixture(scope="module")
def genuine():
    out = {}
    for name, op in GENUINE_OPS.items():
        rec = run.run_op(op)
        assert rec["failed"] is None
        assert run.check_output(op, rec) is None, name
        out[name] = json.loads(rec["stdout"])
    return out


def _add_term(o):
    o["element"].append([[1, 0, 0], {"qpow": 0, "num": [1], "den": [1]}])


def _double_coefficients(o):
    for _mon, c in o["element"]:
        c["num"] = [2 * x for x in c["num"]]


def _bump_hc(o):
    o["hc_image"][0][1] += 1


def _bump_power(o):
    o["powers_of_C1"][0]["num"] = [x + 1 for x in o["powers_of_C1"][0]["num"]] or [1]


def _set(key, value):
    def mutate(o):
        o[key] = value
    return mutate


def _drop_element(o):
    o["elements"].pop()


def _bump_s(o):
    o["s"][0] += 1


def _bump_scaled(o):
    o["scaled_fundamentals"][0][0] += 1


def _swap_pair(o):
    o["pairs"][0].reverse()


def _move_generator(o):
    o["generators"][0]["coords"][0] += 3


def _unbalance(o):
    rel = o["relations"][0]
    label = next(iter(rel["lhs"]))
    rel["lhs"][label] += 1


def _drop_relation(o):
    o["relations"].pop()


def _report(o, prefix):
    return next(r for r in o["reports"] if r["title"].startswith(prefix))


def _fail_item(o):
    _report(o, "kernel")["checks"][0]["passed"] = False


def _bump_generation_count(o):
    item = _report(o, "generation")["checks"][0]
    n = int(item["name"].split()[1])
    item["name"] = item["name"].replace(str(n), str(n + 1), 1)


def _drop_centre_check(o):
    _report(o, "centre relations")["checks"].pop()


def _empty_kernel_report(o):
    _report(o, "kernel")["checks"].clear()


def _lower_rank(o):
    item = _report(o, "independence")["checks"][0]
    item["detail"] = "rank 9 of 10"


def _bump_dim(o):
    o["dim"] += 1


def _double_highest(o):
    for entry in o["mult"]:
        if entry[0] == o["highest"]:
            entry[1] = 2


def _lower_entries(o):
    return sorted((e for e in o["mult"] if e[0] != o["highest"]),
                  key=lambda e: -checks.orbit_size("E", 7, tuple(e[0])))


def _drop_weight(o):
    o["mult"].remove(_lower_entries(o)[0])


def _bump_lower(o):
    _lower_entries(o)[0][1] += 1


def _cancel_in_sum(o):
    """Move multiplicity between two lower weights, keeping the dimension."""
    a, b = _lower_entries(o)[:2]
    sa, sb = (checks.orbit_size("E", 7, tuple(e[0])) for e in (a, b))
    g = checks.gcd(sa, sb)
    a[1] -= sb // g
    b[1] += sa // g
    assert a[1] > 0


CORRUPTIONS = [
    ("casimir_k1", _add_term, "not diagonal"),
    ("casimir_k1", _double_coefficients, "wrong scalar"),
    ("casimir_k1", _bump_hc, "Harish-Chandra"),
    ("casimir_k1", _set("central", False), "not central"),
    ("casimir_k2", _bump_power, "powers_of_C1"),
    ("hilb", _drop_element, "differs from the oracle"),
    ("hilb", _bump_s, "s-vector"),
    ("hilb", _bump_scaled, "scaled fundamentals"),
    ("hilb", _swap_pair, "conjugate pairs"),
    ("presentation", _move_generator, "differ from the oracle"),
    ("presentation", _unbalance, "does not balance"),
    ("presentation", _drop_relation, "relations, expected"),
    ("verify_ii", _set("ok", False), "reported failure"),
    ("verify_ii", _fail_item, "has a failed check"),
    ("verify_ii", _bump_generation_count, "generation check covered"),
    ("verify_ii", _drop_centre_check, "centre-relation checks"),
    ("verify_ii", _empty_kernel_report, "kernel membership report"),
    ("verify_i", _lower_rank, "independence rank"),
    ("e7_table", _bump_dim, "dim"),
    ("e7_table", _double_highest, "highest weight multiplicity"),
    ("e7_table", _drop_weight, "table keys"),
    ("e7_table", _bump_lower, "sums to dimension"),
    ("e7_table", _cancel_in_sum, "second moment"),
]


@pytest.mark.parametrize("name, mutate, message", CORRUPTIONS,
                         ids=[f"{n}-{m.__name__}" for n, m, _ in CORRUPTIONS])
def test_check_rejects_corrupted_output(genuine, name, mutate, message):
    out = copy.deepcopy(genuine[name])
    mutate(out)
    kind, args = GENUINE_OPS[name]
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_op(kind, args, out)


def test_casimir_check_rejects_the_k1_element_for_k2(genuine):
    # central and a polynomial in C^(1), so only the closed form can tell
    out = copy.deepcopy(genuine["casimir_k2"])
    out["element"] = genuine["casimir_k1"]["element"]
    out["powers_of_C1"] = [{"qpow": 0, "num": [], "den": [1]},
                           {"qpow": 0, "num": [1], "den": [1]}]
    kind, args = GENUINE_OPS["casimir_k2"]
    with pytest.raises(checks.CheckFailed, match="wrong scalar"):
        checks.check_op(kind, args, out)


def test_unparseable_output_is_wrong():
    op = GENUINE_OPS["hilb"]
    assert run.check_output(op, {"stdout": "not json"}) is not None


def test_hilbert_oracle_matches_closed_forms():
    # A4 golden set and the D_odd shape, both derived apart from the sieve
    assert len(checks.hilbert_basis_oracle("A", 4)) == 14
    assert checks.hilbert_basis_oracle("D", 7) == checks.d_odd_shape(7)
    assert checks.multipliers("E", 6) == (3, 1, 3, 1, 3, 3)
    assert [checks.weyl_dimension("E", 7, tuple(int(k == i) for k in range(7)))
            for i in range(7)] == list(checks.E7_FUNDAMENTAL_DIMS)


def test_weyl_group_orders_and_dominant_weights():
    orders = [checks.weyl_group_order(checks._cartan(f, n))
              for f, n in (("A", 2), ("D", 4), ("E", 6), ("E", 7), ("E", 8))]
    assert orders == [6, 192, 51840, 2903040, 696729600]
    # the adjoint module of E7: the highest root w1 and the zero weight
    assert checks.dominant_weights_below("E", 7, (1, 0, 0, 0, 0, 0, 0)) == {
        (1, 0, 0, 0, 0, 0, 0), (0,) * 7}
    assert checks.orbit_size("E", 7, (1, 0, 0, 0, 0, 0, 0)) == 126


def test_casimir_closed_form_at_k1_is_the_character_sum():
    q = checks.Q_VALUE
    for m in range(5):
        for n in range(7):
            assert checks.casimir_eigenvalue(m, 1, n, q) == sum(
                q ** ((m - 2 * j) * (n + 1)) for j in range(m + 1))

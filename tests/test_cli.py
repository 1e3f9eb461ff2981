import json
import os
import subprocess
import sys
import time

import pytest

import uqcentre
from uqcentre.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilb_text(capsys):
    code, out, _ = run(capsys, "hilb", "--type", "A", "--rank", "2")
    assert code == 0
    assert "3 elements" in out
    assert "[1, 1]" in out


def test_hilb_json_schema_and_determinism(capsys):
    code, out1, _ = run(capsys, "hilb", "--type", "B", "--rank", "3", "--format", "json")
    assert code == 0
    data = json.loads(out1)
    assert data["type"] == "B" and data["rank"] == 3
    assert sorted(data["elements"]) == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert data["s"] == [1, 1, 1]
    code, out2, _ = run(capsys, "hilb", "--type", "B", "--rank", "3", "--format", "json")
    assert out1 == out2


def test_hilb_invalid_rank(capsys):
    code, _, err = run(capsys, "hilb", "--type", "A", "--rank", "0")
    assert code == 2
    assert "rank" in err


def test_presentation_e6(capsys):
    code, out, _ = run(capsys, "presentation", "--type", "E", "--rank", "6")
    assert code == 0
    assert "14 generators, 8 relations" in out


def test_presentation_g2(capsys):
    code, out, _ = run(capsys, "presentation", "--type", "G", "--rank", "2")
    assert code == 0
    assert "2 generators, 0 relations" in out


def test_presentation_invalid(capsys):
    code, _, _ = run(capsys, "presentation", "--type", "D", "--rank", "2")
    assert code == 2


def test_verify_a3(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "3")
    assert code == 0
    assert "all checks passed" in out


def test_verify_d5_exponent_identity(capsys):
    code, out, _ = run(capsys, "verify", "--type", "D", "--rank", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    (rels,) = [r for r in data["reports"] if r["title"] == "centre relations D5"]
    assert rels["checks"] and all(
        c["name"].endswith("exponent identity") for c in rels["checks"]
    )


def test_verify_type_i(capsys):
    code, out, _ = run(capsys, "verify", "--type", "G", "--rank", "2")
    assert code == 0
    assert "independent" in out


def test_verify_under_python_O_matches(capsys):
    # python -O strips assert statements; no check of the run may rely on one
    argv = ["verify", "--type", "B", "--rank", "2"]
    src = os.path.dirname(os.path.dirname(uqcentre.__file__))
    optimised = subprocess.run(
        [sys.executable, "-O", "-m", "uqcentre.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    code, out, _ = run(capsys, *argv)
    assert optimised.returncode == code == 0
    assert optimised.stdout == out


def test_python_m_uqcentre_runs_the_cli(capsys):
    argv = ["hilb", "--type", "A", "--rank", "2"]
    src = os.path.dirname(os.path.dirname(uqcentre.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "uqcentre", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    code, out, _ = run(capsys, *argv)
    assert child.returncode == code == 0
    assert child.stdout == out


def test_verify_failure_exit_code(capsys, monkeypatch):
    import uqcentre.cli as cli
    from uqcentre.report import Report

    def broken(rsys, pres=None):
        rep = Report(title="forced failure")
        rep.add("corrupted golden data", False, "fixture")
        return rep

    monkeypatch.setattr(cli, "verify_relations", broken)
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "3")
    assert code == 1
    assert "FAILURES" in out


def test_casimir_m1_k1(capsys):
    code, out, _ = run(capsys, "casimir", "--m", "1", "--k", "1")
    assert code == 0
    assert "central: yes" in out
    assert "K^-1" in out
    assert "Harish-Chandra image: K^1 + K^-1" in out


def test_casimir_k2_expression_in_c(capsys):
    code, out, _ = run(capsys, "casimir", "--m", "1", "--k", "2")
    assert code == 0
    assert "as a polynomial in C = C^(1):" in out
    assert "(q^-1)*C^2" in out and "(-q^-1 - q^-3)" in out


def test_casimir_m0(capsys):
    code, out, _ = run(capsys, "casimir", "--m", "0", "--k", "1")
    assert code == 0
    assert "1" in out


def test_casimir_json_round_trip(capsys):
    code, out, _ = run(capsys, "casimir", "--m", "1", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["central"] is True
    assert data["m"] == 1 and data["k"] == 2
    assert all(len(term) == 2 for term in data["element"])


def test_casimir_bad_args(capsys):
    code, _, _ = run(capsys, "casimir", "--m", "-1", "--k", "1")
    assert code == 2
    code, _, _ = run(capsys, "casimir", "--m", "1", "--k", "0")
    assert code == 2


def test_resource_cap_exit_3(capsys, monkeypatch):
    import uqcentre.cli as cli
    from uqcentre.errors import ResourceLimitError

    def exhausted(rsys):
        raise ResourceLimitError("orbit cap")

    monkeypatch.setattr(cli, "hilbert_basis", exhausted)
    code, _, err = run(capsys, "hilb", "--type", "E", "--rank", "8")
    assert code == 3
    assert "resource cap" in err


@pytest.mark.parametrize("argv", [
    ("hilb", "--type", "A", "--rank", "14"),  # 6.6e7 points under sum(a) <= 15
    ("verify", "--type", "E", "--rank", "8", "--bound", "10"),  # 11^8 points
])
def test_box_cap_exits_3_before_enumerating(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "over the cap" in err


def test_usage_error_exit_2(capsys):
    assert main(["hilb", "--type", "A"]) == 2  # missing --rank
    assert main(["nonsense"]) == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "basis.json"
    code, out, _ = run(
        capsys, "hilb", "--type", "A", "--rank", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["rank"] == 2


def test_unwritable_out_file_exits_2(tmp_path):
    target = tmp_path / "missing" / "basis.json"
    src = os.path.dirname(os.path.dirname(uqcentre.__file__))
    child = subprocess.run(
        [sys.executable, "-m", "uqcentre", "hilb", "--type", "A", "--rank", "2",
         "--out", str(target)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in child.stderr


def test_invalid_rank_message(capsys):
    code, _, err = run(capsys, "hilb", "--type", "B", "--rank", "1")
    assert code == 2
    assert err == "error: invalid rank 1 for type B: requires rank >= 2\n"


@pytest.mark.parametrize("flags", [
    ("--jobs", "2"),
    ("--cache-dir", "chartables"),
    ("--e6-full-characters",),
])
def test_removed_options_exit_2(capsys, flags):
    code, out, err = run(capsys, "verify", "--type", "A", "--rank", "2", *flags)
    assert code == 2
    assert out == "" and "unrecognized arguments" in err

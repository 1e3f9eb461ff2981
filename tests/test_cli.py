import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqcentre
from uqcentre.cli import COMMANDS, Option, _json_dump, _parse, main

SRC = os.path.dirname(os.path.dirname(uqcentre.__file__))


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


def test_box_cap_message_is_one_short_line(capsys):
    # the A60 box has 60 coordinates and about 1.9 * 10^35 points
    code, out, err = run(capsys, "hilb", "--type", "A", "--rank", "60")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) <= 160
    assert "60 coordinates" in lines[0] and "at least 10^35 points, over the cap" in lines[0]


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


def test_closed_stdout_pipe_exits_2_without_traceback():
    # as `uqcentre ... | head -1` once head has exited: no reader is left
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "uqcentre", "hilb", "--type", "A", "--rank", "12",
             "--format", "json"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 2
    assert child.stderr.startswith("error: cannot write standard output: ")
    assert child.stderr.count("\n") == 1 and "Traceback" not in child.stderr


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | _TEXT,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(st.integers(-10**40, 10**40), max_size=4)
        | st.dictionaries(_TEXT | st.sampled_from(["10", "2", "", "a"]), inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_json_dump_is_json_dumps(value):
    assert _json_dump(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "one"}, [{"a": [0.5]}], {"b": 1, 2: 0}])
def test_json_dump_rejects_what_it_cannot_match(value):
    with pytest.raises(TypeError):
        _json_dump(value)


DEFAULTS = {"format": "text", "out": None}


@pytest.mark.parametrize("argv, values", [
    (["hilb", "--type", "A", "--rank", "2"], {"family": "A", "rank": 2}),
    (["presentation", "--type=E", "--rank=6"], {"family": "E", "rank": 6}),
    (["verify", "--type", "D", "--rank", "5"], {"family": "D", "rank": 5, "bound": 3}),
    (["casimir", "--m", "1"], {"m": 1, "k": 1}),
    (["hilb", "--ty", "B", "--ra=3", "--form", "json"],
     {"family": "B", "rank": 3, "format": "json"}),
    (["verify", "--rank", "2", "--type", "A", "--bo=4", "--out", "r.txt"],
     {"family": "A", "rank": 2, "bound": 4, "out": "r.txt"}),
    (["casimir", "--m", "1", "--m", "3", "--k", "2", "--k=3", "--format", "json",
      "--format", "text"], {"m": 3, "k": 3}),
    (["presentation", "--type", "A", "--rank", "9", "--rank", "3"], {"family": "A", "rank": 3}),
    (["casimir", "--m", "-1", "--k=-2"], {"m": -1, "k": -2}),
    (["verify", "--type", "A", "--rank", "-3", "--bound", "-1"],
     {"family": "A", "rank": -3, "bound": -1}),
])
def test_parse_fills_defaults_and_takes_the_last_value(argv, values):
    command, args = _parse(argv)
    assert command == argv[0]
    assert vars(args) == {**DEFAULTS, **values}


@pytest.mark.parametrize("argv, message", [
    (["casimir", "--m", "-1"], "error: --m must be >= 0\n"),
    (["casimir", "--m", "1", "--k", "-1"], "error: --k must be >= 1\n"),
    (["verify", "--type", "A", "--rank", "2", "--bound=-1"], "error: --bound must be >= 1\n"),
    (["hilb", "--type", "A", "--rank", "-2"],
     "error: invalid rank -2 for type A: requires rank >= 1\n"),
])
def test_negative_values_reach_the_domain_checks(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    *([name, flag] for name in COMMANDS for flag in ("-h", "--help")),
    ["hilb", "--type", "A", "--help"],  # help comes before the missing --rank
    ["casimir", "--m", "1", "--hel"],
])
def test_help_lists_every_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: uqcentre")
    if argv[0] not in COMMANDS:
        assert all(f"  {name}  " in out for name in COMMANDS)
        return
    for opt in COMMANDS[argv[0]][2]:
        assert f"  {opt.flag} " in out and opt.help in out
        assert opt.choices is None or "{" + ",".join(opt.choices) + "}" in out


@pytest.mark.parametrize("argv, problem", [
    ([], "the following arguments are required: command"),
    (["nonsense"], "argument command: invalid choice: 'nonsense' "
                   "(choose from 'hilb', 'presentation', 'verify', 'casimir')"),
    (["--type", "A"], "unrecognized arguments: --type A"),
    (["hilb", "--type", "A"], "the following arguments are required: --rank"),
    (["casimir", "--k", "2"], "the following arguments are required: --m"),
    (["presentation"], "the following arguments are required: --type, --rank"),
    (["verify", "--type", "A", "--rank", "two"], "argument --rank: invalid int value: 'two'"),
    (["casimir", "--m", "1.5"], "argument --m: invalid int value: '1.5'"),
    (["hilb", "--type", "A", "--rank", "2", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["hilb", "--type", "A", "--rank"], "argument --rank: expected one argument"),
    (["hilb", "--type", "--rank", "2"], "argument --type: expected one argument"),
    (["verify", "--type", "A", "--rank", "2", "--bound="], "argument --bound: invalid int value: ''"),
    (["casimir", "--m", "1", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    (["casimir", "--m", "1", "-x", "extra"], "unrecognized arguments: -x extra"),
    (["hilb", "--type", "A", "--rank", "2", "--help=yes"],
     "argument -h/--help: ignored explicit argument 'yes'"),
])
def test_usage_errors_name_the_problem(capsys, argv, problem):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: uqcentre")
    assert error.endswith("error: " + problem)


def test_ambiguous_prefix_is_refused(capsys, monkeypatch):
    # no two options of a subcommand share a prefix today: add one that does
    func, summary, options = COMMANDS["verify"]
    extra = Option("--bounds", "bounds", int, 0, None, "a second option starting --bound")
    monkeypatch.setitem(COMMANDS, "verify", (func, summary, options + (extra,)))
    code, out, err = run(capsys, "verify", "--type", "A", "--rank", "2", "--bo", "2")
    assert code == 2 and out == ""
    assert err.splitlines()[1] == (
        "uqcentre verify: error: ambiguous option: --bo could match --bound, --bounds")
    assert _parse(["verify", "--type", "A", "--rank", "2", "--bound", "2"])[1].bound == 2


def test_cli_imports_no_argparse():
    # argparse pulls in gettext, and its messages pull in locale; dataclasses
    # pulls in inspect, fractions pulls in decimal, and json is one function.
    # None is needed, neither to import the CLI nor to run a command.  -S keeps
    # site's .pth files from loading or hiding any of them.
    probe = (
        "import io, sys, contextlib, uqcentre.cli\n"
        "banned = ('argparse', 'gettext', 'locale', 'dataclasses', 'inspect',\n"
        "          'fractions', 'decimal', 'json')\n"
        "loaded = lambda: [m for m in banned if m in sys.modules]\n"
        "after_import = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['hilb', '--type', 'A', '--rank', '2'],\n"
        "                 ['presentation', '--type', 'B', '--rank', '2'],\n"
        "                 ['verify', '--type', 'G', '--rank', '2'],\n"
        "                 ['verify', '--type', 'A', '--rank', '2'],\n"
        "                 ['casimir', '--m', '1', '--k', '2']):\n"
        "        for fmt in ('text', 'json'):\n"
        "            assert uqcentre.cli.main(argv + ['--format', fmt]) == 0, argv\n"
        "    uqcentre.cli.main(['verify', '--help'])\n"
        "print(after_import, loaded())\n"
    )
    child = subprocess.run([sys.executable, "-S", "-c", probe],
                           env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[] []\n"

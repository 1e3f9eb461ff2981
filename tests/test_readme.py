"""The README's command lines run, and its JSON schemas name the keys the CLI emits."""

import json
import re
import shlex
from pathlib import Path

from uqcentre.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# each documented command, with the runs whose keys must match its schema
RUNS = {
    "hilb": [["hilb", "--type", "A", "--rank", "2"]],
    "presentation": [["presentation", "--type", "A", "--rank", "2"]],
    "verify": [["verify", "--type", "A", "--rank", "2"]],
    "casimir": [["casimir", "--m", "1", "--k", "1"], ["casimir", "--m", "1", "--k", "2"]],
}


def documented_schemas():
    """{command: (always-present keys, optional keys)} from the schema bullets."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### JSON schemas", 1)[1].split("\n#", 1)[0]
    schemas = {}
    for bullet in section.split("\n* "):
        match = re.match(r"\s*\*?\s*`(\w+)`:\s*`([^`]*)`", bullet)
        if match is None:
            continue
        name, schema = match.groups()
        keys, depth, part = [], 0, ""
        for ch in schema.strip()[1:-1] + ",":
            if ch in "{[":
                depth += 1
            elif ch in "}]":
                depth -= 1
            if ch == "," and depth == 0:
                keys.append(part.split(":", 1)[0].strip())
                part = ""
            else:
                part += ch
        required = {k for k in keys if not k.endswith("?")}
        optional = {k[:-1] for k in keys if k.endswith("?")}
        schemas[name] = (required, optional)
    return schemas


def test_json_schemas_match_cli_keys(capsys):
    schemas = documented_schemas()
    assert set(RUNS) <= set(schemas)
    for command, runs in RUNS.items():
        required, optional = schemas[command]
        seen = set()
        for argv in runs:
            assert main(argv + ["--format", "json"]) == 0
            keys = set(json.loads(capsys.readouterr().out))
            assert required <= keys <= required | optional, (argv, keys)
            seen |= keys
        assert seen == required | optional, command


def documented_command_lines():
    """The ``uqcentre ...`` lines of the README's "Command line" block, as argv lists."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("uqcentre ")]


def test_command_line_examples_exit_0(capsys):
    lines = documented_command_lines()
    assert any(argv == ["--help"] for argv in lines)
    assert any(len(argv) == 2 and argv[1] == "--help" for argv in lines)
    assert any("=" in word for argv in lines for word in argv)
    for argv in lines:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out


def test_library_example_runs_as_commented(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == len(namespace["pres"].relations)
    basis = namespace["basis"]
    assert len(basis.elements) == 14 and basis.s == (3, 1, 3, 1, 3, 3)
    kinds = [r.kind for r in namespace["pres"].relations]
    assert (kinds.count("rel1"), kinds.count("rel2")) == (5, 3)
    assert namespace["verify_centre_relations"](namespace["d5"]).ok

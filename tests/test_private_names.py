"""Every private top-level function or class of the library is used in the library.

A module of ``src/uqcentre`` that defines ``_name`` at top level must name it
somewhere else in ``src/``: in another top-level statement of its own module
or in another module, as a name, an attribute or an import.  A reference from
inside the definition itself (recursion) or from a docstring does not count,
so a helper left behind when its last caller moved out of the library fails
here.  Tests and oracles may read private names, but do not keep them alive.
"""

import ast
from pathlib import Path

import uqcentre

PACKAGE = Path(uqcentre.__file__).resolve().parent


def _names(node):
    """The identifiers that ``node`` uses: names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def private_definitions_unused(package=PACKAGE):
    """(module, name) for each private top-level def or class that nothing else names."""
    defined = []  # (module, name, the defining node)
    uses = []  # (the top-level node, the names it uses)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((path.stem, name, node))
            uses.append((node, set(_names(node))))
    return [
        (module, name)
        for module, name, node in defined
        if not any(name in names for other, names in uses if other is not node)
    ]


def test_every_private_definition_is_named_elsewhere_in_the_library():
    assert private_definitions_unused() == []


def test_the_scan_finds_a_private_helper_left_behind(tmp_path):
    # a package whose only caller of _helper is _helper itself
    (tmp_path / "a.py").write_text(
        "def _helper(n):\n    return _helper(n - 1) if n else 0\n\n\n"
        "def _used():\n    return 1\n\n\n"
        "class _Box:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import _used\n", encoding="utf-8")
    assert private_definitions_unused(tmp_path) == [("a", "_helper"), ("a", "_Box")]

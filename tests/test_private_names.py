"""Every private top-level function or class of the library is used in the library,
and every name the package exports has a caller.

A module of ``src/uqcentre`` that defines ``_name`` at top level must name it
somewhere else in ``src/``: in another top-level statement of its own module
or in another module, as a name, an attribute or an import.  A reference from
inside the definition itself (recursion) or from a docstring does not count,
so a helper left behind when its last caller moved out of the library fails
here.  Tests and oracles may read private names, but do not keep them alive.

A name that ``uqcentre/__init__.py`` imports, and so exports, must be named
by a top-level statement of another module of the library that does not
define it, by the README's library example, by ``perfbench/`` or by the
acceptance tests.  The other tests do not keep an export alive: a routine
that only they call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import uqcentre

PACKAGE = Path(uqcentre.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """The identifiers that ``node`` uses: names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _statements(package):
    """(module, node, names it defines, names it uses) per top-level statement of ``package``."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                defines = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defines = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                defines = set()
            yield path.stem, node, defines, set(_names(node))


def private_definitions_unused(package=PACKAGE):
    """(module, name) for each private top-level def or class that nothing else names."""
    statements = list(_statements(package))
    return [
        (module, node.name)
        for module, node, _, _ in statements
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in uses for _, other, _, uses in statements if other is not node)
    ]


def outside_callers(root=ROOT):
    """The sources outside the library that keep an export alive, as texts.

    They are the README's library example, every file of ``perfbench/`` and
    ``tests/test_acceptance.py``.
    """
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    files = sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    return [example] + [path.read_text(encoding="utf-8") for path in files]


def exports_without_caller(package=PACKAGE, sources=None):
    """The names ``__init__.py`` imports that neither the library nor ``sources`` name."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name
                for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    outside = set()
    for text in outside_callers() if sources is None else sources:
        outside.update(_names(ast.parse(text)))
    statements = [(defines, uses) for module, _, defines, uses in _statements(package)
                  if module != "__init__"]
    return [
        name for name in exported
        if name not in outside
        and not any(name in uses and name not in defines for defines, uses in statements)
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


def test_every_export_has_a_caller():
    assert exports_without_caller() == []


def test_the_scan_finds_an_export_without_a_caller(tmp_path):
    # f names only itself and SPARE only itself; LIMIT is named by g and by
    # SPARE, g is called in b.py and h outside the library
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\nSPARE = LIMIT + 1\n\n\n"
        "def f(n):\n    return f(n - 1) if n else 0\n\n\n"
        "def g():\n    return LIMIT\n\n\n"
        "def h():\n    return 1\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import g\n\nX = g()\n", encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .a import LIMIT, SPARE, f, g, h\n",
                                          encoding="utf-8")
    assert exports_without_caller(tmp_path, ["from pkg import h\nh()\n"]) == ["SPARE", "f"]

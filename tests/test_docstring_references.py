"""Every :func:, :class: and :meth: reference in a library or oracle docstring resolves.

So does every private name in double backticks, such as ``_helper``, so that a
helper that moves out of a module cannot stay named in that module's docstrings.

A reference resolves when it names something in its module's globals, an
attribute of a class defined in that module, or a name of the ``uqcentre``
package; the module of ``tests/oracles.py`` is ``oracles``.  A dotted
reference is followed one attribute at a time from its first part.
``__main__`` is not imported: importing it runs the CLI.  The backticked
identifiers of the README's ``## Modules`` table resolve in the same way in
some module of the package; Python builtins and standard-library modules are
skipped.
"""

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

import pytest

import uqcentre

PACKAGE = Path(uqcentre.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"
README = PACKAGE.parents[1] / "README.md"
REFERENCE = re.compile(r":(?:func|class|meth):`~?([\w.]+)(?:\(\))?`")
PRIVATE = re.compile(r"``(_[A-Za-z][\w.]*)``")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__main__")


def references(path):
    """The names referenced in the docstrings of the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False) or ""
            names += REFERENCE.findall(doc) + PRIVATE.findall(doc)
    return names


def resolves(module, name):
    head, *rest = name.split(".")
    scopes = [module, uqcentre] + [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    for scope in scopes:
        obj = getattr(scope, head, None)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_the_docstrings_hold_references():
    assert sum(len(references(PACKAGE / f"{stem}.py")) for stem in MODULES) >= 20
    # private names in double backticks are references too
    assert "_mul_add_slow" in references(PACKAGE / "qrational.py")
    assert {"_grow", "_mul_into"} <= set(references(ORACLES))


@pytest.mark.parametrize("stem", MODULES)
def test_docstring_references_resolve(stem):
    module = importlib.import_module(f"uqcentre.{stem}" if stem != "__init__" else "uqcentre")
    stale = [name for name in references(PACKAGE / f"{stem}.py") if not resolves(module, name)]
    assert not stale, f"uqcentre.{stem} docstrings name {stale}"


def test_oracle_docstring_references_resolve():
    oracles = importlib.import_module("oracles")
    names = references(ORACLES)
    assert names
    stale = [name for name in names if not resolves(oracles, name)]
    assert not stale, f"tests/oracles.py docstrings name {stale}"


def test_readme_modules_table_names_resolve():
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    names = sorted(set(re.findall(r"`([A-Za-z_][\w.]*)`", table)))
    modules = [importlib.import_module(f"uqcentre.{stem}") for stem in MODULES if stem != "__init__"]
    skipped = {"uqcentre", *dir(builtins), *sys.stdlib_module_names}

    def known(name):
        name = name.removeprefix("uqcentre.")
        return name.split(".")[0] in skipped or any(resolves(m, name) for m in modules)

    assert len(names) >= 20
    stale = [name for name in names if not known(name)]
    assert not stale, f"the README modules table names {stale}"

"""Only two functions of ``qrational`` refresh bounds or repack at a new width.

``_refresh`` tightens a stored bound to the exact l1 norm and ``_at`` repacks
a value at a wider B or at stride 1.  Every sum or product that the
one-operation path cannot form goes through ``_mul_add_slow``, and
``_quotient_certified`` decides a division at the width its certificate
needs; no other function of the module may name either helper, so a second
widening rule cannot come back unnoticed.  The scan is syntactic: a call, or
any other use of the name, inside a function (or a method) counts against
the innermost function around it, and one at module level counts too.
"""

import ast
from pathlib import Path

import uqcentre

QRATIONAL = Path(uqcentre.__file__).resolve().parent / "qrational.py"
HELPERS = {"_refresh", "_at"}
ALLOWED = {"_mul_add_slow", "_quotient_certified"}


def widening_uses(path=QRATIONAL):
    """(function, line, helper) for each use of a widening helper outside ``ALLOWED``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
            else:
                if (isinstance(child, ast.Name) and child.id in HELPERS
                        and owner not in ALLOWED):
                    out.append((owner, child.lineno, child.id))
                visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return out


def test_only_the_slow_path_and_the_certified_quotient_widen():
    assert widening_uses() == []


def test_the_scan_finds_each_kind_of_use(tmp_path):
    path = tmp_path / "qrational.py"
    path.write_text(
        "def _refresh(x):\n    return x\n\n\n"
        "def _mul_add_slow(x):\n    return _refresh(x)\n\n\n"
        "def _combine(x, y):\n    f = _at\n    return _refresh(x), f(y)\n\n\n"
        "class QRat:\n    def widen(self):\n        return (lambda: _at(self))()\n\n\n"
        "HOOK = _refresh\n",
        encoding="utf-8",
    )
    assert widening_uses(path) == [
        ("_combine", 10, "_at"), ("_combine", 11, "_refresh"),
        ("<lambda>", 16, "_at"), ("<module>", 19, "_refresh"),
    ]

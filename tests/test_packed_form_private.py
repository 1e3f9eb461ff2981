"""Only ``qrational`` reads the packed form of a ``QRat``.

A ``QRat`` keeps its packed N, its l1 bound and its stride in the slots
``_n``, ``_h`` and ``_s`` (see the ``qrational`` docstring), and the module's
private helpers keep their invariants.  A module of ``src/uqcentre`` other
than ``qrational`` must not read those slots, on any object, by attribute or
by ``getattr``, nor import a private name of ``qrational`` or read one off
the module.  The scan is syntactic, so it also flags an attribute of another
class that happens to share a slot's name.
"""

import ast
from pathlib import Path

import uqcentre

PACKAGE = Path(uqcentre.__file__).resolve().parent
SLOTS = {"_n", "_h", "_s"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def packed_form_leaks(package=PACKAGE):
    """(module, line, what) for each read of the packed form outside ``qrational``."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "qrational":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the names under which the module imports qrational itself
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for a in node.names:
                    if (node.module or "").split(".")[-1] == "qrational":
                        if _private(a.name):
                            out.append((path.stem, node.lineno, a.name))
                    elif a.name == "qrational":
                        aliases.add(a.asname or a.name)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[-1] == "qrational" and a.asname:
                        aliases.add(a.asname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if node.attr in SLOTS:
                    out.append((path.stem, node.lineno, "." + node.attr))
                elif (_private(node.attr) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    out.append((path.stem, node.lineno, f"{node.value.id}.{node.attr}"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "setattr") and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant) and node.args[1].value in SLOTS):
                out.append((path.stem, node.lineno, f"{node.func.id} {node.args[1].value}"))
    return out


def test_no_module_but_qrational_reads_the_packed_form():
    assert packed_form_leaks() == []


def test_the_scan_finds_each_kind_of_leak(tmp_path):
    (tmp_path / "qrational.py").write_text("_B = 64\n\n\ndef _digits(n):\n    return n._n\n",
                                           encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "from .qrational import QRat, _digits\n"
        "from . import qrational as qr\n\n\n"
        "def f(x):\n"
        "    return x._n, x.qpow, qr._B, qr.QRat, getattr(x, '_s'), x._terms\n",
        encoding="utf-8",
    )
    assert packed_form_leaks(tmp_path) == [
        ("a", 1, "_digits"), ("a", 6, "._n"), ("a", 6, "qr._B"), ("a", 6, "getattr _s"),
    ]

"""Package layout: modules reach each other through public names only,
and every vertex set is an ascending tuple, never a ``frozenset``."""

import ast
from pathlib import Path

import shg

MODULES = sorted(Path(shg.__file__).parent.glob("*.py"))


def private_imports(source):
    """The (module, name) of every ``from .x import _name`` in ``source``;
    dunders such as ``__version__`` are public."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))]


def frozenset_uses(source):
    """The line of every use of the name ``frozenset`` in ``source``: a
    call, an annotation or any other reference, ``builtins.frozenset``
    included."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if getattr(node, "id", None) == "frozenset" or getattr(node, "attr", None) == "frozenset")


def test_no_module_imports_a_private_name():
    assert len(MODULES) >= 10
    found = {path.name: private_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_private_names():
    source = ("from . import __version__\n"
              "from .core import Edge, _components\n"
              "from .nodal import (\n    Analysis,\n    _row_pass,\n)\n"
              "from numpy import _private\n"
              "def f():\n    from ..shg.spectra import _as_values\n")
    assert private_imports(source) == [
        ("core", "_components"), ("nodal", "_row_pass"), ("shg.spectra", "_as_values")]


def test_no_module_uses_frozenset():
    found = {path.name: frozenset_uses(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_sees_frozenset():
    source = ("def f(vs) -> frozenset[int]:\n"
              "    return frozenset(vs)\n"
              "x = set().union, 'frozenset', frozen_set\n"
              "make = builtins.frozenset\n")
    assert frozenset_uses(source) == [1, 2, 4]

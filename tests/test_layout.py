"""Package layout: modules reach each other through public names only."""

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

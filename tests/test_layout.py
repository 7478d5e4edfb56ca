"""Package layout: modules reach each other through public names only,
every vertex set is an ascending tuple, never a ``frozenset``, and every
parameter is read."""

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


def unused_parameters(source):
    """The (line, function, parameter) of every parameter of a function or
    lambda in ``source`` that its body never reads, a read inside a nested
    function included.  A campaign property (decorated ``@_property(...)``)
    may leave its ``rng`` unread, since every property takes
    ``(ctx, rng)``, but must read its instance ``ctx``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]
        if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_property"
               for d in getattr(node, "decorator_list", ())):
            params.remove("rng")
        body = node.body if isinstance(node, ast.Lambda) else ast.Module(node.body, [])
        read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p) for p in params if p not in read]
    return found


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


def test_every_parameter_is_read():
    found = {path.name: unused_parameters(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: params for name, params in found.items() if params} == {}


def test_the_check_sees_unused_parameters():
    source = ("def f(h, bundle, g=0, *args, key, **kw):\n"
              "    return bundle + args[0] + kw['x']\n"
              "def outer(x, y):\n"
              "    y = 1\n"
              "    def inner():\n"
              "        return x\n"
              "    return inner\n"
              "key = lambda rows, v: rows\n"
              "@_property('p')\n"
              "def _p(ctx, rng):\n"
              "    return ctx\n"
              "@_property('q')\n"
              "def _q(ctx, rng):\n"
              "    return rng.random()\n")
    assert unused_parameters(source) == [
        (1, "f", "h"), (1, "f", "g"), (1, "f", "key"), (3, "outer", "y"), (13, "_q", "ctx"),
        (8, "<lambda>", "v")]

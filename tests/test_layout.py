"""Package layout: modules reach each other through public names only,
every vertex set is an ascending tuple, never a ``frozenset``, every
parameter is read, every module-level function is reachable, the facts
of a hypergraph are computed only by the hypergraph that caches them,
only ``spectra`` applies the zero rule, only the edge decides its sign,
only the edge refuses an empty edge, no module reads a pair table (an attribute ``pairs``) or imports
``itertools.combinations``, since every pass reads an edge once as its
members and sgn(e), the README's quick tour runs and so does the
benchmark's self-test."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import shg

MODULES = sorted(Path(shg.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def unreachable_functions(sources):
    """The (module, function) of every module-level function of
    ``sources`` (module name to source) that no module names outside the
    function's own ``def``, as a name or an attribute, that is not in its
    module's ``__all__`` and that no ``@_property(...)`` registers."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for stmt in tree.body:
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)
            named |= names
    found = []
    for module, tree in trees.items():
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                exported |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
        found += [(module, stmt.name) for stmt in tree.body
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and stmt.name not in named and stmt.name not in exported
                  and not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_property"
                              for d in stmt.decorator_list)]
    return found


def reads(source, names, attributes_only=False):
    """The (scope, name) of every read of one of ``names`` in ``source``,
    as a name or an attribute (an attribute only, if ``attributes_only``):
    a call, or the function handed on.  The scope is the dotted path of
    the enclosing classes and functions, ``<module>`` at the top level;
    imports and ``def`` lines are not reads."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id in names
                  and not attributes_only):
                found.append((".".join(scope) or "<module>", child.id))
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.append((".".join(scope) or "<module>", child.attr))
            visit(child, inner)

    visit(ast.parse(source), ())
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


def test_every_function_is_reachable():
    # nodal.weak_domains is called only by bench/reference.py, a one-off
    # timing script; ROADMAP item 1 retires both
    found = unreachable_functions({path.stem: path.read_text(encoding="utf-8") for path in MODULES})
    assert found == [("nodal", "weak_domains")]


def test_the_check_sees_unreachable_functions():
    sources = {
        "a": ("__all__ = ['public']\n"
              "def public():\n    return _helper()\n"
              "def _helper():\n    return 1\n"
              "def _recursive(k):\n    return _recursive(k - 1)\n"
              "def _dead():\n    return public\n"
              "def _imported_only():\n    return 0\n"
              "def _by_attribute():\n    return 0\n"
              "@_property('p')\n"
              "def _p(ctx, rng):\n    return ctx\n"
              "class C:\n    def method(self):\n        return 0\n"),
        "b": ("from .a import _imported_only\n"
              "from . import a\n"
              "x = a._by_attribute()\n"),
    }
    assert unreachable_functions(sources) == [("a", "_recursive"), ("a", "_dead"), ("a", "_imported_only")]


def test_hypergraph_facts_have_one_owner():
    # the bridge pass and the cyclomatic data are facts of the hypergraph
    # alone: only the properties that cache them on it compute them, so
    # each runs once per hypergraph
    found = {path.stem: reads(path.read_text(encoding="utf-8"), {"cyclic_vertices", "cyclomatic"})
             for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {
        "core": [("SignedHypergraph.cycles", "cyclomatic"), ("SignedHypergraph.cyclic", "cyclic_vertices")]}


def test_the_zero_rule_has_one_owner():
    # only spectra reads a function's zero tolerance: VertexFunction
    # checks it and decides its signs with it, and sign_matrix applies
    # the same rule to many functions; every other module reads a sign
    found = {path.stem: reads(path.read_text(encoding="utf-8"), {"zero_tolerance"}) for path in MODULES}
    assert {module: sorted(set(names)) for module, names in found.items() if names} == {
        "spectra": [("VertexFunction.__post_init__", "zero_tolerance"),
                    ("VertexFunction.signs", "zero_tolerance"), ("sign_matrix", "zero_tolerance")]}


# the scopes that read an edge's incidences: the edge itself, the
# copiers, the writers and the oracle, which decides sgn(e) on its own
INCIDENCE_READERS = {
    "core": ["Edge.__post_init__", "Edge.size", "induced_subhypergraph"],
    "shgio": ["serialize"],
    "verify": ["_edge_key", "_oracle_steps"],
}


def incidence_readers(sources):
    """The scopes of ``sources`` (module name to source) that read the
    attribute ``incidences``, sorted, per module that has any."""
    found = {module: sorted({scope for scope, _ in reads(source, {"incidences"}, attributes_only=True)})
             for module, source in sources.items()}
    return {module: scopes for module, scopes in found.items() if scopes}


def test_the_edge_sign_has_one_owner():
    # sgn(e) is decided by the edge as it checks its incidences, and read
    # as Edge.sign; every other reader of an edge reads Edge.vertices
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert incidence_readers(sources) == INCIDENCE_READERS
    assert not any("edge_sign" in source for source in sources.values())


def test_the_check_sees_a_planted_incidence_reader():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    sources["nodal"] += ("\ndef _planted(h):\n"
                         "    incidences = [e.incidences for e in h.edges]\n"
                         "    return incidences\n")
    assert incidence_readers(sources) == {**INCIDENCE_READERS, "nodal": ["_planted"]}


def test_the_check_sees_reads():
    source = ("from .core import cyclomatic\n"
              "__all__ = ['cyclomatic']\n"
              "x = cyclomatic(h)\n"
              "class H:\n"
              "    @property\n"
              "    def cycles(self):\n"
              "        return cyclomatic(self)\n"
              "    def other(self, cyclomatic=None):\n"
              "        f = lambda g: core.cyclomatic(g)\n"
              "        return map(cyclomatic, gs)\n"
              "def cyclic_vertices(h):\n"
              "    def inner():\n"
              "        return [cyclic_vertices(g)[0] for g in gs]\n"
              "    return inner\n")
    assert reads(source, {"cyclomatic", "cyclic_vertices"}) == [
        ("<module>", "cyclomatic"), ("H.cycles", "cyclomatic"), ("H.other", "cyclomatic"),
        ("H.other", "cyclomatic"), ("cyclic_vertices.inner", "cyclic_vertices")]


def empty_edge_guards(source):
    """The (scope, trace), sorted, of every trace in ``source`` of an edge
    without a member: the name ``allow_empty_edges`` (a field, a read or a
    keyword), a string that names an empty edge outside a docstring, an
    attribute ``size`` compared with 0, and a truth test of an attribute
    ``vertices`` or ``incidences`` (``if e.vertices``, ``not e.incidences``).
    The scope is as in ``reads``."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = set()

    def truth_tested(node):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            return [node.test]
        if isinstance(node, ast.comprehension):
            return node.ifs
        if isinstance(node, ast.BoolOp):
            return node.values
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return [node.operand]
        return []

    def visit(node, scope):
        where = ".".join(scope) or "<module>"
        if "allow_empty_edges" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "arg", None)):
            found.add((where, "allow_empty_edges"))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "empty edge" in node.value and id(node) not in docstrings):
            found.add((where, repr(node.value)))
        elif (isinstance(node, ast.Compare) and getattr(node.left, "attr", None) == "size"
              and any(getattr(c, "value", None) == 0 for c in node.comparators)):
            found.add((where, ".size compared with 0"))
        for test in truth_tested(node):
            if getattr(test, "attr", None) in ("vertices", "incidences"):
                found.add((where, f"truth of .{test.attr}"))
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(tree, ())
    return sorted(found)


# the edge refuses an edge without a member, so no other code guards
# against one
EMPTY_EDGE_GUARDS = {"core": [("Edge.__post_init__", "'empty edge'")]}


def test_only_the_edge_refuses_an_empty_edge():
    found = {path.stem: empty_edge_guards(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {module: guards for module, guards in found.items() if guards} == EMPTY_EDGE_GUARDS


def test_the_check_sees_planted_empty_edge_guards():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    sources["shgio"] += ("\ndef _planted(h, e):\n"
                         "    \"\"\"Writes no empty edge.\"\"\"\n"
                         "    kept = [x for x in h.edges if x.vertices]\n"
                         "    if e.size == 0 or not e.incidences:\n"
                         "        raise ValueError(f'cannot serialize empty edge {e}')\n"
                         "    return SignedHypergraph(h.n, kept, allow_empty_edges=h.allow_empty_edges)\n"
                         "class _Planted:\n"
                         "    allow_empty_edges: bool = False\n")
    found = {module: empty_edge_guards(source) for module, source in sources.items()}
    assert {module: guards for module, guards in found.items() if guards} == {
        **EMPTY_EDGE_GUARDS,
        "shgio": [("_Planted", "allow_empty_edges"), ("_planted", "'cannot serialize empty edge '"),
                  ("_planted", ".size compared with 0"), ("_planted", "allow_empty_edges"),
                  ("_planted", "truth of .incidences"), ("_planted", "truth of .vertices")]}


def pair_table_uses(source):
    """The line of every read of an attribute ``pairs`` in ``source``, and
    of every import or attribute read of ``itertools.combinations``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
                node.attr == "pairs"
                or node.attr == "combinations" and getattr(node.value, "id", None) == "itertools"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [node.lineno for alias in node.names if alias.name == "combinations"]
    return sorted(found)


def test_no_module_reads_a_pair_table():
    # an edge holds C(|e|, 2) vertex pairs but only |e| incidences, and
    # every pass reads it as its members and sgn(e), so no cost grows with
    # the pairs; the pair table lives in the tests' references alone
    found = {path.name: pair_table_uses(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_sees_pair_tables():
    source = ("from itertools import chain, combinations as pairs_of\n"
              "import itertools\n"
              "xs = h.pairs\n"
              "ys = [p for p in itertools.combinations(vs, 2)]\n"
              "pairs = 1\n"
              "zs = self.analysis.pairs[0]\n")
    assert pair_table_uses(source) == [1, 3, 4, 6]


def test_readme_quick_tour_runs():
    # the first python block of README.md; a name it uses that is renamed
    # or retired fails here instead of drifting
    tour = re.search(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    exec(compile(tour.group(1), str(README), "exec"), {})


def test_the_benchmark_selftest_passes():
    # bench/selftest.py builds every workload's items through shg and runs
    # the benchmark's checks on real and corrupted outputs, so a change
    # that breaks the harness (a public name it imports, say) fails here
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

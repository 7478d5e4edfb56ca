"""Report assembly: canonical JSON, aligned text, and CSV export.

Reports are deterministic: keys are sorted, floats are emitted with full
round-trip precision, and nothing time- or host-dependent is included,
so identical inputs produce identical bytes.

``report_json`` writes the JSON of ``shg report``, ``shg example1``
and ``shg fuzz``.  Its bytes are exactly those that ``json.dumps``
writes with ``sort_keys=True``, ``indent=2`` and ``allow_nan=False``,
plus a newline.  The standard library runs its C encoder only without an
indent, so with one every value goes through a pure-Python generator per
nested container, which cost more than the nodal analysis of a report.
The writer here dispatches on the exact type of each value, and writes
a list of only ints or only floats, and a list of int lists, from its
one ``repr``.  Within one call it keeps the text of every list of lists
it writes, keyed by the list's ``id`` and its indent, so a list object
that the tree holds in several places is written once per indent: a
record whose strong domains, weak cores and weak closures are one
partition holds one list for all three (``function_record``), and the
writer renders it once.  Like ``allow_nan=False``
it refuses NaN and infinities with ``ValueError``; unlike ``json`` it
also refuses keys that are not strings, with ``TypeError``, rather than
converting them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .nodal import Analysis, BoundReport, FiedlerSets, NodalDecomposition, decompose, fiedler_sets
from .spectra import DEFAULT_CLUSTER_TOL, DEFAULT_ZERO_TOL_REL, VertexFunction
from .core import SignedHypergraph

__all__ = [
    "REPORT_SCHEMA",
    "input_digest",
    "build_report",
    "report_json",
    "aligned_text",
    "csv_matrix",
]

_SET_LIST = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}

_EIGENFUNCTION_ITEM = {
    "type": "object",
    "required": [
        "index", "eigenvalue", "values", "strong", "weak_cores",
        "weak_closures", "strong_count", "weak_count",
        "fiedler", "other_zeros",
    ],
    "properties": {
        "index": {"type": "integer"},
        "eigenvalue": {"type": "number"},
        "values": {"type": "array", "items": {"type": "number"}},
        "strong": _SET_LIST,
        "weak_cores": _SET_LIST,
        "weak_closures": _SET_LIST,
        "strong_count": {"type": "integer"},
        "weak_count": {"type": "integer"},
        "fiedler": {"type": "array", "items": {"type": "integer"}},
        "other_zeros": {"type": "array", "items": {"type": "integer"}},
    },
}

# One bounds row: the fields of ``nodal.BoundReport`` in order, typed from their string annotations.
_BOUND_ROW = {f.name: {"int": "integer", "bool": "boolean"}[f.type] for f in dataclasses.fields(BoundReport)}

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "tool_version", "input_digest", "tolerances", "spectrum",
        "eigenfunctions", "bounds", "discrepancy_notes",
    ],
    "additionalProperties": False,
    "properties": {
        "tool_version": {"type": "string"},
        "input_digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "tolerances": {
            "type": "object",
            "required": ["cluster_tol", "zero_tolerance_rel"],
            "properties": {
                "cluster_tol": {"type": "number"},
                "zero_tolerance_rel": {"type": "number"},
            },
        },
        "spectrum": {
            "type": "object",
            "required": ["eigenvalues", "clusters"],
            "properties": {
                "eigenvalues": {"type": "array", "items": {"type": "number"}},
                "clusters": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "eigenfunctions": {"type": "array", "items": _EIGENFUNCTION_ITEM},
        "supplied_functions": {"type": "array", "items": _EIGENFUNCTION_ITEM},
        "bounds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": list(_BOUND_ROW),
                "properties": {name: {"type": t} for name, t in _BOUND_ROW.items()},
                "additionalProperties": False,
            },
        },
        "discrepancy_notes": {"type": "array", "items": {"type": "string"}},
    },
}


def input_digest(text: str) -> str:
    """Hex sha256 of the input the report was computed from."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def function_record(f: VertexFunction, dec: NodalDecomposition, fs: FiedlerSets,
                    index: int, eigenvalue: float) -> dict:
    """Nodal analysis of one vertex function, given its decomposition and
    Fiedler sets, as a JSON-ready dict.

    The domains are already ascending tuples, each turned into a list
    once per partition object: where ``dec`` shares one partition between
    its strong domains, weak cores and weak closures, so does the record,
    which ``report_json`` then writes once."""
    strong = list(map(list, dec.strong))
    cores = strong if dec.weak_cores is dec.strong else list(map(list, dec.weak_cores))
    closures = cores if dec.weak_closures is dec.weak_cores else list(map(list, dec.weak_closures))
    return {
        "index": index,
        "eigenvalue": eigenvalue,
        "values": list(f.values),
        "strong": strong,
        "weak_cores": cores,
        "weak_closures": closures,
        "strong_count": dec.strong_count,
        "weak_count": dec.weak_count,
        "fiedler": list(fs.fiedler),
        "other_zeros": list(fs.other_zeros),
    }


def build_report(h: SignedHypergraph, digest: str,
                 zero_tol_rel: float = DEFAULT_ZERO_TOL_REL,
                 notes: tuple[str, ...] = (),
                 supplied: tuple[tuple[float, tuple[float, ...]], ...] = ()) -> dict:
    """Full analysis of one instance as a plain JSON-ready dict.

    Everything is read from one ``Analysis`` at ``zero_tol_rel``: each
    eigenfunction's record and its ``all_pairs`` bounds row share one
    decomposition and one set of Fiedler sets.  ``supplied`` adds
    externally given (eigenvalue, values) pairs, each analyzed as a vertex
    function alongside the solver's own basis.
    """
    analysis = Analysis(h, zero_tol_rel)
    spectrum = analysis.spectrum
    eigenfunctions = [
        function_record(f, dec, fs, i, lam)
        for i, (f, dec, fs, lam) in enumerate(zip(
            spectrum.functions, analysis.decompositions, analysis.terms["all_pairs"].fiedler,
            spectrum.eigenvalues), 1)
    ]
    report = {
        "tool_version": __version__,
        "input_digest": digest,
        "tolerances": {
            "cluster_tol": DEFAULT_CLUSTER_TOL,
            "zero_tolerance_rel": zero_tol_rel,
        },
        "spectrum": {
            "eigenvalues": list(spectrum.eigenvalues),
            "clusters": [list(c) for c in spectrum.clusters],
        },
        "eigenfunctions": eigenfunctions,
        "bounds": [dict(vars(rep)) for rep in analysis.bounds()],
        "discrepancy_notes": list(notes),
    }
    if supplied:
        records = []
        for i, (lam, values) in enumerate(supplied, 1):
            f = VertexFunction.from_values(values, rel_tol=zero_tol_rel)
            records.append(function_record(f, decompose(h, f), fiedler_sets(h, f), i, lam))
        report["supplied_functions"] = records
    return report


_INT, _FLOAT, _LIST = {int}, {float}, {list}


def _float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json(o, indent: str, memo: dict) -> str:
    """``o`` as indented JSON whose nested lines start with ``indent``;
    ``memo`` is the writer's memo of lists of lists (``_json_lists``)."""
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is list or t is tuple:
        return _json_list(o, indent, memo)
    if t is dict:
        return _json_dict(o, indent, memo)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    # str, float, and subclasses (IntEnum, numpy.float64) written as their
    # base type, as ``json`` writes them
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _json_list(o, indent, memo)
    if isinstance(o, dict):
        return _json_dict(o, indent, memo)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _json_list(o, indent: str, memo: dict) -> str:
    if not o:
        return "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    kinds = set(map(type, o))
    if kinds == _INT or kinds == _FLOAT:
        if kinds == _FLOAT and not all(map(math.isfinite, o)):
            for x in o:
                _float(x)  # raises on the first value that is not finite
        # the reprs of exact ints and floats are JSON and hold no ", "
        body = repr(o if type(o) is list else list(o))[1:-1].replace(", ", sep)
    elif kinds == _LIST and type(o) is list:
        return _json_lists(o, indent, memo)
    else:
        body = sep.join([_json(v, inner, memo) for v in o])
    return f"[\n{inner}{body}\n{indent}]"


def _json_lists(o: list, indent: str, memo: dict) -> str:
    """A list of lists, rendered once per object and indent in one
    ``report_json`` call: the tree is alive for the whole call, so no id
    is reused in it, and an object shared by several places (a record's
    one partition) is written once.  A list of nonempty int lists (a
    report's domain lists) comes from its one repr."""
    key = (id(o), indent)
    text = memo.get(key)
    if text is not None:
        return text
    inner = indent + "  "
    sep = ",\n" + inner
    if all(o) and set(map(type, chain.from_iterable(o))) == _INT:
        # no int repr holds ", " or "]"
        deeper = inner + "  "
        head, tail = "[\n" + deeper, "\n" + inner + "]"
        body = repr(o)[2:-2].replace("], [", tail + sep + head).replace(", ", ",\n" + deeper)
        body = f"{head}{body}{tail}"
    else:
        body = sep.join([_json_list(v, inner, memo) for v in o])
    text = memo[key] = f"[\n{inner}{body}\n{indent}]"
    return text


def _json_dict(o, indent: str, memo: dict) -> str:
    if not o:
        return "{}"
    inner = indent + "  "
    # sorted raises TypeError on keys of mixed types, _quote on any other non-str key
    body = (",\n" + inner).join([f"{_quote(k)}: {_json(o[k], inner, memo)}" for k in sorted(o)])
    return f"{{\n{inner}{body}\n{indent}}}"


def report_json(obj) -> str:
    """Canonical bytes of any tree of dicts with ``str`` keys, lists,
    tuples, strings, numbers, booleans and None: sorted keys, two-space
    indent, trailing newline, as the module docstring states."""
    return _json(obj, "", {}) + "\n"


def _fmt_set_list(sets: list[list[int]]) -> str:
    return " ".join("{" + ",".join(str(v) for v in s) + "}" for s in sets) or "-"


def _table(records: list[dict], label: str) -> list[str]:
    rows = [(label, "eigenvalue", "S", "W", "strong domains", "weak cores")]
    for rec in records:
        rows.append((
            f"f{rec['index']}",
            f"{rec['eigenvalue']:+.6f}",
            str(rec["strong_count"]),
            str(rec["weak_count"]),
            _fmt_set_list(rec["strong"]),
            _fmt_set_list(rec["weak_cores"]),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows]


def aligned_text(report: dict) -> str:
    """Table-1-style summary: one row per eigenfunction."""
    lines = _table(report["eigenfunctions"], "fn")
    if report.get("supplied_functions"):
        lines.append("")
        lines.extend(_table(report["supplied_functions"], "supplied"))
    if report["discrepancy_notes"]:
        lines.append("")
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in report["discrepancy_notes"])
    return "\n".join(lines) + "\n"


def csv_matrix(m: np.ndarray) -> str:
    """Comma-separated rows at full precision, one line per row, no header."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    return "\n".join(",".join(repr(float(x)) for x in row) for row in arr) + "\n"

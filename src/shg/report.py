"""Report assembly: canonical JSON, aligned text, and CSV export.

Reports are deterministic: keys are sorted, floats are emitted with full
round-trip precision, and nothing time- or host-dependent is included,
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__
from .nodal import Analysis, FiedlerSets, NodalDecomposition, decompose, fiedler_sets
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
                "required": [
                    "eig_index", "k", "r", "c", "l", "l_plus",
                    "l_plus_exists_ordering", "l_prime", "fiedler_size",
                    "strong_count", "weak_count", "strong_lower_bound",
                    "strong_upper_ok", "weak_upper_ok", "strong_lower_ok",
                ],
            },
        },
        "discrepancy_notes": {"type": "array", "items": {"type": "string"}},
    },
}


def input_digest(text: str) -> str:
    """Hex sha256 of the input the report was computed from."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sets(groups: tuple[frozenset[int], ...]) -> list[list[int]]:
    return [sorted(g) for g in groups]


def function_record(f: VertexFunction, dec: NodalDecomposition, fs: FiedlerSets,
                    index: int, eigenvalue: float) -> dict:
    """Nodal analysis of one vertex function, given its decomposition and
    Fiedler sets, as a JSON-ready dict."""
    return {
        "index": index,
        "eigenvalue": eigenvalue,
        "values": list(f.values),
        "strong": _sets(dec.strong),
        "weak_cores": _sets(dec.weak_cores),
        "weak_closures": _sets(dec.weak_closures),
        "strong_count": dec.strong_count,
        "weak_count": dec.weak_count,
        "fiedler": sorted(fs.fiedler),
        "other_zeros": sorted(fs.other_zeros),
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
            spectrum.functions, analysis.decompositions, analysis.fiedler,
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


def report_json(report: dict) -> str:
    """Canonical bytes: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


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

"""Command-line surface.

Exit codes: 0 when the requested check or computation succeeded, 1 when
a check failed (malformed file under ``validate``, residuals or
comparisons out of tolerance, campaign failures), 2 for usage errors
such as unknown flags, unreadable files, or size limits.

``report`` and ``example1`` print canonical JSON on stdout and an
aligned text summary on stderr, so stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import Edge, SignedHypergraph, degrees
from .fixtures import (
    DISCREPANCY_NOTES,
    PRINTED_EIGENFUNCTIONS,
    PRINTED_EIGENVALUES,
    fixture_example1,
    printed_laplacian_array,
)
from .nodal import BOUND_VARIANTS, Analysis, decompose
from .report import (
    aligned_text,
    build_report,
    csv_matrix,
    input_digest,
    report_json,
)
from .shgio import ParseError, parse, serialize
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_ZERO_TOL_REL,
    VertexFunction,
    eigendecompose,
    laplacian,
)
from .verify import ORACLE_MAX_N, GenConfig, oracle_domains, run_campaign

__all__ = ["main"]

RAW_RESIDUAL_TOL = 0.05
# the spectrum needs dense n x n float matrices, 128 MB each at this size
MAX_VERTICES = 4096


def _load(path: str) -> tuple[SignedHypergraph, str]:
    """Parse a file for an analysing command, refusing sizes over the
    dense limit before anything is allocated per vertex."""
    text = Path(path).read_text(encoding="utf-8")
    h = parse(text)
    _check_size(h)
    return h, text


def _check_size(h: SignedHypergraph) -> None:
    """Refuse more vertices than the dense limit, or more vertex pairs in
    the edges than one edge on all of them has, before the pair table
    (``SignedHypergraph.pairs``, C(|e|, 2) tuples per edge) is built."""
    _check_counts(h.n, sum(e.size * (e.size - 1) // 2 for e in h.edges))


def _check_counts(n: int, pairs: int) -> None:
    """The limits of ``_check_size`` on n vertices and ``pairs`` pairs."""
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceeds the limit of {MAX_VERTICES}")
    limit = math.comb(MAX_VERTICES, 2)
    if pairs > limit:
        raise ValueError(f"{pairs} vertex pairs in the edges exceeds the limit of {limit}")


def _function_from_args(h: SignedHypergraph, args) -> VertexFunction:
    if args.function is not None:
        values = [float(part) for part in args.function.split(",")]
        if len(values) != h.n:
            raise ValueError(f"--function needs {h.n} values, got {len(values)}")
        return VertexFunction.from_values(values, rel_tol=args.zero_tol)
    return _eigenfunction(h, args.eig, args.zero_tol)


def _eigenfunction(h: SignedHypergraph, eig: int, zero_tol: float) -> VertexFunction:
    """Eigenfunction ``eig`` (1-based), its range checked before the
    eigensolver runs."""
    if not 1 <= eig <= h.n:
        raise ValueError(f"--eig must lie in 1..{h.n}")
    return eigendecompose(laplacian(h), zero_tol_rel=zero_tol).functions[eig - 1]


def _cmd_validate(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    try:
        h = parse(text)
    except ParseError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    _check_size(h)
    if parse(serialize(h)) != h:
        print("invalid: serialization round-trip changed the instance", file=sys.stderr)
        return 1
    print(f"ok: {h.n} vertices, {h.m} edges")
    return 0


def _cmd_spectrum(args) -> int:
    h, _ = _load(args.file)
    spectrum = eigendecompose(laplacian(h), cluster_tol=args.cluster_tol)
    for (k, r) in spectrum.clusters:
        vals = ", ".join(repr(x) for x in spectrum.eigenvalues[k - 1:k + r - 1])
        print(f"cluster k={k} r={r}: {vals}")
    if args.csv is not None:
        rows = np.column_stack([
            np.array(spectrum.eigenvalues),
            np.array([f.values for f in spectrum.functions]),
        ])
        Path(args.csv).write_text(csv_matrix(rows), encoding="utf-8")
        print(f"wrote {args.csv}: one row per eigenpair, eigenvalue first",
              file=sys.stderr)
    return 0


def _cmd_domains(args) -> int:
    h, _ = _load(args.file)
    f = _function_from_args(h, args)
    dec = decompose(h, f)
    print(f"support: {list(f.support())}")
    print(f"strong ({dec.strong_count}): " +
          " ".join("{" + ",".join(map(str, s)) + "}" for s in dec.strong))
    print(f"weak cores ({dec.weak_count}): " +
          " ".join("{" + ",".join(map(str, s)) + "}" for s in dec.weak_cores))
    print("weak closures: " +
          " ".join("{" + ",".join(map(str, s)) + "}" for s in dec.weak_closures))
    return 0


def _cmd_bounds(args) -> int:
    h, _ = _load(args.file)
    header = ("i", "k", "r", "S", "W", "upper", "lower", "S>=lower")
    rows = [header]
    for rep in Analysis(h).bounds(args.h1_variant):
        rows.append((
            str(rep.eig_index), str(rep.k), str(rep.r), str(rep.strong_count),
            str(rep.weak_count), str(rep.k + rep.r - 1),
            str(rep.strong_lower_bound), "yes" if rep.strong_lower_ok else "NO",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return 0


def _cmd_report(args) -> int:
    h, text = _load(args.file)
    report = build_report(h, input_digest(text))
    sys.stdout.write(report_json(report))
    sys.stderr.write(aligned_text(report))
    return 0


def _cmd_fuzz(args) -> int:
    kwargs = {}
    if args.scale is not None:
        try:
            n_hi, m_hi, e_hi = (int(p) for p in args.scale.split(","))
        except ValueError:
            print("error: --scale expects N,M,E upper bounds", file=sys.stderr)
            return 2
        kwargs = {
            "n_range": (min(4, n_hi), n_hi),
            "m_range": (min(3, m_hi), m_hi),
            "edge_size_range": (2, max(2, e_hi)),
        }
    cfg = GenConfig(seed=args.seed, count=args.count, **kwargs)
    # the largest instance the scale allows, refused before any is drawn:
    # M edges of size min(E, N), the most a drawn edge has (an isolated
    # vertex is patched with one more pair)
    n_hi, m_hi = cfg.n_range[1], cfg.m_range[1]
    _check_counts(n_hi, m_hi * math.comb(min(cfg.edge_size_range[1], n_hi), 2))
    result = run_campaign(cfg)
    sys.stdout.write(report_json(result.as_dict()))
    return 0 if result.passed else 1


def _cmd_oracle(args) -> int:
    h, _ = _load(args.file)
    if h.n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to {ORACLE_MAX_N} vertices, file has {h.n}")
    f = _eigenfunction(h, args.eig, DEFAULT_ZERO_TOL_REL)
    strong, cores, closures = oracle_domains(h, f)
    dec = decompose(h, f)
    ok = dec.strong == strong and dec.weak_cores == cores and dec.weak_closures == closures
    print(f"strong: oracle {len(strong)} efficient {dec.strong_count}")
    print(f"weak:   oracle {len(cores)} efficient {dec.weak_count}")
    print("match" if ok else "MISMATCH")
    return 0 if ok else 1


def _matrix_graph(a: np.ndarray) -> SignedHypergraph:
    """The signed 2-graph of a square symmetric matrix: one edge
    ((x, +1), (y, -s)) of sign s = sign(a_xy) for every nonzero entry
    above the diagonal, so the strong links of ``decompose`` on it are
    the pairs with a_xy * f(x) * f(y) > 0."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"raw matrix must be square, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) or 1.0
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("raw matrix must be symmetric")
    xs, ys = np.nonzero(np.triu(a, 1))
    signs = np.sign(a[xs, ys]).astype(int).tolist()
    return SignedHypergraph(len(a), tuple(
        Edge(((x, 1), (y, -s))) for x, y, s in zip((xs + 1).tolist(), (ys + 1).tolist(), signs)))


def _raw_matrix_report() -> tuple[dict, int]:
    """Analyze the verbatim printed matrix: eigenpair residuals and the
    strong domains of the printed eigenfunctions against the symmetrized
    pairwise coefficient matrix D (I - L_raw), read as a signed 2-graph."""
    l_raw = printed_laplacian_array()
    deg = np.array(degrees(fixture_example1())[1:], dtype=float)
    b = np.diag(deg) @ (np.eye(9) - l_raw)
    g = _matrix_graph((b + b.T) / 2.0)
    pairs = []
    worst = 0.0
    for i, (lam, vals) in enumerate(zip(PRINTED_EIGENVALUES, PRINTED_EIGENFUNCTIONS), 1):
        v = np.array(vals)
        residual = float(np.max(np.abs(l_raw @ v - lam * v)))
        worst = max(worst, residual)
        f = VertexFunction.from_values(vals)
        strong = decompose(g, f).strong
        pairs.append({
            "index": i,
            "eigenvalue": lam,
            "residual_inf": residual,
            "residual_ok": residual <= RAW_RESIDUAL_TOL,
            "strong": list(map(list, strong)),
            "strong_count": len(strong),
        })
    report = {
        "mode": "raw-paper-matrix",
        "tool_version": __version__,
        "residual_tolerance": RAW_RESIDUAL_TOL,
        "worst_residual_inf": worst,
        "eigenpairs": pairs,
        "discrepancy_notes": list(DISCREPANCY_NOTES),
    }
    return report, 0 if worst <= RAW_RESIDUAL_TOL else 1


def _cmd_example1(args) -> int:
    if args.raw_paper_matrix:
        report, code = _raw_matrix_report()
        sys.stdout.write(report_json(report))
        lines = [
            f"f{p['index']}: residual {p['residual_inf']:.4f} "
            f"({'ok' if p['residual_ok'] else 'FAIL'}), "
            f"{p['strong_count']} strong domains"
            for p in report["eigenpairs"]
        ]
        sys.stderr.write("\n".join(lines) + "\n")
        return code
    h = fixture_example1()
    supplied = tuple(
        (lam, vals)
        for lam, vals in zip(PRINTED_EIGENVALUES, PRINTED_EIGENFUNCTIONS)
    )
    report = build_report(h, input_digest(serialize(h)),
                          notes=DISCREPANCY_NOTES, supplied=supplied)
    sys.stdout.write(report_json(report))
    sys.stderr.write(aligned_text(report))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shg",
        description="Spectra and nodal domains of signed hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a .shg file and check invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("spectrum", help="eigenvalues and tolerance clusters")
    p.add_argument("file")
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL)
    p.add_argument("--csv", help="write eigenpairs as CSV (eigenvalue, then values)")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("domains", help="nodal decomposition of one function")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eig", type=int, help="1-based eigenfunction index")
    group.add_argument("--function", help="comma-separated vertex values")
    p.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL_REL,
                   help="relative zero tolerance for sign decisions")
    p.set_defaults(fn=_cmd_domains)

    p = sub.add_parser("bounds", help="eigenvalue-indexed nodal bounds")
    p.add_argument("file")
    p.add_argument("--h1-variant", choices=BOUND_VARIANTS, default="all_pairs",
                   help="reading of the lower bound's correction terms")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("report", help="full JSON report (text summary on stderr)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("fuzz", help="run the invariant campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--scale", help="N,M,E upper bounds for vertices, edges, edge size")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("oracle", help="brute-force vs efficient nodal comparison")
    p.add_argument("file")
    p.add_argument("--eig", type=int, required=True)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("example1", help="analyze the golden fixture")
    p.add_argument("--raw-paper-matrix", action="store_true",
                   help="analyze the verbatim printed matrix instead")
    p.set_defaults(fn=_cmd_example1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    # ParseError is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

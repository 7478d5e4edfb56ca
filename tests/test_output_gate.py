"""Byte-identity gate: reports, bounds tables and campaign JSON are pinned.

The first three digests below were recorded before the single-analysis
refactor, the zero-heavy one before the single row pass, and the
text-summary and CSV ones before domains became sorted tuples; none may
move under a change that claims to keep the output.  They depend on the
floating-point results of this numpy/LAPACK build: on another build an
eigenvector can differ in its last digits and every digest with it.
They depend on the BLAS thread count too, which ``conftest.py`` pins to
one: the n = 640 report of ``GenConfig(n_range=(640, 640),
m_range=(640, 640), seed=901)`` hashes ``429dc117...29f1`` with one
OpenBLAS thread and ``13e7669d...be3c`` with OpenBLAS choosing its own
count on 2 CPUs, while the six digests below pass either way.
Re-recording a digest needs a stated reason in
CHANGES.md (a schema change, a deliberate change of a count, a new
numpy), never just "it changed".
"""

import contextlib
import hashlib
import io

from shg.cli import main
from shg.core import Edge, SignedHypergraph
from shg.fixtures import fixture_example1
from shg.nodal import BOUND_VARIANTS, Analysis
from shg.report import aligned_text, build_report, input_digest, report_json
from shg.shgio import serialize
from shg.verify import GenConfig, generate

REPORTS_SHA256 = "4a04219bb2bec683792e5cc0e7e91f427fbef03caa9bca7936c9cc0afede3d0d"
BOUNDS_SHA256 = "60d112226df3ae09ead5f3777a2989af350ad519c9b4a3e244bb34700571eaf8"
FUZZ_SHA256 = "2631bf005b5c309fc50da73a81adb6610978972757baaa47498ce1971bc414c4"
ZERO_HEAVY_SHA256 = "b4c1b6bfe556a4ee7b710f260642186c4f082efb33c22f8f484a79ae3629ef56"
TEXT_SHA256 = "3904e63e492e95e25fa9b94554112065bc3556d0bf83f02bff75c9d4265274d9"
CSV_SHA256 = "4362fb92199d8175b969387f6a246d0400634ebb4ab462cf27d0f23948e5ef29"


def _instances():
    return [fixture_example1()] + list(generate(GenConfig(seed=2026, count=20)))


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _sha256(parts):
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


def reports_digest():
    parts = []
    for h in _instances():
        text = serialize(h)
        parts.append(report_json(build_report(h, input_digest(text))))
    return _sha256(parts)


def bounds_digest(tmp_path):
    parts = []
    for i, h in enumerate(_instances()):
        path = tmp_path / f"h{i}.shg"
        path.write_text(serialize(h), encoding="utf-8")
        for variant in ("all_pairs", "clique"):
            code, out = _stdout(["bounds", str(path), "--h1-variant", variant])
            assert code == 0
            parts.append(out)
    return _sha256(parts)


def disjoint_union(parts):
    """The hypergraphs ``parts`` side by side, vertices renumbered in order."""
    n, edges = 0, []
    for h in parts:
        edges += [Edge(tuple((v + n, s) for v, s in e.incidences)) for e in h.edges]
        n += h.n
    return SignedHypergraph(n, tuple(edges))


def zero_heavy_digest():
    """Reports and both bounds tables where the eigenfunctions have zeros:
    the seed-2026 instances at a loose zero tolerance, and a disconnected
    instance, whose eigenfunctions vanish off their own components, at
    the default one."""
    cases = [(h, 0.2) for h in generate(GenConfig(seed=2026, count=20))]
    union = disjoint_union(generate(GenConfig(seed=77, count=3)))
    cases.append((union, None))
    parts = []
    for h, tol in cases:
        kwargs = {} if tol is None else {"zero_tol_rel": tol}
        parts.append(report_json(build_report(h, input_digest(serialize(h)), **kwargs)))
        analysis = Analysis(h, **kwargs)
        parts += [repr(analysis.bounds(v)) for v in BOUND_VARIANTS]
    return _sha256(parts)


def text_digest():
    """The aligned summaries that ``shg report`` writes to stderr, and that
    of ``shg example1``, whose report adds supplied functions and notes."""
    parts = [aligned_text(build_report(h, input_digest(serialize(h)))) for h in _instances()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["example1"]) == 0
    parts.append(err.getvalue())
    return _sha256(parts)


def csv_digest(tmp_path):
    """The files of ``shg spectrum --csv``."""
    parts = []
    for i, h in enumerate(_instances()):
        path, csv = tmp_path / f"h{i}.shg", tmp_path / f"h{i}.csv"
        path.write_text(serialize(h), encoding="utf-8")
        code, _ = _stdout(["spectrum", str(path), "--csv", str(csv)])
        assert code == 0
        parts.append(csv.read_text(encoding="utf-8"))
    return _sha256(parts)


def test_report_bytes():
    assert reports_digest() == REPORTS_SHA256


def test_bounds_stdout(tmp_path):
    assert bounds_digest(tmp_path) == BOUNDS_SHA256


def test_fuzz_stdout():
    code, out = _stdout(["fuzz", "--seed", "2026", "--count", "100"])
    assert code == 0
    assert _sha256([out]) == FUZZ_SHA256


def test_zero_heavy_bytes():
    assert zero_heavy_digest() == ZERO_HEAVY_SHA256


def test_text_summary_bytes():
    assert text_digest() == TEXT_SHA256


def test_csv_bytes(tmp_path):
    assert csv_digest(tmp_path) == CSV_SHA256

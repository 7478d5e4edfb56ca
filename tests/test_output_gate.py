"""Byte-identity gate: reports, bounds tables and campaign JSON are pinned.

The first three digests below were recorded before the single-analysis
refactor, the zero-heavy one before the single row pass, and the
text-summary and CSV ones before domains became sorted tuples, the
``shg domains`` one before every other vertex set did, and the
one-function one before the tree-like test became a bridge pass; none
may move under a change that claims to keep the output.  They depend on the
floating-point results of this numpy/LAPACK build: on another build an
eigenvector can differ in its last digits and every digest with it.
They depend on the BLAS thread count too, which ``conftest.py`` pins to
one: the n = 640 report of ``GenConfig(n_range=(640, 640),
m_range=(640, 640), seed=901)`` hashes ``429dc117...29f1`` with one
OpenBLAS thread and ``13e7669d...be3c`` with OpenBLAS choosing its own
count on 2 CPUs, while the seven digests before ``ONE_FUNCTION_SHA256``
pass either way and that one computes nothing in BLAS.
Re-recording a digest needs a stated reason in
CHANGES.md (a schema change, a deliberate change of a count, a new
numpy), never just "it changed".
"""

import contextlib
import hashlib
import io
import random

from shg.cli import main
from shg.core import Edge, SignedHypergraph, weak_delete
from shg.fixtures import fixture_example1
from shg.nodal import BOUND_VARIANTS, Analysis, decompose, fiedler_sets
from shg.report import aligned_text, build_report, input_digest, report_json
from shg.shgio import serialize
from shg.spectra import VertexFunction
from shg.verify import GenConfig, generate

REPORTS_SHA256 = "4a04219bb2bec683792e5cc0e7e91f427fbef03caa9bca7936c9cc0afede3d0d"
BOUNDS_SHA256 = "ee8e27304bb0b789a842ec1b3573c756b1df145c97fa32367e62b6e4e3aba8a3"
FUZZ_SHA256 = "fcdad2813dc23a104d53456ca89a43190b0c0ac0a9ed198fabed4891f36b2d6f"
FUZZ_500_SHA256 = "4f27f233d808001344f58395caab50f125b07684d1b3188da3280bdb78bdcad4"
ZERO_HEAVY_SHA256 = "b4c1b6bfe556a4ee7b710f260642186c4f082efb33c22f8f484a79ae3629ef56"
TEXT_SHA256 = "3904e63e492e95e25fa9b94554112065bc3556d0bf83f02bff75c9d4265274d9"
CSV_SHA256 = "4362fb92199d8175b969387f6a246d0400634ebb4ab462cf27d0f23948e5ef29"
DOMAINS_SHA256 = "77c0784d18f35bbc9c765ee6cab816b1924ea5f80907f2df22e96ed2fe2468d7"
ONE_FUNCTION_SHA256 = "8b1b0af1d61e7228afa082ed860f27c44e58146d3dcc3f237d24985d33215871"


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


def domains_digest(tmp_path):
    """The stdout of ``shg domains``: every eigenfunction of the fixture at
    the default zero tolerance and at 0.2, one supplied function with
    zeros on it, and every eigenfunction of two seed-2026 instances at
    0.2."""
    fixture = tmp_path / "fixture.shg"
    fixture.write_text(serialize(fixture_example1()), encoding="utf-8")
    runs = [[str(fixture), "--eig", str(i), *tol]
            for tol in ([], ["--zero-tol", "0.2"]) for i in range(1, 10)]
    runs.append([str(fixture), "--function", "0,-1,0,2,0,-1,1,0.5,-2"])
    for j, h in enumerate(generate(GenConfig(seed=2026, count=2))):
        path = tmp_path / f"h{j}.shg"
        path.write_text(serialize(h), encoding="utf-8")
        runs += [[str(path), "--eig", str(i), "--zero-tol", "0.2"] for i in range(1, h.n + 1)]
    parts = []
    for argv in runs:
        code, out = _stdout(["domains", *argv])
        assert code == 0
        parts.append(out)
    return _sha256(parts)


def zero_heavy_function(rng, n):
    """n values of magnitude in [0.1, 1], 40 % of them exact zeros."""
    values = [rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(n)]
    for v in rng.sample(range(n), round(0.4 * n)):
        values[v] = 0.0
    return VertexFunction.from_values(values)


def one_function_digest():
    """``decompose`` and ``fiedler_sets`` of one function at a time, the
    path of ``shg domains`` and of the Fiedler sets it does not print:
    three zero-heavy functions on each of two generated n = m instances
    per n in {40, 100, 160}, on a disjoint union of three instances, and
    on an instance with both ends of a 2-edge weakly deleted, which
    drops that edge and leaves others of size 1."""
    graphs = [next(generate(GenConfig(n_range=(n, n), m_range=(n, n), seed=seed, count=1)))
              for n in (40, 100, 160) for seed in (1, 2)]
    graphs.append(disjoint_union(generate(GenConfig(seed=77, count=3))))
    x, y = next(e.vertices for e in graphs[1].edges if e.size == 2)
    deleted = weak_delete(weak_delete(graphs[1], max(x, y)), min(x, y))
    assert 1 in {e.size for e in deleted.edges}
    graphs.append(deleted)
    rng = random.Random(2026)
    parts = []
    for h in graphs:
        for _ in range(3):
            f = zero_heavy_function(rng, h.n)
            parts += [repr(decompose(h, f)), repr(fiedler_sets(h, f))]
    return _sha256(parts)


def test_report_bytes():
    assert reports_digest() == REPORTS_SHA256


def test_bounds_stdout(tmp_path):
    assert bounds_digest(tmp_path) == BOUNDS_SHA256


def test_fuzz_stdout():
    code, out = _stdout(["fuzz", "--seed", "2026", "--count", "100"])
    assert code == 0
    assert _sha256([out]) == FUZZ_SHA256


def test_fuzz_stdout_500():
    # 500 instances reach the tree-like and deletion properties on far
    # more shapes than the 100 above
    code, out = _stdout(["fuzz", "--seed", "2026", "--count", "500"])
    assert code == 0
    assert _sha256([out]) == FUZZ_500_SHA256


def test_zero_heavy_bytes():
    assert zero_heavy_digest() == ZERO_HEAVY_SHA256


def test_text_summary_bytes():
    assert text_digest() == TEXT_SHA256


def test_csv_bytes(tmp_path):
    assert csv_digest(tmp_path) == CSV_SHA256


def test_domains_stdout(tmp_path):
    assert domains_digest(tmp_path) == DOMAINS_SHA256


def test_one_function_bytes():
    assert one_function_digest() == ONE_FUNCTION_SHA256

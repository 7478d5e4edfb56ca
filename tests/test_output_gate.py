"""Byte-identity gate: reports, bounds tables and campaign JSON are pinned.

The digests below were recorded before the single-analysis refactor and
must not move under a change that claims to keep the output.  They
depend on the floating-point results of this numpy/LAPACK build: on
another build an eigenvector can differ in its last digits and every
digest with it.  Re-recording a digest needs a stated reason in
CHANGES.md (a schema change, a deliberate change of a count, a new
numpy), never just "it changed".
"""

import contextlib
import hashlib
import io

from shg.cli import main
from shg.fixtures import fixture_example1
from shg.report import build_report, input_digest, report_json
from shg.shgio import serialize
from shg.verify import GenConfig, generate

REPORTS_SHA256 = "640eeff60ecf8dee52f928219d03b2d3f5669bfb0792eb27d850ac54a01cd5f7"
BOUNDS_SHA256 = "b9ff2ac81f162df8061bfb9c1841566dc41a38895b92fd85932b679916e3aae8"
FUZZ_SHA256 = "c3687716ce64509a5112939c89c334ad07b28e43bc076da2535f0335e6ed3d99"


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
        for variant in ("all_pairs", "exists_ordering", "clique"):
            code, out = _stdout(["bounds", str(path), "--h1-variant", variant])
            assert code == 0
            parts.append(out)
    return _sha256(parts)


def test_report_bytes():
    assert reports_digest() == REPORTS_SHA256


def test_bounds_stdout(tmp_path):
    assert bounds_digest(tmp_path) == BOUNDS_SHA256


def test_fuzz_stdout():
    code, out = _stdout(["fuzz", "--seed", "2026", "--count", "100"])
    assert code == 0
    assert _sha256([out]) == FUZZ_SHA256

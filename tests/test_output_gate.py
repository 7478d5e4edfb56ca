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

REPORTS_SHA256 = "4a04219bb2bec683792e5cc0e7e91f427fbef03caa9bca7936c9cc0afede3d0d"
BOUNDS_SHA256 = "60d112226df3ae09ead5f3777a2989af350ad519c9b4a3e244bb34700571eaf8"
FUZZ_SHA256 = "2631bf005b5c309fc50da73a81adb6610978972757baaa47498ce1971bc414c4"


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


def test_report_bytes():
    assert reports_digest() == REPORTS_SHA256


def test_bounds_stdout(tmp_path):
    assert bounds_digest(tmp_path) == BOUNDS_SHA256


def test_fuzz_stdout():
    code, out = _stdout(["fuzz", "--seed", "2026", "--count", "100"])
    assert code == 0
    assert _sha256([out]) == FUZZ_SHA256

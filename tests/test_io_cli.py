"""File format round-trips, parse diagnostics, and the command line."""

import contextlib
import dataclasses
import enum
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shg.verify
from shg.cli import main
from shg.core import Edge, SignedHypergraph
from shg.fixtures import (
    DISCREPANCY_NOTES,
    PRINTED_EIGENFUNCTIONS,
    PRINTED_EIGENVALUES,
    fixture_example1,
)
from shg.nodal import BoundReport, FiedlerSets, NodalDecomposition
from shg.report import REPORT_SCHEMA, build_report, function_record, input_digest, report_json
from shg.spectra import VertexFunction
from shg.shgio import ParseError, parse, serialize
from shg.verify import GenConfig, generate

from references import random_tree

FIXTURE_TEXT = serialize(fixture_example1())


def write_fixture(tmp_path, text=FIXTURE_TEXT, name="h.shg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRoundTrip:
    def test_fixture(self):
        assert parse(FIXTURE_TEXT) == fixture_example1()

    def test_generated_instances(self):
        for h in generate(GenConfig(seed=3, count=25)):
            assert parse(serialize(h)) == h

    def test_incidence_order_preserved(self):
        h = SignedHypergraph(3, (Edge(((3, 1), (1, -1), (2, 1))),))
        assert parse(serialize(h)).edges[0].vertices == (3, 1, 2)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\nshg 1\n\nvertices 2\n# mid\nedge 1:+ 2:-\n"
        assert parse(text).m == 1

    def test_empty_edge_cannot_be_built(self):
        # so every hypergraph has a file form: no edge without a member
        with pytest.raises(ValueError, match="^empty edge$"):
            Edge(())


class TestParseErrors:
    @pytest.mark.parametrize("text,lineno,msg", [
        ("", 1, "empty input"),
        ("shg 2\nvertices 1\n", 1, "expected header"),
        ("shg 1\n", 1, "missing 'vertices N'"),
        ("shg 1\nvertices -3\n", 2, "expected 'vertices N'"),
        ("shg 1\nvertices 2\nhyperedge 1:+\n", 3, "expected 'edge'"),
        ("shg 1\nvertices 2\nedge\n", 3, "empty edge"),
        ("shg 1\nvertices 2\nedge 1:+ 2:*\n", 3, "sign [+] or -"),
        ("shg 1\nvertices 2\nedge 1:+ x:-\n", 3, "sign [+] or -"),
        ("shg 1\nvertices 2\nedge 1:+ 3:-\n", 3, "out of range"),
        ("shg 1\nvertices 2\nedge 1:+ 1:-\n", 3, "duplicate vertex"),
        # digits of other scripts: int() refuses a superscript and reads
        # an Arabic-Indic or fullwidth digit as an ASCII one
        ("shg 1\nvertices \u00b2\n", 2, "expected 'vertices N'"),
        ("shg 1\nvertices \uff12\n", 2, "expected 'vertices N'"),
        ("shg 1\nvertices 2\nedge 1:+ \u00b2:-\n", 3, "sign [+] or -"),
        ("shg 1\nvertices 2\nedge 1:+ \u0662:-\n", 3, "sign [+] or -"),
    ])
    def test_message_carries_line_number(self, text, lineno, msg):
        with pytest.raises(ParseError, match=rf"line {lineno}: .*{msg}"):
            parse(text)


class TestValidateCommand:
    def test_good_file(self, tmp_path, capsys):
        assert main(["validate", write_fixture(tmp_path)]) == 0
        assert "ok: 9 vertices, 6 edges" in capsys.readouterr().out

    def test_bad_file(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "shg 1\nvertices 2\nedge 1:+ 9:-\n")
        assert main(["validate", path]) == 1
        assert "invalid: line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.shg")]) == 2

    @pytest.mark.parametrize("text,lineno", [
        ("shg 1\nvertices \u00b2\n", 2),
        ("shg 1\nvertices 2\nedge 1:+ \u00b2:-\n", 3),
        ("shg 1\nvertices 2\nedge 1:+ \u0662:-\n", 3),
    ])
    def test_non_ascii_digit_is_invalid(self, tmp_path, capsys, text, lineno):
        assert main(["validate", write_fixture(tmp_path, text)]) == 1
        assert f"invalid: line {lineno}" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_cluster_lines(self, tmp_path, capsys):
        assert main(["spectrum", write_fixture(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cluster k=1 r=1" in out
        assert "cluster k=4 r=3" in out
        assert "cluster k=7 r=3" in out

    @pytest.mark.parametrize("tol", ["nan", "-5", "inf"])
    def test_bad_cluster_tol_refused(self, tmp_path, capsys, tol):
        assert main(["spectrum", write_fixture(tmp_path), "--cluster-tol", tol]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "eig.csv"
        assert main(["spectrum", write_fixture(tmp_path), "--csv", str(csv)]) == 0
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 9
        first = [float(x) for x in rows[0].split(",")]
        assert len(first) == 10
        assert abs(first[0] - (-2 / 3)) < 1e-9


class TestDomainsCommand:
    def test_eig_selector(self, tmp_path, capsys):
        assert main(["domains", write_fixture(tmp_path), "--eig", "1"]) == 0
        out = capsys.readouterr().out
        assert "strong (1): {1,2,3,4,5,6,7,8,9}" in out

    def test_function_selector_printed_f7(self, tmp_path, capsys):
        # leading minus needs the = form, as usual with argparse values
        csv = ",".join(str(x) for x in PRINTED_EIGENFUNCTIONS[6])
        assert main(["domains", write_fixture(tmp_path), f"--function={csv}"]) == 0
        out = capsys.readouterr().out
        assert "strong (6):" in out
        assert "{1,3,4,6}" in out

    def test_function_length_checked(self, tmp_path):
        assert main(["domains", write_fixture(tmp_path), "--function", "1,2"]) == 2

    def test_eig_range_checked(self, tmp_path):
        assert main(["domains", write_fixture(tmp_path), "--eig", "10"]) == 2

    def test_eig_range_checked_before_eigensolver(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver ran before the --eig range check")
        monkeypatch.setattr("shg.cli.eigendecompose", refuse)
        assert main(["domains", write_fixture(tmp_path), "--eig", "0"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_zero_tol_refused_before_the_solver(self, tmp_path, monkeypatch, tol):
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        assert main(["domains", write_fixture(tmp_path), "--eig", "1", "--zero-tol", tol]) == 2
        assert calls == []

    def test_selector_required(self, tmp_path):
        assert main(["domains", write_fixture(tmp_path)]) == 2

    @pytest.mark.parametrize("args", [
        ["--function", "1,inf,-1,1"],
        ["--function", "1,nan,-1,1"],
        ["--function", "1,0,-1,1", "--zero-tol", "-1"],
        ["--eig", "2", "--zero-tol", "nan"],
        # a finite relative tolerance whose absolute one overflows to inf
        ["--function", "1e10,2,3,4", "--zero-tol", "1e300"],
    ])
    def test_non_finite_values_and_bad_tolerances_refused(self, tmp_path, capsys, args):
        path = write_fixture(tmp_path, "shg 1\nvertices 4\nedge 1:+ 2:-\nedge 2:+ 3:-\nedge 3:+ 4:-\n")
        assert main(["domains", path, *args]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestBoundsCommand:
    def test_table_shape(self, tmp_path, capsys):
        assert main(["bounds", write_fixture(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0].split() == ["i", "k", "r", "S", "W", "upper", "S<=upper", "W<=k+c-1",
                                    "lower", "S>=lower"]
        # both upper bounds hold on the fixture
        assert all(line.split()[6:8] == ["yes", "yes"] for line in lines[1:])
        # the top cluster rows are the known lower-bound violations
        assert lines[-1].split()[-1] == "NO"
        assert lines[1].split()[-1] == "yes"

    def test_upper_bound_verdicts(self, tmp_path, capsys):
        # a random tree of 512 classical 2-edges, vertex v linked to a
        # uniform earlier vertex: float64 sign decisions break the upper
        # bound S <= k + r - 1 on some of its rows (ROADMAP item 2), and
        # the table says so on every such row while exiting 0
        n = 512
        h = random_tree(n, 0)
        assert main(["bounds", write_fixture(tmp_path, serialize(h))]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == n
        for row in rows:
            k, r, strong, weak, upper = map(int, row[1:6])
            assert upper == k + r - 1
            assert row[6:8] == ["yes" if strong <= upper else "NO", "yes" if weak <= k else "NO"]
        assert any(row[6] == "NO" for row in rows)

    def test_variant_flag(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        for variant in ("all_pairs", "clique"):
            assert main(["bounds", path, "--h1-variant", variant]) == 0
        capsys.readouterr()
        # the exists_ordering reading is gone: a usage error, no traceback
        assert main(["bounds", path, "--h1-variant", "exists_ordering"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'exists_ordering'" in err and "Traceback" not in err

    def test_clique_variant_holds_on_every_row(self, tmp_path, capsys):
        assert main(["bounds", write_fixture(tmp_path), "--h1-variant", "clique"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert [line.split()[-1] for line in lines[1:]] == ["yes"] * 9
        # top cluster: upper bound k + r - 1 = 9, clique lower bound 5
        assert lines[-1].split()[5:] == ["9", "yes", "yes", "5", "yes"]


class TestReportCommand:
    def test_schema_and_determinism(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        assert main(["report", path]) == 0
        first = capsys.readouterr()
        report = json.loads(first.out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert main(["report", path]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err.startswith("fn  eigenvalue")

    def test_bounds_rows_match_bound_report(self, tmp_path, capsys):
        # the schema's bounds row is built from BoundReport: a stale or
        # missing field fails validation
        rows = REPORT_SCHEMA["properties"]["bounds"]["items"]
        assert rows["required"] == [f.name for f in dataclasses.fields(BoundReport)]
        assert rows["additionalProperties"] is False
        assert main(["report", write_fixture(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, REPORT_SCHEMA)
        report["bounds"][0]["l_plus_exists_ordering"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)
        del report["bounds"][0]["l_plus_exists_ordering"], report["bounds"][0]["l_plus"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_digest_tracks_input_text(self, tmp_path, capsys):
        path = write_fixture(tmp_path)
        main(["report", path])
        report = json.loads(capsys.readouterr().out)
        assert report["input_digest"] == input_digest(FIXTURE_TEXT)


class TestFuzzCommand:
    def test_deterministic_json(self, capsys):
        assert main(["fuzz", "--seed", "7", "--count", "10"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "7", "--count", "10"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["instances_run"] == 10
        assert payload["failures"] == []

    def test_scale_flag(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "2",
                     "--scale", "6,4,3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n_range"] == [4, 6]
        assert payload["config"]["edge_size_range"] == [2, 3]

    def test_scale_past_the_distinct_edges_runs(self, capsys):
        # 4 vertices carry 24 distinct edges of size 2, far fewer than M
        assert main(["fuzz", "--scale", "4,8000000,2", "--count", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instances_run"] == 1 and payload["failures"] == []

    def test_bad_scale(self, capsys):
        assert main(["fuzz", "--scale", "6,4"]) == 2
        assert "--scale expects" in capsys.readouterr().err

    @pytest.mark.parametrize("scale,message", [
        ("100000,1000000000,4", "100000 vertices exceeds the limit of 4096"),
        # C(4096, 2) pairs in each of two edges
        ("4096,2,4096", "16773120 vertex pairs in the edges exceeds the limit of 8386560"),
        # the edge size is capped by the vertex count: 10**6 * C(5, 2)
        ("5,1000000,50", "10000000 vertex pairs"),
    ])
    def test_scale_over_the_size_limit_exits_two(self, capsys, monkeypatch, scale, message):
        def must_not_run(*args, **kwargs):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(shg.verify, "_one_instance", must_not_run)
        for count in ("0", "1"):
            assert main(["fuzz", "--scale", scale, "--count", count]) == 2
            out, err = capsys.readouterr()
            assert out == "" and message in err

    def test_scale_at_the_size_limit_runs(self, capsys):
        # one edge on all 4096 vertices is the pair limit itself
        assert main(["fuzz", "--scale", "4096,1,4096", "--count", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["n_range"] == [4, 4096]


class TestOracleCommand:
    def test_small_instance_matches(self, tmp_path, capsys):
        h = next(iter(generate(GenConfig(n_range=(6, 6), m_range=(4, 6), seed=2, count=1))))
        path = write_fixture(tmp_path, serialize(h))
        for k in (1, 2, h.n):
            assert main(["oracle", path, "--eig", str(k)]) == 0
            assert capsys.readouterr().out.strip().endswith("match")

    def test_fixture_exceeds_oracle_limit(self, tmp_path, capsys):
        assert main(["oracle", write_fixture(tmp_path), "--eig", "1"]) == 2
        assert "limited to 8 vertices" in capsys.readouterr().err

    def test_eig_out_of_range(self, tmp_path, capsys):
        h = next(iter(generate(GenConfig(n_range=(5, 5), m_range=(3, 4), seed=4, count=1))))
        path = write_fixture(tmp_path, serialize(h))
        assert main(["oracle", path, "--eig", "6"]) == 2
        assert capsys.readouterr().err == "error: --eig must lie in 1..5\n"

    def test_eig_range_checked_before_eigensolver(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver ran before the --eig range check")
        monkeypatch.setattr("shg.cli.eigendecompose", refuse)
        path = write_fixture(tmp_path, "shg 1\nvertices 3\nedge 1:+ 2:-\nedge 2:+ 3:-\n")
        assert main(["oracle", path, "--eig", "0"]) == 2
        assert capsys.readouterr().err == "error: --eig must lie in 1..3\n"


class TestExample1Command:
    def test_default_mode(self, capsys):
        assert main(["example1"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert len(report["discrepancy_notes"]) == 5
        supplied = report["supplied_functions"]
        assert [r["strong_count"] for r in supplied] == [1, 2, 2, 6, 6, 6, 6, 6, 6]
        f2 = supplied[1]
        assert sorted(map(sorted, f2["strong"])) == [[1, 2, 3, 7, 9], [4, 5, 6, 8]]

    def test_raw_matrix_mode(self, capsys):
        assert main(["example1", "--raw-paper-matrix"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["mode"] == "raw-paper-matrix"
        assert report["worst_residual_inf"] <= 0.05
        assert all(p["residual_ok"] for p in report["eigenpairs"])
        assert len(report["eigenpairs"]) == 9

    def test_runs_as_module(self):
        import shg

        src = str(Path(shg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", "shg", "example1"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["supplied_functions"]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_unreadable_file_reports_two(self, tmp_path):
        assert main(["spectrum", str(tmp_path / "absent.shg")]) == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["report"], ["bounds"], ["domains", "--eig", "1"],
        ["domains", "--function", "0"], ["oracle", "--eig", "1"], ["validate"],
    ])
    def test_hostile_vertex_count_reports_two(self, tmp_path, capsys, monkeypatch, argv):
        import shg.cli as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("allocating call reached past the size check")

        # every call that allocates per vertex or per pair fails the test instead
        for name in ("laplacian", "eigendecompose", "decompose", "Analysis",
                     "build_report", "oracle_domains", "VertexFunction", "serialize"):
            monkeypatch.setattr(cli, name, must_not_run)
        # nor any pass that reads the edges per incidence or per block row
        monkeypatch.setattr(shg.nodal, "_row_pass", must_not_run)
        monkeypatch.setattr(shg.spectra, "adjacency", must_not_run)
        n = cli.MAX_VERTICES
        # two edges on all n vertices hold twice the pairs of one
        full_edge = "edge " + " ".join(f"{v}:+" for v in range(1, n + 1)) + "\n"
        cases = [("shg 1\nvertices 100000000000\nedge 1:+ 2:-\n", f"limit of {n}"),
                 (f"shg 1\nvertices {n}\n" + full_edge * 2, f"limit of {n * (n - 1) // 2}")]
        path = tmp_path / "huge.shg"
        for text, limit in cases:
            path.write_text(text, encoding="utf-8")
            assert main([argv[0], str(path), *argv[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert limit in err


class TestReportModule:
    def test_oracle_limit_not_applied_here(self):
        # reports work above the oracle size cap
        h = SignedHypergraph(10, fixture_example1().edges + (Edge(((10, 1), (1, 1))),))
        report = build_report(h, input_digest(serialize(h)))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert len(report["eigenfunctions"]) == 10

    def test_bounds_rows_read_the_report_tolerance(self):
        # a loose zero tolerance turns small entries into zeros; each
        # bounds row must count the same function as its record
        for h in generate(GenConfig(seed=3, count=10)):
            r = build_report(h, "", zero_tol_rel=0.2)
            for rec, row in zip(r["eigenfunctions"], r["bounds"], strict=True):
                assert (row["strong_count"], row["weak_count"]) == (
                    rec["strong_count"], rec["weak_count"])

    @staticmethod
    def _count(monkeypatch, names):
        """Count the calls of the functions ``shg.nodal`` binds to the
        given names, patched in every module that binds them; each count records the number of
        sign-matrix rows a batched call covered, or 1 per call."""
        import shg.nodal as nodal
        import shg.report as report

        calls = {name: [] for name in names}

        def counting(name):
            real = getattr(nodal, name)

            def wrapper(*args, **kwargs):
                signs = [a for a in args if hasattr(a, "shape")]
                calls[name].append(signs[0].shape[0] if signs else 1)
                return real(*args, **kwargs)
            return wrapper

        for name in names:
            wrapper = counting(name)
            for module in (nodal, report):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_one_decomposition_per_function(self, monkeypatch):
        # one spectrum and one sign matrix per Analysis decide the strong
        # domains of every eigenfunction; no eigenfunction goes through
        # decompose, the one home of the one-function strong pass, on its own
        calls = self._count(monkeypatch, ("eigendecompose", "sign_matrix", "decompose"))
        h = next(generate(GenConfig(n_range=(20, 20), m_range=(20, 20), seed=5, count=1)))
        report = build_report(h, input_digest(serialize(h)))
        assert len(report["eigenfunctions"]) == 20
        assert calls == {"eigendecompose": [1], "sign_matrix": [1], "decompose": []}

    def test_one_fiedler_pass_and_one_l_plus_pass_per_graph(self, monkeypatch):
        # the Fiedler sets and l_plus of all 20 eigenfunctions come from
        # one row pass over the sign matrix, not from fiedler_sets, the
        # one-function call
        calls = self._count(monkeypatch, ("fiedler_sets", "_row_pass"))
        h = next(generate(GenConfig(n_range=(20, 20), m_range=(20, 20), seed=5, count=1)))
        build_report(h, input_digest(serialize(h)))
        assert calls == {"fiedler_sets": [], "_row_pass": [20]}

    def test_one_coherence_pass_per_graph(self, monkeypatch):
        # one row pass on h serves an Analysis and both its tables; the
        # clique table reads h's own pairs and builds no edge, so never
        # the expansion
        from shg.nodal import Analysis

        def must_not_run(*args):
            raise AssertionError("an edge was built")

        calls = self._count(monkeypatch, ("eigendecompose", "sign_matrix", "_row_pass"))
        instances = list(generate(GenConfig(seed=3, count=4)))
        instances += list(generate(GenConfig(n_range=(20, 20), m_range=(20, 20), seed=5, count=1)))
        monkeypatch.setattr(Edge, "__post_init__", must_not_run)
        for h in instances:
            build_report(h, "", zero_tol_rel=0.2)
            analysis = Analysis(h, zero_tol_rel=0.2)
            for variant in ("all_pairs", "clique", "all_pairs", "clique"):
                analysis.bounds(variant)
            assert not hasattr(analysis, "expansion")
        # one spectrum, one sign matrix and one row pass over all its rows
        # for the report's Analysis, the same for the tables', whose two
        # readings share them
        assert calls["eigendecompose"] == calls["sign_matrix"] == [1] * (2 * len(instances))
        assert calls["_row_pass"] == [h.n for h in instances for _ in range(2)]

    def test_records_share_one_partition_and_keep_its_order(self):
        # without an attachment the decomposition holds one partition for
        # its strong domains, weak cores and weak closures, and the record
        # one list; with one, closures larger than the cores get their own
        shared = apart = 0
        for h in generate(GenConfig(seed=3, count=10)):
            for rec in build_report(h, "", zero_tol_rel=0.2)["eigenfunctions"]:
                if rec["weak_closures"] == rec["weak_cores"] == rec["strong"]:
                    assert rec["strong"] is rec["weak_cores"] is rec["weak_closures"]
                    shared += 1
                elif rec["weak_closures"] != rec["weak_cores"]:
                    assert rec["weak_closures"] is not rec["weak_cores"]
                    apart += 1
        assert shared and apart
        # the record writes each domain in the order the decomposition
        # holds it, never sorting: these tuples are out of order on purpose
        f = VertexFunction.from_values((1.0, 1.0, 1.0))
        strong = ((3, 1), (2,))
        dec = NodalDecomposition(strong, strong, strong)
        rec = function_record(f, dec, FiedlerSets((), ()), 1, 0.0)
        assert rec["strong"] == [[3, 1], [2]]
        assert rec["strong"] is rec["weak_cores"] is rec["weak_closures"]

    def test_no_per_row_support_cyclomatic(self, monkeypatch):
        # l' of every row comes from one labelling, also where the
        # eigenfunctions have zeros: no row induces its support
        import shg.core as core
        import shg.nodal as nodal
        from shg.nodal import Analysis

        def must_not_run(*args):
            raise AssertionError("a per-row support pass ran")

        assert not hasattr(nodal, "induced_subhypergraph")
        monkeypatch.setattr(core, "induced_subhypergraph", must_not_run)
        with_zeros = 0
        for h in generate(GenConfig(seed=3, count=10)):
            build_report(h, "", zero_tol_rel=0.2)
            analysis = Analysis(h, zero_tol_rel=0.2)
            for variant in ("all_pairs", "clique"):
                analysis.bounds(variant)
            with_zeros += int((analysis.signs[:, 1:] == 0).any(axis=1).sum())
        assert with_zeros


def reference_json(obj):
    """The bytes ``report_json`` must reproduce."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FINITE, FINITE.map(np.float64), st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t aé€\U0001f600'),
    st.sampled_from((-0.0, 1e16, 5e-324, 1.7976931348623157e308, 2**64, -(2**100),
                     Level.LOW, Level.HIGH)),
)
JSON_TREES = st.recursive(JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=5),
    st.lists(kids, max_size=5).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=5),
    # homogeneous lists take the writer's one-join path; bool is not int there
    st.lists(st.integers(), max_size=5),
    st.lists(FINITE, max_size=5),
    st.lists(st.one_of(st.booleans(), st.integers()), max_size=5),
    # lists of nonempty int lists, the shape of a report's domain lists
    st.lists(st.lists(st.integers(), min_size=1, max_size=4), max_size=4),
), max_leaves=30)


class TestReportJson:
    def test_matches_json_on_the_report_corpus(self):
        supplied = tuple(zip(PRINTED_EIGENVALUES, PRINTED_EIGENFUNCTIONS))
        reports = [build_report(fixture_example1(), input_digest(FIXTURE_TEXT),
                                notes=DISCREPANCY_NOTES, supplied=supplied)]
        for h in generate(GenConfig(seed=2026, count=20)):
            digest = input_digest(serialize(h))
            reports += [build_report(h, digest), build_report(h, digest, zero_tol_rel=0.2)]
        # the loose tolerance gives zeros, Fiedler sets and closures larger than cores
        records = [rec for r in reports for rec in r["eigenfunctions"]]
        assert any(rec["fiedler"] for rec in records)
        assert any(rec["weak_closures"] != rec["weak_cores"] for rec in records)
        for r in reports:
            assert report_json(r) == reference_json(r)

    @pytest.mark.parametrize("argv", [["example1", "--raw-paper-matrix"],
                                      ["fuzz", "--seed", "3", "--count", "5"]])
    def test_other_commands_write_the_same_bytes(self, capsys, argv):
        main(argv)
        out = capsys.readouterr().out
        assert out == reference_json(json.loads(out))

    @given(JSON_TREES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_on_any_tree(self, tree):
        assert report_json(tree) == reference_json(tree)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_shared_lists_match_json(self, data):
        # one list of int lists and one float list, each held in several
        # places: side by side, at other depths, inside tuples, and where a
        # drawn tree puts them; a shared list is written once per indent
        domains = data.draw(st.lists(st.lists(st.integers(), min_size=1, max_size=4),
                                     min_size=1, max_size=4))
        values = data.draw(st.lists(FINITE, min_size=1, max_size=4))
        drawn = data.draw(st.recursive(
            st.one_of(JSON_LEAVES, st.just(domains), st.just(values)),
            lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                                   st.dictionaries(st.text(max_size=3), kids, max_size=4)),
            max_leaves=12))
        tree = {
            "a": [domains, domains, values],
            "b": {"c": domains, "d": [[domains, values]]},
            "e": (domains, (values, domains)),
            "f": drawn,
        }
        assert report_json(tree) == reference_json(tree)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
    @pytest.mark.parametrize("wrap", [
        lambda x: x, lambda x: [1.0, x], lambda x: [1, x, "a"], lambda x: {"a": (x,)}])
    def test_non_finite_floats_raise_value_error(self, bad, wrap):
        with pytest.raises(ValueError):
            reference_json(wrap(bad))
        with pytest.raises(ValueError):
            report_json(wrap(bad))

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": 1, 2: "b"}, {"a": [{None: 1}]}, {(1, 2): 0}])
    def test_non_str_keys_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            report_json(obj)

    @pytest.mark.parametrize("obj", [{1, 2}, np.int64(1), [object()], {"a": b"x"}])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            reference_json(obj)
        with pytest.raises(TypeError):
            report_json(obj)


@st.composite
def shg_texts(draw):
    """A well-formed .shg text (n <= 7, isolated vertices possible) with
    at most one hostile change: a bad header or vertex count, a huge
    vertex count, a bad incidence (out-of-range or huge id, bad sign,
    repeated vertex), an empty edge, or truncation at any character."""
    n = draw(st.integers(1, 7))
    lines = ["shg 1", f"vertices {n}"]
    covered = set()
    for _ in range(draw(st.integers(0, 6))):
        vs = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(n, 4), unique=True))
        covered.update(vs)
        lines.append("edge " + " ".join(f"{v}:{draw(st.sampled_from('+-'))}" for v in vs))
    lines += [f"edge {v}:+" for v in range(1, n + 1) if v not in covered and draw(st.booleans())]
    kind = draw(st.sampled_from(
        ("none", "none", "header", "vertices", "huge", "incidence", "empty", "truncate")))
    at = draw(st.integers(2, len(lines)))
    if kind == "header":
        lines[0] = draw(st.sampled_from(("shg 2", "shg", "")))
    elif kind == "vertices":
        lines[1] = draw(st.sampled_from(("vertices -3", "vertices", "vertices x", "vertices 0")))
    elif kind == "huge":
        lines[1] = "vertices 100000000000"
        lines.insert(at, "edge 1:+ 100000000000:-")
    elif kind == "incidence":
        bad = draw(st.sampled_from(
            (f"{n + 1}:+", "0:-", "1000000000000:+", "1:*", "1", ":+", "1:+ 1:-")))
        lines.insert(at, f"edge {bad}")
    elif kind == "empty":
        lines.insert(at, "edge")
    text = "\n".join(lines) + "\n"
    return text[:draw(st.integers(0, len(text)))] if kind == "truncate" else text


FILE_COMMANDS = (
    ["validate"], ["spectrum"], ["domains", "--eig", "1"], ["domains", "--function=1,0,-1"],
    ["bounds"], ["bounds", "--h1-variant", "clique"], ["report"], ["oracle", "--eig", "1"],
)


class TestExitCodes:
    @given(shg_texts())
    @settings(max_examples=40, deadline=None)
    def test_every_command_exits_0_1_or_2(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "h.shg"
        path.write_text(text, encoding="utf-8")
        for argv in FILE_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err.getvalue(), (argv, text)

"""File format round-trips, parse diagnostics, and the command line."""

import contextlib
import io
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.cli import main
from shg.core import Edge, SignedHypergraph
from shg.fixtures import PRINTED_EIGENFUNCTIONS, fixture_example1
from shg.report import REPORT_SCHEMA, build_report, input_digest, report_json
from shg.shgio import ParseError, parse, serialize
from shg.verify import GenConfig, generate

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

    def test_empty_edge_not_serializable(self):
        h = SignedHypergraph(2, (Edge(()),), allow_empty_edges=True)
        with pytest.raises(ValueError, match="empty edge"):
            serialize(h)


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

    def test_selector_required(self, tmp_path):
        assert main(["domains", write_fixture(tmp_path)]) == 2

    @pytest.mark.parametrize("args", [
        ["--function", "1,inf,-1,1"],
        ["--function", "1,nan,-1,1"],
        ["--function", "1,0,-1,1", "--zero-tol", "-1"],
        ["--eig", "2", "--zero-tol", "nan"],
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
        assert lines[0].split() == ["i", "k", "r", "S", "W", "upper", "lower", "S>=lower"]
        # the top cluster rows are the known lower-bound violations
        assert lines[-1].split()[-1] == "NO"
        assert lines[1].split()[-1] == "yes"

    def test_variant_flag(self, tmp_path):
        assert main(["bounds", write_fixture(tmp_path),
                     "--h1-variant", "exists_ordering"]) == 0

    def test_clique_variant_holds_on_every_row(self, tmp_path, capsys):
        assert main(["bounds", write_fixture(tmp_path), "--h1-variant", "clique"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert [line.split()[-1] for line in lines[1:]] == ["yes"] * 9
        # top cluster: upper bound k + r - 1 = 9, clique lower bound 5
        assert lines[-1].split()[-3:] == ["9", "5", "yes"]


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

    def test_bad_scale(self, capsys):
        assert main(["fuzz", "--scale", "6,4"]) == 2
        assert "--scale expects" in capsys.readouterr().err


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

        # every call that allocates per vertex fails the test instead
        for name in ("laplacian", "eigendecompose", "decompose", "Analysis",
                     "build_report", "oracle_domains", "VertexFunction", "serialize"):
            monkeypatch.setattr(cli, name, must_not_run)
        path = tmp_path / "huge.shg"
        path.write_text("shg 1\nvertices 100000000000\nedge 1:+ 2:-\n", encoding="utf-8")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"limit of {cli.MAX_VERTICES}" in err


class TestReportModule:
    def test_oracle_limit_not_applied_here(self):
        # reports work above the oracle size cap
        h = SignedHypergraph(10, fixture_example1().edges + (Edge(((10, 1), (1, 1))),))
        report = build_report(h, input_digest(serialize(h)))
        jsonschema.validate(report, REPORT_SCHEMA)
        assert len(report["eigenfunctions"]) == 10

    def test_json_is_stable_and_newline_terminated(self):
        h = fixture_example1()
        r = build_report(h, input_digest(FIXTURE_TEXT))
        text = report_json(r)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(report_json(r))

    def test_bounds_rows_read_the_report_tolerance(self):
        # a loose zero tolerance turns small entries into zeros; each
        # bounds row must count the same function as its record
        for h in generate(GenConfig(seed=3, count=10)):
            r = build_report(h, "", zero_tol_rel=0.2)
            for rec, row in zip(r["eigenfunctions"], r["bounds"], strict=True):
                assert (row["strong_count"], row["weak_count"]) == (
                    rec["strong_count"], rec["weak_count"])

    def test_one_decomposition_per_function(self, monkeypatch):
        import shg.nodal as nodal
        import shg.report as report

        calls = []
        real = nodal.decompose

        def counting(h, f):
            calls.append(f)
            return real(h, f)

        for module in (nodal, report):
            monkeypatch.setattr(module, "decompose", counting)
        h = next(generate(GenConfig(n_range=(20, 20), m_range=(20, 20), seed=5, count=1)))
        build_report(h, input_digest(serialize(h)))
        assert len(calls) == h.n == 20

    def test_one_fiedler_pass_and_one_l_plus_per_function(self, monkeypatch):
        import shg.nodal as nodal
        import shg.report as report

        calls = {"fiedler_sets": 0, "l_plus": 0}

        def counting(name):
            real = getattr(nodal, name)

            def wrapper(h, f):
                calls[name] += 1
                return real(h, f)
            return wrapper

        for name in calls:
            wrapper = counting(name)
            for module in (nodal, report):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        h = next(generate(GenConfig(n_range=(20, 20), m_range=(20, 20), seed=5, count=1)))
        build_report(h, input_digest(serialize(h)))
        assert calls == {"fiedler_sets": 20, "l_plus": 20}


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

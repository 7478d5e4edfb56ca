"""Random instance generation, the path-enumeration oracle, campaigns."""

import json
import random
from dataclasses import replace

import pytest

import shg.verify
from shg.core import (
    EXACT_FOREST_LIMIT,
    Edge,
    SignedHypergraph,
    connected_components,
    cyclomatic,
    degrees,
)
from shg.fixtures import fixture_example1
from shg.nodal import Analysis, strong_domains, weak_domains
from shg.spectra import VertexFunction, eigendecompose, laplacian
from shg.verify import (
    ALL_PROPERTY_IDS,
    CORE_PROPERTY_IDS,
    NODAL_PROPERTY_IDS,
    REGISTRY,
    SPECTRA_PROPERTY_IDS,
    FailureRecord,
    GenConfig,
    generate,
    generate_supertree,
    oracle_domains,
    rerun_property,
    run_campaign,
)


class TestGenConfig:
    def test_defaults_valid(self):
        cfg = GenConfig()
        assert cfg.count == 500 and cfg.n_range == (4, 12)

    @pytest.mark.parametrize("kwargs,msg", [
        ({"n_range": (5, 4)}, "n_range is empty"),
        ({"m_range": (3, 1)}, "m_range is empty"),
        ({"n_range": (0, 4)}, "at least one vertex"),
        ({"m_range": (-1, 4)}, "at least one vertex"),
        ({"edge_size_range": (0, 2)}, "at least 1"),
        ({"n_range": (3, 5), "edge_size_range": (4, 4)}, "infeasible constraints"),
        ({"sign_bias": 1.5}, "sign_bias"),
        ({"seed": -1}, "64 bits"),
        ({"seed": 2 ** 64}, "64 bits"),
        ({"count": -1}, "nonnegative"),
    ])
    def test_rejects_bad_shapes(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            GenConfig(**kwargs)

    def test_as_dict_round_trips_through_json(self):
        cfg = GenConfig(seed=9, count=3, classical=True)
        again = GenConfig(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in json.loads(json.dumps(cfg.as_dict())).items()})
        assert again == cfg


class TestGenerate:
    def test_same_seed_same_stream(self):
        cfg = GenConfig(seed=42, count=12)
        assert list(generate(cfg)) == list(generate(cfg))

    def test_different_seed_different_stream(self):
        a = list(generate(GenConfig(seed=1, count=12)))
        b = list(generate(GenConfig(seed=2, count=12)))
        assert a != b

    def test_respects_ranges(self):
        cfg = GenConfig(n_range=(5, 7), m_range=(2, 4),
                        edge_size_range=(2, 3), seed=3, count=40,
                        ensure_spectral=False)
        for h in generate(cfg):
            assert 5 <= h.n <= 7
            assert 2 <= h.m <= 4
            assert all(2 <= e.size <= 3 for e in h.edges)

    def test_ensure_spectral_leaves_no_isolated_vertex(self):
        cfg = GenConfig(n_range=(8, 10), m_range=(2, 3), seed=5, count=30)
        for h in generate(cfg):
            deg = degrees(h)
            assert all(deg[v] > 0 for v in h.vertex_range())
            laplacian(h)

    def test_classical_instances_are_signed_graphs(self):
        cfg = GenConfig(classical=True, seed=7, count=30)
        for h in generate(cfg):
            for e in h.edges:
                assert e.size == 2
                assert sorted(s for _, s in e.incidences) == [-1, 1]

    def test_sign_bias_one_forces_plus(self):
        cfg = GenConfig(sign_bias=1.0, seed=11, count=20, ensure_spectral=False)
        for h in generate(cfg):
            assert all(s == 1 for e in h.edges for _, s in e.incidences)

    def test_no_duplicate_edges(self):
        cfg = GenConfig(seed=13, count=30, ensure_spectral=False)
        for h in generate(cfg):
            keys = [tuple(sorted(e.incidences)) for e in h.edges]
            assert len(keys) == len(set(keys))


class TestSupertree:
    def test_connected_and_acyclic(self):
        rng = random.Random(17)
        for _ in range(25):
            h = generate_supertree(rng, rng.randint(1, 6))
            assert cyclomatic(h).l == 0
            assert len(connected_components(h)) == 1

    def test_needs_an_edge(self):
        with pytest.raises(ValueError, match="at least one edge"):
            generate_supertree(random.Random(0), 0)


class TestOracle:
    def test_rejects_large_instances(self):
        h = SignedHypergraph(9, ())
        with pytest.raises(ValueError, match="instance too large"):
            oracle_domains(h, VertexFunction.from_values([1.0] * 9))

    def test_rejects_length_mismatch(self):
        h = SignedHypergraph(3, ())
        with pytest.raises(ValueError, match="3 vertices"):
            oracle_domains(h, VertexFunction.from_values([1.0] * 2))

    def test_agrees_with_fast_path_on_random_instances(self):
        cfg = GenConfig(n_range=(4, 8), m_range=(2, 6), seed=19, count=15)
        rng = random.Random(23)
        checked = 0
        for h in generate(cfg):
            s = eigendecompose(laplacian(h))
            fns = list(s.functions)
            fns.append(VertexFunction.from_values(
                [rng.choice((-1.0, 0.0, 1.0)) for _ in range(h.n)]))
            for f in fns:
                strong, cores, closures = oracle_domains(h, f)
                assert sorted(map(sorted, strong)) == sorted(
                    map(sorted, strong_domains(h, f)))
                got_cores, got_closures = weak_domains(h, f)
                assert sorted(map(sorted, cores)) == sorted(map(sorted, got_cores))
                assert sorted(map(sorted, closures)) == sorted(map(sorted, got_closures))
                checked += 1
        assert checked > 40


class TestRegistry:
    def test_every_property_registered_once(self):
        assert len(REGISTRY) == 22
        assert len(set(ALL_PROPERTY_IDS)) == len(ALL_PROPERTY_IDS) == 22
        assert set(ALL_PROPERTY_IDS) == set(REGISTRY)

    def test_sections_partition_the_registry(self):
        assert ALL_PROPERTY_IDS == CORE_PROPERTY_IDS + SPECTRA_PROPERTY_IDS + NODAL_PROPERTY_IDS

    def test_ids_name_their_module(self):
        for pid in ALL_PROPERTY_IDS:
            section, _, rest = pid.partition(".")
            assert section in ("core", "spectra", "nodal") and rest


class TestCampaign:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown property ids"):
            run_campaign(GenConfig(count=1), property_ids=("nodal.bogus",))

    def test_zero_count_gives_empty_result(self):
        res = run_campaign(GenConfig(count=0))
        assert res.instances_run == 0 and res.passed
        assert res.failures == () and res.sharpness_stats == ()

    def test_reproducible_byte_for_byte(self):
        cfg = GenConfig(n_range=(4, 8), m_range=(2, 6), seed=29, count=6)
        ids = CORE_PROPERTY_IDS + ("spectra.trace-eigsum", "nodal.weak-le-strong")
        a = run_campaign(cfg, property_ids=ids)
        b = run_campaign(cfg, property_ids=ids)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(b.as_dict(), sort_keys=True)

    def test_core_properties_pass(self):
        res = run_campaign(GenConfig(seed=31, count=10), property_ids=CORE_PROPERTY_IDS)
        assert res.passed, res.failures

    def test_sharpness_histogram_counts_every_eigenpair(self):
        cfg = GenConfig(n_range=(4, 6), m_range=(2, 4), seed=37, count=4)
        res = run_campaign(cfg, property_ids=("nodal.eigen-upper-bounds",))
        total = sum(c for _, c in res.sharpness_stats)
        expected = sum(h.n for h in generate(cfg))
        assert total == expected

    def test_lower_bound_violations_become_notes_not_failures(self):
        # the whole-hyperedge reading fails on 6 eigenpairs of 2 of these
        # 12 instances; the clique reading holds on all of them
        cfg = GenConfig(seed=41, count=12)
        res = run_campaign(cfg, property_ids=("nodal.eigen-lower-bound-logged",))
        assert res.passed
        assert any("lower bound violated" in t for t in res.notes)
        assert all(t.startswith("instance ") for t in res.notes)

    def test_clique_bound_violation_is_a_failure(self):
        # a strong count below the clique bound must fail the property
        ctx = Analysis(fixture_example1())
        ctx.decompositions = tuple(replace(dec, strong=()) for dec in ctx.decompositions)
        fails, _ = REGISTRY["nodal.eigen-lower-bound-logged"](ctx, random.Random(0))
        assert "eig 7: strong count 0 < clique bound 5" in fails

    def test_property_costs_cover_the_selection_outside_the_json(self):
        ids = CORE_PROPERTY_IDS + ("spectra.trace-eigsum",)
        res = run_campaign(GenConfig(seed=31, count=3), property_ids=ids)
        assert set(res.property_costs) == set(ids)
        assert all(calls == 3 and cpu_s >= 0.0 for calls, cpu_s in res.property_costs.values())
        assert "property_costs" not in res.as_dict()
        assert res == replace(res, property_costs={})

    @pytest.mark.parametrize("m, checked", [(EXACT_FOREST_LIMIT, True),
                                            (EXACT_FOREST_LIMIT + 1, False)])
    def test_forest_property_checks_the_search_result(self, monkeypatch, m, checked):
        # repeated triangle edges: taking them all closes a cycle and weighs
        # more than n - c = 2
        triangle = [Edge(((a, 1), (b, 1))) for a, b in ((1, 2), (2, 3), (1, 3))]
        h = SignedHypergraph(3, tuple(triangle[i % 3] for i in range(m)))
        monkeypatch.setattr(shg.verify, "spanning_hyperforest",
                            lambda h, exact=False: tuple(range(h.m)))
        fails, _ = REGISTRY["core.exact-forest-geq-greedy"](Analysis(h), random.Random(0))
        expected = [f"exact edge set {list(range(m))} is not acyclic",
                    f"exact weight {m} exceeds n - c = 2"]
        assert fails == (expected if checked else [])


class TestFailureRoundTrip:
    @pytest.fixture()
    def probe_property(self):
        def probe(ctx, rng):
            return ([f"n={ctx.h.n} roll={rng.randint(0, 10 ** 9)}"], ["probe note"])

        REGISTRY["core.probe-always-fails"] = probe
        yield "core.probe-always-fails"
        del REGISTRY["core.probe-always-fails"]

    def test_rerun_reproduces_details(self, probe_property):
        cfg = GenConfig(seed=43, count=3)
        res = run_campaign(cfg, property_ids=(probe_property,))
        assert len(res.failures) == 3 and not res.passed
        assert [t.split(": ", 1)[1] for t in res.notes] == ["probe note"] * 3
        for rec in res.failures:
            assert isinstance(rec, FailureRecord)
            fails, notes = rerun_property(rec)
            assert fails == [rec.details]
            assert notes == ["probe note"]

    def test_rerun_uses_recorded_randomness(self, probe_property):
        cfg = GenConfig(seed=43, count=1)
        rec = run_campaign(cfg, property_ids=(probe_property,)).failures[0]
        altered = FailureRecord(rec.seed + 1, rec.index, rec.property_id,
                                rec.instance_text, rec.details)
        fails, _ = rerun_property(altered)
        assert fails != [rec.details]

    def test_exceptions_become_failure_records(self):
        def boom(ctx, rng):
            raise RuntimeError("intentional")

        REGISTRY["core.probe-boom"] = boom
        try:
            res = run_campaign(GenConfig(seed=47, count=2),
                               property_ids=("core.probe-boom",))
        finally:
            del REGISTRY["core.probe-boom"]
        assert len(res.failures) == 2
        assert all("unexpected error" in r.details and "intentional" in r.details
                   for r in res.failures)

"""Random instance generation, the path-enumeration oracle, campaigns."""

import inspect
import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import shg.core
import shg.nodal
import shg.verify
from shg.core import (
    Edge,
    SignedHypergraph,
    connected_components,
    cyclomatic,
    degrees,
)
from shg.fixtures import fixture_example1
from shg.nodal import Analysis, decompose
from shg.report import report_json
from shg.shgio import serialize
from shg.spectra import VertexFunction, eigendecompose, laplacian
from shg.verify import (
    ALL_PROPERTY_IDS,
    ORACLE_MAX_N,
    CORE_PROPERTY_IDS,
    NODAL_PROPERTY_IDS,
    REGISTRY,
    SPECTRA_PROPERTY_IDS,
    FailureRecord,
    GenConfig,
    generate,
    oracle_domains,
    rerun_property,
    run_campaign,
)

from references import generate_supertree, reference_edge_sign, reference_sandwich


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
        ({"classical": True, "n_range": (1, 2), "edge_size_range": (1, 1)}, "two vertices"),
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

    def test_classical_with_fewer_pairs_than_edges(self):
        # two vertices have two ordered pairs, against m up to 3: the draw
        # takes what exists
        cfg = GenConfig(classical=True, n_range=(2, 2), m_range=(1, 3), seed=0, count=20)
        sizes = {}
        for h in generate(cfg):
            sizes.setdefault(h.n, set()).add(h.m)
            laplacian(h)
            for e in h.edges:
                assert e.size == 2
                assert sorted(s for _, s in e.incidences) == [-1, 1]
        assert sizes == {2: {1, 2}}

    def test_draw_stops_at_the_last_distinct_edge(self, monkeypatch):
        # 4 vertices carry 24 distinct signed edges of size 2: the draw
        # ends with the one that completes them, not after 100 * (m + 1)
        # attempts
        real, drawn = shg.verify._random_edge, []

        def recording(rng, cfg, n):
            drawn.append(tuple(sorted(real(rng, cfg, n).incidences)))
            return Edge(drawn[-1])

        monkeypatch.setattr(shg.verify, "_random_edge", recording)
        cfg = GenConfig(n_range=(4, 4), m_range=(2000, 2000), edge_size_range=(2, 2), count=1)
        h = next(generate(cfg))
        assert h.m == len(set(drawn)) == 24
        assert drawn[-1] not in drawn[:-1]

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
                dec = decompose(h, f)
                assert sorted(map(sorted, strong)) == sorted(map(sorted, dec.strong))
                assert sorted(map(sorted, cores)) == sorted(map(sorted, dec.weak_cores))
                assert sorted(map(sorted, closures)) == sorted(map(sorted, dec.weak_closures))
                checked += 1
        assert checked > 40


def path_oracle(h, f):
    """The oracle as it was before its step table: one recursion per
    (edge, neighbour) pair, a scan of every edge at each step, zeros
    attached by enumerating their simple paths, and classes closed by a
    fixed-point loop.  A reference only."""
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    support = [v for v in h.vertex_range() if sign[v] != 0]
    esigns = [(e, reference_edge_sign(e)) for e in h.edges]
    strong_pairs = {(x, w) for e, sg in esigns for x in e.vertices for w in e.vertices
                    if x != w and sign[x] * sg * sign[w] > 0}
    weak_pairs = set()

    def w_walk(cur, visited, acc, start):
        for e, sg in esigns:
            vs = e.vertices
            if cur not in vs:
                continue
            for w in vs:
                if w == cur or w in visited:
                    continue
                if sign[w] == 0:
                    w_walk(w, visited | {w}, acc * sg, start)
                elif sign[start] * acc * sg * sign[w] > 0:
                    weak_pairs.add((start, w))

    for x in support:
        w_walk(x, frozenset({x}), 1, x)

    def closure(pairs):
        related = {v: {v} for v in support}
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                merged = related[a] | related[b]
                for v in merged:
                    if related[v] != merged:
                        related[v] = merged
                        changed = True
                related[a] = related[b] = merged
        return tuple(tuple(sorted(s)) for s in sorted({frozenset(s) for s in related.values()}, key=min))

    strong = closure(strong_pairs)
    cores = closure(weak_pairs)
    core_of = {v: i for i, core in enumerate(cores) for v in core}
    absorbed = [set(core) for core in cores]

    def z_walk(cur, visited, origin):
        for e, _ in esigns:
            vs = e.vertices
            if cur not in vs:
                continue
            for w in vs:
                if w == cur or w in visited:
                    continue
                if sign[w] == 0:
                    z_walk(w, visited | {w}, origin)
                else:
                    absorbed[core_of[w]].add(origin)

    for z in h.vertex_range():
        if sign[z] == 0:
            z_walk(z, frozenset({z}), z)
    return strong, cores, tuple(tuple(sorted(s)) for s in absorbed)


def with_opposite_parallels(h, rng):
    """h plus, for up to two of its edges, a copy with one incidence sign
    flipped: the same vertices, the opposite edge sign."""
    extra = []
    for e in rng.sample(h.edges, min(2, h.m)):
        (v, s), *rest = e.incidences
        extra.append(Edge(((v, -s), *rest)))
    return SignedHypergraph(h.n, h.edges + tuple(extra))


def oracle_cases(seed, count):
    """(h, f) over generated instances with n <= 8, half of them given
    parallel edges of opposite sign: every eigenfunction, and random
    functions at zero rates 0.2, 0.4 and 0.6."""
    rng = random.Random(seed)
    cfg = GenConfig(n_range=(3, 8), m_range=(2, 7), seed=seed, count=count)
    for i, h in enumerate(generate(cfg)):
        if i % 2:
            h = with_opposite_parallels(h, rng)
        for f in eigendecompose(laplacian(h)).functions:
            yield h, f
        for rate in (0.2, 0.4, 0.6):
            for _ in range(2):
                yield h, VertexFunction.from_values(
                    [0.0 if rng.random() < rate else rng.gauss(0.0, 1.0) for _ in range(h.n)])


@pytest.fixture()
def zero_triangle():
    """1 - 2 - 3 with 1 and 3 positive and 2 zero, the only simple path
    between them of sign -1, and a zero triangle 2 - 4 - 5 hanging on 2
    whose edge signs multiply to -1.  The walk 1 2 4 5 2 3 has sign +1 but
    repeats 2, so 1 and 3 stay in separate weak cores."""
    h = SignedHypergraph(5, tuple(Edge(inc) for inc in (
        ((1, 1), (2, -1)), ((2, 1), (3, 1)), ((2, 1), (4, -1)),
        ((4, 1), (5, -1)), ((5, 1), (2, 1)))))
    return h, VertexFunction.from_values([1.0, 0.0, 1.0, 0.0, 0.0])


ZERO_TRIANGLE_DOMAINS = (
    ((1,), (3,)),
    ((1,), (3,)),
    ((1, 2, 4, 5), (2, 3, 4, 5)),
)


class TestOracleReference:
    def test_matches_path_enumeration(self):
        checked = parallel = 0
        for h, f in oracle_cases(seed=53, count=60):
            assert oracle_domains(h, f) == path_oracle(h, f), (serialize(h), f.values)
            checked += 1
            parallel += h.m > len({e.vertices for e in h.edges})
        assert checked > 600 and parallel > 200

    def test_zero_triangle_pinned(self, zero_triangle):
        h, f = zero_triangle
        assert oracle_domains(h, f) == ZERO_TRIANGLE_DOMAINS
        assert path_oracle(h, f) == ZERO_TRIANGLE_DOMAINS
        dec = decompose(h, f)
        assert (dec.strong, dec.weak_cores, dec.weak_closures) == ZERO_TRIANGLE_DOMAINS

    def test_independent_of_the_fast_path(self, zero_triangle, monkeypatch):
        h = with_opposite_parallels(
            next(generate(GenConfig(n_range=(7, 7), m_range=(6, 6), seed=59, count=1))),
            random.Random(59))
        f = VertexFunction.from_values([1.0, 0.0, -2.0, 0.0, 1.5, -1.0, 0.0])
        dec = decompose(h, f)
        expected = (dec.strong, dec.weak_cores, dec.weak_closures)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle used the code it checks")

        monkeypatch.setattr(shg.core, "UnionFind", refuse)
        # the fast path's one scan of the edges and its zero incidence graph
        monkeypatch.setattr(shg.nodal, "_scan", refuse)
        for module in (shg.core, shg.nodal):
            monkeypatch.setattr(module, "incidence_graph", refuse)
        for name in ("decompose", "Analysis"):
            monkeypatch.setattr(shg.nodal, name, refuse)
            monkeypatch.setattr(shg.verify, name, refuse)
        assert oracle_domains(*zero_triangle) == ZERO_TRIANGLE_DOMAINS
        assert oracle_domains(h, f) == expected


class TestSandwich:
    @pytest.mark.parametrize("cfg", [
        GenConfig(seed=2026, count=300),
        GenConfig(n_range=(3, 10), m_range=(2, 18), edge_size_range=(1, 5), seed=7, count=60),
        GenConfig(n_range=(20, 60), m_range=(10, 60), edge_size_range=(2, 6), seed=5, count=40),
        GenConfig(n_range=(4, 16), m_range=(4, 30), classical=True, seed=11, count=60),
    ])
    def test_counts_match_the_pair_graphs(self, monkeypatch, cfg):
        # an inertia above every count fails each full-support row, so its
        # detail string shows the forest weight, the positive pairs and the
        # slack of every row; the property reads the pair classes off the
        # sign matrix, the reference multiplies A_xy g(x) g(y) in float
        monkeypatch.setattr(shg.verify, "positive_inertia", lambda s: np.full(len(s), 10**6))
        rows = 0
        for h in generate(cfg):
            for tol in (0.0, 1e-8, 0.2):
                ctx = Analysis(h, zero_tol_rel=tol)
                got = shg.verify._p_sandwich(ctx, random.Random(0))
                assert got == reference_sandwich(ctx, lambda i: 10**6)
                rows += len(got[0])
        assert rows > 300

    def test_holds_one_chunk_of_forms_at_a_time(self):
        # 151 full rows over all 19 900 pairs of 200 vertices: a float
        # array of rows x pairs peaked near 70 MB here
        h = next(generate(GenConfig(n_range=(200, 200), m_range=(16, 16), edge_size_range=(2, 200),
                                    seed=1, count=1)))
        ctx = Analysis(h)
        ctx.signs
        tracemalloc.start()
        try:
            assert shg.verify._p_sandwich(ctx, random.Random(0)) == ([], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRegistry:
    def test_every_property_registered_once(self):
        assert len(REGISTRY) == 18
        assert len(set(ALL_PROPERTY_IDS)) == len(ALL_PROPERTY_IDS) == 18
        assert set(ALL_PROPERTY_IDS) == set(REGISTRY)

    def test_sections_partition_the_registry(self):
        assert ALL_PROPERTY_IDS == CORE_PROPERTY_IDS + SPECTRA_PROPERTY_IDS + NODAL_PROPERTY_IDS

    def test_ids_name_their_module(self):
        for pid in ALL_PROPERTY_IDS:
            section, _, rest = pid.partition(".")
            assert section in ("core", "spectra", "nodal") and rest

    def test_every_property_function_is_registered(self):
        # a property that lost its decorator would never run
        found = [fn for name, fn in vars(shg.verify).items()
                 if name.startswith("_p_") and inspect.isfunction(fn)]
        assert len(found) == len(REGISTRY)
        assert all(any(fn is g for g in REGISTRY.values()) for fn in found)

    def test_campaign_runs_the_registry_in_order(self):
        assert run_campaign(GenConfig(count=1)).as_dict()["property_ids"] == list(REGISTRY)


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

    @staticmethod
    def _merge_first_two(domains):
        return (tuple(sorted(domains[0] + domains[1])),) + domains[2:] if len(domains) > 1 else domains

    def _no_zeros_identical(self):
        ctx = Analysis(fixture_example1())
        return REGISTRY["nodal.no-zeros-identical"](ctx, random.Random(0))

    def test_no_zeros_identical_fails_on_merged_weak_domains(self, monkeypatch):
        assert self._no_zeros_identical() == ([], [])
        real = shg.nodal.decompose

        def merged(h, f):
            dec = real(h, f)
            cores = self._merge_first_two(dec.weak_cores)
            return replace(dec, weak_cores=cores, weak_closures=cores)

        monkeypatch.setattr(shg.verify, "decompose", merged)
        fails, _ = self._no_zeros_identical()
        assert fails and all(t.endswith("strong and weak partitions differ") for t in fails)

    def test_no_zeros_identical_checks_against_the_batched_strong_pass(self, monkeypatch):
        # decompose takes its weak partitions from its strong pass on a
        # zero-free function; a strong link joining its first two domains
        # keeps them equal, and only the row pass differs, which the
        # property reaches through the zero-free eigenfunctions
        scan = shg.nodal._scan

        def merged(h, sign):
            links, zero_groups, attach = scan(h, sign)
            uf = shg.core.UnionFind(h.n)
            uf.link(links)
            domains = uf.groups(v for v in h.vertex_range() if sign[v])
            # one more link from the second domain, if any, to the first
            return links + [(d[0], domains[0][0]) for d in domains[1:2]], zero_groups, attach

        monkeypatch.setattr(shg.nodal, "_scan", merged)
        fails, _ = self._no_zeros_identical()
        assert fails and all(t.endswith("strong and weak partitions differ") for t in fails)

    def test_one_row_pass_per_instance(self, monkeypatch):
        # every property reads the row pass of the instance's one Analysis;
        # the random functions go through decompose, never a second pass
        real = shg.nodal._row_pass
        calls = []

        def counting(h, signs):
            calls.append(h)
            return real(h, signs)

        monkeypatch.setattr(shg.nodal, "_row_pass", counting)
        assert run_campaign(GenConfig(n_range=(3, 5), seed=8, count=30)).passed
        assert len(calls) == 30

    def test_one_bridge_pass_and_one_step_table_per_instance(self, monkeypatch):
        # the row pass and both tree-like properties share the instance's
        # one bridge pass, cached on the instance (later deletion steps
        # run on derived hypergraphs), and every oracle call of an
        # instance shares one step table
        cfg = GenConfig(n_range=(3, 5), seed=8, count=30)
        instances = list(generate(cfg))
        passes, tables = [], []

        def counting(calls, real):
            def wrapper(h):
                calls.append(h)
                return real(h)
            return wrapper

        monkeypatch.setattr(shg.core, "cyclic_vertices", counting(passes, shg.core.cyclic_vertices))
        monkeypatch.setattr(shg.verify, "_oracle_steps",
                            counting(tables, shg.verify._oracle_steps))
        assert run_campaign(cfg).passed
        assert [sum(g == h for g in passes) for h in instances] == [1] * len(instances)
        assert all(h.n <= ORACLE_MAX_N for h in instances)
        assert tables == instances

    def test_tree_like_properties_check_the_block_pass(self, monkeypatch):
        # a parallel pair is the cycle 1 e1 2 e2 1; a bridge pass that took
        # a parallel link for a bridge would call its vertices tree-like
        pair = Edge(((1, 1), (2, 1)))
        h = SignedHypergraph(2, (pair, pair))
        no_cycle = REGISTRY["core.tree-like-no-cycle"]
        deletion = REGISTRY["core.tree-like-deletion"]
        assert no_cycle(Analysis(h), random.Random(0)) == ([], [])
        assert deletion(Analysis(h), random.Random(0)) == ([], [])
        real = shg.core.cyclic_vertices

        def vertex_1_missed(h):
            on_h, on_clique = real(h)
            return (False, False) + on_h[2:], on_clique

        # the bridge pass cached on the instance, which both read; the
        # calls above cached the true marks on h, so a fresh copy of it
        monkeypatch.setattr(shg.core, "cyclic_vertices", vertex_1_missed)
        h = SignedHypergraph(2, (pair, pair))
        assert no_cycle(Analysis(h), random.Random(0)) == (
            ["vertex 1: tree_like=True, on_cycle=True"], [])
        assert deletion(Analysis(h), random.Random(0)) == (
            ["deleting 1: components 1 -> 1, expected 2"], [])

    def test_acyclic_iff_zero_checks_the_forest_route(self, monkeypatch):
        # on an acyclic instance a forest that drops an edge must disagree
        # with l = 0 and with the component sums
        h = generate_supertree(random.Random(61), 3)
        prop = REGISTRY["core.acyclic-iff-zero"]
        assert prop(Analysis(h), random.Random(0)) == ([], [])
        monkeypatch.setattr(shg.verify, "spanning_hyperforest", lambda h: ())
        fails, _ = prop(Analysis(h), random.Random(0))
        assert fails == ["is_acyclic=False but l=0",
                         "component sums say acyclic=True, op says False"]


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
        instances = list(generate(cfg))
        for rec in res.failures:
            assert isinstance(rec, FailureRecord)
            assert rec.instance_text == serialize(instances[rec.index])
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

    def test_rerun_reproduces_exception_records(self, monkeypatch):
        def boom(ctx, rng):
            raise RuntimeError("intentional")

        monkeypatch.setitem(REGISTRY, "core.probe-boom", boom)
        res = run_campaign(GenConfig(seed=47, count=2), property_ids=("core.probe-boom",))
        assert len(res.failures) == 2
        for rec in res.failures:
            assert rerun_property(rec) == ([rec.details], [])

    def test_rerun_from_fuzz_json(self, monkeypatch):
        # a registered property made to fail, replayed from the JSON that
        # ``shg fuzz`` writes rather than from the records themselves
        def probe(ctx, rng):
            return ([f"n={ctx.h.n} roll={rng.randint(0, 10 ** 9)}"], [])

        monkeypatch.setitem(REGISTRY, "core.tree-like-no-cycle", probe)
        res = run_campaign(GenConfig(seed=43, count=3), property_ids=("core.tree-like-no-cycle",))
        entries = json.loads(report_json(res.as_dict()))["failures"]
        assert len(entries) == 3
        for rec, entry in zip(res.failures, entries):
            replayed = FailureRecord.from_dict(entry)
            assert replayed == rec
            assert rerun_property(replayed) == ([rec.details], [])

    def test_rerun_rejects_ids_outside_the_registry(self):
        rec = FailureRecord(47, 0, "campaign.sharpness", serialize(fixture_example1()),
                            "unexpected error: RuntimeError('intentional')")
        with pytest.raises(ValueError, match="unknown property ids"):
            rerun_property(rec)

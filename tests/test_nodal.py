"""Nodal domains: strong/weak decompositions, zero handling, count bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.core import (
    Edge,
    SignedHypergraph,
    cyclomatic,
    edge_sign,
    hyperneighbors,
    is_tree_like,
    spanning_hyperforest,
)
from shg.fixtures import (
    PRINTED_EIGENFUNCTIONS,
    TABLE1_STRONG,
    fixture_example1,
)
from shg.nodal import (
    Analysis,
    BoundReport,
    clique_expansion,
    decompose,
    domain_adjacency_graph,
    fiedler_sets,
    l_plus,
    strong_domains,
    support_cyclomatic,
    weak_domains,
)
from shg.spectra import VertexFunction, adjacency, eigendecompose, laplacian
from shg.verify import GenConfig, generate, oracle_domains


def h_of(n, *edge_specs):
    return SignedHypergraph(n, tuple(Edge(tuple(spec)) for spec in edge_specs))


def vf(*values):
    return VertexFunction.from_values(values)


def as_sets(domains):
    return sorted(tuple(sorted(d)) for d in domains)


# 2-edges by desired pair sign: sgn(e) = -(product of the two incidence
# signs), so a mixed pair gives +1 and an equal pair gives -1.
def pair_edge(u, v, s):
    return ((u, 1), (v, -1)) if s > 0 else ((u, 1), (v, 1))


@pytest.fixture(scope="module")
def fixture():
    return fixture_example1()


@pytest.fixture(scope="module")
def printed():
    return tuple(VertexFunction.from_values(v) for v in PRINTED_EIGENFUNCTIONS)


@pytest.fixture(scope="module")
def analysis(fixture):
    return Analysis(fixture)


class TestStrongDomains:
    def test_negative_pair_links_opposite_signs(self):
        h = h_of(2, pair_edge(1, 2, -1))
        assert len(strong_domains(h, vf(1, -1))) == 1
        assert len(strong_domains(h, vf(1, 1))) == 2

    def test_positive_pair_links_equal_signs(self):
        h = h_of(2, pair_edge(1, 2, 1))
        assert len(strong_domains(h, vf(1, 1))) == 1
        assert len(strong_domains(h, vf(1, -1))) == 2

    def test_positive_triple_same_sign(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        assert as_sets(strong_domains(h, vf(1, 1, 1))) == [(1, 2, 3)]
        assert as_sets(strong_domains(h, vf(1, -1, 1))) == [(1, 3), (2,)]

    def test_zeros_never_join(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        assert as_sets(strong_domains(h, vf(1, 0, 1))) == [(1, 3)]

    def test_length_mismatch(self, fixture):
        with pytest.raises(ValueError, match="9 vertices"):
            strong_domains(fixture, vf(1, 2))


class TestStrongDomainsMatrixMode:
    def test_positive_entry_links_same_signs(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert len(strong_domains(a, vf(1, 1))) == 1
        assert len(strong_domains(a, vf(1, -1))) == 2

    def test_asymmetric_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="raw matrix must be symmetric"):
            strong_domains(a, vf(1, 1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            strong_domains(np.eye(3), vf(1, 1))

    def test_matches_hypergraph_on_fixture(self, fixture, printed):
        from shg.spectra import adjacency
        a = adjacency(fixture)
        for f in printed:
            assert as_sets(strong_domains(a, f)) == as_sets(strong_domains(fixture, f))


class TestWeakDomains:
    def test_zero_mediated_link(self):
        # 1 - 2(zero) - 3 with matching sign product joins the nonzeros
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1))
        cores, closures = weak_domains(h, vf(1, 0, 1))
        assert as_sets(cores) == [(1, 3)]
        assert as_sets(closures) == [(1, 2, 3)]

    def test_sign_product_must_match(self):
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, -1))
        cores, closures = weak_domains(h, vf(1, 0, 1))
        assert as_sets(cores) == [(1,), (3,)]
        # the shared zero joins both closures
        assert as_sets(closures) == [(1, 2), (2, 3)]

    def test_all_zero_function(self):
        h = h_of(2, pair_edge(1, 2, 1))
        assert weak_domains(h, vf(0, 0)) == ((), ())

    def test_detour_through_cycle_cannot_revisit_vertex(self):
        # direct route 1-2-5 carries product -1; the odd triangle 2-3-4-2
        # would flip it only by passing through 2 twice, which no simple
        # path does, so equal-sign endpoints stay separate
        h = h_of(
            5,
            pair_edge(1, 2, 1),
            pair_edge(2, 5, -1),
            pair_edge(2, 3, 1),
            pair_edge(3, 4, 1),
            pair_edge(4, 2, -1),
        )
        cores, closures = weak_domains(h, vf(1, 0, 0, 0, 1))
        assert as_sets(cores) == [(1,), (5,)]
        assert as_sets(closures) == [(1, 2, 3, 4), (2, 3, 4, 5)]
        # flipping one endpoint makes the direct product match
        cores_flip, _ = weak_domains(h, vf(1, 0, 0, 0, -1))
        assert as_sets(cores_flip) == [(1, 5)]

    def test_unbalanced_route_cycle_links_both_signs(self):
        # routes 2-3-5 (+) and 2-4-5 (-) disagree, so either endpoint
        # sign combination is reachable
        edges = (
            pair_edge(1, 2, 1),
            pair_edge(2, 3, 1),
            pair_edge(3, 5, 1),
            pair_edge(2, 4, 1),
            pair_edge(4, 5, -1),
        )
        h = h_of(5, *edges)
        for end in (1, -1):
            cores, _ = weak_domains(h, vf(1, 0, 0, 0, end))
            assert as_sets(cores) == [(1, 5)]

    def test_balanced_route_cycle_keeps_fixed_sign(self):
        edges = (
            pair_edge(1, 2, 1),
            pair_edge(2, 3, 1),
            pair_edge(3, 5, 1),
            pair_edge(2, 4, 1),
            pair_edge(4, 5, 1),
        )
        h = h_of(5, *edges)
        cores, _ = weak_domains(h, vf(1, 0, 0, 0, 1))
        assert as_sets(cores) == [(1, 5)]
        cores, _ = weak_domains(h, vf(1, 0, 0, 0, -1))
        assert as_sets(cores) == [(1,), (5,)]

    def test_opposite_parallel_pair_is_unbalanced(self):
        edges = (
            pair_edge(1, 2, 1),
            pair_edge(1, 2, -1),
            pair_edge(2, 3, 1),
        )
        h = h_of(3, *edges)
        for end in (1, -1):
            cores, _ = weak_domains(h, vf(1, 0, end))
            assert as_sets(cores) == [(1, 3)]

    def test_interior_vertices_must_be_zeros(self):
        # 1 - 2 - 3 with 2 nonzero: no weak link between 1 and 3 even
        # though the sign product of the route matches
        h = h_of(3, pair_edge(1, 2, -1), pair_edge(2, 3, -1))
        cores, _ = weak_domains(h, vf(1, 1, 1))
        assert as_sets(cores) == [(1,), (2,), (3,)]

    def test_weak_refines_strong(self):
        h = h_of(3, pair_edge(1, 2, -1), pair_edge(2, 3, -1))
        f = vf(1, 1, 1)
        assert as_sets(weak_domains(h, f)[0]) == as_sets(strong_domains(h, f))


class TestFixtureTable:
    @pytest.mark.parametrize("row", [1, 2, 3, 7])
    def test_reproduced_strong_rows(self, fixture, printed, row):
        assert as_sets(strong_domains(fixture, printed[row - 1])) == as_sets(TABLE1_STRONG[row])

    def test_strong_counts(self, fixture, printed):
        got = [len(strong_domains(fixture, f)) for f in printed]
        assert got == [1, 2, 2, 6, 6, 6, 6, 6, 6]

    def test_weak_counts(self, fixture, printed):
        got = [decompose(fixture, f).weak_count for f in printed]
        assert got == [1, 2, 2, 2, 2, 2, 6, 6, 6]

    def test_zero_free_rows_weak_equals_strong(self, fixture, printed):
        for i in (1, 2, 7):
            d = decompose(fixture, printed[i - 1])
            assert as_sets(d.weak_cores) == as_sets(d.strong)

    def test_f3_cores_and_closures(self, fixture, printed):
        cores, closures = weak_domains(fixture, printed[2])
        assert as_sets(cores) == [(1, 6, 7), (3, 4, 9)]
        assert as_sets(closures) == [(1, 2, 5, 6, 7, 8), (2, 3, 4, 5, 8, 9)]

    def test_f3_zero_split(self, fixture, printed):
        fs = fiedler_sets(fixture, printed[2])
        assert sorted(fs.fiedler) == [5, 8]
        assert sorted(fs.other_zeros) == [2]

    def test_f8_negative_pendant_does_not_link_equal_signs(self, fixture, printed):
        # the published table groups 5 and 8 here; the sign rule forbids it
        assert as_sets(strong_domains(fixture, printed[7])) == [
            (1, 5), (3, 4), (6,), (7,), (8,), (9,)]


class TestFiedlerSets:
    def test_tree_zero_with_nonzero_neighbor_is_other(self):
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1))
        fs = fiedler_sets(h, vf(1, 0, 1))
        assert not fs.fiedler and fs.other_zeros == {2}

    def test_zero_on_cycle_is_fiedler(self):
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1), pair_edge(1, 3, 1))
        fs = fiedler_sets(h, vf(1, 0, 1))
        assert fs.fiedler == {2} and not fs.other_zeros

    def test_zero_surrounded_by_zeros_is_fiedler(self):
        h = h_of(4, pair_edge(1, 2, 1), pair_edge(2, 3, 1), pair_edge(3, 4, 1))
        fs = fiedler_sets(h, vf(1, 0, 0, 0))
        # 3 and 4 see only zeros; 2 has the nonzero neighbor 1
        assert fs.fiedler == {3, 4} and fs.other_zeros == {2}


class TestCycleCounts:
    def test_l_plus_keeps_coherent_edges_only(self, fixture, printed):
        # zero-free bottom eigenfunction: all six edges coherent, l = 1
        all_pairs, exists_ordering = l_plus(fixture, printed[0])
        assert all_pairs.l == 1
        assert exists_ordering.l == 1

    def test_l_plus_variants_differ_on_negative_triples(self):
        # negative 3-edge with signs (+,-,+): no all-pairs witness, but
        # the ordering +,-,+ alternates
        h = h_of(3, ((1, 1), (2, 1), (3, -1)), pair_edge(1, 2, 1),
                 pair_edge(2, 3, 1), pair_edge(1, 3, 1))
        f = vf(1, -1, 1)
        all_pairs, exists_ordering = l_plus(h, f)
        assert (exists_ordering.sum_edge_sizes_minus_one
                - all_pairs.sum_edge_sizes_minus_one) == 2

    def test_unknown_variant(self, analysis):
        with pytest.raises(ValueError, match="unknown variant"):
            analysis.bounds("median")

    def test_support_cyclomatic_drops_zero_vertices(self, fixture, printed):
        assert support_cyclomatic(fixture, printed[0]).l == 1
        assert support_cyclomatic(fixture, printed[6]).l == 1
        assert support_cyclomatic(fixture, printed[3]).l == 0

    def test_bottom_eigenfunction(self, analysis):
        rep = analysis.bounds()[0]
        assert (rep.k, rep.r, rep.c) == (1, 1, 1)
        assert rep.strong_count == 1 and rep.weak_count == 1
        assert rep.strong_lower_bound == 1
        assert rep.strong_upper_ok and rep.weak_upper_ok and rep.strong_lower_ok

    def test_middle_cluster(self, analysis):
        rep = analysis.bounds()[3]
        assert (rep.k, rep.r) == (4, 3)
        assert rep.strong_count == 6 and rep.weak_count == 2
        assert rep.fiedler_size == 3
        assert rep.strong_upper_ok and rep.weak_upper_ok and rep.strong_lower_ok

    def test_top_cluster_lower_bound_fails(self, analysis):
        # k + r - 1 = 9 strong domains are impossible here: every member
        # of the top eigenspace peaks at 6, and the correction terms
        # (l' = 1, l_plus = 0, no relevant zeros) still leave 8
        rep = analysis.bounds()[6]
        assert (rep.k, rep.r) == (7, 3)
        assert rep.strong_count == 6
        assert rep.strong_lower_bound == 8
        assert rep.strong_upper_ok and rep.weak_upper_ok
        assert not rep.strong_lower_ok

    def test_variant_choice_changes_lower_bound_only(self, analysis):
        a = analysis.bounds("all_pairs")[1]
        b = analysis.bounds("exists_ordering")[1]
        assert (a.strong_count, a.weak_count) == (b.strong_count, b.weak_count)


class TestCliqueReading:
    @pytest.mark.parametrize("index,terms", [
        (1, (4, 4, 0)),   # zero-free: 12 pairs, 9 vertices, all coherent
        (4, (0, 0, 3)),   # zero hubs 1, 3, 5 sit on the triangles
        (7, (4, 0, 0)),   # no coherent pair in the top eigenspace
    ])
    def test_fixture_terms(self, analysis, index, terms):
        rep = analysis.bounds("clique")[index - 1]
        assert (rep.l_prime, rep.l_plus, rep.fiedler_size) == terms
        # both coherence rules agree on pairs
        assert rep.l_plus_exists_ordering == rep.l_plus
        assert rep.strong_lower_ok

    def test_top_cluster_bound(self, analysis):
        rep = analysis.bounds("clique")[6]
        assert (rep.strong_count, rep.strong_lower_bound) == (6, 5)
        assert analysis.bounds()[6].strong_lower_bound == 8

    def test_expansion_keeps_adjacency(self, fixture):
        g = clique_expansion(fixture)
        assert all(e.size == 2 for e in g.edges)
        assert g.m == sum(e.size * (e.size - 1) // 2 for e in fixture.edges)
        assert np.array_equal(adjacency(g), adjacency(fixture))

    def test_zero_inside_triple_is_fiedler(self):
        # 2 is tree-like as a hypergraph vertex but lies on the triangle
        # 1-2-3 of the expansion
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        f = vf(1, 0, 1)
        assert not fiedler_sets(h, f).fiedler
        g = clique_expansion(h)
        assert fiedler_sets(g, f).fiedler == {2}
        assert (support_cyclomatic(g, f).l, l_plus(g, f)[0].l) == (0, 0)

    def test_parallel_pairs_kept(self):
        g = clique_expansion(h_of(2, pair_edge(1, 2, 1), pair_edge(1, 2, 1)))
        assert g.m == 2
        assert (support_cyclomatic(g, vf(1, 1)).l, l_plus(g, vf(1, 1))[0].l) == (1, 1)
        assert fiedler_sets(g, vf(1, 0)).fiedler == {2}

    def test_bridge_zero_with_nonzero_neighbor_is_not_fiedler(self):
        g = clique_expansion(h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1)))
        assert fiedler_sets(g, vf(1, 0, 1)).fiedler == frozenset()

    @pytest.mark.parametrize("cfg", [
        GenConfig(classical=True, seed=83, count=15),
        GenConfig(edge_size_range=(2, 2), seed=89, count=15),
    ], ids=["classical", "mixed-sign"])
    def test_equals_all_pairs_on_graphs(self, cfg):
        for h in generate(cfg):
            analysis = Analysis(h)
            for a, b in zip(analysis.bounds(), analysis.bounds("clique"), strict=True):
                assert (b.l_prime, b.l_plus, b.fiedler_size, b.strong_lower_bound) == (
                    a.l_prime, a.l_plus, a.fiedler_size, a.strong_lower_bound)


class TestDomainGraph:
    def test_fixture_f3_connected(self, fixture, printed):
        g = domain_adjacency_graph(fixture, decompose(fixture, printed[2]))
        assert g.n_nodes == 2 and g.is_connected()

    def test_disconnected_instance(self):
        h = h_of(4, pair_edge(1, 2, 1), pair_edge(3, 4, 1))
        g = domain_adjacency_graph(h, decompose(h, vf(1, 1, 1, 1)))
        assert g.n_nodes == 2 and not g.is_connected()

    def test_single_domain_trivially_connected(self, fixture, printed):
        g = domain_adjacency_graph(fixture, decompose(fixture, printed[0]))
        assert g.n_nodes == 1 and g.is_connected()


def forest_count_diagnostic(h, f):
    """Compare the forest-deficiency formula with the strong-domain count.

    Takes the whole edges lying inside the support with every pair
    coherent, an exact maximum spanning hyperforest T of them, and
    evaluates |support| - sum over T of (|e|-1).  Returns (formula value,
    strong count, agree).  The two can genuinely differ when no
    hyperforest realizes the full component rank.
    """
    selected = tuple(
        e for e in h.edges
        if e.size and all(f.sign(v) for v in e.vertices)
        and all(f.sign(x) * edge_sign(e) * f.sign(y) > 0
                for x, y in itertools.combinations(e.vertices, 2)))
    sub = SignedHypergraph(h.n, selected)
    forest = spanning_hyperforest(sub, exact=True)
    formula_value = len(f.support()) - sum(sub.edges[i].size - 1 for i in forest)
    component_value = len(strong_domains(h, f))
    return formula_value, component_value, formula_value == component_value


class TestForestDiagnostic:
    def test_fixture_values(self, fixture, printed):
        # formula and component count genuinely disagree on this instance
        assert forest_count_diagnostic(fixture, printed[6]) == (9, 6, False)
        assert forest_count_diagnostic(fixture, printed[0]) == (2, 1, False)

    def test_agrees_on_classical_path(self):
        h = h_of(3, pair_edge(1, 2, -1), pair_edge(2, 3, -1))
        assert forest_count_diagnostic(h, vf(1, -1, 1)) == (1, 1, True)


signed_values = st.lists(
    st.sampled_from((-2.0, -1.0, 0.0, 1.0, 2.0)), min_size=9, max_size=9)


class TestScalingInvariance:
    @given(signed_values, st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_preserves_domains(self, values, scale):
        h = fixture_example1()
        f = VertexFunction.from_values(values)
        g = VertexFunction.from_values([scale * x for x in values])
        assert as_sets(strong_domains(h, f)) == as_sets(strong_domains(h, g))
        assert as_sets(weak_domains(h, f)[0]) == as_sets(weak_domains(h, g)[0])


@st.composite
def zero_heavy_instances(draw, max_n, max_m):
    """(h, f): edges of size 1..4 with random signs, 0-80 % zeros, and
    some zero pairs carried by two parallel pairs of opposite sign, each
    end maybe attached to a nonzero."""
    n = draw(st.integers(1, max_n))
    n_zeros = draw(st.integers(0, (4 * n) // 5))
    zeros = draw(st.permutations(range(1, n + 1)))[:n_zeros]
    values = [0.0 if v in zeros else draw(st.sampled_from((-2.0, -1.0, 1.0, 2.0)))
              for v in range(1, n + 1)]
    edges = []
    n_parallel = draw(st.integers(0, 2)) if n_zeros >= 2 else 0
    for _ in range(n_parallel):
        a, b = draw(st.permutations(zeros))[:2]
        edges += [pair_edge(a, b, 1), pair_edge(a, b, -1)]
        for z in (a, b):
            if n_zeros < n and draw(st.booleans()):
                u = draw(st.sampled_from([v for v in range(1, n + 1) if v not in zeros]))
                edges.append(pair_edge(u, z, draw(st.sampled_from((1, -1)))))
    for _ in range(draw(st.integers(0, max_m - len(edges)))):
        if edges and draw(st.integers(0, 9)) == 0:
            edges.append(draw(st.sampled_from(edges)))
            continue
        size = draw(st.integers(1, min(4, n)))
        vs = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        edges.append(tuple((v, draw(st.sampled_from((1, -1)))) for v in vs))
    order = draw(st.permutations(range(len(edges))))
    return h_of(n, *(edges[i] for i in order)), VertexFunction.from_values(values)


class TestOnePassAgainstReferences:
    @given(zero_heavy_instances(max_n=7, max_m=9))
    @settings(max_examples=400, deadline=None)
    def test_decompose_matches_oracle(self, case):
        h, f = case
        dec = decompose(h, f)
        assert (dec.strong, dec.weak_cores, dec.weak_closures) == oracle_domains(h, f)

    @given(zero_heavy_instances(max_n=40, max_m=50))
    @settings(max_examples=100, deadline=None)
    def test_fiedler_sets_match_per_zero_definition(self, case):
        h, f = case
        zeros = [v for v in h.vertex_range() if f.sign(v) == 0]
        fiedler = {v for v in zeros
                   if all(f.sign(w) == 0 for w in hyperneighbors(h, v)) or not is_tree_like(h, v)}
        fs = fiedler_sets(h, f)
        assert fs.fiedler == fiedler and fs.other_zeros == set(zeros) - fiedler


LONG = 5000


class TestLongZeroPaths:
    """Zero paths far deeper than the interpreter's recursion limit."""

    @pytest.mark.parametrize("end, flip", [(1, False), (-1, False), (1, True), (-1, True)])
    def test_zero_chain_links_ends_by_parity(self, end, flip):
        pairs = [pair_edge(v, v + 1, -1 if flip and v == LONG // 2 else 1) for v in range(1, LONG)]
        f = VertexFunction.from_values([1.0] + [0.0] * (LONG - 2) + [float(end)])
        h = h_of(LONG, *pairs)
        linked = end * (-1 if flip else 1) > 0
        cores = decompose(h, f).weak_cores
        assert cores == (({1, LONG},) if linked else ({1}, {LONG}))
        fs = fiedler_sets(h, f)
        assert fs.other_zeros == {2, LONG - 1}
        assert fs.fiedler == set(range(3, LONG - 1))

    @pytest.mark.parametrize("end, unbalanced", [(1, False), (-1, False), (1, True), (-1, True)])
    def test_zero_cycle_links_by_balance(self, end, unbalanced):
        # zeros 2..LONG-1 on a cycle, nonzero pendants 1 and LONG opposite each other
        ring = list(range(2, LONG))
        pairs = [pair_edge(a, b, 1) for a, b in zip(ring, ring[1:])]
        pairs.append(pair_edge(ring[-1], ring[0], -1 if unbalanced else 1))
        pairs += [pair_edge(1, ring[0], 1), pair_edge(LONG, ring[len(ring) // 2], 1)]
        f = VertexFunction.from_values([1.0] + [0.0] * (LONG - 2) + [float(end)])
        h = h_of(LONG, *pairs)
        linked = unbalanced or end > 0
        cores = decompose(h, f).weak_cores
        assert cores == (({1, LONG},) if linked else ({1}, {LONG}))
        fs = fiedler_sets(h, f)
        assert fs.fiedler == set(ring) and not fs.other_zeros


def _coherent_by_orderings(e, sign, variant):
    """Coherence read off its definition: every pair (all_pairs) or the
    consecutive pairs of some vertex ordering (exists_ordering) respect
    the edge sign."""
    s = edge_sign(e)
    ok = lambda x, y: sign[x] * s * sign[y] > 0
    if variant == "all_pairs":
        return all(ok(x, y) for x, y in itertools.combinations(e.vertices, 2))
    return any(all(ok(x, y) for x, y in zip(p, p[1:]))
               for p in itertools.permutations(e.vertices))


class TestBoundsTable:
    @given(zero_heavy_instances(max_n=9, max_m=12), st.sampled_from(("all_pairs", "exists_ordering")))
    @settings(max_examples=150, deadline=None)
    def test_l_plus_is_cyclomatic_of_coherent_edges(self, case, variant):
        h, f = case
        sign = [0] + [f.sign(v) for v in h.vertex_range()]
        coherent = tuple(e for e in h.edges
                         if all(sign[v] for v in e.vertices) and _coherent_by_orderings(e, sign, variant))
        both = dict(zip(("all_pairs", "exists_ordering"), l_plus(h, f)))
        assert both[variant] == cyclomatic(SignedHypergraph(h.n, coherent))

    @pytest.mark.parametrize("variant", ["all_pairs", "exists_ordering", "clique"])
    def test_table_equals_per_row_terms(self, variant):
        cases = [fixture_example1()]
        cases += list(generate(GenConfig(classical=True, seed=5, count=6)))
        cases += list(generate(GenConfig(seed=8, count=6)))
        for h in cases:
            analysis = Analysis(h)
            s = analysis.spectrum
            assert s == eigendecompose(laplacian(h))
            g = clique_expansion(h) if variant == "clique" else h
            cyc = cyclomatic(h)
            for i, (rep, f) in enumerate(zip(analysis.bounds(variant), s.functions, strict=True), 1):
                # every term recomputed for this row alone, l' on the
                # induced support as defined, whether or not f has zeros
                dec = decompose(h, f)
                k, r = s.cluster_of(i)
                lp_all, lp_exists = l_plus(g, f)
                l_prime = support_cyclomatic(g, f).l
                fied = len(fiedler_sets(g, f).fiedler)
                lower = k + r - 1 - l_prime - fied + (
                    lp_exists if variant == "exists_ordering" else lp_all).l
                assert rep == BoundReport(
                    i, k, r, cyc.n_components, cyc.l, lp_all.l, lp_exists.l, l_prime, fied,
                    dec.strong_count, dec.weak_count, lower,
                    dec.strong_count <= k + r - 1,
                    dec.weak_count <= k + cyc.n_components - 1,
                    dec.strong_count >= lower)

    def test_zero_free_decompose_skips_weak_pass(self, fixture, monkeypatch):
        import shg.nodal as nodal
        f = vf(1, 2, -1, 1, -2, 1, 1, -1, 2)
        cores, closures = weak_domains(fixture, f)

        def must_not_run(*args):
            raise AssertionError("weak_domains ran on a zero-free function")

        monkeypatch.setattr(nodal, "weak_domains", must_not_run)
        dec = decompose(fixture, f)
        assert dec.strong == dec.weak_cores == cores
        assert dec.weak_closures == closures

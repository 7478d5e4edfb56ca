"""Nodal domains: strong/weak decompositions, zero handling, count bounds."""

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.core import (
    CycleStats,
    Edge,
    SignedHypergraph,
    UnionFind,
    connected_components,
    cyclic_vertices,
    cyclomatic,
    hyperneighbors,
    lowlink,
    weak_delete,
)
from shg.cli import _matrix_graph, main
from shg.fixtures import (
    DISCREPANCY_NOTES,
    PRINTED_EIGENFUNCTIONS,
    TABLE1_STRONG,
    TABLE1_WEAK,
    fixture_example1,
)
from shg.nodal import (
    BOUND_VARIANTS,
    Analysis,
    FiedlerSets,
    _components,
    _row_pass,
    BoundReport,
    decompose,
    domain_graph_connected,
    fiedler_sets,
    weak_domains,
)
from shg.spectra import VertexFunction, adjacency, eigendecompose, laplacian, sign_matrix
import shg.verify as verify
from shg.verify import ORACLE_MAX_N, GenConfig, generate, oracle_domains

from references import (
    adjacency_int,
    clique_expansion,
    exhaustive_forest,
    pairs,
    path_family,
    random_tree,
    reference_blocks,
    reference_decomposition,
    reference_edge_sign,
    reference_is_tree_like,
    reference_row_pass,
    sunflower,
    support_cyclomatic,
    wide_edge_family,
)


def h_of(n, *edge_specs):
    return SignedHypergraph(n, tuple(Edge(tuple(spec)) for spec in edge_specs))


def vf(*values):
    return VertexFunction.from_values(values)


def as_sets(domains):
    return sorted(tuple(sorted(d)) for d in domains)


def weak_pair(h, f):
    """(weak cores, weak closures) of f on h, by ``decompose``."""
    dec = decompose(h, f)
    return dec.weak_cores, dec.weak_closures


def row_pass_of(h, *fs):
    """The row pass over the sign matrix of ``fs`` on h."""
    return _row_pass(h, sign_matrix(fs))


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
        assert len(decompose(h, vf(1, -1)).strong) == 1
        assert len(decompose(h, vf(1, 1)).strong) == 2

    def test_positive_pair_links_equal_signs(self):
        h = h_of(2, pair_edge(1, 2, 1))
        assert len(decompose(h, vf(1, 1)).strong) == 1
        assert len(decompose(h, vf(1, -1)).strong) == 2

    def test_positive_triple_same_sign(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        assert as_sets(decompose(h, vf(1, 1, 1)).strong) == [(1, 2, 3)]
        assert as_sets(decompose(h, vf(1, -1, 1)).strong) == [(1, 3), (2,)]

    def test_zeros_never_join(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        assert as_sets(decompose(h, vf(1, 0, 1)).strong) == [(1, 3)]

    def test_length_mismatch(self, fixture):
        with pytest.raises(ValueError, match="9 vertices"):
            decompose(fixture, vf(1, 2))


class TestStrongDomainsMatrixMode:
    """The raw-matrix mode: the signed 2-graph of a symmetric matrix, then
    ``decompose``, links the pairs with A_xy * f(x) * f(y) > 0."""

    def test_positive_entry_links_same_signs(self):
        g = _matrix_graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert len(decompose(g, vf(1, 1)).strong) == 1
        assert len(decompose(g, vf(1, -1)).strong) == 2

    def test_asymmetric_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="raw matrix must be symmetric"):
            _matrix_graph(a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="must be square"):
            _matrix_graph(np.ones((2, 3)))
        with pytest.raises(ValueError, match="3 vertices"):
            decompose(_matrix_graph(np.eye(3)), vf(1, 1))

    def test_matches_hypergraph_on_fixture(self, fixture, printed):
        g = _matrix_graph(adjacency(fixture))
        for f in printed:
            assert as_sets(decompose(g, f).strong) == as_sets(decompose(fixture, f).strong)


class TestWeakDomains:
    def test_zero_mediated_link(self):
        # 1 - 2(zero) - 3 with matching sign product joins the nonzeros
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1))
        cores, closures = weak_pair(h, vf(1, 0, 1))
        assert as_sets(cores) == [(1, 3)]
        assert as_sets(closures) == [(1, 2, 3)]

    def test_sign_product_must_match(self):
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, -1))
        cores, closures = weak_pair(h, vf(1, 0, 1))
        assert as_sets(cores) == [(1,), (3,)]
        # the shared zero joins both closures
        assert as_sets(closures) == [(1, 2), (2, 3)]

    def test_all_zero_function(self):
        h = h_of(2, pair_edge(1, 2, 1))
        assert weak_pair(h, vf(0, 0)) == ((), ())

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
        cores, closures = weak_pair(h, vf(1, 0, 0, 0, 1))
        assert as_sets(cores) == [(1,), (5,)]
        assert as_sets(closures) == [(1, 2, 3, 4), (2, 3, 4, 5)]
        # flipping one endpoint makes the direct product match
        cores_flip, _ = weak_pair(h, vf(1, 0, 0, 0, -1))
        assert as_sets(cores_flip) == [(1, 5)]

    def test_bridge_above_unbalanced_cycle_keeps_fixed_sign(self):
        # the zero bridge 1-2 is a balanced block of its own, although the
        # odd triangle 2-3-4 below it is not, so 1 and 2 share a region and
        # the one simple path 5-1-2-6 fixes the sign between 5 and 6
        h = h_of(
            6,
            pair_edge(5, 1, 1),
            pair_edge(1, 2, 1),
            pair_edge(2, 6, -1),
            pair_edge(2, 3, 1),
            pair_edge(3, 4, 1),
            pair_edge(4, 2, -1),
        )
        cores, closures = weak_pair(h, vf(0, 0, 0, 0, 1, 1))
        assert as_sets(cores) == [(5,), (6,)]
        assert as_sets(closures) == [(1, 2, 3, 4, 5), (1, 2, 3, 4, 6)]
        cores, _ = weak_pair(h, vf(0, 0, 0, 0, 1, -1))
        assert as_sets(cores) == [(5, 6)]

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
            cores, _ = weak_pair(h, vf(1, 0, 0, 0, end))
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
        cores, _ = weak_pair(h, vf(1, 0, 0, 0, 1))
        assert as_sets(cores) == [(1, 5)]
        cores, _ = weak_pair(h, vf(1, 0, 0, 0, -1))
        assert as_sets(cores) == [(1,), (5,)]

    def test_opposite_parallel_pair_is_unbalanced(self):
        edges = (
            pair_edge(1, 2, 1),
            pair_edge(1, 2, -1),
            pair_edge(2, 3, 1),
        )
        h = h_of(3, *edges)
        for end in (1, -1):
            cores, _ = weak_pair(h, vf(1, 0, end))
            assert as_sets(cores) == [(1, 3)]

    def test_interior_vertices_must_be_zeros(self):
        # 1 - 2 - 3 with 2 nonzero: no weak link between 1 and 3 even
        # though the sign product of the route matches
        h = h_of(3, pair_edge(1, 2, -1), pair_edge(2, 3, -1))
        cores, _ = weak_pair(h, vf(1, 1, 1))
        assert as_sets(cores) == [(1,), (2,), (3,)]

    def test_weak_refines_strong(self):
        h = h_of(3, pair_edge(1, 2, -1), pair_edge(2, 3, -1))
        f = vf(1, 1, 1)
        assert as_sets(weak_pair(h, f)[0]) == as_sets(decompose(h, f).strong)


class TestFixtureTable:
    @pytest.mark.parametrize("row", [1, 2, 3, 7])
    def test_reproduced_strong_rows(self, fixture, printed, row):
        assert as_sets(decompose(fixture, printed[row - 1]).strong) == as_sets(TABLE1_STRONG[row])

    @pytest.mark.parametrize("row", [1, 2, 3, 7])
    def test_reproduced_weak_rows(self, fixture, printed, row):
        # the table assigns each zero to one weak domain; the cores are
        # its sets with the zeros taken out
        dec = decompose(fixture, printed[row - 1])
        support = printed[row - 1].support()
        assert as_sets(dec.weak_cores) == as_sets(set(s).intersection(support) for s in TABLE1_WEAK[row])

    def test_weak_rows_4_to_6_miss_links_through_zero_hubs(self, fixture, printed):
        # the discrepancy note: weak counts 2, 2, 2 where the table prints 4, 4, 3
        got = [decompose(fixture, printed[row - 1]).weak_count for row in (4, 5, 6)]
        assert got == [2, 2, 2]
        assert [len(TABLE1_WEAK[row]) for row in (4, 5, 6)] == [4, 4, 3]
        assert any("weak counts 2, 2, 2 instead of the printed 4, 4, 3" in note
                   for note in DISCREPANCY_NOTES)

    def test_strong_counts(self, fixture, printed):
        got = [len(decompose(fixture, f).strong) for f in printed]
        assert got == [1, 2, 2, 6, 6, 6, 6, 6, 6]

    def test_weak_counts(self, fixture, printed):
        got = [decompose(fixture, f).weak_count for f in printed]
        assert got == [1, 2, 2, 2, 2, 2, 6, 6, 6]

    def test_zero_free_rows_weak_equals_strong(self, fixture, printed):
        for i in (1, 2, 7):
            d = decompose(fixture, printed[i - 1])
            assert as_sets(d.weak_cores) == as_sets(d.strong)

    def test_f3_cores_and_closures(self, fixture, printed):
        cores, closures = weak_pair(fixture, printed[2])
        assert as_sets(cores) == [(1, 6, 7), (3, 4, 9)]
        assert as_sets(closures) == [(1, 2, 5, 6, 7, 8), (2, 3, 4, 5, 8, 9)]

    def test_f3_zero_split(self, fixture, printed):
        fs = fiedler_sets(fixture, printed[2])
        assert sorted(fs.fiedler) == [5, 8]
        assert sorted(fs.other_zeros) == [2]

    def test_f8_negative_pendant_does_not_link_equal_signs(self, fixture, printed):
        # the published table groups 5 and 8 here; the sign rule forbids it
        assert as_sets(decompose(fixture, printed[7]).strong) == [
            (1, 5), (3, 4), (6,), (7,), (8,), (9,)]


class TestFiedlerSets:
    def test_tree_zero_with_nonzero_neighbor_is_other(self):
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1))
        fs = fiedler_sets(h, vf(1, 0, 1))
        assert not fs.fiedler and fs.other_zeros == (2,)

    def test_zero_on_cycle_is_fiedler(self):
        h = h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1), pair_edge(1, 3, 1))
        fs = fiedler_sets(h, vf(1, 0, 1))
        assert fs.fiedler == (2,) and not fs.other_zeros

    def test_zero_surrounded_by_zeros_is_fiedler(self):
        h = h_of(4, pair_edge(1, 2, 1), pair_edge(2, 3, 1), pair_edge(3, 4, 1))
        fs = fiedler_sets(h, vf(1, 0, 0, 0))
        # 3 and 4 see only zeros; 2 has the nonzero neighbor 1
        assert fs.fiedler == (3, 4) and fs.other_zeros == (2,)


def assert_vertex_set(vs):
    """An ascending tuple of Python ints, no vertex twice."""
    assert type(vs) is tuple and all(type(v) is int for v in vs)
    assert all(a < b for a, b in zip(vs, vs[1:]))


def assert_partition(blocks):
    """A tuple of nonempty vertex sets ordered by smallest vertex."""
    assert type(blocks) is tuple
    for block in blocks:
        assert block
        assert_vertex_set(block)
    assert all(a[0] < b[0] for a, b in zip(blocks, blocks[1:]))


class TestVertexSetFormat:
    def test_every_returned_vertex_set_is_an_ascending_int_tuple(self, fixture):
        # a loose zero tolerance gives the eigenfunctions zeros
        for h in [fixture, *generate(GenConfig(seed=2026, count=20))]:
            analysis = Analysis(h, zero_tol_rel=0.2)
            assert_partition(connected_components(h))
            for v in h.vertex_range():
                assert_vertex_set(hyperneighbors(h, v))
            uf = UnionFind(h.n)
            uf.link((e.vertices[0], u) for e in h.edges for u in e.vertices[1:])
            assert_partition(uf.groups(h.vertex_range()))
            for i, f in enumerate(analysis.spectrum.functions):
                assert_vertex_set(f.support())
                # the classes of a member list with gaps
                assert_partition(uf.groups(f.support()))
                for dec in (decompose(h, f), analysis.decompositions[i]):
                    assert_partition(dec.strong)
                    assert_partition(dec.weak_cores)
                    for closure in dec.weak_closures:
                        assert_vertex_set(closure)
                for fs in (fiedler_sets(h, f), *(analysis.terms[v].fiedler[i] for v in BOUND_VARIANTS)):
                    assert_vertex_set(fs.fiedler)
                    assert_vertex_set(fs.other_zeros)


class TestCycleCounts:
    def test_l_plus_keeps_coherent_edges_only(self, fixture, printed):
        # zero-free bottom eigenfunction: all six edges coherent, l = 1
        assert row_pass_of(fixture, printed[0]).terms["all_pairs"].l_plus == (1,)
        assert reference_l_plus(fixture, printed[0]).l == 1

    def test_l_plus_negative_triple_is_never_coherent(self):
        # negative 3-edge with signs (+,-,+): the pair 1, 3 has equal signs
        # on a negative edge, so only the 2-edges can be coherent; of those
        # only {1, 3} (positive, equal signs) is
        h = h_of(3, ((1, 1), (2, 1), (3, -1)), pair_edge(1, 2, 1),
                 pair_edge(2, 3, 1), pair_edge(1, 3, 1))
        assert row_pass_of(h, vf(1, -1, 1)).terms["all_pairs"].l_plus == (0,)
        assert reference_l_plus(h, vf(1, -1, 1)) == CycleStats(1, 3, 2, 0)

    def test_unknown_variant(self, analysis):
        with pytest.raises(ValueError, match="unknown variant"):
            analysis.bounds("median")

    def test_exists_ordering_reading_is_gone(self, analysis):
        with pytest.raises(ValueError, match="unknown variant"):
            analysis.bounds("exists_ordering")

    def test_support_cyclomatic_drops_zero_vertices(self, fixture, printed):
        rows = row_pass_of(fixture, printed[0], printed[6], printed[3])
        assert rows.terms["all_pairs"].l_prime == (1, 1, 0)
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
        b = analysis.bounds("clique")[1]
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
        assert fiedler_sets(g, f).fiedler == (2,)
        assert (support_cyclomatic(g, f).l, reference_l_plus(g, f).l) == (0, 0)
        terms = row_pass_of(h, f).terms["clique"]
        assert (terms.fiedler[0].fiedler, terms.l_prime, terms.l_plus) == ((2,), (0,), (0,))

    def test_parallel_pairs_kept(self):
        g = clique_expansion(h_of(2, pair_edge(1, 2, 1), pair_edge(1, 2, 1)))
        assert g.m == 2
        assert (support_cyclomatic(g, vf(1, 1)).l, reference_l_plus(g, vf(1, 1)).l) == (1, 1)
        assert fiedler_sets(g, vf(1, 0)).fiedler == (2,)

    def test_bridge_zero_with_nonzero_neighbor_is_not_fiedler(self):
        g = clique_expansion(h_of(3, pair_edge(1, 2, 1), pair_edge(2, 3, 1)))
        assert fiedler_sets(g, vf(1, 0, 1)).fiedler == ()

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
        dec = decompose(fixture, printed[2])
        assert dec.weak_count == 2 and domain_graph_connected(fixture, dec)

    def test_disconnected_instance(self):
        h = h_of(4, pair_edge(1, 2, 1), pair_edge(3, 4, 1))
        dec = decompose(h, vf(1, 1, 1, 1))
        assert dec.weak_count == 2 and not domain_graph_connected(h, dec)

    def test_single_domain_trivially_connected(self, fixture, printed):
        dec = decompose(fixture, printed[0])
        assert dec.weak_count == 1 and domain_graph_connected(fixture, dec)


def forest_count_diagnostic(h, f):
    """Compare the forest-deficiency formula with the strong-domain count.

    Takes the whole edges lying inside the support with every pair
    coherent, a maximum spanning hyperforest T of them, and
    evaluates |support| - sum over T of (|e|-1).  Returns (formula value,
    strong count, agree).  The two can genuinely differ when no
    hyperforest realizes the full component rank.
    """
    selected = tuple(
        e for e in h.edges
        if e.size and all(f.sign(v) for v in e.vertices)
        and all(f.sign(x) * reference_edge_sign(e) * f.sign(y) > 0
                for x, y in itertools.combinations(e.vertices, 2)))
    sub = SignedHypergraph(h.n, selected)
    forest = exhaustive_forest(sub)
    formula_value = len(f.support()) - sum(sub.edges[i].size - 1 for i in forest)
    component_value = len(decompose(h, f).strong)
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
        assert as_sets(decompose(h, f).strong) == as_sets(decompose(h, g).strong)
        assert as_sets(weak_pair(h, f)[0]) == as_sets(weak_pair(h, g)[0])


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
        assert (dec.strong, dec.weak_cores, dec.weak_closures) == oracle_domains(h, f) \
            == reference_decomposition(h, f)

    @given(zero_heavy_instances(max_n=40, max_m=50))
    @settings(max_examples=100, deadline=None)
    def test_fiedler_sets_match_per_zero_definition(self, case):
        h, f = case
        zeros = [v for v in h.vertex_range() if f.sign(v) == 0]
        c = cyclomatic(h).n_components
        fiedler = tuple(v for v in zeros
                        if all(f.sign(w) == 0 for w in hyperneighbors(h, v))
                        or not reference_is_tree_like(h, v, c))
        fs = fiedler_sets(h, f)
        assert fs.fiedler == fiedler and fs.other_zeros == tuple(v for v in zeros if v not in fiedler)


LONG = 5000


class TestLongZeroPaths:
    """Zero paths far deeper than the interpreter's recursion limit."""

    @pytest.mark.parametrize("end, flip", [(1, False), (-1, False), (1, True), (-1, True)])
    def test_zero_chain_links_ends_by_parity(self, end, flip):
        chain = [pair_edge(v, v + 1, -1 if flip and v == LONG // 2 else 1) for v in range(1, LONG)]
        f = VertexFunction.from_values([1.0] + [0.0] * (LONG - 2) + [float(end)])
        h = h_of(LONG, *chain)
        linked = end * (-1 if flip else 1) > 0
        cores = decompose(h, f).weak_cores
        assert cores == (((1, LONG),) if linked else ((1,), (LONG,)))
        fs = fiedler_sets(h, f)
        assert fs.other_zeros == (2, LONG - 1)
        assert fs.fiedler == tuple(range(3, LONG - 1))

    @pytest.mark.parametrize("end, unbalanced", [(1, False), (-1, False), (1, True), (-1, True)])
    def test_zero_cycle_links_by_balance(self, end, unbalanced):
        # zeros 2..LONG-1 on a cycle, nonzero pendants 1 and LONG opposite each other
        ring = list(range(2, LONG))
        chain = [pair_edge(a, b, 1) for a, b in zip(ring, ring[1:])]
        chain.append(pair_edge(ring[-1], ring[0], -1 if unbalanced else 1))
        chain += [pair_edge(1, ring[0], 1), pair_edge(LONG, ring[len(ring) // 2], 1)]
        f = VertexFunction.from_values([1.0] + [0.0] * (LONG - 2) + [float(end)])
        h = h_of(LONG, *chain)
        linked = unbalanced or end > 0
        cores = decompose(h, f).weak_cores
        assert cores == (((1, LONG),) if linked else ((1,), (LONG,)))
        fs = fiedler_sets(h, f)
        assert fs.fiedler == tuple(ring) and not fs.other_zeros


def _coherent_by_pairs(e, sign):
    """Coherence read off its definition: every vertex pair respects the
    edge sign."""
    s = reference_edge_sign(e)
    return all(sign[x] * s * sign[y] > 0 for x, y in itertools.combinations(e.vertices, 2))


def _assert_table_equals_per_row_terms(analysis, variant):
    """Every row of ``analysis.bounds(variant)`` against its terms
    recomputed for that row alone by the one-function APIs, on h or on
    the clique expansion built as a graph, l' on the induced support as
    defined, whether or not the function has zeros."""
    h, s = analysis.h, analysis.spectrum
    g = clique_expansion(h) if variant == "clique" else h
    cyc = cyclomatic(h)
    clusters = [(k, r) for k, r in s.clusters for _ in range(r)]
    rows = zip(analysis.bounds(variant), s.functions, clusters, strict=True)
    for i, (rep, f, (k, r)) in enumerate(rows, 1):
        dec = decompose(h, f)
        lp = reference_l_plus(g, f).l
        l_prime = support_cyclomatic(g, f).l
        fied = len(fiedler_sets(g, f).fiedler)
        lower = k + r - 1 - l_prime + lp - fied
        assert rep == BoundReport(
            i, k, r, cyc.n_components, cyc.l, lp, l_prime, fied,
            dec.strong_count, dec.weak_count, lower,
            dec.strong_count <= k + r - 1,
            dec.weak_count <= k + cyc.n_components - 1,
            dec.strong_count >= lower)


class TestBoundsTable:
    @given(zero_heavy_instances(max_n=9, max_m=12))
    @settings(max_examples=150, deadline=None)
    def test_l_plus_is_cyclomatic_of_coherent_edges(self, case):
        h, f = case
        sign = [0] + [f.sign(v) for v in h.vertex_range()]
        coherent = tuple(e for e in h.edges
                         if all(sign[v] for v in e.vertices) and _coherent_by_pairs(e, sign))
        expected = cyclomatic(SignedHypergraph(h.n, coherent))
        assert row_pass_of(h, f).terms["all_pairs"].l_plus == (expected.l,)
        assert reference_l_plus(h, f) == expected

    @pytest.mark.parametrize("variant", ["all_pairs", "clique"])
    def test_table_equals_per_row_terms(self, variant):
        cases = [fixture_example1()]
        cases += list(generate(GenConfig(classical=True, seed=5, count=6)))
        cases += list(generate(GenConfig(seed=8, count=6)))
        for h in cases:
            analysis = Analysis(h)
            assert analysis.spectrum == eigendecompose(laplacian(h))
            _assert_table_equals_per_row_terms(analysis, variant)

    def test_clique_table_on_zero_heavy_functions(self):
        # loose zero tolerances give the eigenfunctions many zeros; the
        # instances have edges of size 1 and parallel pairs of opposite sign
        with_zeros = size_one = opposite = 0
        for h in generate(GenConfig(n_range=(3, 10), m_range=(2, 12), edge_size_range=(1, 4),
                                    seed=17, count=25)):
            size_one += any(e.size == 1 for e in h.edges)
            signs_of = {}
            for x, y, s in pairs(h):
                signs_of.setdefault((min(x, y), max(x, y)), set()).add(s)
            opposite += any(len(v) == 2 for v in signs_of.values())
            for tol in (0.2, 0.5):
                analysis = Analysis(h, zero_tol_rel=tol)
                with_zeros += int((analysis.signs[:, 1:] == 0).any(axis=1).sum())
                _assert_table_equals_per_row_terms(analysis, "clique")
        assert with_zeros > 50 and size_one and opposite

    def test_zero_free_decompose_skips_weak_pass(self, fixture, monkeypatch):
        import shg.nodal as nodal
        f = vf(1, 2, -1, 1, -2, 1, 1, -1, 2)
        cores, closures = reference_weak_domains(fixture, f)

        def must_not_run(*args):
            raise AssertionError("the weak pass ran on a zero-free function")

        monkeypatch.setattr(nodal, "_weak", must_not_run)
        dec = decompose(fixture, f)
        assert dec.strong == dec.weak_cores == cores
        assert dec.weak_closures == closures
        with pytest.raises(AssertionError, match="weak pass ran"):
            decompose(fixture, vf(1, 0, -1, 1, -2, 1, 1, -1, 2))


def reference_edge_coherent(e_sign, signs):
    """Closed-form coherence of an edge whose vertices are all nonzero:
    the per-edge rule the batched pass replaced, kept as its reference."""
    if len(signs) <= 1:
        return True
    if e_sign > 0:
        return len(set(signs)) == 1
    return sorted(signs) == [-1, 1]


def closure_classes(n, links, members):
    """Classes of ``members`` under ``links`` on vertices 1..n, by
    breadth-first closure, ordered by smallest member; every linked vertex
    must be a member.  The references' own grouping, apart from
    ``core.UnionFind``."""
    adj = {v: set() for v in range(1, n + 1)}
    for x, y in links:
        adj[x].add(y)
        adj[y].add(x)
    seen, out = set(), []
    for v in members:
        if v not in seen:
            block, todo = {v}, [v]
            while todo:
                for w in adj[todo.pop()] - block:
                    block.add(w)
                    todo.append(w)
            seen |= block
            out.append(frozenset(block))
    return tuple(out)


def reference_l_plus(h, f):
    """l_plus of one function by one closure over its coherent edges,
    edge by edge."""
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    links = []
    total = 0
    for e in h.edges:
        vs = e.vertices
        signs = [sign[v] for v in vs]
        if 0 not in signs and reference_edge_coherent(reference_edge_sign(e), signs):
            total += max(len(vs) - 1, 0)
            links.extend((vs[0], u) for u in vs[1:])
    c = len(closure_classes(h.n, links, h.vertex_range()))
    return CycleStats(total, h.n, c, total - h.n + c)


def as_domains(classes):
    """Vertex sets as ``NodalDecomposition`` holds them: each an ascending
    tuple, in the given order."""
    return tuple(tuple(sorted(c)) for c in classes)


def reference_strong(h, f):
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    links = [(x, y) for x, y, s in pairs(h) if sign[x] * s * sign[y] > 0]
    return as_domains(closure_classes(h.n, links, [v for v in h.vertex_range() if sign[v] != 0]))


@st.composite
def batched_cases(draw):
    """(h, functions): n <= 9, edges of size 1..5 with random signs, some
    repeated, and 1..5 functions whose entries include exact zeros and
    values inside the zero tolerance."""
    n = draw(st.integers(1, 9))
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        if edges and draw(st.integers(0, 4)) == 0:
            edges.append(draw(st.sampled_from(edges)))
            continue
        size = draw(st.integers(1, min(5, n)))
        vs = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        edges.append(tuple((v, draw(st.sampled_from((1, -1)))) for v in vs))
    values = st.sampled_from((-2.0, -1.0, -1e-9, 0.0, 0.0, 1e-9, 0.5, 1.0))
    fs = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=5))
    return h_of(n, *edges), tuple(VertexFunction.from_values(v) for v in fs)


@st.composite
def split_instances(draw):
    """(h, functions): 1..3 components on disjoint vertex ranges, edges
    of size 1..4 with random signs, some repeated, vertices in no edge,
    and one function each at 20, 50 and 80 % zeros."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    n = sum(sizes) + draw(st.integers(0, 2))
    edges = []
    start = 1
    for size in sizes:
        part = range(start, start + size)
        start += size
        for _ in range(draw(st.integers(0, 2 * size))):
            if edges and draw(st.integers(0, 5)) == 0:
                edges.append(draw(st.sampled_from(edges)))
                continue
            k = draw(st.integers(1, min(4, size)))
            vs = draw(st.lists(st.sampled_from(part), min_size=k, max_size=k, unique=True))
            edges.append(tuple((v, draw(st.sampled_from((1, -1)))) for v in vs))
    order = draw(st.permutations(range(len(edges))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fs = tuple(VertexFunction.from_values(
        [0.0 if rng.random() < p else rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
         for _ in range(n)]) for p in (0.2, 0.5, 0.8))
    return h_of(n, *(edges[i] for i in order)), fs


def check_row_pass(h, fs):
    """``_row_pass`` of every function of ``fs`` on h against the
    one-function references: attachments, the strong domains of the rows
    without one (``Analysis`` decomposes the others again, and their
    count enters the clique l_plus), and the terms of both readings on h
    and on its clique expansion."""
    rows = row_pass_of(h, *fs)
    assert rows.attached == [any((f.sign(x) == 0) != (f.sign(y) == 0) for x, y, _ in pairs(h))
                             for f in fs]
    assert [strong for strong, a in zip(rows.strong, rows.attached) if not a] == \
        [reference_strong(h, f) for f, a in zip(fs, rows.attached) if not a]
    for variant, g in zip(BOUND_VARIANTS, (h, clique_expansion(h))):
        terms = rows.terms[variant]
        assert terms.fiedler == tuple(reference_fiedler_sets(g, f) for f in fs)
        assert terms.l_plus == tuple(reference_l_plus(g, f).l for f in fs)
        assert terms.l_prime == tuple(support_cyclomatic(g, f).l for f in fs)


class TestBatchedPasses:
    @given(batched_cases())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_per_function_reference(self, case):
        # on h, on its clique expansion and on a weak deletion (which drops
        # the size-1 edges it empties), an all-zero and a zero-free row
        # riding along with the drawn ones
        h, fs = case
        fs += (vf(*[0.0] * h.n), vf(*[1.0] * h.n))
        signs = sign_matrix(fs)
        assert signs.tolist() == [[0] + [f.sign(v) for v in h.vertex_range()] for f in fs]
        expansion = clique_expansion(h)
        check_row_pass(h, fs)
        check_row_pass(expansion, fs)
        check_row_pass(weak_delete(h, 1), tuple(vf(*f.values[1:]) for f in fs))
        for g in (h, expansion):
            assert [decompose(g, f).strong for f in fs] == [reference_strong(g, f) for f in fs]

    @pytest.mark.parametrize("values", [(0.0, 0.0, 0.0, 0.0), (1.0, -1.0, 2.0, 1.0),
                                        (1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 1.0, 0.0)])
    def test_size_one_and_empty_edges(self, values):
        # deleting vertex 1 drops the two edges it empties, a size-1 edge
        # and its opposite-sign twin, and leaves two size-1 edges, one left
        # of a pair
        h = weak_delete(h_of(5, ((1, 1),), ((1, -1),), ((1, 1), (2, 1)), ((2, 1), (3, -1), (4, 1)),
                             ((4, -1),), ((3, 1), (5, 1))), 1)
        assert h.m == 4 and sum(e.size == 1 for e in h.edges) == 2
        check_row_pass(h, (vf(*values),))

    @given(split_instances())
    @settings(max_examples=200, deadline=None)
    def test_l_prime_matches_support_cyclomatic(self, case):
        # 1..3 components at 20, 50 and 80 % zeros: l' on both graphs
        # from one labelling of h's nonzero pairs
        h, fs = case
        rows = _row_pass(h, sign_matrix(fs))
        for variant, g in zip(BOUND_VARIANTS, (h, clique_expansion(h))):
            assert rows.terms[variant].l_prime == tuple(support_cyclomatic(g, f).l for f in fs)


@pytest.mark.parametrize("n", [64, 512])
def test_path_strong_count_is_the_index(n):
    # Fiedler (1975): the eigenfunction of index k on a path has k strong
    # domains, the upper bound k + r - 1 met with r = 1
    rows = Analysis(path_family(n)[0]).bounds()
    assert [(rep.strong_count, rep.r) for rep in rows] == [(k, 1) for k in range(1, n + 1)]


@pytest.mark.parametrize("n", [64, 256])
def test_random_tree_strong_count_is_the_index(n):
    # Fiedler (1975): on a tree, an eigenfunction of a simple eigenvalue
    # with index k and no zero has k strong domains
    rows = 0
    for seed in range(3):
        analysis = Analysis(random_tree(n, seed))
        zero_free = (analysis.signs[:, 1:] != 0).all(axis=1)
        for rep in itertools.compress(analysis.bounds(), zero_free):
            if rep.r == 1:
                assert rep.strong_count == rep.k
                rows += 1
    assert rows > n


class TestZeroRule:
    def test_sign_support_and_sign_matrix_agree_at_the_tolerance(self):
        # |f(v)| <= tolerance is a zero in both forms of the rule and in
        # the two readers of the one-function form: values at exactly
        # +-tol, one float step above and below it, and exact zeros; then
        # an all-zero function at tolerance 0
        fs, expected = [], []
        for tol in (0.25, 3.7e-9, 5e-324):
            above, below = math.nextafter(tol, math.inf), math.nextafter(tol, 0.0)
            fs.append(VertexFunction((tol, -tol, above, -above, below, -below, 0.0, -0.0, 1.0), tol))
            expected.append([0, 0, 0, 1, -1, 0, 0, 0, 0, 1])
        fs.append(VertexFunction.from_values([0.0] * 9))
        expected.append([0] * 10)
        assert fs[-1].zero_tolerance == 0.0
        assert sign_matrix(fs).tolist() == expected
        for f, row in zip(fs, expected):
            assert f.signs == tuple(row)
            assert [f.sign(v) for v in range(1, 10)] == row[1:]
            assert f.support() == tuple(v for v in range(1, 10) if row[v])

    def test_decompose_and_fiedler_sets_decide_the_signs_once(self):
        # the values of one function are read in one pass, which both
        # calls share, however many vertices they ask about
        reads = []

        class Values(tuple):
            def __iter__(self):
                reads.append("pass")
                return super().__iter__()

            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        h = h_of(3, ((1, 1), (2, -1)), ((2, 1), (3, 1)))
        f = VertexFunction(Values((0.0, 1.0, -2.0)), 0.0)
        dec, fs = decompose(h, f), fiedler_sets(h, f)
        assert reads == ["pass"]
        assert f.signs is f.signs
        g = vf(0.0, 1.0, -2.0)
        assert (dec, fs) == (decompose(h, g), fiedler_sets(h, g))
        assert dec.weak_closures == ((1, 2, 3),) and fs == FiedlerSets((), (1,))


def component_labels(n_nodes, links):
    """The smallest node of each node's component, by ``closure_classes``
    on nodes shifted to 1..n_nodes."""
    out = list(range(n_nodes))
    for block in closure_classes(n_nodes, [(x + 1, y + 1) for x, y in links], range(1, n_nodes + 1)):
        for v in block:
            out[v - 1] = min(block) - 1
    return out


@st.composite
def link_lists(draw):
    """(n_nodes, links): up to 14 nodes, none at all included, with
    loops, parallel links and isolated nodes."""
    n = draw(st.integers(0, 14))
    if not n:
        return 0, []
    links = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=25))
    if links:
        links += draw(st.lists(st.sampled_from(links), max_size=5))
    return n, links


def as_arrays(links):
    return tuple(np.array(col, dtype=np.intp) for col in zip(*links)) if links else (
        np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


class TestComponentKernel:
    @given(link_lists())
    @settings(max_examples=300, deadline=None)
    def test_matches_closure_classes(self, case):
        n, links = case
        assert _components(n, *as_arrays(links)).tolist() == component_labels(n, links)

    def test_no_links_and_no_nodes(self):
        empty = as_arrays([])
        assert _components(0, *empty).tolist() == []
        assert _components(4, *empty).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("n", [0, 3])
    def test_zero_rows(self, n):
        h = h_of(n, *([((1, 1), (2, 1), (3, -1))] if n else []))
        rows = _row_pass(h, np.zeros((0, n + 1), dtype=np.int8))
        assert rows.strong == [] and rows.attached == []
        assert all((terms.fiedler, terms.l_plus, terms.l_prime) == ((), (), ())
                   for terms in rows.terms.values())

    def test_empty_hypergraph_rows(self):
        rows = _row_pass(h_of(0), sign_matrix((vf(),)))
        assert rows.strong == [()] and rows.attached == [False]
        empty = FiedlerSets((), ())
        assert all((terms.fiedler, terms.l_plus, terms.l_prime) == ((empty,), (0,), (0,))
                   for terms in rows.terms.values())


class TestChunking:
    @staticmethod
    def _outputs(h):
        # every batched result of one instance at a loose zero tolerance,
        # the terms of both readings included, with the sandwich details
        # of an inertia that always fails
        analysis = Analysis(h, zero_tol_rel=0.2)
        return (analysis.decompositions,
                [analysis.bounds(v) for v in BOUND_VARIANTS],
                analysis.terms,
                verify._p_sandwich(analysis, random.Random(0)))

    @pytest.fixture
    def instances(self):
        return list(generate(GenConfig(n_range=(6, 14), m_range=(6, 16), seed=31, count=12)))

    @pytest.fixture
    def failing_inertia(self, monkeypatch):
        monkeypatch.setattr(verify, "positive_inertia", lambda s: np.full(len(s), 10**6))

    def _record_calls(self, monkeypatch):
        """Record (nodes, links) of every ``_components`` call, the shape
        of every link mask a chunk of rows labels, and (rows, row size) of
        every chunk ``row_chunks`` hands out, in the row pass and in the
        sandwich property alike."""
        import shg.nodal as nodal

        seen, masks, chunks = [], [], []
        real, real_labels, real_chunks = nodal._components, nodal._labels, nodal.row_chunks

        def wrapper(n_nodes, ex, ey):
            seen.append((n_nodes, len(ex)))
            return real(n_nodes, ex, ey)

        def labels_wrapper(width, xs, ys, mask):
            masks.append(mask.shape)
            return real_labels(width, xs, ys, mask)

        def chunks_wrapper(n_rows, row_size):
            for rows in real_chunks(n_rows, row_size):
                chunks.append((rows.stop - rows.start, row_size))
                yield rows

        monkeypatch.setattr(nodal, "_components", wrapper)
        monkeypatch.setattr(nodal, "_labels", labels_wrapper)
        monkeypatch.setattr(nodal, "row_chunks", chunks_wrapper)
        monkeypatch.setattr(verify, "row_chunks", chunks_wrapper)
        return seen, masks, chunks

    def test_no_call_exceeds_the_budget(self, monkeypatch, instances, failing_inertia):
        import shg.nodal as nodal

        seen, _, chunks = self._record_calls(monkeypatch)
        for h in instances:
            self._outputs(h)
        assert seen
        # some rows have zeros, so the l' labelling runs too
        assert any((Analysis(h, zero_tol_rel=0.2).signs[:, 1:] == 0).any() for h in instances)
        assert all(links <= nodal._LINK_BUDGET for _, links in seen)
        assert all(n_nodes <= nodal._LINK_BUDGET for n_nodes, _ in seen)
        # every chunk of rows within the budget
        assert all(rows * size <= nodal._LINK_BUDGET for rows, size in chunks)
        # the row pass declares the widest of its temporaries per row: the
        # flat incidences or the vertices, never a pair table; the
        # sandwich declares n^2, a form's entries, which covers its pairs
        sandwiches = 0
        for h in instances:
            analysis = Analysis(h, zero_tol_rel=0.2)
            analysis.signs
            chunks.clear()
            analysis.terms
            widest = max(sum(e.size for e in h.edges), h.n + 1)
            assert chunks and all(size == widest for _, size in chunks)
            chunks.clear()
            verify._p_sandwich(analysis, random.Random(0))
            full = int((analysis.signs[:, 1:] != 0).all(axis=1).sum())
            assert sum(rows for rows, _ in chunks) == full
            assert all(size == h.n ** 2 for _, size in chunks)
            sandwiches += bool(full)
        assert sandwiches

    @pytest.mark.parametrize("budget", [1, 3, 7, 40, 1000])
    def test_results_do_not_depend_on_the_budget(self, monkeypatch, instances, failing_inertia, budget):
        import shg.nodal as nodal

        expected = [self._outputs(h) for h in instances]
        monkeypatch.setattr(nodal, "_LINK_BUDGET", budget)
        seen, masks, chunks = self._record_calls(monkeypatch)
        assert [self._outputs(h) for h in instances] == expected
        assert max(links for _, links in seen) <= budget
        # a chunk holds one row at least, and more only within the budget
        assert all(rows == 1 or rows * links <= budget for rows, links in masks)
        assert all(rows == 1 or rows * size <= budget for rows, size in chunks)
        # every chunk declares its widest row, so only at 1000 do several
        # rows of these instances fit one chunk
        assert budget < 1000 or any(rows > 1 for rows, _ in masks)
        # rows split across chunks, and below 40 the links of one row
        # across calls of a full budget each
        assert len(seen) > 3 * len(instances)
        assert budget >= 40 or any(links == budget for _, links in seen)


def reference_fiedler_sets(h, f):
    """``fiedler_sets`` as one pass per function: one loop over the
    edges and one block pass over the incidence graph for each function,
    kept as the reference of the pass shared by all rows."""
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    zeros = [v for v in h.vertex_range() if sign[v] == 0]
    if not zeros:
        return FiedlerSets((), ())
    seen_nonzero = [False] * (h.n + 1)
    cyclic = [False] * (h.n + 1)
    links = []
    for i, e in enumerate(h.edges):
        vs = e.vertices
        if len(vs) == 1:
            cyclic[vs[0]] = True
        nonzero = any(sign[v] != 0 for v in vs)
        for v in vs:
            seen_nonzero[v] = seen_nonzero[v] or nonzero
            links.append((v, h.n + 1 + i))
    for block in reference_blocks(h.n + 1 + h.m, links)[0]:
        if len(block) > 1:
            for li in block:
                cyclic[links[li][0]] = True
    fiedler = tuple(v for v in zeros if cyclic[v] or not seen_nonzero[v])
    return FiedlerSets(fiedler, tuple(v for v in zeros if v not in fiedler))


class TestBatchedFiedlerSets:
    @given(split_instances())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_per_function_reference(self, case):
        h, fs = case
        signs = sign_matrix(fs)
        expansion = clique_expansion(h)
        rows = _row_pass(h, signs)
        for variant, g in zip(BOUND_VARIANTS, (h, expansion)):
            expected = tuple(reference_fiedler_sets(g, f) for f in fs)
            assert rows.terms[variant].fiedler == expected
            assert tuple(fiedler_sets(g, f) for f in fs) == expected
        # the pass on the expansion itself reads the same sets off its edges
        assert _row_pass(expansion, signs).terms["all_pairs"].fiedler == \
            rows.terms["clique"].fiedler

    def test_analysis_matches_reference_on_eigenfunctions(self):
        # a loose zero tolerance gives the eigenfunctions zeros
        seen_zero = False
        for h in generate(GenConfig(seed=2026, count=40)):
            analysis = Analysis(h, zero_tol_rel=0.2)
            for variant, g in zip(BOUND_VARIANTS, (h, clique_expansion(h))):
                expected = tuple(reference_fiedler_sets(g, f) for f in analysis.spectrum.functions)
                assert analysis.terms[variant].fiedler == expected
                seen_zero = seen_zero or any(fs.fiedler or fs.other_zeros for fs in expected)
        assert seen_zero

    @given(batched_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pair_blocks_match_incidence_blocks(self, case, data):
        # size-1 and repeated edges from the drawn instance, and opposite-
        # sign twins of some of its pairs: the clique mask that the row
        # pass reads off the edges of g is the mask of g's clique
        # expansion, built from its pairs, and the mask on g is the
        # tree-like test of every vertex
        h, _ = case
        twins = data.draw(st.lists(st.sampled_from(pairs(h)), max_size=3)) if pairs(h) else []
        g = h_of(h.n, *(e.incidences for e in h.edges), *(pair_edge(x, y, -s) for x, y, s in twins))
        on_g, on_clique = cyclic_vertices(g)
        assert on_clique == cyclic_vertices(clique_expansion(g))[0]
        c = cyclomatic(g).n_components
        assert on_g == (False, *(not reference_is_tree_like(g, v, c) for v in g.vertex_range()))

    def test_no_zeros_gives_empty_sets_without_block_pass(self, monkeypatch):
        import shg.core as core

        def must_not_run(*args):
            raise AssertionError("a bridge pass ran although no row has a zero")

        monkeypatch.setattr(core, "cyclic_vertices", must_not_run)
        h = next(generate(GenConfig(n_range=(20, 20), m_range=(20, 20), seed=5, count=1)))
        analysis = Analysis(h)
        assert (analysis.signs[:, 1:] != 0).all()
        empty = (FiedlerSets((), ()),) * 20
        assert all(terms.fiedler == empty for terms in analysis.terms.values())

    def test_one_bridge_pass_per_analysis_with_a_zero_row(self, monkeypatch):
        # the Fiedler sets of both readings come from one cyclic_vertices
        # call, one low-link search, on an instance where some row has a
        # zero, and from none on one where no row has; no weak pass adds
        # a search of its own while the terms are built.  Each Analysis
        # gets a fresh hypergraph, which has run no bridge pass yet.
        import shg.core as core
        import shg.nodal as nodal

        calls = {"cyclic_vertices": 0, "lowlink": 0}

        def counting(name):
            real = getattr(core, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(core, "cyclic_vertices", counting("cyclic_vertices"))
        lowlink_counted = counting("lowlink")
        for module in (core, nodal):
            monkeypatch.setattr(module, "lowlink", lowlink_counted)
        with_zero = without = 0
        for h in generate(GenConfig(seed=3, count=12)):
            for tol in (0.2, 1e-8):
                analysis = Analysis(SignedHypergraph(h.n, h.edges), zero_tol_rel=tol)
                has_zero = bool((analysis.signs[:, 1:] == 0).any())
                with_zero += has_zero
                without += not has_zero
                for name in calls:
                    calls[name] = 0
                for variant in BOUND_VARIANTS:
                    analysis.terms[variant]
                assert calls == {"cyclic_vertices": int(has_zero), "lowlink": int(has_zero)}
        assert with_zero and without


class TestOneBridgePassPerHypergraph:
    """The tree-like marks are a fact of the hypergraph, cached on it: one
    ``core.cyclic_vertices`` call per hypergraph, whoever asks first."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        import shg.core as core

        calls = []
        real = core.cyclic_vertices

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(core, "cyclic_vertices", counting)
        return calls

    def test_example1_report(self, passes, capsys):
        # the row pass of the eigenfunctions and fiedler_sets of the six
        # supplied functions with a zero, out of nine, share one pass
        assert main(["example1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["supplied_functions"]) == 9
        assert len(passes) == 1

    def test_repeated_fiedler_sets(self, passes, printed):
        # three calls on each of the nine functions, 18 of them with zeros
        h = fixture_example1()
        sets = [fiedler_sets(h, f) for f in printed for _ in range(3)]
        assert sum(bool(fs.fiedler or fs.other_zeros) for fs in sets) == 18
        assert passes == [h]

    def test_analysis_then_fiedler_sets(self, passes, printed):
        h = fixture_example1()
        analysis = Analysis(h)
        assert (analysis.signs[:, 1:] == 0).any()
        analysis.terms
        assert passes == [h]
        assert fiedler_sets(h, printed[2]).fiedler
        assert passes == [h]


def reference_weak_domains(h, f):
    """``weak_domains`` as it was before it started from the strong
    domains: the direct pairs linked again, the zero components from a
    pass over the edges, and the closures from another; kept as the
    reference of the one-scan weak pass."""
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    zero_uf = UnionFind(h.n)
    for e in h.edges:
        zs = [v for v in e.vertices if sign[v] == 0]
        zero_uf.link((zs[0], z) for z in zs[1:])
    zz = {}
    attach = {}
    direct = []
    for x, y, s in pairs(h):
        if sign[x] == 0 and sign[y] == 0:
            zz[(x, y, s) if x < y else (y, x, s)] = None
        elif sign[x] == 0:
            attach.setdefault(zero_uf.find(x), []).append((y, x, s))
        elif sign[y] == 0:
            attach.setdefault(zero_uf.find(y), []).append((x, y, s))
        elif sign[x] * s * sign[y] > 0:
            direct.append((x, y))
    uf = UnionFind(h.n)
    uf.link(direct)
    if attach:
        zero_pairs = list(zz)
        blocks, tree = reference_blocks(h.n + 1, [(x, y) for x, y, _ in zero_pairs])
        theta = [1] * (h.n + 1)
        for child, ei in tree:
            x, y, s = zero_pairs[ei]
            theta[child] = theta[x if y == child else y] * s
        region = UnionFind(h.n)
        for block in blocks:
            block_pairs = [zero_pairs[ei] for ei in block]
            if all(theta[x] * s * theta[y] > 0 for x, y, s in block_pairs):
                region.link((x, y) for x, y, _ in block_pairs)
        for group in attach.values():
            if len({region.find(z) for _, z, _ in group}) > 1:
                uf.link((group[0][0], u) for u, _, _ in group)
                continue
            first = {}
            uf.link((first.setdefault(sign[u] * s * theta[z], u), u) for u, z, s in group)
    cores = uf.groups([v for v in h.vertex_range() if sign[v] != 0])
    if not cores:
        return (), ()
    core_index = {v: i for i, core in enumerate(cores) for v in core}
    absorbed = [set(core) for core in cores]
    touched = {}
    members = {}
    for v in h.vertex_range():
        if sign[v] == 0:
            members.setdefault(zero_uf.find(v), set()).add(v)
    for e in h.edges:
        vs = e.vertices
        zroots = {zero_uf.find(v) for v in vs if sign[v] == 0}
        cids = {core_index[v] for v in vs if sign[v] != 0}
        for root in zroots:
            touched.setdefault(root, set()).update(cids)
    for root, cids in touched.items():
        for ci in cids:
            absorbed[ci].update(members[root])
    return as_domains(cores), as_domains(absorbed)


@st.composite
def weak_cases(draw):
    """(h, functions): n <= 12 on 1..3 components, each covered by a chain
    of edges of size 1..5 (so no vertex is isolated) and given more edges,
    some repeated, with random signs; some zero pairs of the first
    function carried by two parallel pairs of opposite sign; functions
    with 20, 50 or 80 % zeros, and one all-zero function."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, n + 1)))
    cuts = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=min(2, n - 1), unique=True))
    bounds = [0] + sorted(cuts) + [n]
    parts = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    fs = []
    for rate in draw(st.lists(st.sampled_from((0.2, 0.5, 0.8)), min_size=1, max_size=3)):
        zeros = set(draw(st.permutations(range(1, n + 1)))[:round(rate * n)])
        fs.append([0.0 if v in zeros else draw(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)))
                   for v in range(1, n + 1)])
    fs.append([0.0] * n)

    def edge(vs):
        return tuple((v, draw(st.sampled_from((1, -1)))) for v in vs)

    edges = []
    for part in parts:
        if len(part) == 1:
            edges.append(edge(part))
        pos = 0
        while pos < len(part) - 1:
            size = draw(st.integers(2, min(5, len(part) - pos)))
            edges.append(edge(part[pos:pos + size]))
            pos += size - 1
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.integers(0, 4)) == 0:
                edges.append(draw(st.sampled_from(edges)))
                continue
            size = draw(st.integers(1, min(5, len(part))))
            edges.append(edge(draw(st.permutations(part))[:size]))
        zeros = [v for v in part if fs[0][v - 1] == 0.0]
        if len(zeros) >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(zeros))[:2]
            edges += [pair_edge(a, b, 1), pair_edge(a, b, -1)]
    shuffle = draw(st.permutations(range(len(edges))))
    return (h_of(n, *(edges[i] for i in shuffle)),
            tuple(VertexFunction.from_values(values) for values in fs))


class TestWeakPassAgainstReference:
    @given(weak_cases())
    @settings(max_examples=300, deadline=None)
    def test_weak_domains_and_decompose(self, case):
        h, fs = case
        for f in fs:
            expected = reference_weak_domains(h, f)
            assert weak_domains(h, f) == expected
            dec = decompose(h, f)
            assert dec.strong == reference_strong(h, f)
            assert (dec.weak_cores, dec.weak_closures) == expected
            assert tuple(sorted(v for domain in dec.strong for v in domain)) == f.support()
            # the one scan against the two scans it replaced, and the oracle
            two_scans = reference_decomposition(h, f)
            assert (dec.strong, dec.weak_cores, dec.weak_closures) == two_scans
            if h.n <= ORACLE_MAX_N:
                assert two_scans == oracle_domains(h, f)

    @given(weak_cases())
    @settings(max_examples=100, deadline=None)
    def test_analysis_decompositions(self, case):
        h, _ = case
        analysis = Analysis(h, zero_tol_rel=0.2)
        for dec, f in zip(analysis.decompositions, analysis.spectrum.functions, strict=True):
            assert (dec.weak_cores, dec.weak_closures) == reference_weak_domains(h, f)
            assert dec == decompose(h, f)

    def test_analysis_weak_pass_runs_on_attached_rows_only(self, monkeypatch):
        # a row whose zeros touch no nonzero keeps its strong domains as
        # weak ones without the weak pass
        import shg.nodal as nodal

        # two components side by side: most eigenfunctions vanish on one
        a, b = generate(GenConfig(n_range=(8, 10), m_range=(8, 10), seed=3, count=2))
        h = h_of(a.n + b.n, *(e.incidences for e in a.edges),
                 *(tuple((v + a.n, s) for v, s in e.incidences) for e in b.edges))
        expected = tuple(decompose(h, f) for f in Analysis(h).spectrum.functions)
        real, weak_rows = nodal._weak, []

        def recording(g, sign, uf, zero_groups, attach):
            weak_rows.append(sign)
            return real(g, sign, uf, zero_groups, attach)

        monkeypatch.setattr(nodal, "_weak", recording)
        analysis = Analysis(h)
        assert analysis.decompositions == expected
        attached = [row for row in analysis.signs.tolist()
                    if any((row[x] == 0) != (row[y] == 0) for x, y, _ in pairs(h))]
        assert weak_rows == attached
        assert 0 < len(attached) < sum(sum(map(len, dec.strong)) < h.n for dec in expected)

    def test_analysis_decompositions_read_the_sign_matrix(self, monkeypatch):
        h = next(generate(GenConfig(n_range=(30, 30), m_range=(30, 30), seed=3, count=1)))
        expected = tuple(decompose(h, f) for f in Analysis(h, 0.2).spectrum.functions)
        assert any(sum(map(len, dec.strong)) < h.n for dec in expected)

        def refuse(self, v=None):
            raise AssertionError("a VertexFunction decided a sign")

        monkeypatch.setattr(VertexFunction, "sign", refuse)
        monkeypatch.setattr(VertexFunction, "signs", property(refuse))
        assert Analysis(h, 0.2).decompositions == expected

    def test_near_trees(self):
        # sparse near-trees, where zero components span blocks of both
        # kinds: a random tree of 2-edges plus about n/7 to n/4 extra edges
        # of size 2-3, with 40-60 % zeros, scattered or grown as one
        # connected set (which closes more cycles through zeros)
        rng = random.Random(4242)
        weak_differs = 0
        for n in (20, 40, 60, 80):
            for _ in range(60):
                h = near_tree(rng, n)
                for grown in (False, True, True):
                    k = round(rng.uniform(0.4, 0.6) * n)
                    zeros = grown_set(rng, h, k) if grown else set(rng.sample(range(1, n + 1), k))
                    f = vf(*(0.0 if v in zeros else rng.choice((-2.0, -1.0, 1.0, 2.0))
                             for v in range(1, n + 1)))
                    dec = decompose(h, f)
                    assert dec.strong == reference_strong(h, f)
                    assert (dec.weak_cores, dec.weak_closures) == reference_weak_domains(h, f)
                    weak_differs += dec.weak_cores != dec.strong
        # most cases leave the weak pass work to do
        assert weak_differs >= 360

    def test_sunflowers_with_a_zero_core(self):
        # k petals of size s around a core of c >= 3 zeros, a zero clique
        # that every petal's nonzero vertices attach to, its pairs carried
        # once per petal with that petal's sign (ROADMAP item 11, z >= 3)
        rng = random.Random(11)
        weak_differs = 0
        for k, s, c in ((2, 4, 3), (2, 5, 3), (3, 5, 3), (4, 6, 4), (6, 8, 5)):
            for seed in range(30):
                h = sunflower(k, s, c, seed)
                f = vf(*(0.0 if v <= c or rng.random() < 0.2 else rng.choice((-2.0, -1.0, 1.0, 2.0))
                         for v in h.vertex_range()))
                dec = decompose(h, f)
                assert dec.strong == reference_strong(h, f)
                assert (dec.weak_cores, dec.weak_closures) == reference_weak_domains(h, f)
                if h.n <= ORACLE_MAX_N:
                    assert (dec.strong, dec.weak_cores, dec.weak_closures) == oracle_domains(h, f)
                weak_differs += dec.weak_cores != dec.strong
        assert weak_differs >= 100


def near_tree(rng, n):
    """A tree of 2-edges on 1..n, each vertex after the first linked to a
    uniform earlier one in a random order, plus about n/7 to n/4 edges of
    size 2 or 3 on random vertices, every incidence sign random."""
    order = rng.sample(range(1, n + 1), n)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    for _ in range(rng.randint(n // 7, n // 4)):
        edges.append(tuple(rng.sample(range(1, n + 1), rng.choice((2, 3)))))
    return h_of(n, *(tuple((v, rng.choice((1, -1))) for v in vs) for vs in edges))


def grown_set(rng, h, k):
    """k vertices of the connected h, grown from a random one by adding a
    random neighbour (by a pair) of those taken so far."""
    nbrs = {v: [] for v in h.vertex_range()}
    for x, y, _ in pairs(h):
        nbrs[x].append(y)
        nbrs[y].append(x)
    first = rng.randint(1, h.n)
    taken, reach = {first}, list(nbrs[first])
    while len(taken) < k:
        v = rng.choice(reach)
        if v not in taken:
            taken.add(v)
            reach += nbrs[v]
    return taken


@st.composite
def multigraphs(draw):
    """(n_nodes, ends): a multigraph on 1..3 groups of nodes, each linked
    by random links within it (some repeated, so parallel), with nodes
    that no link touches; no loops."""
    n_nodes = draw(st.integers(1, 16))
    order = draw(st.permutations(range(n_nodes)))
    cuts = draw(st.lists(st.integers(1, max(n_nodes - 1, 1)), max_size=min(2, n_nodes - 1), unique=True))
    bounds = [0] + sorted(cuts) + [n_nodes]
    ends = []
    for part in (order[a:b] for a, b in zip(bounds, bounds[1:])):
        if len(part) < 2:
            continue
        for _ in range(draw(st.integers(0, 2 * len(part)))):
            if ends and draw(st.integers(0, 3)) == 0:
                ends.append(draw(st.sampled_from(ends)))
            else:
                ends.append(tuple(draw(st.permutations(part))[:2]))
    shuffle = draw(st.permutations(range(len(ends))))
    return n_nodes, [ends[i] for i in shuffle]


def lowlink_blocks(n_nodes, ends):
    """The blocks of a multigraph as sets of link ids, read off one
    ``core.lowlink`` search: the tree link p -> v opens a block when
    low[v] >= disc[p] and otherwise joins the block of the tree link into
    p, and every other link joins the block of the tree link into its
    deeper end."""
    adj = [[] for _ in range(n_nodes)]
    for i, (a, b) in enumerate(ends):
        adj[a].append((b, i))
        adj[b].append((a, i))
    disc, low, tree = lowlink(adj)
    head = list(range(n_nodes))
    for p, v, _ in tree:
        if low[v] < disc[p]:
            head[v] = head[p]
    blocks = {}
    for i, (a, b) in enumerate(ends):
        blocks.setdefault(head[a if disc[a] > disc[b] else b], set()).add(i)
    return tree, sorted(map(sorted, blocks.values()))


class TestLowLink:
    @given(multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_blocks_match_edge_stack_reference(self, case):
        n_nodes, ends = case
        tree, blocks = lowlink_blocks(n_nodes, ends)
        ref_blocks, ref_tree = reference_blocks(n_nodes, ends)
        assert blocks == sorted(map(sorted, ref_blocks))
        # the same search: the same tree links in the same order
        assert [(v, i) for _, v, i in tree] == ref_tree


def zero_rich_functions(rng, n):
    """Functions on 1..n at 20, 50 and 80 % zeros, plus an all-zero and a
    zero-free one."""
    fs = [vf(*(0.0 if rng.random() < p else rng.choice((-2.0, -1.0, 1.0, 2.0)) for _ in range(n)))
          for p in (0.2, 0.5, 0.8)]
    return fs + [vf(*[0.0] * n), vf(*(rng.choice((-1.0, 1.0)) for _ in range(n)))]


def check_against_pair_references(h, fs):
    """The per-edge passes against the pair-table references: the
    adjacency, the row pass of the sign matrix of ``fs`` and ``decompose``
    of each function of ``fs``.  Returns how many functions ran the weak
    pass (had an attachment)."""
    assert adjacency(h).tolist() == adjacency_int(h)
    signs = sign_matrix(fs)
    rows = _row_pass(h, signs)
    assert rows == reference_row_pass(h, signs)
    for f in fs:
        dec = decompose(h, f)
        assert (dec.strong, dec.weak_cores, dec.weak_closures) == reference_decomposition(h, f)
    return sum(rows.attached)


class TestPerEdgePasses:
    """Every pass reads an edge once, as its members and sgn(e); the pair
    table survives only in the references (``references.pairs``), and
    these tests hold the passes to it on the wide edges that make the
    table quadratic."""

    @pytest.mark.parametrize("s", [1, -1])
    def test_one_wide_edge_decomposes_in_bounded_memory(self, s):
        # one edge of sign s on 1000 vertices, 500 of them zeros: C(1000, 2)
        # pairs, which a pair table holds in about 100 MiB
        n = 1000
        h = h_of(n, tuple((v, s if v == 1 else 1 if v % 3 else -1) for v in range(1, n + 1)))
        assert h.edges[0].sign == s
        f = vf(*(0.0 if v % 2 else (-1.0) ** (v // 2) for v in range(1, n + 1)))
        assert f.signs[1:].count(0) == 500
        tracemalloc.start()
        try:
            dec = decompose(h, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # a positive edge keeps the two signs apart, its zeros with them;
        # a negative one joins them
        assert dec.strong_count == dec.weak_count == (2 if s > 0 else 1)
        assert dec.weak_closures == tuple(tuple(sorted(d + tuple(range(1, n + 1, 2)))) for d in dec.strong)

    @pytest.mark.parametrize("s", [1, -1])
    def test_wide_edge_family(self, s):
        rng = random.Random(s)
        for n in (1, 2, 3, 7, 40, 150):
            h = wide_edge_family(n, s)[0]
            assert h.edges[0].sign == s or n == 1
            check_against_pair_references(h, zero_rich_functions(rng, n))
            g = weak_delete(h, 1)
            check_against_pair_references(g, zero_rich_functions(rng, g.n))

    def test_sunflowers_with_zero_cores_of_two_to_five(self):
        rng = random.Random(5)
        attached = 0
        for k, s, c in ((2, 4, 2), (3, 6, 2), (3, 5, 3), (4, 9, 4), (5, 8, 5), (6, 12, 5)):
            for seed in range(8):
                h = sunflower(k, s, c, seed)
                fs = [vf(*(0.0 if v <= c or rng.random() < p else rng.choice((-2.0, -1.0, 1.0, 2.0))
                           for v in h.vertex_range())) for p in (0.0, 0.3, 0.6)]
                attached += check_against_pair_references(h, fs)
        assert attached >= 100

    @pytest.mark.parametrize("cfg", [
        GenConfig(n_range=(200, 200), m_range=(16, 16), edge_size_range=(2, 200), seed=1, count=2),
        GenConfig(n_range=(40, 80), m_range=(10, 30), edge_size_range=(2, 40), seed=2, count=4),
        GenConfig(n_range=(5, 12), m_range=(3, 14), edge_size_range=(1, 8), seed=3, count=30),
    ])
    def test_generated_wide_and_size_one_edges(self, cfg):
        # edges of size 1 come from the last stream and from weak deletion;
        # the eigenfunctions at a loose tolerance ride along
        rng = random.Random(cfg.seed)
        sizes = set()
        for h in generate(cfg):
            sizes.update(e.size for e in h.edges)
            fs = zero_rich_functions(rng, h.n) + list(Analysis(h, zero_tol_rel=0.2).spectrum.functions[:6])
            check_against_pair_references(h, fs)
            g = weak_delete(h, rng.randint(1, h.n))
            sizes.update(e.size for e in g.edges)
            check_against_pair_references(g, zero_rich_functions(rng, g.n))
        assert cfg.edge_size_range[0] > 1 or 1 in sizes

    def test_near_trees(self):
        rng = random.Random(77)
        attached = 0
        for n in (12, 30, 60):
            for _ in range(12):
                h = near_tree(rng, n)
                zeros = grown_set(rng, h, n // 2)
                fs = [vf(*(0.0 if v in zeros else rng.choice((-2.0, -1.0, 1.0, 2.0)) for v in h.vertex_range()))]
                attached += check_against_pair_references(h, fs + zero_rich_functions(rng, n))
        assert attached >= 100

    # A zero hub is an edge with three zeros or more: a clique of zeros,
    # 2-connected, so every block of the zero incidence graph around it is
    # one block of the pair graph.  Each case is small enough for the oracle.
    @pytest.mark.parametrize("edges, values, cores", [
        # a positive hub on the zeros 1..4 whose block through 1 and 2 is
        # unbalanced (the negative pair {1, 2}): 3 and 4, bridges from the
        # hub, lie in no common balanced block, so 5 (at 3) and 6 (at 4)
        # meet by paths of both signs
        ([((1, 1), (2, 1), (3, 1), (4, -1)), ((1, 1), (2, 1)), ((5, 1), (3, -1)), ((6, 1), (4, 1))],
         (0, 0, 0, 0, 1, 1), ((5, 6),)),
        # a negative hub on the zeros 1..3 is a negative triangle: 4 (at 1)
        # and 5 (at 2) meet by paths of both signs
        ([((1, 1), (2, 1), (3, -1)), ((4, 1), (1, -1)), ((5, 1), (2, 1))], (0, 0, 0, 1, 1), ((4, 5),)),
        # the same hub positive: one theta, and the two signs decide
        ([((1, 1), (2, 1), (3, 1)), ((4, 1), (1, -1)), ((5, 1), (2, 1))], (0, 0, 0, 1, 1), ((4,), (5,))),
        # the negative edge {3, 1, 2} puts its zeros 1 and 2 on a negative
        # bridge, one region with two thetas: 3 reaches 2 directly and
        # through 1, by both signs, so it meets 4 (at 2) whatever the sign
        ([((3, 1), (1, 1), (2, -1)), ((4, 1), (2, 1))], (0, 0, 1, 1), ((3, 4),)),
        ([((3, 1), (1, 1), (2, -1)), ((4, 1), (2, 1))], (0, 0, 1, -1), ((3, 4),)),
    ])
    def test_zero_hubs_and_pairs(self, edges, values, cores):
        h = h_of(len(values), *edges)
        f = vf(*values)
        dec = decompose(h, f)
        assert dec.weak_cores == cores
        assert (dec.strong, dec.weak_cores, dec.weak_closures) == reference_decomposition(h, f) \
            == oracle_domains(h, f)

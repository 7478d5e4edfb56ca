"""Structure layer: edges, signs, components, deletions, cycles, forests."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.core import (
    Edge,
    SignedHypergraph,
    UnionFind,
    connected_components,
    cyclic_vertices,
    cyclomatic,
    degrees,
    hyperneighbors,
    induced_subhypergraph,
    lies_on_cycle,
    spanning_hyperforest,
    weak_delete,
)
from shg.shgio import parse, serialize
from references import (
    clique_expansion,
    pairs,
    reference_cyclic_vertices,
    reference_edge_sign,
    reference_is_tree_like,
)


def edge(*pairs):
    return Edge(tuple(pairs))


def h_of(n, *edge_specs):
    return SignedHypergraph(n, tuple(edge(*spec) for spec in edge_specs))


@st.composite
def hypergraphs(draw, max_n=9, max_m=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = []
    seen = set()
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(4, n)))
        vs = draw(st.permutations(range(1, n + 1)))[:size]
        incs = tuple(
            (v, draw(st.sampled_from((1, -1)))) for v in sorted(vs))
        if incs in seen:
            continue
        seen.add(incs)
        edges.append(Edge(incs))
    return SignedHypergraph(n, tuple(edges))


@st.composite
def forest_instances(draw, max_n=8, max_m=12, max_size=5):
    """Edges of size 1 to ``max_size`` with repeats, so that ties and
    weight-0 edges are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_m))):
        if edges and draw(st.booleans()):
            edges.append(draw(st.sampled_from(edges)))
            continue
        size = draw(st.integers(min_value=1, max_value=min(max_size, n)))
        vs = draw(st.permutations(range(1, n + 1)))[:size]
        edges.append(Edge(tuple((v, draw(st.sampled_from((1, -1)))) for v in vs)))
    return SignedHypergraph(n, tuple(edges))


class TestEdge:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertex"):
            edge((1, 1), (1, -1))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            Edge(((1, 2),))

    def test_vertices_keep_incidence_order(self):
        e = edge((3, 1), (1, -1), (2, 1))
        assert e.vertices == (3, 1, 2)
        assert e.size == 3

    def test_edge_sign_parity(self):
        # (-1)^(size-1) times the incidence product
        assert edge((1, 1), (2, 1)).sign == -1
        assert edge((1, 1), (2, -1)).sign == 1
        assert edge((1, 1), (2, 1), (3, 1)).sign == 1
        assert edge((1, 1), (2, 1), (3, -1)).sign == -1
        assert edge((1, 1)).sign == 1

    def test_empty_edge_refused(self):
        # every edge has a member; the edge itself is the one owner of the rule
        with pytest.raises(ValueError, match="^empty edge$"):
            Edge(())

    def test_edge_sign_matches_the_reference_on_every_pattern(self):
        # every incidence-sign pattern of sizes 1-6, in two vertex orders
        for size in range(1, 7):
            for signs in itertools.product((1, -1), repeat=size):
                for vs in (range(1, size + 1), range(size, 0, -1)):
                    e = Edge(tuple(zip(vs, signs)))
                    assert e.sign in (1, -1) and e.sign == reference_edge_sign(e)

    def test_sign_is_not_a_field(self):
        # equality, hash and repr read the incidences alone
        a, b = edge((1, 1), (2, -1)), edge((1, 1), (2, -1))
        assert a == b and hash(a) == hash(b) and "sign=" not in repr(a)
        assert [f.name for f in dataclasses.fields(Edge)] == ["incidences"]


class TestHypergraph:
    def test_fields_are_n_and_edges(self):
        assert [f.name for f in dataclasses.fields(SignedHypergraph)] == ["n", "edges"]

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            h_of(2, ((1, 1), (3, 1)))

    def test_duplicate_edges_kept_as_multiset(self):
        # induced subhypergraphs can create duplicate truncated edges, so
        # the family is a multiset and both copies count toward degrees
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (1, 1)))
        assert h.m == 2
        assert degrees(h)[1] == 2

    def test_same_vertices_different_signs_allowed(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, 1), (2, -1)))
        assert h.m == 2

    def test_empty_edge_rejected_by_default(self):
        with pytest.raises(ValueError, match="empty edge"):
            SignedHypergraph(2, (Edge(()),))

    def test_degrees_count_incident_edges(self):
        h = h_of(3, ((1, 1), (2, 1)), ((1, -1), (3, 1)), ((1, 1),))
        assert degrees(h) == [0, 3, 1, 1]

    def test_hyperneighbors(self):
        h = h_of(4, ((1, 1), (2, 1), (3, -1)))
        assert hyperneighbors(h, 1) == (2, 3)
        assert hyperneighbors(h, 4) == ()

    def test_pairs_table(self):
        # a negative triple, a parallel positive pair, a singleton edge: the
        # hypergraph keeps no pair table, the references build their own
        h = h_of(3, ((2, 1), (1, 1), (3, -1)), ((1, 1), (2, -1)), ((1, 1), (2, -1)), ((3, 1),))
        assert not hasattr(h, "pairs")
        assert pairs(h) == ((2, 1, -1), (2, 3, -1), (1, 3, -1), (1, 2, 1), (1, 2, 1))


class TestComponents:
    def test_isolated_vertices_are_components(self):
        h = h_of(4, ((1, 1), (2, 1)))
        parts = connected_components(h)
        assert sorted(sorted(b) for b in parts) == [[1, 2], [3], [4]]

    def test_blocks_partition(self):
        h = h_of(5, ((1, 1), (2, 1), (3, 1)), ((4, 1), (5, -1)))
        parts = connected_components(h)
        assert sorted(v for b in parts for v in b) == [1, 2, 3, 4, 5]
        assert len(parts) == 2

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_always(self, h):
        parts = connected_components(h)
        seen = sorted(v for b in parts for v in b)
        assert seen == list(range(1, h.n + 1))


def closure_classes(n, links):
    """Classes of 1..n under ``links`` by breadth-first closure, ordered by
    smallest member: a reference apart from ``UnionFind``."""
    adj = {v: set() for v in range(1, n + 1)}
    for x, y in links:
        adj[x].add(y)
        adj[y].add(x)
    seen, out = set(), []
    for v in range(1, n + 1):
        if v not in seen:
            block, todo = {v}, [v]
            while todo:
                for w in adj[todo.pop()] - block:
                    block.add(w)
                    todo.append(w)
            seen |= block
            out.append(tuple(sorted(block)))
    return tuple(out)


@st.composite
def link_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=1, max_value=n)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=24))


class TestUnionFind:
    @given(link_lists())
    @settings(max_examples=150, deadline=None)
    def test_link_matches_closure(self, case):
        n, links = case
        expected = closure_classes(n, links)
        uf = UnionFind(n)
        half = len(links) // 2
        joins = uf.link(links[:half])
        assert uf.count == n - joins
        joins += uf.link(links[half:])
        assert joins == n - len(expected)
        assert uf.count == len(expected)
        groups = uf.groups(range(1, n + 1))
        assert groups == expected
        assert [min(g) for g in groups] == sorted(min(g) for g in groups)
        # a self-link is a singleton edge, any other link a 2-edge
        h = SignedHypergraph(n, tuple(
            edge((x, 1)) if x == y else edge((x, 1), (y, -1)) for x, y in links))
        assert connected_components(h) == expected
        assert cyclomatic(h).n_components == len(connected_components(h))


class TestInducedAndDeleted:
    def test_induced_truncates_edges(self):
        h = h_of(4, ((1, 1), (2, -1), (3, 1)), ((3, 1), (4, 1)))
        sub = induced_subhypergraph(h, {1, 2, 4})
        assert sub.n == 3
        # only the truncated first edge survives; single-vertex remnant kept
        sizes = sorted(e.size for e in sub.edges)
        assert sizes == [1, 2]

    def test_relabeling_maps_forward(self):
        h = h_of(5, ((2, 1), (4, -1)))
        sub = induced_subhypergraph(h, {2, 4})
        assert sub.edges == (Edge(((1, 1), (2, -1))),)

    @pytest.mark.parametrize("keep", [{0, 1}, {2, 3}])
    def test_induced_refuses_vertices_out_of_range(self, keep):
        h = h_of(2, ((1, 1), (2, -1)))
        with pytest.raises(ValueError, match="out of range"):
            induced_subhypergraph(h, keep)

    @given(hypergraphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inducing_on_every_vertex_changes_nothing(self, h, data):
        assert induced_subhypergraph(h, h.vertex_range()) == h
        keep = data.draw(st.sets(st.integers(1, h.n), min_size=1))
        once = induced_subhypergraph(h, keep)
        assert induced_subhypergraph(once, once.vertex_range()) == once

    def test_weak_delete_keeps_edges(self):
        h = h_of(3, ((1, 1), (2, 1), (3, -1)))
        rest = weak_delete(h, 2)
        assert rest.n == 2
        assert rest.m == 1
        assert rest.edges[0].size == 2

    def test_weak_delete_drops_the_edges_it_empties(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, -1),))
        rest = weak_delete(h, 1)
        assert rest == h_of(1, ((1, 1),))

    @given(forest_instances(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_weak_delete_is_the_induced_subhypergraph(self, h, data):
        # size-1 and repeated edges, so deletions empty some edges
        v = data.draw(st.integers(1, h.n))
        rest = weak_delete(h, v)
        induced = induced_subhypergraph(h, [u for u in h.vertex_range() if u != v])
        assert rest == induced and hash(rest) == hash(induced)
        assert parse(serialize(rest)) == rest

    @pytest.mark.parametrize("v", [0, 3])
    def test_weak_delete_refuses_vertices_out_of_range(self, v):
        with pytest.raises(ValueError, match="out of range"):
            weak_delete(h_of(2, ((1, 1), (2, -1))), v)


class TestCycles:
    def test_cyclomatic_of_tree(self):
        h = h_of(4, ((1, 1), (2, 1), (3, 1)), ((3, 1), (4, 1)))
        stats = cyclomatic(h)
        assert stats.l == 0

    def test_cyclomatic_counts_excess(self):
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)))
        assert cyclomatic(h).l == 1

    def test_parallel_edges_make_cycle(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, 1), (2, -1)))
        assert cyclomatic(h).l == 1

    def test_tree_like_on_triangle(self):
        h = h_of(4, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)),
                 ((3, 1), (4, 1)))
        c = cyclomatic(h).n_components
        cyclic = cyclic_vertices(h)[0]
        assert cyclic[1] and not reference_is_tree_like(h, 1, c)
        assert not cyclic[4] and reference_is_tree_like(h, 4, c)
        assert lies_on_cycle(h, 1)
        assert not lies_on_cycle(h, 4)

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_cyclomatic_nonnegative(self, h):
        assert cyclomatic(h).l >= 0


@st.composite
def deletion_instances(draw):
    """``forest_instances`` (edges of size 1, parallel edges), then up to
    three weak deletions, which drop the edges they empty and leave more
    size-1 edges."""
    h = draw(forest_instances())
    for _ in range(draw(st.integers(min_value=0, max_value=min(3, h.n - 1)))):
        h = weak_delete(h, draw(st.integers(min_value=1, max_value=h.n)))
    return h


@st.composite
def split_deletion_instances(draw):
    """Two or three parts side by side, each with edges of size 1 to 4
    and repeats (``forest_instances``), then up to three weak deletions."""
    n, edges = 0, []
    for part in draw(st.lists(forest_instances(max_n=6, max_m=8, max_size=4), min_size=2, max_size=3)):
        edges += [Edge(tuple((v + n, s) for v, s in e.incidences)) for e in part.edges]
        n += part.n
    h = SignedHypergraph(n, tuple(edges))
    for _ in range(draw(st.integers(min_value=0, max_value=min(3, n - 1)))):
        h = weak_delete(h, draw(st.integers(min_value=1, max_value=h.n)))
    return h


class TestTreeLike:
    @given(deletion_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_weak_deletion_reference(self, h):
        c = cyclomatic(h).n_components
        cyclic = cyclic_vertices(h)[0]
        assert cyclic == (False, *(not reference_is_tree_like(h, x, c) for x in h.vertex_range()))
        # a vertex of a size-1 edge lies on no cycle, but its weak deletion
        # drops that edge, which its degree counts, so it is not tree-like
        in_singleton = {e.vertices[0] for e in h.edges if e.size == 1}
        assert cyclic[1:] == tuple(x in in_singleton or lies_on_cycle(h, x) for x in h.vertex_range())

    def test_singleton_and_parallel_edges(self):
        # {1} goes under deletion on h but gives the expansion no pair;
        # the parallel pair 2-3 keeps 2 and 3 on one cycle; 4 hangs off 3
        # by one edge, and the 3-edge {4, 5, 6} off 4, a tree on h and a
        # triangle on the expansion
        h = h_of(6, ((1, 1),), ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((2, 1), (3, -1)),
                 ((3, 1), (4, 1)), ((4, 1), (5, -1), (6, 1)))
        c = cyclomatic(h).n_components
        on_h, on_clique = cyclic_vertices(h)
        expected = [False, False, False, True, True, True]
        assert [not cyc for cyc in on_h[1:]] == expected
        assert [reference_is_tree_like(h, x, c) for x in h.vertex_range()] == expected
        expected = [True, False, False, False, False, False]
        assert [not cyc for cyc in on_clique[1:]] == expected
        g = clique_expansion(h)
        assert [reference_is_tree_like(g, x, c) for x in g.vertex_range()] == expected

    @given(split_deletion_instances())
    @settings(max_examples=300, deadline=None)
    def test_bridge_pass_matches_block_reference(self, h):
        # both readings, against the block search the bridge pass replaced
        assert cyclic_vertices(h) == reference_cyclic_vertices(h)


class TestForest:
    def test_greedy_spans_tree(self):
        h = h_of(4, ((1, 1), (2, 1), (3, 1)), ((3, 1), (4, 1)))
        idx = spanning_hyperforest(h)
        assert sorted(idx) == [0, 1]

    def test_selected_edges_acyclic(self):
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)))
        idx = spanning_hyperforest(h)
        sub = SignedHypergraph(3, tuple(h.edges[i] for i in idx))
        assert cyclomatic(sub).l == 0

    @given(forest_instances())
    @settings(max_examples=150, deadline=None)
    def test_greedy_forest_is_acyclic_and_maximal(self, h):
        forest = spanning_hyperforest(h)
        chosen = lambda ids: SignedHypergraph(h.n, tuple(h.edges[i] for i in ids))
        assert list(forest) == sorted(set(forest))
        assert cyclomatic(chosen(forest)).l == 0
        assert {i for i, e in enumerate(h.edges) if e.size == 1} <= set(forest)
        # every edge it skips closes a cycle with it
        for i in set(range(h.m)) - set(forest):
            assert cyclomatic(chosen(forest + (i,))).l > 0

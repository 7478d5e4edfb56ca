"""Structure layer: edges, signs, components, deletions, cycles, forests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.core import (
    EXACT_FOREST_LIMIT,
    Edge,
    SignedHypergraph,
    UnionFind,
    connected_components,
    cyclomatic,
    degree,
    degrees,
    edge_sign,
    hyperneighbors,
    induced_subhypergraph,
    is_acyclic,
    is_tree_like,
    lies_on_cycle,
    spanning_hyperforest,
    weak_delete,
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
        assert edge_sign(edge((1, 1), (2, 1))) == -1
        assert edge_sign(edge((1, 1), (2, -1))) == 1
        assert edge_sign(edge((1, 1), (2, 1), (3, 1))) == 1
        assert edge_sign(edge((1, 1), (2, 1), (3, -1))) == -1
        assert edge_sign(edge((1, 1))) == 1


class TestHypergraph:
    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            h_of(2, ((1, 1), (3, 1)))

    def test_duplicate_edges_kept_as_multiset(self):
        # induced subhypergraphs can create duplicate truncated edges, so
        # the family is a multiset and both copies count toward degrees
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (1, 1)))
        assert h.m == 2
        assert degree(h, 1) == 2

    def test_same_vertices_different_signs_allowed(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, 1), (2, -1)))
        assert h.m == 2

    def test_empty_edge_rejected_by_default(self):
        with pytest.raises(ValueError, match="empty edge"):
            SignedHypergraph(2, (Edge(()),))

    def test_degrees_count_incident_edges(self):
        h = h_of(3, ((1, 1), (2, 1)), ((1, -1), (3, 1)), ((1, 1),))
        assert degree(h, 1) == 3
        assert degrees(h) == [0, 3, 1, 1]

    def test_hyperneighbors(self):
        h = h_of(4, ((1, 1), (2, 1), (3, -1)))
        assert hyperneighbors(h, 1) == frozenset({2, 3})
        assert hyperneighbors(h, 4) == frozenset()

    def test_pairs_table(self):
        # a negative triple, a parallel positive pair, a singleton edge
        h = h_of(3, ((2, 1), (1, 1), (3, -1)), ((1, 1), (2, -1)), ((1, 1), (2, -1)), ((3, 1),))
        assert h.pairs == ((2, 1, -1), (2, 3, -1), (1, 3, -1), (1, 2, 1), (1, 2, 1))


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
            out.append(frozenset(block))
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

    def test_weak_delete_keeps_edges(self):
        h = h_of(3, ((1, 1), (2, 1), (3, -1)))
        rest = weak_delete(h, 2)
        assert rest.n == 2
        assert rest.m == 1
        assert rest.edges[0].size == 2

    def test_weak_delete_may_leave_empty_edges(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, -1),))
        rest = weak_delete(h, 1)
        sizes = sorted(e.size for e in rest.edges)
        assert sizes == [0, 1]


class TestCycles:
    def test_cyclomatic_of_tree(self):
        h = h_of(4, ((1, 1), (2, 1), (3, 1)), ((3, 1), (4, 1)))
        stats = cyclomatic(h)
        assert stats.l == 0 and is_acyclic(h)

    def test_cyclomatic_counts_excess(self):
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)))
        assert cyclomatic(h).l == 1
        assert not is_acyclic(h)

    def test_parallel_edges_make_cycle(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, 1), (2, -1)))
        assert cyclomatic(h).l == 1

    def test_tree_like_on_triangle(self):
        h = h_of(4, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)),
                 ((3, 1), (4, 1)))
        c = cyclomatic(h).n_components
        assert not is_tree_like(h, 1, c)
        assert is_tree_like(h, 4, c)
        assert lies_on_cycle(h, 1)
        assert not lies_on_cycle(h, 4)

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_cyclomatic_nonnegative(self, h):
        assert cyclomatic(h).l >= 0


@st.composite
def forest_instances(draw, max_n=8, max_m=12):
    """Edges of size 0 to 5 with repeats, so that ties and weight-0 edges
    are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_m))):
        if edges and draw(st.booleans()):
            edges.append(draw(st.sampled_from(edges)))
            continue
        size = draw(st.integers(min_value=0, max_value=min(5, n)))
        vs = draw(st.permutations(range(1, n + 1)))[:size]
        edges.append(Edge(tuple((v, draw(st.sampled_from((1, -1)))) for v in vs)))
    return SignedHypergraph(n, tuple(edges), allow_empty_edges=True)


def exhaustive_forest(h):
    """The exact search as it was before branch and bound: every one of the
    2^m edge subsets, ties broken by the most edges.  A reference only,
    with a bare parent list of its own rather than ``UnionFind``."""
    best_score = -1
    best: tuple[int, ...] = ()

    def root(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    for mask in range(1 << h.m):
        subset = [i for i in range(h.m) if mask >> i & 1]
        parent = list(range(h.n + 1))
        score = 0
        ok = True
        for i in subset:
            vs = h.edges[i].vertices
            roots = {root(parent, v) for v in vs}
            if len(roots) != len(vs):
                ok = False
                break
            top = min(roots, default=0)
            for r in roots:
                parent[r] = top
            score += max(len(vs) - 1, 0)
        if ok and (score, len(subset)) > (best_score, len(best)):
            best_score = score
            best = tuple(subset)
    return best


class TestForest:
    def test_greedy_spans_tree(self):
        h = h_of(4, ((1, 1), (2, 1), (3, 1)), ((3, 1), (4, 1)))
        idx = spanning_hyperforest(h)
        assert sorted(idx) == [0, 1]

    def test_exact_beats_or_ties_greedy(self):
        # greedy grabbing the 3-edge first blocks both 2-edges
        h = h_of(4, ((1, 1), (2, 1), (3, 1)), ((1, 1), (2, 1)), ((3, 1), (4, 1)))
        greedy = spanning_hyperforest(h, exact=False)
        exact = spanning_hyperforest(h, exact=True)
        weight = lambda ids: sum(h.edges[i].size - 1 for i in ids)
        assert weight(exact) >= weight(greedy)

    def test_exact_limit(self):
        path = [((i, 1), (i + 1, 1)) for i in range(1, EXACT_FOREST_LIMIT + 2)]
        h = h_of(EXACT_FOREST_LIMIT + 2, *path[:-1])
        assert spanning_hyperforest(h, exact=True) == tuple(range(EXACT_FOREST_LIMIT))
        h = h_of(EXACT_FOREST_LIMIT + 2, *path)
        with pytest.raises(ValueError, match="exact"):
            spanning_hyperforest(h, exact=True)

    def test_selected_edges_acyclic(self):
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)))
        idx = spanning_hyperforest(h, exact=True)
        sub = SignedHypergraph(3, tuple(h.edges[i] for i in idx))
        assert is_acyclic(sub)

    @given(forest_instances())
    @settings(max_examples=150, deadline=None)
    def test_exact_matches_exhaustive_search(self, h):
        exact = spanning_hyperforest(h, exact=True)
        weight = lambda ids: sum(max(h.edges[i].size - 1, 0) for i in ids)
        assert weight(exact) == weight(exhaustive_forest(h))
        assert is_acyclic(SignedHypergraph(h.n, tuple(h.edges[i] for i in exact),
                                           allow_empty_edges=True))
        assert {i for i, e in enumerate(h.edges) if e.size <= 1} <= set(exact)

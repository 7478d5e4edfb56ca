"""Data model and combinatorics for signed hypergraphs.

Vertices are the integers ``1..n``.  An edge is an ordered tuple of
(vertex, sign) incidences with signs in {+1, -1}; the edge family is a
multiset, so identical edges may repeat.  All structures are immutable
and all operations are pure functions.

Invariants:
    - every incidence references a vertex in ``1..n``
    - a vertex appears at most once per edge (simple hypergraph)
    - every edge has at least one incidence: ``Edge`` refuses an empty
      one, and a deletion drops the edges it empties

Whether a vertex is tree-like is decided for all vertices at once by one
bridge pass, ``cyclic_vertices``, over the low-link search ``lowlink``
that the weak pass shares; ``weak_delete`` gives the definition it is
checked against and ``lies_on_cycle`` the exhaustive cycle search.  Both
passes search a graph built by ``incidence_graph``, the one rule that
turns a family of vertex groups into links: a group of two is one link,
a larger group a node of its own linked to each member.  The
facts of an edge alone, ``Edge.vertices`` and its sign sgn(e), are decided
by the edge as it checks its incidences, which past the edge only the
copiers, the writers and the campaign's oracle read; every pass reads an
edge as its members and sgn(e), never as its C(|e|, 2) vertex pairs.  The
facts of a hypergraph alone are cached on it, each computed once by whoever
asks first: ``SignedHypergraph.cycles`` and ``cyclic``.
``spanning_hyperforest`` is one greedy scan, not a search for the
heaviest hyperforest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "Edge",
    "SignedHypergraph",
    "CycleStats",
    "UnionFind",
    "degrees",
    "hyperneighbors",
    "connected_components",
    "induced_subhypergraph",
    "weak_delete",
    "cyclomatic",
    "spanning_hyperforest",
    "lies_on_cycle",
]


@dataclass(frozen=True)
class Edge:
    """One hyperedge: a tuple of (vertex, sign) incidences.  ``sign`` is
    sgn(e) = (-1)^(|e|-1) times the incidence product (Jost and Mulas, Adv.
    Math. 2019), so +1 or -1; an edge has at least one incidence."""

    incidences: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # ``vertices``, in incidence order, and ``sign`` are decided once per
        # edge, for every pass that reads it; they are not fields, so
        # equality, hash and repr read ``incidences`` alone.
        vertices: list[int] = []
        seen: set[int] = set()
        sign = -1
        for v, s in self.incidences:
            if s not in (1, -1):
                raise ValueError(f"incidence sign must be +1 or -1, got {s!r}")
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex ids are positive integers, got {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex in edge: {v}")
            seen.add(v)
            vertices.append(v)
            sign = -sign * s
        if not vertices:
            raise ValueError("empty edge")
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "sign", sign)

    @property
    def size(self) -> int:
        return len(self.incidences)


@dataclass(frozen=True)
class SignedHypergraph:
    """A signed hypergraph on vertices ``1..n`` with a multiset of edges."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in self.edges:
            for v in e.vertices:
                if v > self.n:
                    raise ValueError(f"vertex {v} out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_range(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def cycles(self) -> CycleStats:
        """``cyclomatic`` of this hypergraph: c and l."""
        return cyclomatic(self)

    @cached_property
    def cyclic(self) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """``cyclic_vertices`` of this hypergraph: its one bridge pass."""
        return cyclic_vertices(self)


@dataclass(frozen=True)
class CycleStats:
    """Cyclomatic data: l = sum(|e|-1) - n_vertices + n_components >= 0."""

    sum_edge_sizes_minus_one: int
    n_vertices: int
    n_components: int
    l: int

    def __post_init__(self) -> None:
        if self.l != self.sum_edge_sizes_minus_one - self.n_vertices + self.n_components:
            raise ValueError("inconsistent cyclomatic data")
        if self.l < 0:
            raise ValueError("cyclomatic number cannot be negative")


class UnionFind:
    """Disjoint sets over 1..n: a parent list, where a root is its own
    parent, with path halving (Tarjan and van Leeuwen, JACM 1984), and
    ``count`` classes.  ``groups`` is the one routine that turns the
    links into vertex classes, for the components and the nodal domains
    alike.

    The batched row passes label components with numpy hook-and-jump
    rounds instead (``nodal._components``).
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def link(self, links: Iterable[tuple[int, int]]) -> int:
        """Join the ends of every link.  Returns the number of joins, by
        which ``count`` drops."""
        parent = self.parent
        joins = 0
        for x, y in links:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                joins += 1
        self.count -= joins
        return joins

    def groups(self, members: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """The classes of ``members``, each a tuple in the order of
        ``members``, ordered by their first member: when ``members``
        ascend, ascending tuples ordered by smallest member."""
        by_root: dict[int, list[int]] = {}
        for v in members:
            by_root.setdefault(self.find(v), []).append(v)
        return tuple(map(tuple, by_root.values()))


def degrees(h: SignedHypergraph) -> list[int]:
    """Degree of every vertex, index 0 unused."""
    d = [0] * (h.n + 1)
    for e in h.edges:
        for v in e.vertices:
            d[v] += 1
    return d


def hyperneighbors(h: SignedHypergraph, v: int) -> tuple[int, ...]:
    """Vertices sharing at least one edge with v, excluding v itself, in
    ascending order."""
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} out of range 1..{h.n}")
    out: set[int] = set()
    for e in h.edges:
        vs = e.vertices
        if v in vs:
            out.update(vs)
    out.discard(v)
    return tuple(sorted(out))


def _components(h: SignedHypergraph) -> UnionFind:
    """Union-find of the vertices that share an edge."""
    uf = UnionFind(h.n)
    uf.link((vs[0], u) for vs in (e.vertices for e in h.edges) for u in vs[1:])
    return uf


def connected_components(h: SignedHypergraph) -> tuple[tuple[int, ...], ...]:
    """Maximal blocks of vertices mutually reachable through shared edges,
    each an ascending tuple, ordered by smallest vertex.

    Isolated vertices form singleton blocks.
    """
    return _components(h).groups(h.vertex_range())


def induced_subhypergraph(h: SignedHypergraph, keep: Iterable[int]) -> SignedHypergraph:
    """Restrict to a vertex set: edges are truncated to their intersection
    with ``keep`` (original incidence signs retained), empty truncations are
    dropped, duplicate truncated edges are kept.  Vertices are renumbered
    1..|keep| in increasing original order.
    """
    kept = sorted(set(keep))
    # ascending, so its ends decide the range
    for v in kept[:1] + kept[-1:]:
        if not 1 <= v <= h.n:
            raise ValueError(f"vertex {v} out of range 1..{h.n}")
    old_to_new = {old: new for new, old in enumerate(kept, 1)}
    new_edges: list[Edge] = []
    for e in h.edges:
        inc = tuple((old_to_new[v], s) for v, s in e.incidences if v in old_to_new)
        if inc:
            new_edges.append(Edge(inc))
    return SignedHypergraph(len(kept), tuple(new_edges))


def weak_delete(h: SignedHypergraph, v: int) -> SignedHypergraph:
    """The weak deletion of v (Jost and Mulas, Adv. Math. 2019): v leaves
    the vertex set and every edge, and an edge it empties goes, so it is
    the induced subhypergraph on every vertex but v, renumbered 1..n-1.
    """
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} out of range 1..{h.n}")
    return induced_subhypergraph(h, (u for u in h.vertex_range() if u != v))


def cyclomatic(h: SignedHypergraph) -> CycleStats:
    """Cyclomatic number l = sum over edges of (|e|-1) - n + c."""
    total = sum(e.size - 1 for e in h.edges)
    c = _components(h).count
    return CycleStats(total, h.n, c, total - h.n + c)


def spanning_hyperforest(h: SignedHypergraph) -> tuple[int, ...]:
    """An acyclic edge subset (indices into ``h.edges``, ascending).

    Scans edges by decreasing size (ties by input order) and keeps an
    edge iff its vertices lie in pairwise distinct components, so
    singleton edges are always kept and the result is maximal: every
    other edge closes a cycle with it.  Acyclic edge subsets are not a
    matroid, so the weight sum(|e|-1) need not be the largest; on 2-edges
    it is, n - c(H).
    """
    edges = h.edges
    uf = UnionFind(h.n)
    chosen: list[int] = []
    for i in sorted(range(len(edges)), key=lambda i: (-edges[i].size, i)):
        vs = edges[i].vertices
        if len({uf.find(v) for v in vs}) == len(vs):
            uf.link((vs[0], u) for u in vs[1:])
            chosen.append(i)
    return tuple(sorted(chosen))


def lowlink(adj: list[list[tuple[int, int]]]) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """(disc, low, tree) of Tarjan's depth-first search (SIAM J. Comput.
    1972) of the multigraph with neighbour lists ``adj`` of (node, link
    id), parallel links apart by their ids: disc[v] is v's discovery
    number (-1 without links), low[v] the smallest disc that one link off
    the tree reaches from v's subtree, and ``tree`` the tree links as
    (parent, child, link id) in discovery order.
    """
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    tree: list[tuple[int, int, int]] = []
    counter = 0
    for root in range(len(adj)):
        if disc[root] >= 0 or not adj[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_link, it = stack[-1]
            for t, li in it:
                if disc[t] < 0:
                    tree.append((v, t, li))
                    disc[t] = low[t] = counter
                    counter += 1
                    stack.append((t, li, iter(adj[t])))
                    break
                # a link back to an ancestor, other than the tree link in
                if disc[t] < low[v] and li != in_link:
                    low[v] = disc[t]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
    return disc, low, tree


def incidence_graph(n_nodes: int, groups: Iterable[Sequence[int]]) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """(adj, owner): the neighbour lists of ``lowlink`` for the graph on
    nodes 0..n_nodes-1 that the vertex groups ``groups`` link, and the
    index of the group of every link, by link id.  A group of two is one
    link between its members; a larger group is a node of its own, the
    next after n_nodes - 1 in group order, linked to each member; a
    smaller one adds nothing.  The one rule by which both the bridge pass
    (groups: the edges) and the weak pass (groups: the zeros of each edge)
    read a hypergraph; since a group of three or more is a clique of
    pairs, which is 2-connected, and a group of two is one pair, the
    blocks of the pairs are those of this graph merged at the group nodes.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    owner: list[int] = []
    for g, vs in enumerate(groups):
        if len(vs) == 2:
            a, b = vs
            li = len(owner)
            adj[a].append((b, li))
            adj[b].append((a, li))
            owner.append(g)
        elif len(vs) > 2:
            node = len(adj)
            hub: list[tuple[int, int]] = []
            adj.append(hub)
            for v in vs:
                li = len(owner)
                hub.append((v, li))
                adj[v].append((node, li))
                owner.append(g)
    return adj, owner


def cyclic_vertices(h: SignedHypergraph) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Per vertex of h (index 0 unused): True when it is not tree-like,
    on h and on its signed clique expansion.  The program's one tree-like
    test; the campaign checks it against ``lies_on_cycle`` and against
    weak deletion.  Read it as ``SignedHypergraph.cyclic``, which runs it
    once per hypergraph.

    x is tree-like when its weak deletion (``weak_delete``) raises
    the component count by deg(x) - 1.  One bridge pass over the incidence
    graph of the edges of size 2 or more (``incidence_graph``) decides both
    readings for every vertex.  On the hypergraph, x is tree-like exactly
    when each of its incidence links is a bridge and none of its edges has
    size 1, since weak deletion drops such an edge, which deg(x) counts
    but which leaves no component (an edge of size 1 adds only a bridge to
    the graph, so it is left out).  On the expansion, whose edges are the
    pairs of every edge, an edge of size 2 is a subdivided pair, so a link
    that is not a bridge lies on a cycle of pairs, and an edge of size 3 or
    more puts each of its vertices on a triangle; an edge of size 1 gives
    no pair.  An edge of size 2 enters
    the pass as one link between its two vertices, not as a node with two:
    undoing the subdivision turns a bridge into a bridge and a link on a
    cycle into a link on a cycle.  Both readings depend on the graph
    alone, never on a function.

    The pass is Tarjan's low-link bridge test (Inf. Process. Lett. 1974)
    read off the one depth-first search of ``lowlink``, which the weak
    pass shares; parallel links are kept apart by their ids.  The tree
    link from p to its child v is a bridge unless low[v] <= disc[p], and
    every link off the tree closes a cycle with tree links at both its
    ends, so marking both ends of each tree link that is not a bridge
    marks every end of every link that is not one.
    """
    n = h.n
    on_h = [False] * (n + 1)
    on_clique = [False] * (n + 1)
    for e in h.edges:
        vs = e.vertices
        if len(vs) > 2:
            for v in vs:
                on_clique[v] = True
        elif len(vs) == 1:
            on_h[vs[0]] = True
    adj, _ = incidence_graph(n + 1, (e.vertices for e in h.edges))
    disc, low, tree = lowlink(adj)
    # the edge nodes n + 1.. are marked too and cut off at the end
    on_h += [False] * (len(adj) - n - 1)
    on_clique += [False] * (len(adj) - n - 1)
    for p, v, _ in tree:
        if low[v] <= disc[p]:
            on_h[p] = on_clique[p] = on_h[v] = on_clique[v] = True
    return tuple(on_h[:n + 1]), tuple(on_clique[:n + 1])


def lies_on_cycle(h: SignedHypergraph, x: int) -> bool:
    """Exhaustively decide whether x is a vertex of any cycle
    v1 e1 v2 ... vq eq v1 with distinct vertices and distinct edges, q >= 2.

    Brute-force reference used by tests and the verification campaign;
    practical only for small instances.
    """
    if not 1 <= x <= h.n:
        raise ValueError(f"vertex {x} out of range 1..{h.n}")
    edges = h.edges
    edge_ids_of: dict[int, list[int]] = {v: [] for v in h.vertex_range()}
    for i, e in enumerate(edges):
        for v in e.vertices:
            edge_ids_of[v].append(i)

    def extend(current: int, visited_v: set[int], visited_e: set[int], length: int) -> bool:
        for ei in edge_ids_of[current]:
            if ei in visited_e:
                continue
            for w in edges[ei].vertices:
                if w == current:
                    continue
                if w == x and length >= 2:
                    return True
                if w in visited_v or w == x:
                    continue
                if extend(w, visited_v | {w}, visited_e | {ei}, length + 1):
                    return True
        return False

    return extend(x, {x}, set(), 1)

"""Data model and combinatorics for signed hypergraphs.

Vertices are the integers ``1..n``.  An edge is an ordered tuple of
(vertex, sign) incidences with signs in {+1, -1}; the edge family is a
multiset, so identical edges may repeat.  All structures are immutable
and all operations are pure functions.

Invariants:
    - every incidence references a vertex in ``1..n``
    - a vertex appears at most once per edge (simple hypergraph)
    - edges are nonempty unless ``allow_empty_edges`` is set (empty
      edges only arise from vertex deletions)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

__all__ = [
    "Edge",
    "SignedHypergraph",
    "CycleStats",
    "UnionFind",
    "edge_sign",
    "degree",
    "degrees",
    "hyperneighbors",
    "connected_components",
    "induced_subhypergraph",
    "weak_delete",
    "cyclomatic",
    "is_acyclic",
    "is_tree_like",
    "spanning_hyperforest",
    "lies_on_cycle",
]

EXACT_FOREST_LIMIT = 24


@dataclass(frozen=True)
class Edge:
    """One hyperedge: a tuple of (vertex, sign) incidences."""

    incidences: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for v, s in self.incidences:
            if s not in (1, -1):
                raise ValueError(f"incidence sign must be +1 or -1, got {s!r}")
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex ids are positive integers, got {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex in edge: {v}")
            seen.add(v)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        # computed once per edge; hot in every pair and component pass
        return tuple(v for v, _ in self.incidences)

    @property
    def size(self) -> int:
        return len(self.incidences)


@dataclass(frozen=True)
class SignedHypergraph:
    """A signed hypergraph on vertices ``1..n`` with a multiset of edges."""

    n: int
    edges: tuple[Edge, ...]
    allow_empty_edges: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for e in self.edges:
            if e.size == 0 and not self.allow_empty_edges:
                raise ValueError("empty edge not allowed")
            for v, _ in e.incidences:
                if v > self.n:
                    raise ValueError(f"vertex {v} out of range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertex_range(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(x, y, sgn(e)) for every vertex pair of every edge, in edge order
        and then incidence order; parallel pairs are kept.

        The adjacency, the strong relation and the signed clique expansion
        are all built from this table, computed once per hypergraph.
        """
        out = []
        for e in self.edges:
            if e.size < 2:
                continue
            s = edge_sign(e)
            vs = e.vertices
            for i, x in enumerate(vs):
                for y in vs[i + 1:]:
                    out.append((x, y, s))
        return tuple(out)


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
    ``count`` classes.

    The batched row passes label components with numpy hook-and-jump
    rounds instead (``nodal._components``), and the exact search of
    ``spanning_hyperforest`` keeps undoable parent and size arrays,
    because backtracking needs unions without path compression.
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

    def groups(self, members: Iterable[int]) -> tuple[frozenset[int], ...]:
        """The classes of ``members``, in the order of their first member,
        so ordered by smallest member when ``members`` ascend."""
        by_root: dict[int, list[int]] = {}
        for v in members:
            by_root.setdefault(self.find(v), []).append(v)
        return tuple(frozenset(g) for g in by_root.values())


def edge_sign(e: Edge) -> int:
    """Sign of an edge: (-1)^(|e|-1) times the product of incidence signs."""
    if e.size == 0:
        raise ValueError("undefined sign: empty edge")
    prod = 1
    for _, s in e.incidences:
        prod *= s
    return prod if e.size % 2 == 1 else -prod


def degree(h: SignedHypergraph, v: int) -> int:
    """Number of edges incident to v (each edge instance counts once)."""
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} out of range 1..{h.n}")
    return sum(1 for e in h.edges for u, _ in e.incidences if u == v)


def degrees(h: SignedHypergraph) -> list[int]:
    """Degree of every vertex, index 0 unused."""
    d = [0] * (h.n + 1)
    for e in h.edges:
        for v, _ in e.incidences:
            d[v] += 1
    return d


def hyperneighbors(h: SignedHypergraph, v: int) -> frozenset[int]:
    """Vertices sharing at least one edge with v, excluding v itself."""
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} out of range 1..{h.n}")
    out: set[int] = set()
    for e in h.edges:
        vs = e.vertices
        if v in vs:
            out.update(vs)
    out.discard(v)
    return frozenset(out)


def _components(h: SignedHypergraph) -> UnionFind:
    """Union-find of the vertices that share an edge."""
    uf = UnionFind(h.n)
    uf.link((vs[0], u) for vs in (e.vertices for e in h.edges) for u in vs[1:])
    return uf


def connected_components(h: SignedHypergraph) -> tuple[frozenset[int], ...]:
    """Maximal blocks of vertices mutually reachable through shared edges,
    ordered by smallest vertex.

    Isolated vertices form singleton blocks; empty edges touch nothing.
    """
    return _components(h).groups(h.vertex_range())


def induced_subhypergraph(h: SignedHypergraph, keep: frozenset[int] | set[int]) -> SignedHypergraph:
    """Restrict to a vertex set: edges are truncated to their intersection
    with ``keep`` (original incidence signs retained), empty truncations are
    dropped, duplicate truncated edges are kept.  Vertices are renumbered
    1..|keep| in increasing original order.
    """
    keep = set(keep)
    for v in keep:
        if not 1 <= v <= h.n:
            raise ValueError(f"vertex {v} out of range 1..{h.n}")
    old_sorted = sorted(keep)
    old_to_new = {old: i + 1 for i, old in enumerate(old_sorted)}
    new_edges: list[Edge] = []
    for e in h.edges:
        inc = tuple((old_to_new[v], s) for v, s in e.incidences if v in keep)
        if inc:
            new_edges.append(Edge(inc))
    return SignedHypergraph(len(keep), tuple(new_edges))


def weak_delete(h: SignedHypergraph, v: int) -> SignedHypergraph:
    """Remove v from the vertex set and from every edge, keeping truncated
    edges (even empty ones).  Remaining vertices are renumbered 1..n-1.
    """
    if not 1 <= v <= h.n:
        raise ValueError(f"vertex {v} out of range 1..{h.n}")
    old_to_new = {u: (u if u < v else u - 1) for u in h.vertex_range() if u != v}
    new_edges = tuple(
        Edge(tuple((old_to_new[u], s) for u, s in e.incidences if u != v))
        for e in h.edges
    )
    return SignedHypergraph(h.n - 1, new_edges, allow_empty_edges=True)


def cyclomatic(h: SignedHypergraph) -> CycleStats:
    """Cyclomatic number l = sum over edges of max(|e|-1, 0) - n + c."""
    total = sum(max(e.size - 1, 0) for e in h.edges)
    c = _components(h).count
    return CycleStats(total, h.n, c, total - h.n + c)


def is_acyclic(h: SignedHypergraph) -> bool:
    """True iff the cyclomatic number is zero; equivalently every connected
    component with k vertices has edge sizes summing to k-1 over (|e|-1).
    """
    return cyclomatic(h).l == 0


def is_tree_like(h: SignedHypergraph, x: int, n_components: int) -> bool:
    """True iff removing x's incidences splits its component into exactly
    deg(x) pieces: c(weak deletion of x) == c(H) + deg(x) - 1, components
    counted on the remaining vertices.  ``n_components`` is c(H)
    (``cyclomatic(h).n_components``), computed once by callers that test
    every vertex of one hypergraph.
    """
    after = cyclomatic(weak_delete(h, x)).n_components
    return after == n_components + degree(h, x) - 1


def spanning_hyperforest(h: SignedHypergraph, exact: bool = False) -> tuple[int, ...]:
    """An acyclic edge subset (indices into ``h.edges``, ascending).

    Greedy mode scans edges by decreasing size (ties by input order) and
    keeps an edge iff its vertices lie in pairwise distinct components.
    Acyclic edge subsets are not a matroid, so greedy is a heuristic.

    ``exact=True`` maximizes the weight sum(|e|-1) by a depth-first branch
    and bound, limited to ``EXACT_FOREST_LIMIT`` (24) edges.  Edges of size at
    most 1 never close a cycle and are always taken.  The others are
    branched on by decreasing size, trying to take an edge (allowed iff its
    vertices lie in distinct components) before skipping it, with one
    union-find whose unions are undone on backtrack.  A branch is cut when
    its weight plus that of every remaining edge cannot beat the best found,
    and the search stops when the best reaches the cap n - c(H), the weight
    of a spanning hyperforest of every component.  Among subsets of maximum
    weight the first one met in that order is returned.
    """
    m = len(h.edges)
    edges = h.edges
    if not exact:
        uf = UnionFind(h.n)
        chosen: list[int] = []
        for i in sorted(range(m), key=lambda i: (-edges[i].size, i)):
            vs = edges[i].vertices
            # empty and singleton edges never create a cycle and always pass
            if len({uf.find(v) for v in vs}) == len(vs):
                uf.link((vs[0], u) for u in vs[1:])
                chosen.append(i)
        return tuple(sorted(chosen))
    if m > EXACT_FOREST_LIMIT:
        raise ValueError(f"exact search too large: {m} edges exceeds {EXACT_FOREST_LIMIT}")
    always = [i for i in range(m) if edges[i].size <= 1]
    order = sorted((i for i in range(m) if edges[i].size >= 2), key=lambda i: (-edges[i].size, i))
    members = [edges[i].vertices for i in order]
    # suffix[j]: the weight of every edge from order[j] on
    suffix = [0] * (len(order) + 1)
    for j in range(len(order) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + len(members[j]) - 1
    full = UnionFind(h.n)
    full.link((vs[0], u) for vs in members for u in vs[1:])
    cap = h.n - full.count
    # no path compression, so a union is undone by resetting the merged roots
    parent = list(range(h.n + 1))
    size = [1] * (h.n + 1)
    taken: list[int] = []
    best: list[int] = []
    best_weight = -1

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def search(j: int, weight: int) -> bool:
        # True once the best weight reaches the cap
        nonlocal best, best_weight
        if weight + suffix[j] <= best_weight:
            return False
        if j == len(order) or weight == cap:
            # at the cap no remaining edge can be taken
            best, best_weight = taken[:], weight
            return weight == cap
        roots = {find(v) for v in members[j]}
        if len(roots) == len(members[j]):
            top = max(roots, key=size.__getitem__)
            merged = [r for r in roots if r != top]
            for r in merged:
                parent[r] = top
                size[top] += size[r]
            taken.append(order[j])
            done = search(j + 1, weight + len(merged))
            taken.pop()
            for r in merged:
                parent[r] = r
                size[top] -= size[r]
            if done:
                return True
        return search(j + 1, weight)

    search(0, 0)
    return tuple(sorted(always + best))


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

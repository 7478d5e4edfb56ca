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

Whether a vertex is tree-like is decided for all vertices at once by one
bridge pass, ``nodal.cyclic_vertices``; here ``weak_delete`` gives the
definition it is checked against and ``lies_on_cycle`` the exhaustive
cycle search.  ``spanning_hyperforest`` is one greedy scan, not a search
for the heaviest hyperforest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

__all__ = [
    "Edge",
    "SignedHypergraph",
    "CycleStats",
    "UnionFind",
    "edge_sign",
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
    """One hyperedge: a tuple of (vertex, sign) incidences."""

    incidences: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # ``vertices``, in incidence order, is built here once per edge: it
        # is read in every pair and component pass.  It is not a field, so
        # equality, hash and repr read ``incidences`` alone.
        vertices: list[int] = []
        seen: set[int] = set()
        for v, s in self.incidences:
            if s not in (1, -1):
                raise ValueError(f"incidence sign must be +1 or -1, got {s!r}")
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex ids are positive integers, got {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex in edge: {v}")
            seen.add(v)
            vertices.append(v)
        object.__setattr__(self, "vertices", tuple(vertices))

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
            out += [(x, y, s) for x, y in combinations(e.vertices, 2)]
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


def edge_sign(e: Edge) -> int:
    """Sign of an edge: (-1)^(|e|-1) times the product of incidence signs."""
    if e.size == 0:
        raise ValueError("undefined sign: empty edge")
    prod = 1
    for _, s in e.incidences:
        prod *= s
    return prod if e.size % 2 == 1 else -prod


def degrees(h: SignedHypergraph) -> list[int]:
    """Degree of every vertex, index 0 unused."""
    d = [0] * (h.n + 1)
    for e in h.edges:
        for v, _ in e.incidences:
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

    Isolated vertices form singleton blocks; empty edges touch nothing.
    """
    return _components(h).groups(h.vertex_range())


def induced_subhypergraph(h: SignedHypergraph, keep: Iterable[int]) -> SignedHypergraph:
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


def spanning_hyperforest(h: SignedHypergraph) -> tuple[int, ...]:
    """An acyclic edge subset (indices into ``h.edges``, ascending).

    Scans edges by decreasing size (ties by input order) and keeps an
    edge iff its vertices lie in pairwise distinct components, so empty
    and singleton edges are always kept and the result is maximal: every
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

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

__all__ = [
    "Edge",
    "SignedHypergraph",
    "VertexPartition",
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

EXACT_FOREST_LIMIT = 16


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

    def sign_of(self, v: int) -> int:
        for u, s in self.incidences:
            if u == v:
                return s
        raise ValueError(f"vertex {v} not in edge")


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
class VertexPartition:
    """Disjoint blocks covering a vertex set."""

    blocks: tuple[frozenset[int], ...]
    covers: frozenset[int]

    def __post_init__(self) -> None:
        union: set[int] = set()
        total = 0
        for b in self.blocks:
            union |= b
            total += len(b)
        if total != len(union) or union != set(self.covers):
            raise ValueError("blocks must be disjoint and cover the vertex set")

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, v: int) -> frozenset[int]:
        for b in self.blocks:
            if v in b:
                return b
        raise KeyError(v)


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
    """Disjoint sets over 1..n with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))
        self.size = [1] * (n + 1)
        self.count = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True

    def groups(self, members: list[int] | None = None) -> list[frozenset[int]]:
        by_root: dict[int, set[int]] = {}
        for x in members if members is not None else range(1, len(self.parent)):
            by_root.setdefault(self.find(x), set()).add(x)
        return sorted((frozenset(g) for g in by_root.values()), key=min)


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


def connected_components(h: SignedHypergraph) -> VertexPartition:
    """Maximal blocks of vertices mutually reachable through shared edges.

    Isolated vertices form singleton blocks; empty edges touch nothing.
    """
    uf = UnionFind(h.n)
    for e in h.edges:
        vs = e.vertices
        for u in vs[1:]:
            uf.union(vs[0], u)
    blocks = uf.groups(list(h.vertex_range()))
    return VertexPartition(tuple(blocks), frozenset(h.vertex_range()))


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
    c = len(connected_components(h))
    return CycleStats(total, h.n, c, total - h.n + c)


def is_acyclic(h: SignedHypergraph) -> bool:
    """True iff the cyclomatic number is zero; equivalently every connected
    component with k vertices has edge sizes summing to k-1 over (|e|-1).
    """
    return cyclomatic(h).l == 0


def is_tree_like(h: SignedHypergraph, x: int) -> bool:
    """True iff removing x's incidences splits its component into exactly
    deg(x) pieces: c(weak deletion of x) == c(H) + deg(x) - 1, components
    counted on the remaining vertices.
    """
    d = degree(h, x)
    before = len(connected_components(h))
    after = len(connected_components(weak_delete(h, x)))
    return after == before + d - 1


def _acyclic_selection(n: int, edges: list[Edge], order: list[int]) -> tuple[int, list[int]] | None:
    """Greedy pass: accept an edge iff all its vertices currently lie in
    pairwise distinct components.  Returns (score, accepted indices)."""
    uf = UnionFind(n)
    chosen: list[int] = []
    score = 0
    for i in order:
        vs = edges[i].vertices
        # empty and singleton edges never create a cycle and always pass
        roots = {uf.find(v) for v in vs}
        if len(roots) == len(vs):
            for u in vs[1:]:
                uf.union(vs[0], u)
            chosen.append(i)
            score += max(len(vs) - 1, 0)
    return score, chosen


def spanning_hyperforest(h: SignedHypergraph, exact: bool = False) -> tuple[int, ...]:
    """An acyclic edge subset (indices into ``h.edges``).

    Greedy mode scans edges by decreasing size (ties by input order) and
    keeps an edge iff its vertices lie in pairwise distinct components.
    Acyclic edge subsets are not a matroid, so greedy is a heuristic;
    ``exact=True`` maximizes sum(|e|-1) by exhaustive subset search and
    is limited to 16 edges.
    """
    m = len(h.edges)
    edges = list(h.edges)
    if not exact:
        order = sorted(range(m), key=lambda i: (-edges[i].size, i))
        _, chosen = _acyclic_selection(h.n, edges, order)
        return tuple(sorted(chosen))
    if m > EXACT_FOREST_LIMIT:
        raise ValueError(f"exact search too large: {m} edges exceeds {EXACT_FOREST_LIMIT}")
    best_score = -1
    best: tuple[int, ...] = ()
    for mask in range(1 << m):
        subset = [i for i in range(m) if mask >> i & 1]
        uf = UnionFind(h.n)
        score = 0
        ok = True
        for i in subset:
            vs = edges[i].vertices
            roots = {uf.find(v) for v in vs}
            if len(roots) != len(vs):
                ok = False
                break
            for u in vs[1:]:
                uf.union(vs[0], u)
            score += max(len(vs) - 1, 0)
        # ties prefer more edges so zero-weight edges are still included
        if ok and (score, len(subset)) > (best_score, len(best)):
            best_score = score
            best = tuple(subset)
    return best


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

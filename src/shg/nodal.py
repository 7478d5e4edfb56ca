"""Nodal domains of vertex functions on signed hypergraphs.

Two vertices of the support are strongly linked when some common edge e
satisfies f(x) * sgn(e) * f(y) > 0; strong domains are the components of
that relation.  Weak links additionally tunnel through zero vertices: a
link exists when a path from x to y whose interior vertices are all
zeros (no vertex repeated) accumulates an edge-sign product s with
f(x) * s * f(y) > 0.  Weak domains are the components of the weak
relation, each closed by absorbing every zero that reaches it through a
path of zeros.

Vertex repetition matters: a closed detour through the zeros can flip
the accumulated sign, so deciding a weak link is a parity question about
simple paths.  It is answered for all pairs at once from one block
decomposition of the signed pair graph on the zeros: a balanced block
contributes one fixed sign between any two of its vertices, read off a
potential, and a block carrying an unbalanced cycle contributes both
signs.  Each zero component then links the nonzeros attached to it by
comparing one sign per attachment.  Fiedler sets come from one block
pass over the vertex-edge incidence graph.  Every pairwise pass (the
strong relation, the weak direct pairs, the clique expansion) reads the
pair table ``SignedHypergraph.pairs``.

All decisions are made on signs relative to the function's
zero_tolerance, so decompositions are invariant under scaling by any
nonzero constant.

``Analysis`` holds everything computed about one instance: its
matrices and spectrum, one decomposition and one set of Fiedler sets per
eigenfunction, and one bounds table per reading of the lower bound.
``shg report``, ``shg bounds`` and the campaign all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (
    CycleStats,
    Edge,
    SignedHypergraph,
    UnionFind,
    cyclomatic,
    edge_sign,
    induced_subhypergraph,
    spanning_hyperforest,
)
from .spectra import (
    DEFAULT_ZERO_TOL_REL,
    MatrixBundle,
    Spectrum,
    VertexFunction,
    eigendecompose,
    laplacian,
)

__all__ = [
    "Analysis",
    "NodalDecomposition",
    "FiedlerSets",
    "BoundReport",
    "DomainGraph",
    "strong_domains",
    "weak_domains",
    "decompose",
    "domain_adjacency_graph",
    "fiedler_sets",
    "l_plus",
    "support_cyclomatic",
    "clique_expansion",
    "forest_count_diagnostic",
]

BOUND_VARIANTS = ("all_pairs", "exists_ordering", "clique")


@dataclass(frozen=True)
class NodalDecomposition:
    """Strong and weak nodal domains of one function.

    ``weak_cores`` partition the support; ``weak_closures`` are the cores
    plus absorbed zeros (closures may overlap on zeros, cores never do).
    Domains are ordered by their smallest vertex.
    """

    support: frozenset[int]
    strong: tuple[frozenset[int], ...]
    weak_cores: tuple[frozenset[int], ...]
    weak_closures: tuple[frozenset[int], ...]
    zero_tolerance: float

    @property
    def strong_count(self) -> int:
        return len(self.strong)

    @property
    def weak_count(self) -> int:
        return len(self.weak_cores)


@dataclass(frozen=True)
class FiedlerSets:
    """Zeros split by spectral relevance: ``fiedler`` holds zeros whose
    hyperneighbors are all zeros or that lie on a cycle (not tree-like);
    ``other_zeros`` holds the remaining, harmless zeros.
    """

    fiedler: frozenset[int]
    other_zeros: frozenset[int]


@dataclass(frozen=True)
class DomainGraph:
    """Adjacency of weak domains: node i is the i-th weak closure; nodes
    are linked when their closures intersect or contain vertices sharing
    an edge."""

    n_nodes: int
    links: frozenset[tuple[int, int]]

    def is_connected(self) -> bool:
        if self.n_nodes <= 1:
            return True
        uf = UnionFind(self.n_nodes)
        for a, b in self.links:
            uf.union(a + 1, b + 1)
        return uf.count == 1


@dataclass(frozen=True)
class BoundReport:
    """Eigenvalue-indexed nodal bounds for one eigenfunction.

    k is the 1-based first index of the tolerance cluster containing the
    requested eigenvalue, r its multiplicity, c the number of connected
    components of the hypergraph, l its cyclomatic number.  ``l_prime``,
    both ``l_plus`` fields and ``fiedler_size`` are read on the
    hypergraph, or on its signed clique expansion under the ``clique``
    variant; the lower bound uses the requested variant.
    """

    eig_index: int
    k: int
    r: int
    c: int
    l: int
    l_plus: int
    l_plus_exists_ordering: int
    l_prime: int
    fiedler_size: int
    strong_count: int
    weak_count: int
    strong_lower_bound: int
    strong_upper_ok: bool
    weak_upper_ok: bool
    strong_lower_ok: bool


def _vertex_signs(f: VertexFunction) -> list[int]:
    """Sign per vertex, index 0 unused."""
    return [0] + [f.sign(v) for v in range(1, f.n + 1)]


def _check_function(h: SignedHypergraph, f: VertexFunction) -> None:
    if f.n != h.n:
        raise ValueError(f"function has {f.n} values, hypergraph has {h.n} vertices")


def strong_domains(source: "SignedHypergraph | np.ndarray", f: VertexFunction) -> tuple[frozenset[int], ...]:
    """Components of the support under strong links.

    With a hypergraph source, {x, y} is linked when some edge contains
    both and f(x) * sgn(e) * f(y) > 0.  With a square symmetric matrix
    source, the link condition is A_xy * f(x) * f(y) > 0.
    """
    if isinstance(source, SignedHypergraph):
        return _strong_domains_hypergraph(source, f)
    return _strong_domains_matrix(np.asarray(source, dtype=float), f)


def _strong_domains_hypergraph(h: SignedHypergraph, f: VertexFunction) -> tuple[frozenset[int], ...]:
    _check_function(h, f)
    sign = _vertex_signs(f)
    uf = UnionFind(h.n)
    for x, y, s in h.pairs:
        if sign[x] * s * sign[y] > 0:
            uf.union(x, y)
    support = [v for v in h.vertex_range() if sign[v] != 0]
    return tuple(uf.groups(support))


def _strong_domains_matrix(a: np.ndarray, f: VertexFunction) -> tuple[frozenset[int], ...]:
    n = f.n
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match {n} vertices")
    scale = float(np.max(np.abs(a))) or 1.0
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("raw matrix must be symmetric")
    sign = _vertex_signs(f)
    uf = UnionFind(n)
    for x in range(1, n + 1):
        if sign[x] == 0:
            continue
        for y in range(x + 1, n + 1):
            if sign[y] == 0:
                continue
            if a[x - 1, y - 1] * sign[x] * sign[y] > 0:
                uf.union(x, y)
    support = [v for v in range(1, n + 1) if sign[v] != 0]
    return tuple(uf.groups(support))


def _blocks(n_nodes: int, ends: list[tuple[int, int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Blocks of a multigraph on nodes 0..n_nodes-1 with edges ``ends``.

    Returns the blocks (biconnected components) as lists of edge ids and
    the depth-first tree as (child, edge id) in discovery order.  This is
    the Hopcroft-Tarjan edge-stack search (CACM 1973), run with an explicit
    stack; parallel edges are kept apart, so two of them form a block.
    """
    inc: list[list[int]] = [[] for _ in range(n_nodes)]
    for ei, (a, b) in enumerate(ends):
        inc[a].append(ei)
        inc[b].append(ei)
    disc = [-1] * n_nodes
    low = [0] * n_nodes
    counter = 0
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    tree: list[tuple[int, int]] = []
    for root in range(n_nodes):
        if disc[root] >= 0 or not inc[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for ei in it:
                if ei == in_edge:
                    continue
                a, b = ends[ei]
                t = b if a == v else a
                if disc[t] < 0:
                    edge_stack.append(ei)
                    tree.append((t, ei))
                    disc[t] = low[t] = counter
                    counter += 1
                    stack.append((t, ei, iter(inc[t])))
                    break
                if disc[t] < disc[v]:
                    edge_stack.append(ei)
                    low[v] = min(low[v], disc[t])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        i = len(edge_stack) - 1
                        while edge_stack[i] != in_edge:
                            i -= 1
                        blocks.append(edge_stack[i:])
                        del edge_stack[i:]
    return blocks, tree


def _weak_core_union(h: SignedHypergraph, sign: list[int], zero_uf: UnionFind) -> UnionFind:
    """Union-find joining every pair of nonzeros linked by a zero-interior
    simple path of the matching sign product.

    Such a path is a direct pair, or one attachment (u, z, s) of a nonzero
    u to a zero z, a simple path inside one zero component, and one more
    attachment.  On the zero pair graph a depth-first potential theta
    decides each block: balanced when theta(x) * s * theta(y) = 1 on all
    its pairs, so any path inside it between a and b has sign
    theta(a) * theta(b); a block with an unbalanced cycle has simple paths
    of both signs between any two of its vertices.  Balanced blocks glued
    at cut vertices form regions, where theta still gives the path sign;
    two zeros in different regions are joined by paths of both signs.
    """
    zz: dict[tuple[int, int, int], None] = {}
    attach: dict[int, list[tuple[int, int, int]]] = {}
    uf = UnionFind(h.n)
    for x, y, s in h.pairs:
        if sign[x] == 0 and sign[y] == 0:
            zz[(x, y, s) if x < y else (y, x, s)] = None
        elif sign[x] == 0:
            attach.setdefault(zero_uf.find(x), []).append((y, x, s))
        elif sign[y] == 0:
            attach.setdefault(zero_uf.find(y), []).append((x, y, s))
        elif sign[x] * s * sign[y] > 0:
            uf.union(x, y)
    if not attach:
        return uf

    pairs = list(zz)
    blocks, tree = _blocks(h.n + 1, [(x, y) for x, y, _ in pairs])
    theta = [1] * (h.n + 1)
    for child, ei in tree:
        x, y, s = pairs[ei]
        theta[child] = theta[x if y == child else y] * s
    region = UnionFind(h.n)
    for block in blocks:
        block_pairs = [pairs[ei] for ei in block]
        if all(theta[x] * s * theta[y] > 0 for x, y, s in block_pairs):
            for x, y, _ in block_pairs:
                region.union(x, y)

    for group in attach.values():
        if len({region.find(z) for _, z, _ in group}) > 1:
            for u, _, _ in group:
                uf.union(group[0][0], u)
            continue
        first: dict[int, int] = {}
        for u, z, s in group:
            uf.union(first.setdefault(sign[u] * s * theta[z], u), u)
    return uf


def weak_domains(h: SignedHypergraph, f: VertexFunction) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """Weak nodal domains: (cores, closures).

    Cores partition the support under weak links.  Each closure adds the
    zeros that reach its core through a path of zero vertices (a path
    with at most one nonzero endpoint is a weak path unconditionally).
    """
    _check_function(h, f)
    sign = _vertex_signs(f)
    # zero vertices sharing an edge are mutually reachable sign-free
    zero_uf = UnionFind(h.n)
    for e in h.edges:
        zs = [v for v in e.vertices if sign[v] == 0]
        for z in zs[1:]:
            zero_uf.union(zs[0], z)
    uf = _weak_core_union(h, sign, zero_uf)
    support = [v for v in h.vertex_range() if sign[v] != 0]
    cores = tuple(uf.groups(support))
    if not cores:
        return (), ()

    core_index = {v: i for i, core in enumerate(cores) for v in core}
    absorbed: list[set[int]] = [set(core) for core in cores]
    # a zero component is absorbed by every core it touches through an edge
    touched: dict[int, set[int]] = {}
    members: dict[int, set[int]] = {}
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
    closures = tuple(frozenset(s) for s in absorbed)
    return cores, closures


def decompose(h: SignedHypergraph, f: VertexFunction) -> NodalDecomposition:
    """Full nodal decomposition of f on h.

    Without zeros every weak link is a direct pair, so the weak cores and
    closures are the strong domains and ``weak_domains`` is not run.
    """
    strong = strong_domains(h, f)
    support = f.support()
    if len(support) == f.n:
        return NodalDecomposition(support, strong, strong, strong, f.zero_tolerance)
    cores, closures = weak_domains(h, f)
    return NodalDecomposition(support, strong, cores, closures, f.zero_tolerance)


def domain_adjacency_graph(h: SignedHypergraph, dec: NodalDecomposition) -> DomainGraph:
    """Graph on weak closures; linked when they share a vertex or contain
    hyper-adjacent vertices."""
    q = dec.weak_count
    owners: dict[int, set[int]] = {}
    for i, closure in enumerate(dec.weak_closures):
        for v in closure:
            owners.setdefault(v, set()).add(i)
    links: set[tuple[int, int]] = set()

    def link_all(ids: set[int]) -> None:
        ordered = sorted(ids)
        for a_pos, a in enumerate(ordered):
            for b in ordered[a_pos + 1:]:
                links.add((a, b))

    for ids in owners.values():
        if len(ids) > 1:
            link_all(ids)
    for e in h.edges:
        ids: set[int] = set()
        for v in e.vertices:
            ids.update(owners.get(v, ()))
        if len(ids) > 1:
            link_all(ids)
    return DomainGraph(q, frozenset(links))


def fiedler_sets(h: SignedHypergraph, f: VertexFunction) -> FiedlerSets:
    """Split the zeros of f: a zero joins ``fiedler`` when all its
    hyperneighbors are zeros (or it has none) or it is not tree-like.

    One block pass over the vertex-edge incidence graph decides every
    vertex at once: x is tree-like (``core.is_tree_like``) exactly when
    each of its incidence links is a bridge and none of its edges has
    size 1, since weak deletion leaves such an edge empty.
    """
    _check_function(h, f)
    sign = _vertex_signs(f)
    zeros = [v for v in h.vertex_range() if sign[v] == 0]
    if not zeros:
        return FiedlerSets(frozenset(), frozenset())
    seen_nonzero = [False] * (h.n + 1)
    cyclic = [False] * (h.n + 1)
    links: list[tuple[int, int]] = []
    for i, e in enumerate(h.edges):
        vs = e.vertices
        if len(vs) == 1:
            cyclic[vs[0]] = True
        nonzero = any(sign[v] != 0 for v in vs)
        for v in vs:
            seen_nonzero[v] = seen_nonzero[v] or nonzero
            links.append((v, h.n + 1 + i))
    for block in _blocks(h.n + 1 + h.m, links)[0]:
        if len(block) > 1:
            for li in block:
                cyclic[links[li][0]] = True
    fiedler = frozenset(v for v in zeros if cyclic[v] or not seen_nonzero[v])
    return FiedlerSets(fiedler, frozenset(zeros) - fiedler)


def _edge_coherent(e_sign: int, signs: list[int]) -> tuple[bool, bool]:
    """Whether an edge (all vertices nonzero, signs given) respects its
    sign under each pairing rule, as (all_pairs, exists_ordering).

    all_pairs: every pair x, y has sign(x) * e_sign * sign(y) > 0.
    exists_ordering: some vertex ordering makes every consecutive pair
    satisfy it.  Equivalent closed forms: a positive edge needs all equal
    signs either way; a negative edge needs alternation, so any pair for
    size <= 2 but balanced counts (|#pos - #neg| <= 1) for exists_ordering.
    An all_pairs-coherent edge is therefore always exists_ordering-coherent.
    """
    if len(signs) <= 1:
        return True, True
    if e_sign > 0:
        same = len(set(signs)) == 1
        return same, same
    pos = sum(1 for s in signs if s > 0)
    neg = len(signs) - pos
    return len(signs) == 2 and pos == neg, abs(pos - neg) <= 1


def l_plus(h: SignedHypergraph, f: VertexFunction) -> tuple[CycleStats, CycleStats]:
    """Cyclomatic data of the coherent subhypergraph under each variant, as
    (all_pairs, exists_ordering): the edge family restricted to edges whose
    vertices are all nonzero and respect the edge sign under that rule, on
    the full vertex set.  One pass over the edges decides both.
    """
    _check_function(h, f)
    sign = _vertex_signs(f)
    ufs = (UnionFind(h.n), UnionFind(h.n))
    totals = [0, 0]
    for e in h.edges:
        vs = e.vertices
        signs = [sign[v] for v in vs]
        if 0 in signs:
            continue
        for j, coherent in enumerate(_edge_coherent(edge_sign(e) if vs else 1, signs)):
            if coherent:
                totals[j] += max(len(vs) - 1, 0)
                for u in vs[1:]:
                    ufs[j].union(vs[0], u)
    return tuple(CycleStats(t, h.n, uf.count, t - h.n + uf.count) for t, uf in zip(totals, ufs))


def support_cyclomatic(h: SignedHypergraph, f: VertexFunction) -> CycleStats:
    """Cyclomatic data of the subhypergraph induced on the support
    (edges truncated to nonzero vertices, empty truncations dropped)."""
    _check_function(h, f)
    return cyclomatic(induced_subhypergraph(h, f.support()))


def clique_expansion(h: SignedHypergraph) -> SignedHypergraph:
    """The signed clique expansion: a 2-edge of sign sgn(e) for every
    vertex pair of every edge, parallel pairs kept (``h.pairs``).

    Its adjacency equals that of h, and the strong relation and the form
    <(L - lambda)(fg), fg>_D are both built from its pairs; the ``clique``
    bounds table reads its terms on it.  The case for this reading:
    D(L - lambda) = (1 - lambda)D - A is a symmetric matrix whose
    off-diagonal sign pattern is the expansion with parallel pairs summed,
    and the graph lower bound (Berkolaiko, CMP 2008, for simple eigenvalues
    without zeros) depends only on that pattern.  Parallel pairs of one
    sign keep the pattern and can only lower the clique bound: each adds
    1 to l', and 1 to l_plus only when coherent.  Parallel pairs of
    opposite signs can cancel in A while the strong relation still links
    their ends, and the graph argument does not cover them.  The
    ``clique`` reading is therefore a conjecture that the campaign checks
    on every eigenpair, not the paper's construction, which PAPER.md
    does not give.
    """
    return SignedHypergraph(h.n, tuple(Edge(((x, 1), (y, -s))) for x, y, s in h.pairs))


def _bound_rows(analysis: Analysis, variant: str) -> list[BoundReport]:
    """One BoundReport per eigenfunction, from the cached decompositions
    and Fiedler sets; the per-instance terms are computed once for all
    rows."""
    h, spectrum = analysis.h, analysis.spectrum
    cyc = cyclomatic(h)
    c = cyc.n_components
    g = clique_expansion(h) if variant == "clique" else h
    # inducing on every vertex is the identity, so a full support has l' = l(g)
    l_full = cyclomatic(g).l if g is not h else cyc.l
    out = []
    rows = zip(spectrum.functions, analysis.decompositions, analysis.fiedler)
    for i, (f, dec, fs) in enumerate(rows, 1):
        k, r = spectrum.cluster_of(i)
        lp_all, lp_exists = (stats.l for stats in l_plus(g, f))
        l_prime = l_full if len(dec.support) == h.n else support_cyclomatic(g, f).l
        fied = len((fs if g is h else fiedler_sets(g, f)).fiedler)
        lp = lp_exists if variant == "exists_ordering" else lp_all
        lower = k + r - 1 - l_prime + lp - fied
        out.append(BoundReport(
            eig_index=i,
            k=k,
            r=r,
            c=c,
            l=cyc.l,
            l_plus=lp_all,
            l_plus_exists_ordering=lp_exists,
            l_prime=l_prime,
            fiedler_size=fied,
            strong_count=dec.strong_count,
            weak_count=dec.weak_count,
            strong_lower_bound=lower,
            strong_upper_ok=dec.strong_count <= k + r - 1,
            weak_upper_ok=dec.weak_count <= k + c - 1,
            strong_lower_ok=dec.strong_count >= lower,
        ))
    return out


class Analysis:
    """Everything computed about one instance, each part once, on first use.

    ``spectrum`` is the eigendecomposition of ``bundle`` with every
    eigenfunction read at ``zero_tol_rel``; ``decompositions[i - 1]`` and
    ``fiedler[i - 1]`` belong to the eigenfunction of 1-based index i, on
    the hypergraph itself.  ``bounds(variant)`` is the table of nodal-count
    bounds of every index: strong count <= k + r - 1; weak count <= k + c - 1;
    strong count >= k + r - 1 - l' + l_plus - |fiedler|.  The variants
    ``all_pairs`` and ``exists_ordering`` read the three correction terms on
    whole hyperedges (l' the support cyclomatic number, l_plus by the named
    coherence rule); ``clique`` reads them on ``clique_expansion(h)``, where
    both coherence rules agree.
    """

    def __init__(self, h: SignedHypergraph, zero_tol_rel: float = DEFAULT_ZERO_TOL_REL) -> None:
        self.h = h
        self.zero_tol_rel = zero_tol_rel
        self._tables: dict[str, tuple[BoundReport, ...]] = {}

    @cached_property
    def bundle(self) -> MatrixBundle:
        return laplacian(self.h)

    @cached_property
    def spectrum(self) -> Spectrum:
        spectrum = eigendecompose(self.bundle)
        return replace(spectrum, functions=tuple(
            VertexFunction.from_values(f.values, rel_tol=self.zero_tol_rel)
            for f in spectrum.functions))

    @cached_property
    def decompositions(self) -> tuple[NodalDecomposition, ...]:
        return tuple(decompose(self.h, f) for f in self.spectrum.functions)

    @cached_property
    def fiedler(self) -> tuple[FiedlerSets, ...]:
        return tuple(fiedler_sets(self.h, f) for f in self.spectrum.functions)

    def bounds(self, variant: str = "all_pairs") -> tuple[BoundReport, ...]:
        """The bounds row of every eigenfunction, in index order."""
        if variant not in BOUND_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {BOUND_VARIANTS}")
        if variant not in self._tables:
            self._tables[variant] = tuple(_bound_rows(self, variant))
        return self._tables[variant]


def forest_count_diagnostic(h: SignedHypergraph, f: VertexFunction) -> tuple[int, int, bool]:
    """Compare the forest-deficiency formula with the strong-domain count.

    Builds the subhypergraph of whole edges lying inside the support with
    every pair coherent, takes an exact maximum spanning hyperforest T,
    and evaluates |support| - sum over T of (|e|-1).  Returns (formula
    value, strong count, agree).  The two can genuinely differ when no
    hyperforest realizes the full component rank.
    """
    _check_function(h, f)
    sign = _vertex_signs(f)
    selected = []
    for e in h.edges:
        signs = [sign[v] for v in e.vertices]
        if 0 in signs or not signs:
            continue
        if _edge_coherent(edge_sign(e), signs)[0]:
            selected.append(e)
    sub = SignedHypergraph(h.n, tuple(selected))
    forest = spanning_hyperforest(sub, exact=True)
    forest_weight = sum(max(sub.edges[i].size - 1, 0) for i in forest)
    formula_value = len(f.support()) - forest_weight
    component_value = len(strong_domains(h, f))
    return formula_value, component_value, formula_value == component_value

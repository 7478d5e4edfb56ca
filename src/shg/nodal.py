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
comparing one sign per attachment.  Whether a vertex is tree-like
depends on the graph alone, and one block pass over the vertex-edge
incidence graph decides it for all vertices (``_cyclic``); a function
adds only its zero mask, so the Fiedler sets of every row of a sign
matrix come from that pass and two incidence products.  Every pairwise
pass (the strong relation, the weak direct pairs, the clique expansion)
reads the pair table ``SignedHypergraph.pairs``.  The strong relation,
the weak links and the coherent edges of ``l_plus`` are all unions over
selected links, run by ``core.UnionFind.link``.

All decisions are made on signs relative to the function's
zero_tolerance, so decompositions are invariant under scaling by any
nonzero constant.

``Analysis`` holds everything computed about one instance: its
matrices and spectrum, one sign matrix of all its eigenfunctions, one
decomposition per eigenfunction, one incidence matrix and one set of
Fiedler sets per eigenfunction on each graph it reads (h and its clique
expansion), and one bounds table per reading of the lower bound.  The
sign matrix selects the strong links, the coherent edges and the Fiedler
sets of every eigenfunction in a few array operations, so only the
unions run per function.  ``shg report``, ``shg bounds`` and the
campaign all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "strong_domains",
    "weak_domains",
    "decompose",
    "domain_graph_connected",
    "fiedler_sets",
    "l_plus",
    "support_cyclomatic",
    "clique_expansion",
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


_NO_ZEROS = FiedlerSets(frozenset(), frozenset())


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


def _sign_matrix(functions: tuple[VertexFunction, ...], n: int) -> np.ndarray:
    """int8 signs, one row per function and one column per vertex, column
    0 unused (zero); the rule of ``VertexFunction.sign``."""
    values = np.array([f.values for f in functions], dtype=float).reshape(len(functions), n)
    tol = np.array([f.zero_tolerance for f in functions], dtype=float)
    signs = np.zeros((len(functions), n + 1), dtype=np.int8)
    signs[:, 1:] = np.where(np.abs(values) <= tol[:, None], 0.0, np.sign(values))
    return signs


def _check_function(h: SignedHypergraph, f: VertexFunction) -> None:
    if f.n != h.n:
        raise ValueError(f"function has {f.n} values, hypergraph has {h.n} vertices")


def strong_domains(h: SignedHypergraph, f: VertexFunction) -> tuple[frozenset[int], ...]:
    """Components of the support under strong links: {x, y} is linked when
    some edge contains both and f(x) * sgn(e) * f(y) > 0."""
    _check_function(h, f)
    sign = _vertex_signs(f)
    uf = UnionFind(h.n)
    uf.link((x, y) for x, y, s in h.pairs if sign[x] * s * sign[y] > 0)
    return uf.groups([v for v in h.vertex_range() if sign[v] != 0])


def _strong_rows(h: SignedHypergraph, signs: np.ndarray) -> list[tuple[frozenset[int], ...]]:
    """``strong_domains`` of every row of the sign matrix ``signs``: one
    mask over the pair table selects the strong links of all rows, and
    each row unions only its own."""
    xs, ys, ps = np.array(h.pairs, dtype=np.intp).reshape(-1, 3).T
    linked = signs[:, xs] * ps * signs[:, ys] > 0
    out = []
    for row, links in zip(signs, linked):
        uf = UnionFind(h.n)
        uf.link(zip(xs[links].tolist(), ys[links].tolist()))
        out.append(uf.groups(np.flatnonzero(row).tolist()))
    return out


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
    direct: list[tuple[int, int]] = []
    for x, y, s in h.pairs:
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
            region.link((x, y) for x, y, _ in block_pairs)

    for group in attach.values():
        if len({region.find(z) for _, z, _ in group}) > 1:
            uf.link((group[0][0], u) for u, _, _ in group)
            continue
        first: dict[int, int] = {}
        uf.link((first.setdefault(sign[u] * s * theta[z], u), u) for u, z, s in group)
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
        zero_uf.link((zs[0], z) for z in zs[1:])
    uf = _weak_core_union(h, sign, zero_uf)
    cores = uf.groups([v for v in h.vertex_range() if sign[v] != 0])
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
    return _decomposition(h, f, f.support(), strong_domains(h, f))


def _decomposition(h: SignedHypergraph, f: VertexFunction, support: frozenset[int],
               strong: tuple[frozenset[int], ...]) -> NodalDecomposition:
    if len(support) == f.n:
        return NodalDecomposition(support, strong, strong, strong, f.zero_tolerance)
    cores, closures = weak_domains(h, f)
    return NodalDecomposition(support, strong, cores, closures, f.zero_tolerance)


def domain_graph_connected(h: SignedHypergraph, dec: NodalDecomposition) -> bool:
    """True when the weak closures of ``dec`` form one connected graph,
    two closures linked when they share a vertex or contain vertices
    sharing an edge.  No closure at all counts as connected."""
    uf = UnionFind(dec.weak_count)
    # the first closure holding each vertex, 1-based
    owner: dict[int, int] = {}
    for i, closure in enumerate(dec.weak_closures, 1):
        uf.link((owner.setdefault(v, i), i) for v in closure)
    for e in h.edges:
        ids = [owner[v] for v in e.vertices if v in owner]
        uf.link((ids[0], i) for i in ids[1:])
    return uf.count <= 1


def _cyclic(g: SignedHypergraph) -> list[bool]:
    """Per vertex (index 0 unused): True when it is not tree-like.

    One block pass over the vertex-edge incidence graph decides every
    vertex at once: x is tree-like (``core.is_tree_like``) exactly when
    each of its incidence links is a bridge and none of its edges has
    size 1, since weak deletion leaves such an edge empty.  This depends
    on the graph alone, never on a function.
    """
    cyclic = [False] * (g.n + 1)
    links: list[tuple[int, int]] = []
    for node, e in enumerate(g.edges, g.n + 1):
        vs = e.vertices
        if len(vs) == 1:
            cyclic[vs[0]] = True
        for v in vs:
            links.append((v, node))
    for block in _blocks(g.n + 1 + g.m, links)[0]:
        if len(block) > 1:
            for li in block:
                cyclic[links[li][0]] = True
    return cyclic


def fiedler_sets(h: SignedHypergraph, f: VertexFunction) -> FiedlerSets:
    """Split the zeros of f: a zero joins ``fiedler`` when all its
    hyperneighbors are zeros (or it has none) or it is not tree-like
    (``_cyclic``)."""
    _check_function(h, f)
    sign = _vertex_signs(f)
    zeros = [v for v in h.vertex_range() if sign[v] == 0]
    if not zeros:
        return _NO_ZEROS
    seen_nonzero = [False] * (h.n + 1)
    for e in h.edges:
        vs = e.vertices
        for v in vs:
            if sign[v]:
                for u in vs:
                    seen_nonzero[u] = True
                break
    cyclic = _cyclic(h)
    fiedler = frozenset(v for v in zeros if cyclic[v] or not seen_nonzero[v])
    return FiedlerSets(fiedler, frozenset(zeros) - fiedler)


def _fiedler_rows(g: SignedHypergraph, inc: np.ndarray, signs: np.ndarray) -> tuple[FiedlerSets, ...]:
    """``fiedler_sets`` of every row of the sign matrix ``signs`` on g,
    whose incidence matrix is ``inc``.  The Fiedler set of a row is
    ``zero & (cyclic | no nonzero hyperneighbour)``: ``_cyclic`` runs once,
    and only when some row has a zero, and two incidence products mark
    the vertices sharing an edge with a nonzero."""
    zero = signs == 0
    zero[:, 0] = False
    rows = np.flatnonzero(zero.any(axis=1))
    out = [_NO_ZEROS] * len(signs)
    if not len(rows):
        return tuple(out)
    cyclic = np.array(_cyclic(g), dtype=bool)
    seen_nonzero = (((signs[rows] != 0) @ inc > 0) @ inc.T) > 0
    for i, z, seen in zip(rows.tolist(), zero[rows], seen_nonzero):
        fiedler = z & (cyclic | ~seen)
        out[i] = FiedlerSets(frozenset(np.flatnonzero(fiedler).tolist()),
                             frozenset(np.flatnonzero(z & ~fiedler).tolist()))
    return tuple(out)


def _incidence(g: SignedHypergraph) -> np.ndarray:
    """The (n + 1) x m vertex-edge incidence matrix of g, 1.0 where vertex
    v lies in edge j; row 0 is unused and zero."""
    inc = np.zeros((g.n + 1, g.m))
    inc[[v for e in g.edges for v in e.vertices],
        [j for j, e in enumerate(g.edges) for _ in e.vertices]] = 1.0
    return inc


def _l_plus_rows(h: SignedHypergraph, inc: np.ndarray,
                 signs: np.ndarray) -> list[tuple[CycleStats, CycleStats]]:
    """``l_plus`` of every row of the sign matrix ``signs``, on h with
    incidence matrix ``inc``.

    An edge is coherent when all its vertices are nonzero and it respects
    its sign under the variant's rule.  all_pairs: every pair x, y has
    sign(x) * sgn(e) * sign(y) > 0.  exists_ordering: some vertex ordering
    makes every consecutive pair satisfy it.  In closed form, on the counts
    of + and - vertices per edge: an edge of size <= 1 is coherent; a
    positive edge needs all signs equal under either rule; a negative edge
    needs alternation, so one + and one - for all_pairs and
    |#pos - #neg| <= 1 for exists_ordering.  all_pairs-coherent edges are
    therefore exists_ordering-coherent, and one union pass per row serves
    both: the all_pairs edges first, then the extra exists_ordering edges.
    """
    n, edges = h.n, h.edges
    sizes = np.array([e.size for e in edges], dtype=np.intp)
    # an empty edge has no sign; it is coherent either way and weighs 0
    positive = np.array([e.size == 0 or edge_sign(e) > 0 for e in edges], dtype=bool)
    star: list[tuple[int, int, int]] = []
    for j, e in enumerate(edges):
        vs = e.vertices
        star.extend((vs[0], u, j) for u in vs[1:])
    star_x, star_y, star_edge = np.array(star, dtype=np.intp).reshape(-1, 3).T
    pos = (signs > 0).astype(float) @ inc
    neg = (signs < 0).astype(float) @ inc
    small = (sizes <= 1) & (pos + neg == sizes)
    same = (pos == sizes) | (neg == sizes)
    all_pairs = small | np.where(positive, same, (sizes == 2) & (pos == 1) & (neg == 1))
    exists = small | np.where(positive, same, (pos + neg == sizes) & (np.abs(pos - neg) <= 1))
    weight = np.maximum(sizes - 1, 0)
    totals_all, totals_exists = (all_pairs @ weight).tolist(), (exists @ weight).tolist()
    links_all, links_extra = all_pairs[:, star_edge], (exists & ~all_pairs)[:, star_edge]
    out = []
    for t_all, t_exists, first, extra in zip(totals_all, totals_exists, links_all, links_extra):
        uf = UnionFind(n)
        uf.link(zip(star_x[first].tolist(), star_y[first].tolist()))
        c_all = uf.count
        uf.link(zip(star_x[extra].tolist(), star_y[extra].tolist()))
        c_exists = uf.count
        out.append((CycleStats(t_all, n, c_all, t_all - n + c_all),
                    CycleStats(t_exists, n, c_exists, t_exists - n + c_exists)))
    return out


def l_plus(h: SignedHypergraph, f: VertexFunction) -> tuple[CycleStats, CycleStats]:
    """Cyclomatic data of the coherent subhypergraph under each variant, as
    (all_pairs, exists_ordering): the edge family restricted to coherent
    edges (``_l_plus_rows`` states the rules), on the full vertex set.
    """
    _check_function(h, f)
    return _l_plus_rows(h, _incidence(h), _sign_matrix((f,), h.n))[0]


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
    h, spectrum, cyc = analysis.h, analysis.spectrum, analysis.cycles
    c = cyc.n_components
    clique = variant == "clique"
    g = analysis.expansion if clique else h
    # inducing on every vertex is the identity, so a full support has l' = l(g)
    l_full = cyclomatic(g).l if clique else cyc.l
    out = []
    rows = zip(spectrum.functions, analysis.decompositions, analysis.fiedler(clique),
               analysis.l_plus(clique))
    for i, (f, dec, fs, (lp_all, lp_exists)) in enumerate(rows, 1):
        k, r = spectrum.cluster_of(i)
        l_prime = l_full if len(dec.support) == h.n else support_cyclomatic(g, f).l
        fied = len(fs.fiedler)
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
    eigenfunction read at ``zero_tol_rel``, and ``signs`` its sign matrix:
    row i - 1 holds the signs of the eigenfunction of 1-based index i,
    column v the sign at vertex v (column 0 is unused and zero).
    ``decompositions[i - 1]`` and ``fiedler()[i - 1]`` belong to that
    eigenfunction, on the hypergraph itself; ``fiedler``, ``l_plus`` and
    ``incidence`` are kept per graph, h or (given ``clique=True``)
    ``expansion``.  ``cycles`` holds c and l of the hypergraph, shared by
    every table.  ``bounds(variant)`` is the
    table of nodal-count bounds of every index: strong count <= k + r - 1;
    weak count <= k + c - 1; strong count >= k + r - 1 - l' + l_plus -
    |fiedler|.  The variants ``all_pairs`` and ``exists_ordering`` read the
    three correction terms on whole hyperedges (l' the support cyclomatic
    number, l_plus by the named coherence rule); ``clique`` reads them on
    ``expansion``, the clique expansion of h, where both coherence rules
    agree.
    """

    def __init__(self, h: SignedHypergraph, zero_tol_rel: float = DEFAULT_ZERO_TOL_REL) -> None:
        self.h = h
        self.zero_tol_rel = zero_tol_rel
        self._cache: dict[tuple, object] = {}

    @cached_property
    def bundle(self) -> MatrixBundle:
        return laplacian(self.h)

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigendecompose(self.bundle, zero_tol_rel=self.zero_tol_rel)

    @cached_property
    def signs(self) -> np.ndarray:
        return _sign_matrix(self.spectrum.functions, self.h.n)

    @cached_property
    def cycles(self) -> CycleStats:
        return cyclomatic(self.h)

    @cached_property
    def expansion(self) -> SignedHypergraph:
        return clique_expansion(self.h)

    @cached_property
    def decompositions(self) -> tuple[NodalDecomposition, ...]:
        rows = zip(self.spectrum.functions, self.signs, _strong_rows(self.h, self.signs))
        return tuple(_decomposition(self.h, f, frozenset(np.flatnonzero(row).tolist()), strong)
                     for f, row, strong in rows)

    def _once(self, key: tuple, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _graph(self, clique: bool) -> SignedHypergraph:
        return self.expansion if clique else self.h

    def incidence(self, clique: bool = False) -> np.ndarray:
        """The incidence matrix (``_incidence``) of ``expansion`` if
        ``clique`` and of h otherwise."""
        return self._once(("incidence", clique), lambda: _incidence(self._graph(clique)))

    def fiedler(self, clique: bool = False) -> tuple[FiedlerSets, ...]:
        """The Fiedler sets of every eigenfunction, on ``expansion`` if
        ``clique`` and on h otherwise: one pass per graph."""
        return self._once(("fiedler", clique), lambda: _fiedler_rows(
            self._graph(clique), self.incidence(clique), self.signs))

    def l_plus(self, clique: bool = False) -> tuple[tuple[int, int], ...]:
        """(all_pairs, exists_ordering) l_plus of every eigenfunction, on
        ``expansion`` if ``clique`` and on h otherwise: one coherence pass
        per graph."""
        return self._once(("l_plus", clique), lambda: tuple(
            (a.l, e.l) for a, e in _l_plus_rows(self._graph(clique), self.incidence(clique),
                                                self.signs)))

    def bounds(self, variant: str = "all_pairs") -> tuple[BoundReport, ...]:
        """The bounds row of every eigenfunction, in index order."""
        if variant not in BOUND_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {BOUND_VARIANTS}")
        return self._once(("bounds", variant), lambda: tuple(_bound_rows(self, variant)))

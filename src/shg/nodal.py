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
comparing one sign per attachment; the weak pass (``_weak``) starts
from the strong domains and scans only the pairs that touch a zero.
Whether a vertex is tree-like depends on the graph alone, and one block
pass over the vertex-edge incidence graph decides it for all vertices
(``_cyclic``); a function adds only its zero mask, so the Fiedler sets
of every row of a sign matrix come from that pass and two incidence
products.  Every pairwise pass (the strong relation, the weak pass, the
clique expansion) reads the pair table ``SignedHypergraph.pairs``.

The passes over every row of a sign matrix share one component
labelling, ``_components``: hook-and-jump rounds on numpy arrays, where
the rows become one block-diagonal graph, fed in chunks of at most
``_LINK_BUDGET`` links.  It gives the strong domains of every row, the
components of the coherent edges of ``l_plus``, and the components of
every support, from which l' follows on h and on its clique expansion
alike.  The single-function APIs ``strong_domains``, ``weak_domains``,
``decompose`` and ``support_cyclomatic`` union with
``core.UnionFind.link`` (a one-row kernel call costs more than it saves),
and so does the weak pass of each function with zeros; ``l_plus`` is the
one-row case of the batched coherence pass.

All decisions are made on signs relative to the function's
zero_tolerance, so decompositions are invariant under scaling by any
nonzero constant.

``Analysis`` holds everything computed about one instance: its
matrices and spectrum, one sign matrix of all its eigenfunctions, one
decomposition per eigenfunction, the arrays of h (incidence, star and
pair tables, edge sizes and signs), the Fiedler sets, l_plus and l' of
every eigenfunction on h and on its clique expansion, read off h's own
arrays (``clique_expansion``), and one bounds table per reading.  The
sign matrix selects the strong links, the coherent edges, the supports
and the Fiedler sets of every eigenfunction in a few array operations;
only the weak pass of an eigenfunction with zeros runs per function, on
its row and its batched strong domains.  ``shg report``, ``shg bounds``
and the campaign all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    CycleStats,
    Edge,
    SignedHypergraph,
    UnionFind,
    cyclomatic,
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

BOUND_VARIANTS = ("all_pairs", "clique")
# The most nodes, candidate links or temporary entries one chunk of rows
# holds: the row passes take chunks, so their temporaries stay bounded.
_LINK_BUDGET = 1 << 18


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
    ``l_plus`` and ``fiedler_size`` are read on the hypergraph
    (``all_pairs``) or on its signed clique expansion (``clique``).
    """

    eig_index: int
    k: int
    r: int
    c: int
    l: int
    l_plus: int
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


def _components(n_nodes: int, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Label every node 0..n_nodes-1 of the graph with links (ex[i], ey[i])
    by the smallest node of its component.

    Hook-and-jump rounds in the style of Shiloach and Vishkin (J.
    Algorithms 1982): the larger root of every link hooks under the
    smallest root offered to it (``np.minimum.at``), then pointer jumping
    flattens the trees until f[f] == f.  A node never points above itself
    and only within its component, so the smallest node of a component
    stays a root and ends as the label of all of it.  A link whose ends
    share a root stays so and is dropped.
    """
    f = np.arange(n_nodes, dtype=np.intp)
    # the roots of the link ends; f starts as the identity
    fx, fy = ex, ey
    while True:
        open_ = fx != fy
        if not open_.any():
            return f
        ex, ey, fx, fy = ex[open_], ey[open_], fx[open_], fy[open_]
        np.minimum.at(f, np.maximum(fx, fy), np.minimum(fx, fy))
        while True:
            jumped = f[f]
            if (jumped == f).all():
                break
            f = jumped
        fx, fy = f[ex], f[ey]


def _row_chunks(n_rows: int, row_size: int) -> Iterator[slice]:
    """Consecutive slices of 0..n_rows-1, each of at most ``_LINK_BUDGET``
    entries at ``row_size`` entries per row, and one row at least."""
    step = max(1, _LINK_BUDGET // max(row_size, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _row_labels(width: int, xs: np.ndarray, ys: np.ndarray, n_rows: int,
                select: Callable[[slice], np.ndarray],
                row_size: int = 0) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Component labels of ``n_rows`` graphs on nodes 0..width-1, graph r
    linking xs[p] to ys[p] where ``select(rows)[r - rows.start, p]``.

    Yields (rows, labels, links) for consecutive chunks of rows,
    labels[i, v] being the smallest node of v's component in graph
    rows.start + i and links[i] its number of links.  The rows of a chunk
    form one block-diagonal graph (node v of row i is i * width + v) for
    one ``_components`` call.  A chunk holds at most ``_LINK_BUDGET``
    nodes and candidate links, and as many entries of a temporary of
    ``row_size`` per row that ``select`` builds, one row at least; a row
    with more links than that is labelled in slices, each slice linking
    the labels of the ones before.
    """
    budget = _LINK_BUDGET
    for rows in _row_chunks(n_rows, max(len(xs), width, row_size)):
        n_nodes = (rows.stop - rows.start) * width
        rr, pp = np.nonzero(select(rows))
        links = np.bincount(rr, minlength=rows.stop - rows.start)
        ex = rr * width
        ey = ex + ys[pp]
        ex += xs[pp]
        del rr, pp
        labels = _components(n_nodes, ex[:budget], ey[:budget])
        for i in range(budget, len(ex), budget):
            labels = _components(n_nodes, labels[ex[i:i + budget]], labels[ey[i:i + budget]])[labels]
        yield rows, labels.reshape(-1, width) - np.arange(0, n_nodes, width)[:, None], links


def _cycle_counts(n: int, xs: np.ndarray, ys: np.ndarray, n_rows: int,
                  select: Callable[[slice], np.ndarray],
                  row_size: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(links, components) of each graph of ``_row_labels`` on 1..n, the
    components being the vertices that label themselves."""
    links = np.empty(n_rows, dtype=np.intp)
    components = np.empty(n_rows, dtype=np.intp)
    own = np.arange(1, n + 1)
    for rows, labels, count in _row_labels(n + 1, xs, ys, n_rows, select, row_size):
        links[rows] = count
        components[rows] = (labels[:, 1:] == own).sum(axis=1)
    return links, components


class _GraphArrays:
    """The arrays of one graph g that the row passes read, each built once.

    ``sizes``, ``positive`` (sgn(e) > 0; an empty edge has no sign and
    counts as positive), ``incidence`` (the (n + 1) x m matrix, 1.0 where
    vertex v lies in edge j, row 0 zero) and ``star`` (x, y, j) linking the
    first vertex of edge j to each later one come from one flat read of
    the incidences; ``pairs`` (x, y, sgn(e)) is ``g.pairs`` as arrays,
    read on first use.
    """

    def __init__(self, g: SignedHypergraph) -> None:
        self.g = g
        self.sizes = np.fromiter((e.size for e in g.edges), dtype=np.intp, count=g.m)
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(e.incidences for e in g.edges)),
                           dtype=np.intp)
        verts, incidence_signs = flat[0::2], flat[1::2]
        edge = np.repeat(np.arange(g.m), self.sizes)
        negatives = np.bincount(edge[incidence_signs < 0], minlength=g.m)
        # sgn(e) = (-1)^(|e| - 1) times the product of the incidence signs
        self.positive = (self.sizes == 0) | ((self.sizes - 1 + negatives) % 2 == 0)
        self.incidence = np.zeros((g.n + 1, g.m))
        self.incidence[verts, edge] = 1.0
        first = np.cumsum(self.sizes) - self.sizes
        later = np.ones(len(verts), dtype=bool)
        later[first[self.sizes > 0]] = False
        self.star = (verts[first[edge[later]]], verts[later], edge[later])

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.array(self.g.pairs, dtype=np.intp).reshape(-1, 3).T)


def _strong(h: SignedHypergraph, sign: list[int]) -> tuple[frozenset[int], ...]:
    uf = UnionFind(h.n)
    uf.link((x, y) for x, y, s in h.pairs if sign[x] * s * sign[y] > 0)
    return uf.groups([v for v in h.vertex_range() if sign[v] != 0])


def strong_domains(h: SignedHypergraph, f: VertexFunction) -> tuple[frozenset[int], ...]:
    """Components of the support under strong links: {x, y} is linked when
    some edge contains both and f(x) * sgn(e) * f(y) > 0."""
    _check_function(h, f)
    return _strong(h, _vertex_signs(f))


def _strong_rows(t: _GraphArrays, signs: np.ndarray) -> tuple[list[tuple[frozenset[int], ...]], np.ndarray]:
    """``strong_domains`` of every row of the sign matrix ``signs`` on the
    graph of ``t``, and its number of strong pairs, parallel ones counted:
    one mask over the pair table selects the strong links of all rows
    (sign(x) * sign(y) == sgn(e), the product taken in int8), and one
    labelling per chunk of rows splits every support.  Sorting the
    support stably by label orders each row's domains by smallest vertex,
    as ``UnionFind.groups`` does."""
    xs, ys, ps = t.pairs
    width = signs.shape[1]
    out: list[tuple[frozenset[int], ...]] = []
    strong_pairs = np.empty(len(signs), dtype=np.intp)
    for rows, labels, links in _row_labels(width, xs, ys, len(signs),
                                           lambda r: signs[r][:, xs] * signs[r][:, ys] == ps):
        strong_pairs[rows] = links
        rr, vv = np.nonzero(signs[rows])
        # one key per (row, domain); row-major order keeps vertices ascending
        key = rr * width + labels[rr, vv]
        order = np.argsort(key, kind="stable")
        key, verts = key[order], vv[order].tolist()
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        bounds = starts.tolist() + [len(verts)]
        groups = iter([frozenset(verts[a:b]) for a, b in zip(bounds, bounds[1:])])
        counts = np.bincount(key[starts] // width, minlength=rows.stop - rows.start)
        out.extend(tuple(islice(groups, k)) for k in counts.tolist())
    return out, strong_pairs


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


def _weak(h: SignedHypergraph, sign: list[int],
          strong: tuple[frozenset[int], ...]) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """(cores, closures) of the signs ``sign`` (index 0 unused), whose
    strong domains are ``strong``; the cores join strong domains only.

    A weak link that is not strong is one attachment (u, z, s) of a
    nonzero u to a zero z, a simple path inside one zero component, and
    one more attachment, so one scan of the pairs that touch a zero
    serves.  On the zero pair graph a depth-first potential theta decides
    each block: balanced when theta(x) * s * theta(y) = 1 on all its
    pairs, so any path inside it between a and b has sign
    theta(a) * theta(b); a block with an unbalanced cycle has simple paths
    of both signs between any two of its vertices.  Balanced blocks glued
    at cut vertices form regions, where theta still gives the path sign;
    two zeros in different regions are joined by paths of both signs.  The
    depth-first tree also roots each zero component; the closure of every
    core that its attachments reach absorbs it.
    """
    zz: dict[tuple[int, int, int], None] = {}
    attach: list[tuple[int, int, int]] = []
    for x, y, s in h.pairs:
        if sign[x] == 0 and sign[y] == 0:
            zz[(x, y, s) if x < y else (y, x, s)] = None
        elif sign[x] == 0:
            attach.append((y, x, s))
        elif sign[y] == 0:
            attach.append((x, y, s))
    if not attach:
        return strong, strong

    pairs = list(zz)
    blocks, tree = _blocks(h.n + 1, [(x, y) for x, y, _ in pairs])
    theta = [1] * (h.n + 1)
    root = list(range(h.n + 1))
    for child, ei in tree:
        x, y, s = pairs[ei]
        parent = x if y == child else y
        theta[child] = theta[parent] * s
        root[child] = root[parent]
    region = UnionFind(h.n)
    for block in blocks:
        block_pairs = [pairs[ei] for ei in block]
        if all(theta[x] * s * theta[y] > 0 for x, y, s in block_pairs):
            region.link((x, y) for x, y, _ in block_pairs)

    uf = UnionFind(h.n)
    for domain in strong:
        uf.link(zip(repeat(min(domain)), domain))
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for u, z, s in attach:
        groups.setdefault(root[z], []).append((u, z, s))
    for group in groups.values():
        if len({region.find(z) for _, z, _ in group}) > 1:
            uf.link((group[0][0], u) for u, _, _ in group)
            continue
        first: dict[int, int] = {}
        uf.link((first.setdefault(sign[u] * s * theta[z], u), u) for u, z, s in group)

    cores = uf.groups([v for v in h.vertex_range() if sign[v] != 0])
    closures = {uf.find(min(core)): set(core) for core in cores}
    absorbers = {r: {uf.find(u) for u, _, _ in group} for r, group in groups.items()}
    for v in h.vertex_range():
        for c in absorbers.get(root[v], ()):
            closures[c].add(v)
    return cores, tuple(map(frozenset, closures.values()))


def weak_domains(h: SignedHypergraph, f: VertexFunction) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """Weak nodal domains: (cores, closures), by ``_weak``.

    Cores partition the support under weak links.  Each closure adds the
    zeros that reach its core through a path of zero vertices (a path
    with at most one nonzero endpoint is a weak path unconditionally).
    """
    _check_function(h, f)
    sign = _vertex_signs(f)
    return _weak(h, sign, _strong(h, sign))


def decompose(h: SignedHypergraph, f: VertexFunction) -> NodalDecomposition:
    """Full nodal decomposition of f on h, from one list of signs.

    Without zeros every weak link is a direct pair, so the weak cores and
    closures are the strong domains and the weak pass is not run.
    """
    _check_function(h, f)
    sign = _vertex_signs(f)
    return _decomposition(h, sign, _strong(h, sign), f.zero_tolerance)


def _decomposition(h: SignedHypergraph, sign: list[int], strong: tuple[frozenset[int], ...],
                   zero_tolerance: float) -> NodalDecomposition:
    # the strong domains partition the support
    support = frozenset().union(*strong)
    if len(support) == h.n:
        return NodalDecomposition(support, strong, strong, strong, zero_tolerance)
    cores, closures = _weak(h, sign, strong)
    return NodalDecomposition(support, strong, cores, closures, zero_tolerance)


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


def _cyclic(n: int, members: Sequence[tuple[int, ...]]) -> list[bool]:
    """Per vertex (index 0 unused) of the hypergraph on 1..n with edges
    ``members``, vertex tuples: True when it is not tree-like.

    One block pass over the vertex-edge incidence graph decides every
    vertex at once: x is tree-like (``core.is_tree_like``) exactly when
    each of its incidence links is a bridge and none of its edges has
    size 1, since weak deletion leaves such an edge empty.  This depends
    on the graph alone, never on a function; the clique expansion of h
    has the pairs of ``h.pairs`` for members.
    """
    cyclic = [False] * (n + 1)
    links: list[tuple[int, int]] = []
    for node, vs in enumerate(members, n + 1):
        if len(vs) == 1:
            cyclic[vs[0]] = True
        for v in vs:
            links.append((v, node))
    for block in _blocks(n + 1 + len(members), links)[0]:
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
    cyclic = _cyclic(h.n, [e.vertices for e in h.edges])
    fiedler = frozenset(v for v in zeros if cyclic[v] or not seen_nonzero[v])
    return FiedlerSets(fiedler, frozenset(zeros) - fiedler)


def _fiedler_rows(t: _GraphArrays, signs: np.ndarray) -> tuple[tuple[FiedlerSets, ...], ...]:
    """``fiedler_sets`` of every row of the sign matrix ``signs`` on the
    graph h of ``t`` and on its clique expansion, as two tuples: the
    Fiedler set of a row is ``zero & (cyclic | ~seen)``.  For a zero,
    ``seen`` (sharing an edge with a nonzero) is the same on both graphs,
    so two incidence products per chunk of rows serve both; ``_cyclic``
    runs on the edges and on the pairs, only when some row has a zero."""
    zero = signs == 0
    zero[:, 0] = False
    rows = np.flatnonzero(zero.any(axis=1))
    out = ([_NO_ZEROS] * len(signs), [_NO_ZEROS] * len(signs))
    if not len(rows):
        return tuple(out[0]), tuple(out[1])
    g = t.g
    cyclic = [np.array(_cyclic(g.n, members), dtype=bool)
              for members in ([e.vertices for e in g.edges], [(x, y) for x, y, _ in g.pairs])]
    inc = t.incidence
    for part in _row_chunks(len(rows), max(inc.shape)):
        chunk = rows[part]
        seen = (((signs[chunk] != 0) @ inc > 0) @ inc.T) > 0
        for i, z, s in zip(chunk.tolist(), zero[chunk], seen):
            for reading, cyc in zip(out, cyclic):
                fiedler = z & (cyc | ~s)
                reading[i] = FiedlerSets(frozenset(np.flatnonzero(fiedler).tolist()),
                                         frozenset(np.flatnonzero(z & ~fiedler).tolist()))
    return tuple(out[0]), tuple(out[1])


def _l_plus_rows(t: _GraphArrays, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``l_plus`` of every row of the sign matrix ``signs`` on the graph of
    ``t``, as (totals, components), so l = totals - n + components.

    An edge is coherent when all its vertices are nonzero and every pair
    x, y of them has sign(x) * sgn(e) * sign(y) > 0; in closed form, on
    the counts of + and - vertices per edge, taken per chunk of rows: size
    <= 1, or all signs equal on a positive edge, or one + and one - on a
    negative edge.  The star links of the coherent edges (s - 1 for size
    s) are the totals, and their labelling gives the components.
    """
    sizes, positive, inc = t.sizes, t.positive, t.incidence
    star_x, star_y, star_edge = t.star

    def coherent_star_links(rows: slice) -> np.ndarray:
        pos = (signs[rows] > 0) @ inc
        neg = (signs[rows] < 0) @ inc
        small = (sizes <= 1) & (pos + neg == sizes)
        same = (pos == sizes) | (neg == sizes)
        return (small | np.where(positive, same, (sizes == 2) & (pos == 1) & (neg == 1)))[:, star_edge]

    return _cycle_counts(t.g.n, star_x, star_y, len(signs), coherent_star_links, row_size=t.g.m)


def l_plus(h: SignedHypergraph, f: VertexFunction) -> CycleStats:
    """Cyclomatic data of the coherent subhypergraph: the edge family
    restricted to the edges whose every vertex pair respects the edge
    sign (``_l_plus_rows`` states the rule), on the full vertex set.
    """
    _check_function(h, f)
    (total,), (c,) = (a.tolist() for a in _l_plus_rows(_GraphArrays(h), _sign_matrix((f,), h.n)))
    return CycleStats(total, h.n, c, total - h.n + c)


def _l_prime_rows(t: _GraphArrays, signs: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """``support_cyclomatic(g, f).l`` of every row of the sign matrix
    ``signs``, with g the graph h of ``t`` and with g its clique expansion,
    as two arrays; ``n_components`` is c(h).

    An edge with k_e nonzero vertices connects them in h and in the
    expansion alike, so one labelling of the pairs whose two ends are
    nonzero gives the components of the support on both graphs.  A zero
    is an isolated vertex of that graph, so with c its components on all
    of 1..n, |supp| - c_supp = n - c, and with k = (S != 0) @ incidence:
    l'_h = sum max(k_e - 1, 0) - n + c and
    l'_clique = sum k_e (k_e - 1) / 2 - n + c.  A row without zeros has
    the whole graph for support, k = sizes and c = c(h), and is not
    labelled.
    """
    n = t.g.n
    xs, ys, _ = t.pairs
    l_h = np.full(len(signs), int(np.maximum(t.sizes - 1, 0).sum()) - n + n_components)
    l_clique = np.full(len(signs), len(xs) - n + n_components)
    nonzero = signs != 0
    rows = np.flatnonzero(nonzero.sum(axis=1) < n)
    nonzero = nonzero[rows]
    own = np.arange(1, n + 1)
    # k is taken per chunk of rows, so its float product stays in the budget
    for part, labels, _ in _row_labels(n + 1, xs, ys, len(rows),
                                       lambda r: nonzero[r][:, xs] & nonzero[r][:, ys],
                                       row_size=t.g.m):
        k = (nonzero[part] @ t.incidence).astype(np.intp)
        c = (labels[:, 1:] == own).sum(axis=1)
        l_h[rows[part]] = np.maximum(k - 1, 0).sum(axis=1) - n + c
        l_clique[rows[part]] = (k * (k - 1) // 2).sum(axis=1) - n + c
    return l_h, l_clique


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

    ``Analysis`` never builds this graph, the tests' reference: its edges
    are pairs, coherent exactly when strong, so l_plus = P - |supp| + S
    with P the strong pairs (``_strong_rows``), l' is ``_l_prime_rows``
    and the Fiedler sets ``_fiedler_rows``, whose ``_cyclic`` reads pairs.
    """
    return SignedHypergraph(h.n, tuple(Edge(((x, 1), (y, -s))) for x, y, s in h.pairs))


def _bound_rows(analysis: Analysis, variant: str) -> list[BoundReport]:
    """One BoundReport per eigenfunction, from the cached decompositions,
    Fiedler sets, l_plus and l' of every row; the per-instance terms are
    computed once for all rows."""
    spectrum, cyc = analysis.spectrum, analysis.cycles
    c = cyc.n_components
    clique = variant == "clique"
    out = []
    rows = zip(analysis.decompositions, analysis.fiedler(clique), analysis.l_plus(clique),
               analysis.l_prime(clique))
    for i, (dec, fs, lp, l_prime) in enumerate(rows, 1):
        k, r = spectrum.cluster_of(i)
        fied = len(fs.fiedler)
        lower = k + r - 1 - l_prime + lp - fied
        out.append(BoundReport(
            eig_index=i,
            k=k,
            r=r,
            c=c,
            l=cyc.l,
            l_plus=lp,
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
    ``l_prime`` give the terms on h or (given ``clique=True``) on its
    clique expansion, all read from the ``arrays()`` of h.  ``cycles``
    holds c and l of h.  ``bounds(variant)`` is the table of nodal-count
    bounds of every index: strong count <= k + r - 1; weak count <=
    k + c - 1; strong count >= k + r - 1 - l' + l_plus - |fiedler|, the
    terms read on whole hyperedges (``all_pairs``: l_plus over the edges
    whose every vertex pair is coherent) or on the clique expansion.
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
    def _strong(self) -> tuple[list[tuple[frozenset[int], ...]], np.ndarray]:
        return _strong_rows(self.arrays(), self.signs)

    @cached_property
    def decompositions(self) -> tuple[NodalDecomposition, ...]:
        signs = (row.tolist() for row in self.signs)
        rows = zip(self.spectrum.functions, signs, self._strong[0])
        return tuple(_decomposition(self.h, sign, strong, f.zero_tolerance)
                     for f, sign, strong in rows)

    def _once(self, key: tuple, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def arrays(self) -> _GraphArrays:
        """The arrays (``_GraphArrays``) of h."""
        return self._once(("arrays",), lambda: _GraphArrays(self.h))

    def fiedler(self, clique: bool = False) -> tuple[FiedlerSets, ...]:
        """The Fiedler sets of every eigenfunction, on the clique expansion
        if ``clique`` and on h otherwise: one pass serves both graphs."""
        return self._once(("fiedler",), lambda: _fiedler_rows(self.arrays(), self.signs))[clique]

    def l_plus(self, clique: bool = False) -> tuple[int, ...]:
        """l_plus of every eigenfunction: on h, from one coherence pass; on
        the clique expansion, P - |supp| + S from the strong pass
        (``clique_expansion``)."""
        def build():
            if clique:
                domains, strong_pairs = self._strong
                return strong_pairs - (self.signs != 0).sum(axis=1) + np.array([len(d) for d in domains])
            totals, components = _l_plus_rows(self.arrays(), self.signs)
            return totals - self.h.n + components
        return self._once(("l_plus", clique), lambda: tuple(build().tolist()))

    def l_prime(self, clique: bool = False) -> tuple[int, ...]:
        """l' of every eigenfunction, the cyclomatic number of its support
        on the clique expansion if ``clique`` and on h otherwise: one
        labelling serves both graphs."""
        both = self._once(("l_prime",), lambda: tuple(
            tuple(ls.tolist()) for ls in _l_prime_rows(self.arrays(), self.signs,
                                                       self.cycles.n_components)))
        return both[clique]

    def bounds(self, variant: str = "all_pairs") -> tuple[BoundReport, ...]:
        """The bounds row of every eigenfunction, in index order."""
        if variant not in BOUND_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {BOUND_VARIANTS}")
        return self._once(("bounds", variant), lambda: tuple(_bound_rows(self, variant)))

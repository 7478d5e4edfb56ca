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
simple paths.  It is answered for all pairs at once from the blocks of
the signed pair graph on the zeros: a balanced block contributes one
fixed sign between any two of its vertices, read off a potential, and a
block carrying an unbalanced cycle contributes both signs.  Each zero
component then links the nonzeros attached to it by comparing one sign
per attachment.  One scan of the pair table (``_sort_pairs``) sorts
every pair of a function into a strong link, a zero-zero pair or an
attachment; the weak pass (``_weak``) takes the last two lists and a
union-find joined on the strong domains, and only links further on it.
Whether a vertex is tree-like depends on the graph alone, and one bridge
pass over the vertex-edge incidence graph decides it for all vertices,
on h and on its clique expansion alike (``cyclic_vertices``, the one
tree-like test of the program); a function adds only its zero mask.
Both passes read one low-link search, ``_lowlink``, and keep no edge
stack: the tree link p -> v is a bridge unless low[v] <= disc[p], and
opens a block when low[v] >= disc[p], else joining the block of the
tree link into p; any other link joins the block of the tree link into
its deeper end.
Every pairwise pass (the strong relation, the weak pass, the clique
terms) reads the pair table ``SignedHypergraph.pairs``.

One row pass (``_row_pass``) serves every row of a sign matrix: per
chunk of rows, masks over the pair table and cumulative sums over it
and over the flat incidence list give the strong domains, the
attachments, and l_plus, l' and the Fiedler sets on h and on its clique
expansion alike.  Its labellings share ``_labels``, which runs
``_components``, hook-and-jump rounds on numpy arrays over the rows as
one block-diagonal graph; ``component_counts`` counts the components of
such rows.  A chunk is sized once, by its caller: ``row_chunks`` serves
the row pass and the campaign's sandwich, the two passes whose
temporaries grow with the rows times a per-row size, and nothing below
them chunks again.  The one-function entries ``decompose`` and
``fiedler_sets`` keep their own code (a one-row kernel call costs more
than it saves) and union with ``core.UnionFind.link`` where they
union.  One routine,
``_decomposition``, decomposes a list of signs for ``decompose`` and for
every eigenfunction with an attachment alike: it joins a union-find on
the strong links and hands it to the weak pass.

A vertex set (a domain, a Fiedler set) is a tuple of its vertices in
ascending order, and a partition a tuple of domains ordered by smallest
vertex, the format of ``core``.  Both passes build them in that order
(the row pass slices each domain off one sorted member list,
``core.UnionFind.groups`` groups the vertices as they ascend), so no
reader sorts one; a weak closure, its core's run followed by its
zeros', takes one merge.  A function without an attachment has one
partition object for its strong domains, weak cores and weak closures.

All decisions are made on signs relative to the function's
zero_tolerance, so decompositions are invariant under scaling by any
nonzero constant.

``Analysis`` holds everything computed about one instance: its
matrices and spectrum, one sign matrix of all its eigenfunctions, the
row pass over it, one decomposition per eigenfunction, and one bounds
table per reading.  ``shg report``, ``shg bounds`` and the campaign all
read from it, so each instance runs one row pass; the campaign's random
functions go through ``decompose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, NamedTuple

import numpy as np

from .core import CycleStats, SignedHypergraph, UnionFind, cyclomatic
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
    "decompose",
    "fiedler_sets",
    "domain_graph_connected",
]

BOUND_VARIANTS = ("all_pairs", "clique")
# The most nodes, candidate links or temporary entries one chunk of rows
# holds: the row pass and the campaign's sandwich size their chunks by it
# (``row_chunks``), and ``_labels`` slices the links of one row over it.
_LINK_BUDGET = 1 << 18


@dataclass(frozen=True)
class NodalDecomposition:
    """Strong and weak nodal domains of one function.

    ``weak_cores`` partition the support; ``weak_closures`` are the cores
    plus absorbed zeros (closures may overlap on zeros, cores never do),
    closure i that of core i.  Each domain is a tuple of its vertices in
    ascending order.  The strong domains and the cores are ordered by
    their smallest vertex; the closures follow their cores, so a closure
    that absorbs a zero below its core's smallest vertex can come after
    a closure with a larger smallest vertex.  Where no pair joins a
    nonzero to a zero the three partitions coincide and are one tuple
    object, which readers may share.
    """

    strong: tuple[tuple[int, ...], ...]
    weak_cores: tuple[tuple[int, ...], ...]
    weak_closures: tuple[tuple[int, ...], ...]

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
    ``other_zeros`` holds the remaining, harmless zeros.  Both are
    ascending tuples of vertices.
    """

    fiedler: tuple[int, ...]
    other_zeros: tuple[int, ...]


_NO_ZEROS = FiedlerSets((), ())


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


def row_chunks(n_rows: int, row_size: int) -> Iterator[slice]:
    """Consecutive slices of 0..n_rows-1, each of at most ``_LINK_BUDGET``
    entries at ``row_size`` entries per row, and one row at least."""
    step = max(1, _LINK_BUDGET // max(row_size, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _labels(width: int, xs: np.ndarray, ys: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Component labels of one graph per row of ``mask`` on nodes
    0..width-1, graph i linking xs[p] to ys[p] where mask[i, p]:
    labels[i, v] is the smallest node of v's component in graph i.

    The rows form one block-diagonal graph (node v of row i is
    i * width + v) for one ``_components`` call.  The caller chunks the
    rows (``row_chunks``), so they hold more than ``_LINK_BUDGET`` links
    only when one row alone does; such links are labelled in slices, each
    slice linking the labels of the ones before.
    """
    budget = _LINK_BUDGET
    n_nodes = len(mask) * width
    rr, pp = np.nonzero(mask)
    ex = rr * width
    ey = ex + ys[pp]
    ex += xs[pp]
    del rr, pp
    labels = _components(n_nodes, ex[:budget], ey[:budget])
    for i in range(budget, len(ex), budget):
        labels = _components(n_nodes, labels[ex[i:i + budget]], labels[ey[i:i + budget]])[labels]
    return labels.reshape(-1, width) - np.arange(0, n_nodes, width)[:, None]


def component_counts(width: int, xs: np.ndarray, ys: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The number of components on nodes 1..width-1 of one graph per row
    of ``masks``, graph i linking xs[p] to ys[p] where masks[i, p].

    The roots of each row, the nodes that label themselves, of one
    ``_labels`` call on all the rows: the caller hands over rows it has
    chunked already.
    """
    return (_labels(width, xs, ys, masks)[:, 1:] == np.arange(1, width)).sum(axis=1)


def _segment_sums(a: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row sums of the columns bounds[j]:bounds[j + 1] of ``a``, one column
    per segment j, empty segments included."""
    total = np.zeros((len(a), a.shape[1] + 1), dtype=np.intp)
    np.cumsum(a, axis=1, out=total[:, 1:])
    return total[:, bounds[1:]] - total[:, bounds[:-1]]


def _sort_pairs(h: SignedHypergraph, sign: list[int]) -> tuple[
        list[tuple[int, int]], list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """One scan of the pair table, sorting each pair under the signs
    ``sign``: (the strong links, the zero-zero pairs, each once per sign
    with its low end first, the attachments (u, z, s) of a nonzero u to a
    zero z)."""
    links: list[tuple[int, int]] = []
    zz: dict[tuple[int, int, int], None] = {}
    attach: list[tuple[int, int, int]] = []
    for x, y, s in h.pairs:
        sx, sy = sign[x], sign[y]
        if sx:
            if sy:
                if sx * s * sy > 0:
                    links.append((x, y))
            else:
                attach.append((x, y, s))
        elif sy:
            attach.append((y, x, s))
        else:
            zz[(x, y, s) if x < y else (y, x, s)] = None
    return links, list(zz), attach


def _lowlink(adj: list[list[tuple[int, int]]]) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
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


def _weak(h: SignedHypergraph, sign: list[int], uf: UnionFind, pairs: list[tuple[int, int, int]],
          attach: list[tuple[int, int, int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(cores, closures) of the signs ``sign`` (index 0 unused), given
    ``uf`` joined on their strong domains and the zero-zero ``pairs`` and
    attachments ``attach`` of ``_sort_pairs``; the cores join strong
    domains only, by further links on ``uf``.

    A weak link that is not strong is one attachment (u, z, s) of a
    nonzero u to a zero z, a simple path inside one zero component, and
    one more attachment, so the zero pairs and attachments serve.  On the
    zero pair graph a depth-first potential theta decides each block:
    balanced when theta(x) * s * theta(y) = 1 on all its pairs, so any
    path inside it between a and b has sign theta(a) * theta(b); a block
    with an unbalanced cycle has simple paths of both signs between any
    two of its vertices.  Balanced blocks glued at cut vertices form
    regions, where theta still gives the path sign; two zeros in
    different regions are joined by paths of both signs.  The depth-first
    tree also roots each zero component; the closure of every core that
    its attachments reach absorbs it.

    The blocks come off ``_lowlink``, the bridge pass's search: the tree
    link p -> v opens a block, named v, when low[v] >= disc[p], and else
    joins the block of the tree link into p; any other pair joins the
    block of the tree link into its deeper end, a cycle through which it
    closes.  Tree links agree with theta, so one scan of the pairs finds
    the unbalanced blocks; the regions are the tree links of the others.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(h.n + 1)]
    for i, (x, y, _) in enumerate(pairs):
        adj[x].append((y, i))
        adj[y].append((x, i))
    disc, low, tree = _lowlink(adj)
    theta = [1] * (h.n + 1)
    root = list(range(h.n + 1))
    block = list(range(h.n + 1))
    for p, v, i in tree:
        theta[v] = theta[p] * pairs[i][2]
        root[v] = root[p]
        if low[v] < disc[p]:
            block[v] = block[p]
    unbalanced = {block[x if disc[x] > disc[y] else y]
                  for x, y, s in pairs if theta[x] * s * theta[y] < 0}
    region = UnionFind(h.n)
    region.link((p, v) for p, v, _ in tree if block[v] not in unbalanced)

    groups: dict[int, list[tuple[int, int, int]]] = {}
    for u, z, s in attach:
        groups.setdefault(root[z], []).append((u, z, s))
    for group in groups.values():
        if len({region.find(z) for _, z, _ in group}) > 1:
            uf.link((group[0][0], u) for u, _, _ in group)
            continue
        first: dict[int, int] = {}
        uf.link((first.setdefault(sign[u] * s * theta[z], u), u) for u, z, s in group)

    cores = uf.groups(v for v in h.vertex_range() if sign[v])
    absorbers = {r: {uf.find(u) for u, _, _ in group} for r, group in groups.items()}
    # the zeros absorbed by the core of each root, ascending
    absorbed: dict[int, list[int]] = {}
    for v in h.vertex_range():
        for c in absorbers.get(root[v], ()):
            absorbed.setdefault(c, []).append(v)
    closures = []
    for core in cores:
        zeros = absorbed.get(uf.find(core[0]))
        # two ascending runs, the core's and the zeros', take one merge
        closures.append(tuple(sorted(core + tuple(zeros))) if zeros else core)
    return cores, tuple(closures)


def weak_domains(h: SignedHypergraph, f: VertexFunction) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(weak cores, weak closures) of f, read off ``decompose``.  Not
    exported: only the one-off timing script ``bench/reference.py`` calls
    this, until that script is retired."""
    dec = decompose(h, f)
    return dec.weak_cores, dec.weak_closures


def decompose(h: SignedHypergraph, f: VertexFunction) -> NodalDecomposition:
    """Full nodal decomposition of f on h, from one list of signs and one
    scan of the pair table (``_sort_pairs``).

    The strong domains are the components of the support under strong
    links: {x, y} is linked when some edge contains both and
    f(x) * sgn(e) * f(y) > 0.  The weak cores partition the support under
    weak links (``_weak``), and each closure adds the zeros that reach its
    core through a path of zero vertices.  Without an attachment (a pair
    joining a nonzero to a zero), zeros included, every weak link is a
    direct pair and no zero reaches a core, so the weak cores and
    closures are the strong domains and the weak pass is not run.
    """
    _check_function(h, f)
    return _decomposition(h, _vertex_signs(f))


def _decomposition(h: SignedHypergraph, sign: list[int]) -> NodalDecomposition:
    """The nodal decomposition of the signs ``sign`` (index 0 unused), for
    ``decompose`` and the attached rows of ``Analysis`` alike: the strong
    links of ``_sort_pairs`` on a union-find, its groups, and the weak
    pass on it only when some pair joins a nonzero to a zero."""
    links, zero_pairs, attach = _sort_pairs(h, sign)
    uf = UnionFind(h.n)
    uf.link(links)
    strong = uf.groups(v for v in h.vertex_range() if sign[v])
    weak = _weak(h, sign, uf, zero_pairs, attach) if attach else (strong, strong)
    return NodalDecomposition(strong, *weak)


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


def cyclic_vertices(h: SignedHypergraph) -> tuple[list[bool], list[bool]]:
    """Per vertex of h (index 0 unused): True when it is not tree-like,
    on h and on its signed clique expansion.  The program's one tree-like
    test; the campaign checks it against ``core.lies_on_cycle`` and
    against weak deletion.

    x is tree-like when its weak deletion (``core.weak_delete``) raises
    the component count by deg(x) - 1.  One bridge pass over the incidence
    graph of the edges of size 2 or more decides both readings for every
    vertex.  On the hypergraph, x is tree-like exactly when each of its
    incidence links is a bridge and none of its edges has size 1, since
    weak deletion leaves such an edge empty (an edge of size 1 adds only a
    bridge to the graph, so it is left out).  On the expansion, whose
    edges are the pairs of every edge, an edge of size 2 is a subdivided
    pair, so a link that is not a bridge lies on a cycle of pairs, and an
    edge of size 3 or more puts each of its vertices on a triangle; an
    edge of size 1 gives no pair.  An edge of size 2 enters the pass as
    one link between its two vertices, not as a node with two: undoing
    the subdivision turns a bridge into a bridge and a link on a cycle
    into a link on a cycle.  Both readings depend on the graph alone,
    never on a function.

    The pass is Tarjan's low-link bridge test (Inf. Process. Lett. 1974)
    read off the one depth-first search of ``_lowlink``, which the weak
    pass shares; parallel links are kept apart by their ids.  The tree
    link from p to its child v is a bridge unless low[v] <= disc[p], and
    every link off the tree closes a cycle with tree links at both its
    ends, so marking both ends of each tree link that is not a bridge
    marks every end of every link that is not one.
    """
    n = h.n
    # edge nodes n + 1.. are marked too and cut off at the end
    size = n + 1 + h.m
    on_h = [False] * size
    on_clique = [False] * size
    adj: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    link = 0
    for node, vs in enumerate((e.vertices for e in h.edges), n + 1):
        if len(vs) > 2:
            for v in vs:
                adj[v].append((node, link))
                adj[node].append((v, link))
                link += 1
                on_clique[v] = True
        elif len(vs) == 2:
            a, b = vs
            adj[a].append((b, link))
            adj[b].append((a, link))
            link += 1
        elif vs:
            on_h[vs[0]] = True
    disc, low, tree = _lowlink(adj)
    for p, v, _ in tree:
        if low[v] <= disc[p]:
            on_h[p] = on_clique[p] = on_h[v] = on_clique[v] = True
    return on_h[:n + 1], on_clique[:n + 1]


def fiedler_sets(h: SignedHypergraph, f: VertexFunction) -> FiedlerSets:
    """Split the zeros of f: a zero joins ``fiedler`` when all its
    hyperneighbors are zeros (or it has none) or it is not tree-like
    (``cyclic_vertices``)."""
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
    cyclic = cyclic_vertices(h)[0]
    fiedler: list[int] = []
    other: list[int] = []
    for v in zeros:
        (fiedler if cyclic[v] or not seen_nonzero[v] else other).append(v)
    return FiedlerSets(tuple(fiedler), tuple(other))


@dataclass(frozen=True)
class BoundTerms:
    """The terms of the lower bound of every row under one reading: the
    Fiedler sets, l_plus and l', one entry per row."""

    fiedler: tuple[FiedlerSets, ...]
    l_plus: tuple[int, ...]
    l_prime: tuple[int, ...]


class _Rows(NamedTuple):
    strong: list[tuple[tuple[int, ...], ...]]
    # some pair joins a nonzero to a zero, so the weak pass has work
    attached: list[bool]
    terms: dict[str, BoundTerms]


def _row_pass(h: SignedHypergraph, signs: np.ndarray, n_components: int) -> _Rows:
    """Strong domains, attachments and the ``BoundTerms`` of both readings
    of every row of the sign matrix ``signs``; ``n_components`` is c(h).

    One walk over chunks of rows.  A chunk takes the nonzero ends and the
    strong pairs (sign(x) * sign(y) == sgn(e), the product in int8) as
    masks over the pair table.  The pair table and the flat incidence
    list are both in edge order, so cumulative sums along a row count,
    per edge, its strong pairs and its nonzero vertices k_e.  The chunk
    labels at most three link sets, the first with ``_labels`` and the
    others with ``component_counts``:

    - the strong pairs: the strong domains, and their count P.  The
      support is sorted stably by label, so each row's domains are
      ordered by smallest vertex (as ``UnionFind.groups`` orders them)
      and each is a slice of ascending members.  A pair of the clique
      expansion is coherent exactly when strong, so there
      l_plus = P - n + S + (n - |supp|) with S strong domains;
    - the pairs of the coherent edges, those whose C(|e|, 2) pairs are
      all strong, and so whose |e| vertices are nonzero (an edge of size
      1 or 0 has no pair and adds nothing, coherent or not): l_plus on h,
      over sum max(|e| - 1, 0) of them;
    - the pairs with two nonzero ends, for rows with a zero.  An edge
      with k_e nonzero vertices connects them in h and in its expansion
      alike, and a zero is isolated, so with c components on 1..n,
      l'_h = sum max(k_e - 1, 0) - n + c and l'_clique is these links
      - n + c.  A zero-free row has the whole graph for support.

    The Fiedler set of a row is ``zero & (cyclic | ~seen)``: a zero is
    ``seen`` when one of its edges has k_e >= 1, the same on both graphs;
    ``cyclic_vertices`` gives ``cyclic`` of both in one bridge pass, run
    once and only when some row has a zero.
    """
    n, width, n_rows = h.n, h.n + 1, len(signs)
    xs, ys, ps = np.array(h.pairs, dtype=np.intp).reshape(-1, 3).T
    sizes = np.fromiter((e.size for e in h.edges), dtype=np.intp, count=h.m)
    n_pairs = sizes * (sizes - 1) // 2
    verts = np.fromiter(chain.from_iterable(e.vertices for e in h.edges), dtype=np.intp,
                        count=int(sizes.sum()))
    edge_of = np.repeat(np.arange(h.m), sizes)
    pair_edge = np.repeat(np.arange(h.m), n_pairs)
    flat_bounds = np.concatenate(([0], np.cumsum(sizes)))
    pair_bounds = np.concatenate(([0], np.cumsum(n_pairs)))
    # the flat incidences grouped by vertex, for the per-vertex sums
    by_vertex = edge_of[np.argsort(verts, kind="stable")]
    vertex_bounds = np.concatenate(([0], np.cumsum(np.bincount(verts, minlength=width))))
    links = np.maximum(sizes - 1, 0)

    strong: list[tuple[tuple[int, ...], ...]] = []
    attached = np.empty(n_rows, dtype=bool)
    strong_pairs, plus_h = (np.empty(n_rows, dtype=np.intp) for _ in range(2))
    l_h = np.full(n_rows, int(links.sum()) - n + n_components)
    l_clique = np.full(n_rows, len(xs) - n + n_components)
    fiedler: tuple[list[FiedlerSets], ...] = ([_NO_ZEROS] * n_rows, [_NO_ZEROS] * n_rows)
    cyclic: list[np.ndarray] = []
    for rows in row_chunks(n_rows, max(len(xs), len(verts), width, h.m)):
        s = signs[rows]
        nonzero = s != 0
        nx, ny = nonzero[:, xs], nonzero[:, ys]
        attached[rows] = (nx != ny).any(axis=1)
        is_strong = s[:, xs] * s[:, ys] == ps
        strong_pairs[rows] = is_strong.sum(axis=1)
        labels = _labels(width, xs, ys, is_strong)
        rr, vv = np.nonzero(s)
        # one key per (row, domain); row-major order keeps vertices ascending
        key = rr * width + labels[rr, vv]
        order = np.argsort(key, kind="stable")
        key, members = key[order], vv[order].tolist()
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        bounds = starts.tolist() + [len(members)]
        groups = iter([tuple(members[a:b]) for a, b in zip(bounds, bounds[1:])])
        counts = np.bincount(key[starts] // width, minlength=rows.stop - rows.start)
        strong.extend(tuple(islice(groups, k)) for k in counts.tolist())

        coherent = _segment_sums(is_strong, pair_bounds) == n_pairs
        plus_h[rows] = coherent @ links - n + component_counts(width, xs, ys, coherent[:, pair_edge])

        with_zero = np.flatnonzero(~nonzero[:, 1:].all(axis=1))
        if not len(with_zero):
            continue
        both = nx[with_zero] & ny[with_zero]
        c = component_counts(width, xs, ys, both)
        k = _segment_sums(nonzero[with_zero][:, verts], flat_bounds)
        at = with_zero + rows.start
        l_h[at] = np.maximum(k - 1, 0).sum(axis=1) - n + c
        l_clique[at] = both.sum(axis=1) - n + c
        seen = _segment_sums((k > 0)[:, by_vertex], vertex_bounds) > 0
        zero = ~nonzero[with_zero]
        zero[:, 0] = False
        if not cyclic:
            cyclic = [np.array(mask, dtype=bool) for mask in cyclic_vertices(h)]
        for i, z, sn in zip(at.tolist(), zero, seen):
            for reading, cyc in zip(fiedler, cyclic):
                fied = z & (cyc | ~sn)
                reading[i] = FiedlerSets(tuple(np.flatnonzero(fied).tolist()),
                                         tuple(np.flatnonzero(z & ~fied).tolist()))

    # the clique expansion's coherent graph: the strong domains, and the
    # zeros as isolated vertices
    clique_c = np.array([len(d) for d in strong], dtype=np.intp) + (signs[:, 1:] == 0).sum(axis=1)
    plus = (plus_h, strong_pairs - n + clique_c)
    terms = {variant: BoundTerms(tuple(fs), tuple(lp.tolist()), tuple(lq.tolist()))
             for variant, fs, lp, lq in zip(BOUND_VARIANTS, fiedler, plus, (l_h, l_clique))}
    return _Rows(strong, attached.tolist(), terms)


def _bound_rows(analysis: Analysis, variant: str) -> list[BoundReport]:
    """One BoundReport per eigenfunction, from the cached decompositions
    and the ``terms`` of ``variant``; the per-instance terms are computed
    once for all rows."""
    spectrum, cyc = analysis.spectrum, analysis.cycles
    c = cyc.n_components
    terms = analysis.terms[variant]
    # (k, r) of every index, the clusters covering 1..n in order
    clusters = [(k, r) for k, r in spectrum.clusters for _ in range(r)]
    out = []
    rows = zip(clusters, analysis.decompositions, terms.fiedler, terms.l_plus, terms.l_prime)
    for i, ((k, r), dec, fs, lp, l_prime) in enumerate(rows, 1):
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
    ``decompositions[i - 1]`` belongs to that eigenfunction, and so does
    entry i - 1 of each part of ``terms[variant]``: the Fiedler sets,
    l_plus and l' on h (``all_pairs``) or on its clique expansion
    (``clique``).  One row pass (``_row_pass``) gives the strong domains
    and the terms of both readings; only an eigenfunction with a nonzero
    next to a zero is decomposed again on its own, by ``_decomposition``
    as ``decompose`` does.  ``cycles`` holds c and l of h.
    ``bounds(variant)`` is the table of nodal-count bounds of every
    index: strong count <= k + r - 1; weak count <= k + c - 1; strong
    count >= k + r - 1 - l' + l_plus - |fiedler|, the terms read on whole
    hyperedges (``all_pairs``: l_plus over the edges whose every vertex
    pair is coherent) or on the clique expansion.
    """

    def __init__(self, h: SignedHypergraph, zero_tol_rel: float = DEFAULT_ZERO_TOL_REL) -> None:
        self.h = h
        self.zero_tol_rel = zero_tol_rel
        self._bounds: dict[str, tuple[BoundReport, ...]] = {}

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
    def _rows(self) -> _Rows:
        return _row_pass(self.h, self.signs, self.cycles.n_components)

    @property
    def terms(self) -> dict[str, BoundTerms]:
        """The ``BoundTerms`` of every eigenfunction, keyed by the names of
        ``BOUND_VARIANTS``."""
        return self._rows.terms

    @cached_property
    def decompositions(self) -> tuple[NodalDecomposition, ...]:
        rows = zip(self.signs, self._rows.strong, self._rows.attached)
        return tuple(_decomposition(self.h, row.tolist()) if attached
                     else NodalDecomposition(strong, strong, strong) for row, strong, attached in rows)

    def bounds(self, variant: str = "all_pairs") -> tuple[BoundReport, ...]:
        """The bounds row of every eigenfunction, in index order."""
        if variant not in BOUND_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {BOUND_VARIANTS}")
        if variant not in self._bounds:
            self._bounds[variant] = tuple(_bound_rows(self, variant))
        return self._bounds[variant]

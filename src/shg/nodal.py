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
per attachment.

Every pass reads an edge once, as its members and sgn(e), never as its
C(|e|, 2) vertex pairs, so its cost grows with the incidences.  One scan
of the edges (``_scan``) takes from each edge of a function its strong
links, as star links to the first member of each sign class, its zeros
and its attachments (a nonzero and a zero in one edge); the weak pass
(``_weak``) takes the last two lists and a union-find joined on the
strong domains, and only links further on it.  It reads the pair graph
on the zeros as the zero incidence graph of ``core.incidence_graph``
(an edge with two zeros is one link, one with three or more a hub node),
whose blocks merged at the hubs are the pair graph's.  Whether a vertex
is tree-like depends on the graph alone, and one bridge pass over the
vertex-edge incidence graph, by the same rule, decides it for all
vertices, on h and on its clique expansion alike
(``core.cyclic_vertices``, the one tree-like test of the program, cached
as ``SignedHypergraph.cyclic``); a function adds only its zero mask.
Both passes read one low-link search, ``core.lowlink``, and keep no edge
stack: the tree link p -> v is a bridge unless low[v] <= disc[p], and
opens a block when low[v] >= disc[p], else joining the block of the tree
link into p; any other link joins the block of the tree link into its
deeper end.

One row pass (``_row_pass``) serves every row of a sign matrix: per
chunk of rows, segment sums over the flat incidence list count the
positive and negative members of every edge, and star links over it
give the attachments, the strong domains of the rows without one, and
l_plus, l' and the Fiedler sets on h and on its clique expansion alike,
the pair counts of the clique terms by arithmetic.  Its labellings share
``_labels``, which runs ``_components``, hook-and-jump rounds on numpy
arrays over the rows as one block-diagonal graph; ``component_counts``
counts the components of such rows.  A chunk is sized once, by its caller:
``row_chunks`` serves the row pass and the campaign's sandwich, the two
passes whose temporaries grow with the rows times a per-row size, and
nothing below them chunks again.  The one-function entries
``decompose`` and ``fiedler_sets`` keep their own code (a one-row
kernel call costs more than it saves) and union with
``core.UnionFind.link`` where they union.  One routine,
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

All decisions are made on the signs of ``spectra`` (a function's
``signs`` for ``decompose`` and ``fiedler_sets``, its ``sign_matrix`` for
``Analysis``), so decompositions are invariant under scaling.

``Analysis`` holds everything computed about one instance from its
functions: its matrices and spectrum, one sign matrix of all its
eigenfunctions, the row pass over it, one decomposition per
eigenfunction, and one bounds table per reading.  ``shg report``, ``shg
bounds`` and the campaign all read from it, so each instance runs one
row pass; the campaign's random functions go through ``decompose``.
Facts of the hypergraph alone are cached on it, so the row pass,
``fiedler_sets`` and the campaign share one bridge pass per hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core import SignedHypergraph, UnionFind, incidence_graph, lowlink
from .spectra import (
    DEFAULT_ZERO_TOL_REL,
    MatrixBundle,
    Spectrum,
    VertexFunction,
    eigendecompose,
    laplacian,
    sign_matrix,
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
    a closure with a larger smallest vertex.  Where no edge holds a
    nonzero and a zero the three partitions coincide and are one tuple
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
    0..width-1, graph i linking xs[p] to ys[p] where mask[i, p], or to
    ys[i, p] when ys holds one end per row:
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
    ey = ex + (ys[pp] if ys.ndim == 1 else ys[mask])
    ex += xs[pp]
    del rr, pp
    labels = _components(n_nodes, ex[:budget], ey[:budget])
    for i in range(budget, len(ex), budget):
        labels = _components(n_nodes, labels[ex[i:i + budget]], labels[ey[i:i + budget]])[labels]
    return labels.reshape(-1, width) - np.arange(0, n_nodes, width)[:, None]


def component_counts(width: int, xs: np.ndarray, ys: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The number of components on nodes 1..width-1 of one graph per row
    of ``masks``, graph i linking xs[p] to ys[p] where masks[i, p] (the
    ends as ``_labels`` takes them).

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


def _scan(h: SignedHypergraph, sign: Sequence[int]) -> tuple[
        list[tuple[int, int]], list[tuple[list[int], int]], list[tuple[list[int], list[int], int]]]:
    """One scan of the edges under the signs ``sign``, each edge read as
    its members and sgn(e): (the strong links, as star links to the first
    member of each sign class; the zeros of every edge with two zeros or
    more, with sgn(e); the attachments, the nonzeros and the zeros of
    every edge with both, with sgn(e)).

    x and y of e are strongly linked when sign[x] * sgn(e) * sign[y] > 0:
    for sgn(e) = +1 the positives form one class and the negatives
    another; for sgn(e) = -1 all nonzero members form one class, and only
    when both signs occur.
    """
    links: list[tuple[int, int]] = []
    zero_groups: list[tuple[list[int], int]] = []
    attach: list[tuple[list[int], list[int], int]] = []
    for e in h.edges:
        s = e.sign
        nonzero: list[int] = []
        zeros: list[int] = []
        # the first positive and the first negative member
        p = q = 0
        for v in e.vertices:
            x = sign[v]
            if not x:
                zeros.append(v)
                continue
            nonzero.append(v)
            if x > 0:
                if not p:
                    p = v
                elif s > 0:
                    links.append((p, v))
            elif not q:
                q = v
            elif s > 0:
                links.append((q, v))
        if s < 0 and p and q:
            u = nonzero[0]
            links += [(u, v) for v in nonzero[1:]]
        if zeros:
            if len(zeros) > 1:
                zero_groups.append((zeros, s))
            if nonzero:
                attach.append((nonzero, zeros, s))
    return links, zero_groups, attach


def _weak(h: SignedHypergraph, sign: Sequence[int], uf: UnionFind, zero_groups: list[tuple[list[int], int]],
          attach: list[tuple[list[int], list[int], int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(cores, closures) of the signs ``sign`` (index 0 unused), given
    ``uf`` joined on their strong domains and the zero groups and
    attachments of ``_scan``; the cores join strong domains only, by
    further links on ``uf``.

    A weak link that is not strong is one attachment of a nonzero u to a
    zero z in an edge, a simple path inside one zero component, and one
    more attachment.  The paths run in the zero pair graph, where the
    zeros of an edge form a clique of sign sgn(e); it is read as its
    zero incidence graph (``core.incidence_graph``): an edge with two
    zeros is one link of sign sgn(e), and an edge with three or more a
    hub node linked to each of them by +1.  A clique of three or more is
    2-connected, so the blocks of the pair graph are those of the
    incidence graph merged at the hubs; it is balanced for sgn(e) = +1,
    with one theta on all its zeros, and carries a negative triangle for
    sgn(e) = -1.  On that graph a depth-first potential theta decides each
    block: balanced when theta(x) * s * theta(y) = 1 on all its links and
    no negative hub lies in it, so any path inside it between a and b has
    sign theta(a) * theta(b); an unbalanced block has simple paths of both
    signs between any two of its vertices.  Balanced blocks glued at cut
    vertices form regions, where theta still gives the path sign; two
    zeros in different regions are joined by paths of both signs.  The
    depth-first tree also roots each zero component; the closure of every
    core that its attachments reach absorbs it.

    The blocks come off ``core.lowlink``, the bridge pass's search: the
    tree link p -> v opens a block, named v, when low[v] >= disc[p] and p
    is no hub, and else joins the block of the tree link into p; any
    other link joins the block of the tree link into its deeper end, a
    cycle through which it closes.  Tree links agree with theta, so one
    scan of the links finds the unbalanced blocks; the regions are the
    tree links of the others.  An edge attaches its nonzeros to the
    regions of its zeros and to the theta values over them, once per
    value: with two zeros of a negative edge in one region, a nonzero
    reaches them with both signs.
    """
    n = h.n
    adj, owner = incidence_graph(n + 1, [zeros for zeros, _ in zero_groups])
    disc, low, tree = lowlink(adj)
    size = len(adj)
    theta = [1] * size
    root = list(range(size))
    block = list(range(size))
    for p, v, li in tree:
        # the links at a hub carry +1, the link of two zeros sgn(e)
        theta[v] = theta[p] if p > n or v > n else theta[p] * zero_groups[owner[li]][1]
        root[v] = root[p]
        if low[v] < disc[p] or p > n:
            block[v] = block[p]
    # the hubs follow the vertices in group order
    hub_signs = [s for zeros, s in zero_groups if len(zeros) > 2]
    unbalanced = {block[hub] for hub, s in enumerate(hub_signs, n + 1) if s < 0}
    unbalanced.update(block[x if disc[x] > disc[y] else y] for x in range(n + 1) for y, li in adj[x]
                      if x < y and theta[x] * theta[y] * (1 if y > n else zero_groups[owner[li]][1]) < 0)
    region = UnionFind(size - 1)
    region.link((p, v) for p, v, _ in tree if block[v] not in unbalanced)

    groups: dict[int, list[tuple[list[int], list[int], int]]] = {}
    for a in attach:
        groups.setdefault(root[a[1][0]], []).append(a)
    for group in groups.values():
        if len({region.find(z) for _, zeros, _ in group for z in zeros}) > 1:
            u0 = group[0][0][0]
            uf.link((u0, u) for nonzero, _, _ in group for u in nonzero)
            continue
        first: dict[int, int] = {}
        uf.link((first.setdefault(sign[u] * s * t, u), u)
                for nonzero, zeros, s in group for t in {theta[z] for z in zeros} for u in nonzero)

    cores = uf.groups(v for v in h.vertex_range() if sign[v])
    absorbers = {r: {uf.find(u) for nonzero, _, _ in group for u in nonzero} for r, group in groups.items()}
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
    scan of the edges (``_scan``).

    The strong domains are the components of the support under strong
    links: {x, y} is linked when some edge contains both and
    f(x) * sgn(e) * f(y) > 0.  The weak cores partition the support under
    weak links (``_weak``), and each closure adds the zeros that reach its
    core through a path of zero vertices.  Without an attachment (an edge
    holding a nonzero and a zero), zeros included, every weak link is a
    direct pair and no zero reaches a core, so the weak cores and
    closures are the strong domains and the weak pass is not run.
    """
    _check_function(h, f)
    return _decomposition(h, f.signs)


def _decomposition(h: SignedHypergraph, sign: Sequence[int]) -> NodalDecomposition:
    """The nodal decomposition of the signs ``sign`` (index 0 unused), for
    ``decompose`` and the attached rows of ``Analysis`` alike: the strong
    links of ``_scan`` on a union-find, its groups, and the weak pass on it
    only when some edge holds a nonzero and a zero."""
    links, zero_groups, attach = _scan(h, sign)
    uf = UnionFind(h.n)
    uf.link(links)
    strong = uf.groups(v for v in h.vertex_range() if sign[v])
    weak = _weak(h, sign, uf, zero_groups, attach) if attach else (strong, strong)
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


def fiedler_sets(h: SignedHypergraph, f: VertexFunction) -> FiedlerSets:
    """Split the zeros of f: a zero joins ``fiedler`` when all its
    hyperneighbors are zeros (or it has none) or it is not tree-like
    (``SignedHypergraph.cyclic``)."""
    _check_function(h, f)
    sign = f.signs
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
    cyclic = h.cyclic[0]
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
    # None on the attached rows, which ``Analysis`` decomposes again
    strong: list[tuple[tuple[int, ...], ...] | None]
    # some edge holds a nonzero and a zero, so the weak pass has work
    attached: list[bool]
    terms: dict[str, BoundTerms]


def _row_pass(h: SignedHypergraph, signs: np.ndarray) -> _Rows:
    """Attachments, the strong domains of the rows without one, and the
    ``BoundTerms`` of both readings of every row of the sign matrix
    ``signs``.

    One walk over chunks of rows, each edge read as its members and sgn(e)
    through the flat incidence list, in edge order, every segment of it
    nonempty since every edge has a member.  Sums over each edge's members
    (``np.add.reduceat``) count, per edge e, its p positive and q negative
    members, so k_e = p + q nonzero ones; an edge with a zero and a
    nonzero member is an attachment.  The strong pairs of e number C(p, 2) + C(q, 2) for
    sgn(e) = +1 and p * q for sgn(e) = -1, and e is coherent when they are
    all C(|e|, 2) of its pairs (an edge of size 1 has no pair and adds
    nothing, coherent or not).  The chunk labels at most three graphs,
    the first with ``_labels`` and the others with ``component_counts``,
    each a star per edge and class, its members linked to the least one
    (a maximum over the edge's members per row), so the links of a row
    number fewer than the incidences:

    - the strong relation: for sgn(e) = +1 the positive members form one
      class and the negative ones another, and for sgn(e) = -1 the
      nonzero members form one class, when both signs occur.  This gives
      the count S of strong domains, the nonzero vertices that label
      themselves, and on rows without an attachment the domains.  Their
      support is sorted stably by label, so each row's domains are
      ordered by smallest vertex (as ``UnionFind.groups`` orders them) and
      each is a slice of ascending members.  A pair of the clique
      expansion is coherent exactly when strong, so there l_plus =
      P - n + S + (n - |supp|), with P the strong pairs of all edges;
    - the coherent edges, whose members form one strong class, so whose
      strong stars serve: l_plus on h, over sum (|e| - 1) of them;
    - the nonzero members of every edge, for rows with a zero.  An edge
      with k_e nonzero vertices connects them in h and in its expansion
      alike, and a zero is isolated, so with c components on 1..n,
      l'_h = sum max(k_e - 1, 0) - n + c and l'_clique =
      sum C(k_e, 2) - n + c (c of ``h.cycles``, and C(|e|, 2) for
      C(k_e, 2), on a zero-free row, which has all of h for support).

    The Fiedler set of a row is ``zero & (cyclic | ~seen)``: a zero is
    ``seen`` when one of its edges has k_e >= 1, the same on both graphs,
    and ``h.cyclic`` gives ``cyclic`` of both, read only when some row
    has a zero.
    """
    n, width, n_rows = h.n, h.n + 1, len(signs)
    edges = h.edges
    vertex_lists = [e.vertices for e in edges]
    sizes = np.fromiter(map(len, vertex_lists), dtype=np.intp, count=len(edges))
    positive = np.fromiter((e.sign > 0 for e in edges), dtype=bool, count=len(edges))
    verts = np.fromiter(chain.from_iterable(vertex_lists), dtype=np.intp, count=int(sizes.sum()))
    n_pairs = sizes * (sizes - 1) // 2
    edge_of = np.repeat(np.arange(len(edges)), sizes)
    starts = np.cumsum(sizes) - sizes
    on_positive = positive[edge_of]
    # width - v: the least member of a set has the largest, so a segment
    # maximum finds the centre of a star, which every other member then
    # hooks under in one round of ``_components``
    flipped = width - verts
    # the flat incidences grouped by vertex, for the per-vertex sums of the
    # rows with a zero, built for the first of them
    by_vertex = vertex_bounds = None
    links = sizes - 1

    strong: list[tuple[tuple[int, ...], ...] | None] = []
    attached = np.empty(n_rows, dtype=bool)
    strong_pairs, n_strong, plus_h = (np.empty(n_rows, dtype=np.intp) for _ in range(3))
    l_h = np.full(n_rows, h.cycles.l)
    l_clique = np.full(n_rows, int(n_pairs.sum()) - n + h.cycles.n_components)
    fiedler: tuple[list[FiedlerSets], ...] = ([_NO_ZEROS] * n_rows, [_NO_ZEROS] * n_rows)
    # every edge has a member, so the incidences outnumber the edges
    for rows in row_chunks(n_rows, max(len(verts), width)):
        s = signs[rows]
        nonzero = s != 0
        incident = s[:, verts]
        pos, neg = incident > 0, incident < 0
        member = pos | neg
        p = np.add.reduceat(pos, starts, axis=1, dtype=np.intp)
        q = np.add.reduceat(neg, starts, axis=1, dtype=np.intp)
        k_e, pq = p + q, p * q
        attached[rows] = ((k_e > 0) & (k_e < sizes)).any(axis=1)
        # C(k, 2) = C(p, 2) + C(q, 2) + p * q
        pairs_in = np.where(positive, k_e * (k_e - 1) // 2 - pq, pq)
        strong_pairs[rows] = pairs_in.sum(axis=1)
        # the class of every member, +1 or -1: for sgn(e) = +1 its sign, for
        # sgn(e) = -1 one class when both signs occur; each class of an edge
        # is a star on its least member
        cls = np.where(on_positive, incident, member & (pq > 0)[:, edge_of])
        signed = cls * flipped
        anchor = np.where(cls > 0, width - np.maximum.reduceat(signed, starts, axis=1)[:, edge_of],
                          width + np.minimum.reduceat(signed, starts, axis=1)[:, edge_of])
        is_strong = (cls != 0) & (anchor != verts)
        labels = _labels(width, verts, anchor, is_strong)
        n_strong[rows] = (nonzero & (labels == np.arange(width))).sum(axis=1)
        free = np.flatnonzero(~attached[rows])
        rr, vv = np.nonzero(s[free])
        # one key per (row, domain); row-major order keeps vertices ascending
        key = rr * width + labels[free[rr], vv]
        order = np.argsort(key, kind="stable")
        members = vv[order].tolist()
        bounds = np.flatnonzero(np.diff(key[order], prepend=-1)).tolist() + [len(members)]
        groups = iter([tuple(members[a:b]) for a, b in zip(bounds, bounds[1:])])
        strong.extend(None if a else tuple(islice(groups, k))
                      for a, k in zip(attached[rows].tolist(), n_strong[rows].tolist()))

        # a coherent edge is one strong class, so its star links are its own
        coherent = pairs_in == n_pairs
        plus_h[rows] = coherent @ links - n + component_counts(width, verts, anchor,
                                                               is_strong & coherent[:, edge_of])

        with_zero = np.flatnonzero(~nonzero[:, 1:].all(axis=1))
        if not len(with_zero):
            continue
        kz = k_e[with_zero]
        nz = member[with_zero]
        anchor = width - np.maximum.reduceat(nz * flipped, starts, axis=1)[:, edge_of]
        c = component_counts(width, verts, anchor, nz & (anchor != verts))
        at = with_zero + rows.start
        l_h[at] = np.maximum(kz - 1, 0).sum(axis=1) - n + c
        l_clique[at] = (kz * (kz - 1) // 2).sum(axis=1) - n + c
        if by_vertex is None:
            by_vertex = edge_of[np.argsort(verts, kind="stable")]
            vertex_bounds = np.concatenate(([0], np.cumsum(np.bincount(verts, minlength=width))))
        seen = _segment_sums((kz > 0)[:, by_vertex], vertex_bounds) > 0
        zero = ~nonzero[with_zero]
        zero[:, 0] = False
        cyclic = [np.array(mask, dtype=bool) for mask in h.cyclic]
        for i, z, sn in zip(at.tolist(), zero, seen):
            for reading, cyc in zip(fiedler, cyclic):
                fied = z & (cyc | ~sn)
                reading[i] = FiedlerSets(tuple(np.flatnonzero(fied).tolist()),
                                         tuple(np.flatnonzero(z & ~fied).tolist()))

    # the clique expansion's coherent graph: the strong domains, and the
    # zeros as isolated vertices
    plus = (plus_h, strong_pairs - n + n_strong + (signs[:, 1:] == 0).sum(axis=1))
    terms = {variant: BoundTerms(tuple(fs), tuple(lp.tolist()), tuple(lq.tolist()))
             for variant, fs, lp, lq in zip(BOUND_VARIANTS, fiedler, plus, (l_h, l_clique))}
    return _Rows(strong, attached.tolist(), terms)


def _bound_rows(analysis: Analysis, variant: str) -> list[BoundReport]:
    """One BoundReport per eigenfunction, from the cached decompositions
    and the ``terms`` of ``variant``; the per-instance terms are computed
    once for all rows."""
    spectrum, cyc = analysis.spectrum, analysis.h.cycles
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
    (``clique``).  One row pass (``_row_pass``) gives the terms of both
    readings and the strong domains of the rows without a nonzero next
    to a zero, reading each edge once, as its members and sgn(e); each
    other eigenfunction is decomposed on its own, by ``_decomposition`` as
    ``decompose`` does.  Facts of h alone (c, l,
    the tree-like marks) are cached on h, ``SignedHypergraph.cycles`` and
    ``cyclic``, so every reader of h shares them.
    ``bounds(variant)`` is the table of nodal-count bounds of every
    index: strong count <= k + r - 1; weak count <= k + c - 1; strong
    count >= k + r - 1 - l' + l_plus - |fiedler|, the terms read on whole
    hyperedges (``all_pairs``: l_plus over the edges whose every vertex
    pair is coherent, counted per edge from its positive and negative
    members) or on the clique expansion.
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
        return sign_matrix(self.spectrum.functions)

    @cached_property
    def _rows(self) -> _Rows:
        return _row_pass(self.h, self.signs)

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

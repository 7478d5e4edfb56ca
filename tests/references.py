"""Reference definitions that only the tests read.

Each computes one term of the bounds, one identity or one predicate,
the slow and plain way; the program computes the same from one pass
(over all rows in ``nodal._row_pass``, over the incidence graph in
``core.cyclic_vertices``, over a stack of functions in ``spectra``, over
the edges once in ``nodal.decompose``, over the sign matrix in the
campaign's sandwich), and the tests compare the two.  The program reads
an edge as its members and sgn(e); the references read it as its vertex
pairs, the table ``pairs`` builds, and ``reference_row_pass`` is the row
pass on masks over that table.  The blocks of
every reference come from ``reference_blocks``, the Hopcroft-Tarjan
edge-stack search, which shares no code with the
program: there one low-link search, ``core.lowlink``, serves the
bridge pass and the weak pass, and the weak pass reads the blocks off
it by two rules (the tree link p -> v opens a block when
low[v] >= disc[p], else joins the block of the tree link into p; any
other link joins the block of the tree link into its deeper end).  The
last two sections hold test instances and searches with no counterpart
in the program: random supertrees with the rank of their difference
forms, the heaviest hyperforest found by trying every edge subset, and
families whose spectra have closed forms, with random trees and
sunflowers beside them.  ``reference_edge_sign`` is the tests' own
sgn(e), read off the incidences apart from ``Edge.sign``.
"""

import math
import random
from itertools import chain, combinations, islice, repeat

import numpy as np

from shg.core import (
    CycleStats,
    Edge,
    SignedHypergraph,
    UnionFind,
    cyclomatic,
    degrees,
    induced_subhypergraph,
    spanning_hyperforest,
    weak_delete,
)
from shg.nodal import (
    _NO_ZEROS,
    BOUND_VARIANTS,
    BoundTerms,
    FiedlerSets,
    _labels,
    _Rows,
    _segment_sums,
    component_counts,
    row_chunks,
)


def reference_edge_sign(e) -> int:
    """sgn(e) by its definition, (-1)^(|e|-1) times the product of the
    incidence signs, read off the incidences.  The references' own rule,
    apart from ``Edge.sign``."""
    return (-1) ** (len(e.incidences) - 1) * math.prod(s for _, s in e.incidences)


def pairs(h) -> tuple[tuple[int, int, int], ...]:
    """The pair table: (x, y, sgn(e)) for every vertex pair of every edge,
    in edge order and then incidence order, parallel pairs kept.  The
    program reads an edge as its members and sgn(e) and builds no such
    table; every reference that reads pairs reads this one."""
    out = []
    for e in h.edges:
        s = reference_edge_sign(e)
        out += [(x, y, s) for x, y in combinations(e.vertices, 2)]
    return tuple(out)


def support_cyclomatic(h, f) -> CycleStats:
    """Cyclomatic data of the subhypergraph induced on the support of f
    (edges truncated to nonzero vertices, empty truncations dropped): the
    l' of the bounds on h."""
    if f.n != h.n:
        raise ValueError(f"function has {f.n} values, hypergraph has {h.n} vertices")
    return cyclomatic(induced_subhypergraph(h, f.support()))


def reference_is_tree_like(h, x, c) -> bool:
    """x is tree-like by the definition: building the weak deletion of x
    raises the component count c = c(h) by deg(x) - 1."""
    return cyclomatic(weak_delete(h, x)).n_components == c + degrees(h)[x] - 1


def reference_blocks(n_nodes: int, ends: list[tuple[int, int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Blocks of a multigraph on nodes 0..n_nodes-1 with edges ``ends``.

    Returns the blocks (biconnected components) as lists of edge ids and
    the depth-first tree as (child, edge id) in discovery order.  This is
    the Hopcroft-Tarjan edge-stack search (CACM 1973), run with an explicit
    stack over neighbour lists of (node, edge id); parallel edges are kept
    apart by their ids, so two of them form a block.  The program reads
    the blocks off the low-link numbers of ``core.lowlink`` instead;
    this search shares no code with it and is kept as its reference.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for ei, (a, b) in enumerate(ends):
        adj[a].append((b, ei))
        adj[b].append((a, ei))
    disc = [-1] * n_nodes
    low = [0] * n_nodes
    counter = 0
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    tree: list[tuple[int, int]] = []
    for root in range(n_nodes):
        if disc[root] >= 0 or not adj[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for t, ei in it:
                if disc[t] < 0:
                    edge_stack.append(ei)
                    tree.append((t, ei))
                    disc[t] = low[t] = counter
                    counter += 1
                    stack.append((t, ei, iter(adj[t])))
                    break
                # a link back to an ancestor, other than the tree link in
                if disc[t] < disc[v] and ei != in_edge:
                    edge_stack.append(ei)
                    if disc[t] < low[v]:
                        low[v] = disc[t]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        i = len(edge_stack) - 1
                        while edge_stack[i] != in_edge:
                            i -= 1
                        blocks.append(edge_stack[i:])
                        del edge_stack[i:]
    return blocks, tree


def reference_cyclic_vertices(h) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """``core.cyclic_vertices`` as a block search: the incidence graph of
    the edges of size 2 or more, an edge of size 2 as one link, goes
    through ``reference_blocks``, and both ends of every link in a block of
    two or more links are cyclic on both readings; a vertex of an edge of
    size 1 is cyclic on h, and one of an edge of size 3 or more on the
    clique expansion.  Kept as the reference of the bridge pass."""
    n = h.n
    size = n + 1 + h.m
    on_h = [False] * size
    on_clique = [False] * size
    links = []
    for node, vs in enumerate((e.vertices for e in h.edges), n + 1):
        if len(vs) > 2:
            for v in vs:
                links.append((v, node))
                on_clique[v] = True
        elif len(vs) == 2:
            links.append(vs)
        elif vs:
            on_h[vs[0]] = True
    for block in reference_blocks(size, links)[0]:
        if len(block) > 1:
            for li in block:
                a, b = links[li]
                on_h[a] = on_clique[a] = on_h[b] = on_clique[b] = True
    return tuple(on_h[:n + 1]), tuple(on_clique[:n + 1])


def adjacency_int(h) -> list[list[int]]:
    """Integer adjacency: a[i][j] sums edge signs over edges containing
    both i + 1 and j + 1 (0-based lists, zero diagonal, singleton edges add
    nothing), one pair of the pair table at a time; the reference for the
    float sums of ``spectra.adjacency``."""
    a = [[0] * h.n for _ in range(h.n)]
    for u, w, s in pairs(h):
        a[u - 1][w - 1] += s
        a[w - 1][u - 1] += s
    return a


def clique_expansion(h) -> SignedHypergraph:
    """The signed clique expansion: a 2-edge of sign sgn(e) for every
    vertex pair of every edge, parallel pairs kept (``pairs``).  Its
    adjacency equals that of h; the ``clique`` bounds table reads its
    terms off h's pairs without building it."""
    return SignedHypergraph(h.n, tuple(Edge(((x, 1), (y, -s))) for x, y, s in pairs(h)))


def product_rule_defect(h, bundle, f, g) -> float:
    """Absolute defect of the pointwise-product identity

        <fg, L(fg)> = <fg, f * Lg> + sum_{x<y adjacent} A_xy g(x) g(y) (f(x)-f(y))^2

    with the weighted inner product and the unordered-pair sum, f and g
    given as arrays of values.  Exact in real arithmetic for any
    symmetric adjacency; the return value is the floating-point residual.
    """
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    fg = fv * gv
    lhs = float(np.dot(bundle.deg * fg, bundle.l @ fg))
    mid = float(np.dot(bundle.deg * fg, fv * (bundle.l @ gv)))
    pair_sum = 0.0
    for x, y in {(min(x, y), max(x, y)) for x, y, _ in pairs(h)}:
        axy = bundle.a[x - 1, y - 1]
        pair_sum += axy * gv[x - 1] * gv[y - 1] * (fv[x - 1] - fv[y - 1]) ** 2
    return abs(lhs - mid - pair_sum)


# --- one function at a time: the spectral helpers before they took stacks


def reference_weighted_inner(h, f, g) -> float:
    """sum_v deg(v) f(v) g(v) of two arrays of values."""
    deg = np.asarray(degrees(h)[1:], dtype=float)
    return float(np.dot(deg * np.asarray(f, dtype=float), np.asarray(g, dtype=float)))


def reference_rayleigh(bundle, g) -> float:
    """<Lg, g> / <g, g> in the weighted product, g an array of values."""
    vals = np.asarray(g, dtype=float)
    denom = float(np.dot(bundle.deg * vals, vals))
    num = float(np.dot(bundle.deg * (bundle.l @ vals), vals))
    return num / denom


def reference_positive_inertia(s) -> int:
    """Eigenvalues of one symmetric matrix above 1e-9 of its 2-norm."""
    w = np.linalg.eigvalsh((s + s.T) / 2.0)
    norm = float(np.max(np.abs(w))) if len(w) else 0.0
    return int(np.sum(w > 1e-9 * norm))


def reference_nodal_quadratic_form(bundle, g, eigenvalue) -> np.ndarray:
    """D(g) Ddeg (L - lambda I) D(g), symmetrized, of one eigenfunction
    given as an array of values; the residual check is left out."""
    gv = np.asarray(g, dtype=float)
    core = bundle.deg[:, None] * (bundle.l - eigenvalue * np.eye(bundle.n))
    s = gv[:, None] * core * gv[None, :]
    return (s + s.T) / 2.0


def reference_sandwich(ctx, inertia):
    """(fails, notes) of the campaign's sandwich property, with
    ``inertia(i)`` as the positive inertia of eigenfunction i.

    The distinct vertex pairs sharing an edge are classified by the float
    product A_xy g(x) g(y) of every full-support eigenfunction g at once,
    the route the property took before it read the sign matrix: positive
    where the product is, nonzero where it is.  Each class of each row is
    then a graph of its own, counted by a greedy forest and a cyclomatic
    number.
    """
    h, b = ctx.h, ctx.bundle
    distinct = sorted({(min(x, y), max(x, y)) for x, y, _ in pairs(h)})
    a, c = np.array(distinct, dtype=np.intp).reshape(-1, 2).T
    full = [i for i, g in enumerate(ctx.spectrum.functions, 1) if len(g.support()) == h.n]
    values = np.array([ctx.spectrum.functions[i - 1].values for i in full]).reshape(len(full), h.n)
    coeff = b.a[a - 1, c - 1] * (values[:, a - 1] * values[:, c - 1])
    fails = []
    for i, row in zip(full, coeff.tolist()):
        positive, nonzero = (
            SignedHypergraph(h.n, tuple(Edge(((x, 1), (y, -1))) for (x, y), k in zip(distinct, row) if keep(k)))
            for keep in (lambda k: k > 0, lambda k: k != 0))
        sigma_t = sum(positive.edges[j].size - 1 for j in spanning_hyperforest(positive))
        p, n_pos, l_nonzero = inertia(i), positive.m, cyclomatic(nonzero).l
        if not (p <= sigma_t <= n_pos <= p + l_nonzero):
            fails.append(
                f"eig {i}: inertia {p}, forest weight {sigma_t}, positive pairs {n_pos}, "
                f"slack cap {p + l_nonzero}")
    return fails, []


# --- the strong and weak passes before the one scan of ``nodal.decompose``


def reference_decomposition(h, f):
    """(strong, weak cores, weak closures) of f by two scans of the pair
    table: the strong links into one union-find, then the zero pairs and
    attachments, with every strong domain linked again into a second
    union-find that the weak links extend."""
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    uf = UnionFind(h.n)
    uf.link((x, y) for x, y, s in pairs(h) if sign[x] * s * sign[y] > 0)
    strong = uf.groups(v for v in h.vertex_range() if sign[v])

    zz = {}
    attach = []
    for x, y, s in pairs(h):
        if sign[x] == 0 and sign[y] == 0:
            zz[(x, y, s) if x < y else (y, x, s)] = None
        elif sign[x] == 0:
            attach.append((y, x, s))
        elif sign[y] == 0:
            attach.append((x, y, s))
    if not attach:
        return strong, strong, strong

    zero_pairs = list(zz)
    blocks, tree = reference_blocks(h.n + 1, [(x, y) for x, y, _ in zero_pairs])
    theta = [1] * (h.n + 1)
    root = list(range(h.n + 1))
    for child, ei in tree:
        x, y, s = zero_pairs[ei]
        parent = x if y == child else y
        theta[child] = theta[parent] * s
        root[child] = root[parent]
    region = UnionFind(h.n)
    for block in blocks:
        block_pairs = [zero_pairs[ei] for ei in block]
        if all(theta[x] * s * theta[y] > 0 for x, y, s in block_pairs):
            region.link((x, y) for x, y, _ in block_pairs)

    uf = UnionFind(h.n)
    for domain in strong:
        uf.link(zip(repeat(domain[0]), domain))
    groups = {}
    for u, z, s in attach:
        groups.setdefault(root[z], []).append((u, z, s))
    for group in groups.values():
        if len({region.find(z) for _, z, _ in group}) > 1:
            uf.link((group[0][0], u) for u, _, _ in group)
            continue
        first = {}
        uf.link((first.setdefault(sign[u] * s * theta[z], u), u) for u, z, s in group)

    cores = uf.groups(v for v in h.vertex_range() if sign[v])
    closures = {uf.find(core[0]): list(core) for core in cores}
    absorbers = {r: {uf.find(u) for u, _, _ in group} for r, group in groups.items()}
    for v in h.vertex_range():
        for c in absorbers.get(root[v], ()):
            closures[c].append(v)
    return strong, cores, tuple(tuple(sorted(c)) for c in closures.values())


# --- the row pass over the pair table


def reference_row_pass(h, signs):
    """``nodal._row_pass`` over the pair table: attachments, the strong
    domains of the rows without one, and the ``BoundTerms`` of both
    readings of every row of the sign matrix ``signs``, the pairs of
    ``pairs`` as masks.

    One walk over chunks of rows.  A chunk takes the nonzero ends and the
    strong pairs (sign(x) * sign(y) == sgn(e), the product in int8) as
    masks over the pair table.  The pair table and the flat incidence
    list are both in edge order, so cumulative sums along a row count,
    per edge, its strong pairs and its nonzero vertices k_e.  The chunk
    labels at most three link sets, the first with ``_labels`` and the
    others with ``component_counts``:

    - the strong pairs, P of them: the count S of strong domains, the
      nonzero vertices that label themselves, and on rows without an
      attachment the domains.  Their support is sorted stably by label,
      so each row's domains are ordered by smallest vertex (as
      ``UnionFind.groups`` orders them) and each is a slice of ascending
      members.  A pair of the clique expansion is coherent exactly when
      strong, so there l_plus = P - n + S + (n - |supp|);
    - the pairs of the coherent edges, those whose C(|e|, 2) pairs are
      all strong, and so whose |e| vertices are nonzero (an edge of size
      1 has no pair and adds nothing, coherent or not): l_plus on h,
      over sum (|e| - 1) of them;
    - the pairs with two nonzero ends, for rows with a zero.  An edge
      with k_e nonzero vertices connects them in h and in its expansion
      alike, and a zero is isolated, so with c components on 1..n,
      l'_h = sum max(k_e - 1, 0) - n + c and l'_clique is these links
      - n + c (c of ``h.cycles``); a zero-free row has all of h for support.

    The Fiedler set of a row is ``zero & (cyclic | ~seen)``: a zero is
    ``seen`` when one of its edges has k_e >= 1, the same on both graphs,
    and ``h.cyclic`` gives ``cyclic`` of both, read only when some row
    has a zero.
    """
    n, width, n_rows = h.n, h.n + 1, len(signs)
    xs, ys, ps = np.array(pairs(h), dtype=np.intp).reshape(-1, 3).T
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
    links = sizes - 1

    strong: list[tuple[tuple[int, ...], ...] | None] = []
    attached = np.empty(n_rows, dtype=bool)
    strong_pairs, n_strong, plus_h = (np.empty(n_rows, dtype=np.intp) for _ in range(3))
    l_h = np.full(n_rows, h.cycles.l)
    l_clique = np.full(n_rows, len(xs) - n + h.cycles.n_components)
    fiedler: tuple[list[FiedlerSets], ...] = ([_NO_ZEROS] * n_rows, [_NO_ZEROS] * n_rows)
    for rows in row_chunks(n_rows, max(len(xs), len(verts), width, h.m)):
        s = signs[rows]
        nonzero = s != 0
        nx, ny = nonzero[:, xs], nonzero[:, ys]
        attached[rows] = (nx != ny).any(axis=1)
        is_strong = s[:, xs] * s[:, ys] == ps
        strong_pairs[rows] = is_strong.sum(axis=1)
        labels = _labels(width, xs, ys, is_strong)
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


# --- instances and searches that the program does not have


def generate_supertree(rng, n_edges, size_range=(2, 4)) -> SignedHypergraph:
    """Connected acyclic hypergraph where consecutive edges overlap in
    exactly one anchor vertex; cyclomatic number 0 by construction."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    sizes = [rng.randint(*size_range) for _ in range(n_edges)]
    n = sizes[0]
    edges = [Edge(tuple((v, rng.choice((1, -1))) for v in range(1, n + 1)))]
    for s in sizes[1:]:
        anchor = rng.randint(1, n)
        fresh = list(range(n + 1, n + s))
        n += s - 1
        vs = [anchor] + fresh
        edges.append(Edge(tuple((v, rng.choice((1, -1))) for v in vs)))
    return SignedHypergraph(n, tuple(edges))


def chained_difference_rank(h) -> tuple[int, int]:
    """Rank of the difference forms x_i - x_j chained within each edge.

    Every edge of size s contributes s-1 rows linking consecutive
    vertices in incidence order.  Returns (rank, number of rows).
    """
    rows = []
    for e in h.edges:
        vs = e.vertices
        for u, w in zip(vs, vs[1:]):
            row = np.zeros(h.n)
            row[u - 1] = 1.0
            row[w - 1] = -1.0
            rows.append(row)
    if not rows:
        return 0, 0
    return int(np.linalg.matrix_rank(np.vstack(rows))), len(rows)


def exhaustive_forest(h) -> tuple[int, ...]:
    """A hyperforest of maximum weight sum(|e|-1) found by trying every
    one of the 2^m edge subsets, ties broken by the most edges; a bare
    parent list of its own rather than ``UnionFind``.  Small m only."""
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


# --- families with closed-form spectra (Chung, Spectral Graph Theory,
# 1997, ch. 1; Brouwer and Haemers, Spectra of Graphs, 2012, sec. 1.4):
# each constructor returns the instance and the eigenvalues of its
# normalized Laplacian, ascending


def _pair(u, v, s=1) -> Edge:
    """The 2-edge on u and v of edge sign s; s = +1 is a classical edge,
    one + and one - incidence."""
    return Edge(((u, 1), (v, -s)))


def path_family(n) -> tuple[SignedHypergraph, list[float]]:
    """The path 1 - 2 - ... - n: 1 - cos(pi j / (n - 1)), j = 0..n-1."""
    h = SignedHypergraph(n, tuple(_pair(v, v + 1) for v in range(1, n)))
    return h, sorted(1 - math.cos(math.pi * j / (n - 1)) for j in range(n))


def cycle_family(n, flipped=False) -> tuple[SignedHypergraph, list[float]]:
    """The cycle on 1..n: balanced, 1 - cos(2 pi j / n); with the edge
    {n, 1} of sign -1, 1 - cos((2j + 1) pi / n), j = 0..n-1."""
    h = SignedHypergraph(n, tuple(_pair(v, v % n + 1, -1 if flipped and v == n else 1)
                                  for v in range(1, n + 1)))
    return h, sorted(1 - math.cos((2 * j + flipped) * math.pi / n) for j in range(n))


def star_family(n) -> tuple[SignedHypergraph, list[float]]:
    """The star with centre 1 and n - 1 leaves: 0, 1 (n - 2 times), 2."""
    h = SignedHypergraph(n, tuple(_pair(1, v) for v in range(2, n + 1)))
    return h, [0.0] + [1.0] * (n - 2) + [2.0]


def wide_edge_family(n, s) -> tuple[SignedHypergraph, list[float]]:
    """One edge of sign s on all n vertices, so L = (1 + s) I - s J: 0
    (n - 1 times) and n for s = -1, 2 - n and 2 (n - 1 times) for s = +1."""
    h = SignedHypergraph(n, (Edge(((1, s * (-1) ** (n - 1)),) + tuple((v, 1) for v in range(2, n + 1))),))
    return h, ([0.0] * (n - 1) + [float(n)] if s < 0 else [2.0 - n] + [2.0] * (n - 1))


# --- families without closed forms: random trees (ROADMAP item 2) and
# sunflowers, whose zero cores are zero cliques (item 11)


def random_tree(n, seed) -> SignedHypergraph:
    """The random tree of ROADMAP item 2: vertex v = 2..n is linked to a
    uniform earlier vertex, ``randint(1, v - 1)`` of ``random.Random(seed)``,
    by the classical edge (parent, +), (v, -).  No closed-form spectrum;
    Fiedler (1975) fixes S = k on its zero-free rows with r = 1."""
    rng = random.Random(seed)
    return SignedHypergraph(n, tuple(_pair(rng.randint(1, v - 1), v) for v in range(2, n + 1)))


def sunflower(k, s, c, seed) -> SignedHypergraph:
    """k petals, edges of size s that share the core 1..c and have s - c
    vertices of their own each, every incidence sign drawn from
    ``random.Random(seed)``.  A function that vanishes on the core makes
    the core a zero clique of size c."""
    if not 0 <= c <= s:
        raise ValueError(f"core size {c} outside 0..{s}")
    rng = random.Random(seed)
    core = list(range(1, c + 1))
    petals = [core + list(range(c + 1 + i * (s - c), c + 1 + (i + 1) * (s - c))) for i in range(k)]
    return SignedHypergraph(c + k * (s - c), tuple(
        Edge(tuple((v, rng.choice((1, -1))) for v in vs)) for vs in petals))

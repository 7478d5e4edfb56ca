"""Reference definitions that only the tests read.

Each computes one term of the bounds, one identity or one predicate,
the slow and plain way; the program computes the same from one pass
(over all rows in ``nodal._row_pass``, over the incidence graph in
``nodal.cyclic_vertices``, over a stack of functions in ``spectra``, over
the pair table once in ``nodal.decompose``, over the sign matrix in the
campaign's sandwich), and the tests compare the two.  The blocks of
every reference come from ``reference_blocks``, the Hopcroft-Tarjan
edge-stack search, which shares no code with the
program: there one low-link search, ``nodal._lowlink``, serves the
bridge pass and the weak pass, and the weak pass reads the blocks off
it by two rules (the tree link p -> v opens a block when
low[v] >= disc[p], else joins the block of the tree link into p; any
other link joins the block of the tree link into its deeper end).  The
last section holds test instances and searches with no counterpart in
the program: random supertrees with the rank of their difference forms,
and the heaviest hyperforest found by trying every edge subset.
"""

from itertools import repeat

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
    the blocks off the low-link numbers of ``nodal._lowlink`` instead;
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


def reference_cyclic_vertices(h) -> tuple[list[bool], list[bool]]:
    """``nodal.cyclic_vertices`` as a block search: the incidence graph of
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
    return on_h[:n + 1], on_clique[:n + 1]


def adjacency_int(h) -> list[list[int]]:
    """Integer adjacency: a[i][j] sums edge signs over edges containing
    both i + 1 and j + 1 (0-based lists, zero diagonal, singleton edges add
    nothing), one pair of the pair table at a time; the reference for the
    float sums of ``spectra.adjacency``."""
    a = [[0] * h.n for _ in range(h.n)]
    for u, w, s in h.pairs:
        a[u - 1][w - 1] += s
        a[w - 1][u - 1] += s
    return a


def clique_expansion(h) -> SignedHypergraph:
    """The signed clique expansion: a 2-edge of sign sgn(e) for every
    vertex pair of every edge, parallel pairs kept (``h.pairs``).  Its
    adjacency equals that of h; the ``clique`` bounds table reads its
    terms off h's pairs without building it."""
    return SignedHypergraph(h.n, tuple(Edge(((x, 1), (y, -s))) for x, y, s in h.pairs))


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
    for x, y in {(min(x, y), max(x, y)) for x, y, _ in h.pairs}:
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
    pairs = sorted({(min(x, y), max(x, y)) for x, y, _ in h.pairs})
    a, c = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    full = [i for i, g in enumerate(ctx.spectrum.functions, 1) if len(g.support()) == h.n]
    values = np.array([ctx.spectrum.functions[i - 1].values for i in full]).reshape(len(full), h.n)
    coeff = b.a[a - 1, c - 1] * (values[:, a - 1] * values[:, c - 1])
    fails = []
    for i, row in zip(full, coeff.tolist()):
        positive, nonzero = (
            SignedHypergraph(h.n, tuple(Edge(((x, 1), (y, -1))) for (x, y), k in zip(pairs, row) if keep(k)))
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
    uf.link((x, y) for x, y, s in h.pairs if sign[x] * s * sign[y] > 0)
    strong = uf.groups(v for v in h.vertex_range() if sign[v])

    zz = {}
    attach = []
    for x, y, s in h.pairs:
        if sign[x] == 0 and sign[y] == 0:
            zz[(x, y, s) if x < y else (y, x, s)] = None
        elif sign[x] == 0:
            attach.append((y, x, s))
        elif sign[y] == 0:
            attach.append((x, y, s))
    if not attach:
        return strong, strong, strong

    pairs = list(zz)
    blocks, tree = reference_blocks(h.n + 1, [(x, y) for x, y, _ in pairs])
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

"""Random instances, brute-force oracles, and the invariant campaign.

The campaign runs a registry of properties over a deterministic stream
of generated instances.  Failures are data, not exceptions: each one is
captured with the seed, instance index, property id, and the instance's
text serialization so it can be replayed byte-for-byte.

The eigenvalue-indexed strong-count lower bound is checked on every
eigenpair under the signed clique expansion reading, and a violation of
it is a failure.  Violations of the whole-hyperedge all_pairs reading
are recorded as notes rather than failures, given with the clique
bound, because the source does not settle how the bound's correction
terms are built.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    EXACT_FOREST_LIMIT,
    Edge,
    SignedHypergraph,
    connected_components,
    degrees,
    edge_sign,
    hyperneighbors,
    induced_subhypergraph,
    is_acyclic,
    is_tree_like,
    lies_on_cycle,
    spanning_hyperforest,
    weak_delete,
)
from .nodal import (
    Analysis,
    NodalDecomposition,
    component_counts,
    decompose,
    domain_graph_connected,
)
from .shgio import serialize
from .spectra import (
    VertexFunction,
    chained_difference_rank,
    eigendecompose,
    laplacian,
    nodal_quadratic_form,
    positive_inertia,
    rayleigh,
    weighted_inner,
)

__all__ = [
    "GenConfig",
    "FailureRecord",
    "CampaignResult",
    "generate",
    "generate_supertree",
    "oracle_domains",
    "run_campaign",
    "rerun_property",
    "REGISTRY",
    "ALL_PROPERTY_IDS",
    "CORE_PROPERTY_IDS",
    "SPECTRA_PROPERTY_IDS",
    "NODAL_PROPERTY_IDS",
]

ORACLE_MAX_N = 8
_SMALL_N = 8


@dataclass(frozen=True)
class GenConfig:
    """Shape of the random instance stream.

    sign_bias is the probability of a + incidence sign.  classical
    restricts to 2-edges carrying one + and one - incidence (edge sign
    +1), the signed encoding of an ordinary graph.  ensure_spectral
    patches isolated vertices with an extra edge so the normalized
    Laplacian exists.
    """

    n_range: tuple[int, int] = (4, 12)
    m_range: tuple[int, int] = (3, 12)
    edge_size_range: tuple[int, int] = (2, 4)
    sign_bias: float = 0.5
    seed: int = 0
    count: int = 500
    classical: bool = False
    ensure_spectral: bool = True

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("n_range", self.n_range), ("m_range", self.m_range),
                               ("edge_size_range", self.edge_size_range)):
            if lo > hi:
                raise ValueError(f"{name} is empty: {lo}..{hi}")
        if self.n_range[0] < 1 or self.m_range[0] < 0:
            raise ValueError("need at least one vertex and a nonnegative edge count")
        if self.edge_size_range[0] < 1:
            raise ValueError("edge sizes must be at least 1")
        if self.edge_size_range[0] > self.n_range[0]:
            raise ValueError(
                f"infeasible constraints: edge size {self.edge_size_range[0]} "
                f"can exceed vertex count {self.n_range[0]}")
        if not 0.0 <= self.sign_bias <= 1.0:
            raise ValueError("sign_bias must lie in [0, 1]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.count < 0:
            raise ValueError("count must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "m_range": list(self.m_range),
            "edge_size_range": list(self.edge_size_range),
            "sign_bias": self.sign_bias,
            "seed": self.seed,
            "count": self.count,
            "classical": self.classical,
            "ensure_spectral": self.ensure_spectral,
        }


def _edge_key(e: Edge) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(e.incidences))


def _random_edge(rng: random.Random, cfg: GenConfig, n: int) -> Edge:
    if cfg.classical:
        a, b = rng.sample(range(1, n + 1), 2)
        return Edge(((a, 1), (b, -1)))
    size = rng.randint(cfg.edge_size_range[0], min(cfg.edge_size_range[1], n))
    vs = rng.sample(range(1, n + 1), size)
    return Edge(tuple((v, 1 if rng.random() < cfg.sign_bias else -1) for v in vs))


def _one_instance(rng: random.Random, cfg: GenConfig) -> SignedHypergraph:
    n = rng.randint(*cfg.n_range)
    m = rng.randint(*cfg.m_range)
    if cfg.edge_size_range[0] > n:
        raise ValueError(f"infeasible constraints: edge size over {n} vertices")
    edges: list[Edge] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    attempts = 0
    while len(edges) < m and attempts < 100 * (m + 1):
        attempts += 1
        e = _random_edge(rng, cfg, n)
        key = _edge_key(e)
        if key in seen:
            continue
        seen.add(key)
        edges.append(e)
    if cfg.ensure_spectral:
        deg = [False] * (n + 1)
        for e in edges:
            for v in e.vertices:
                deg[v] = True
        for v in range(1, n + 1):
            if deg[v]:
                continue
            if n == 1:
                patch = Edge(((v, 1 if rng.random() < cfg.sign_bias else -1),))
            elif cfg.classical:
                u = rng.choice([u for u in range(1, n + 1) if u != v])
                patch = Edge(((v, 1), (u, -1)))
            else:
                u = rng.choice([u for u in range(1, n + 1) if u != v])
                patch = Edge(tuple(
                    (w, 1 if rng.random() < cfg.sign_bias else -1) for w in (v, u)))
            key = _edge_key(patch)
            if key not in seen:
                seen.add(key)
                edges.append(patch)
            deg[v] = True
            for w in patch.vertices:
                deg[w] = True
    return SignedHypergraph(n, tuple(edges))


def generate(cfg: GenConfig) -> Iterator[SignedHypergraph]:
    """Deterministic instance stream for a config (same seed, same bytes)."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.count):
        yield _one_instance(rng, cfg)


def generate_supertree(rng: random.Random, n_edges: int,
                       size_range: tuple[int, int] = (2, 4)) -> SignedHypergraph:
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


def _strong_delete(h: SignedHypergraph, v: int) -> SignedHypergraph:
    """Remove a vertex together with every incident edge, renumbering."""
    old_to_new = {u: (u if u < v else u - 1) for u in h.vertex_range() if u != v}
    kept = tuple(
        Edge(tuple((old_to_new[u], s) for u, s in e.incidences))
        for e in h.edges if v not in e.vertices
    )
    return SignedHypergraph(h.n - 1, kept, allow_empty_edges=h.allow_empty_edges)


def _spectral_cleanup(h: SignedHypergraph) -> SignedHypergraph | None:
    """Drop empty edges and degree-0 vertices; None if nothing remains."""
    nonempty = tuple(e for e in h.edges if e.size > 0)
    trimmed = SignedHypergraph(h.n, nonempty, allow_empty_edges=False)
    deg = degrees(trimmed)
    keep = {v for v in trimmed.vertex_range() if deg[v] > 0}
    if not keep:
        return None
    return induced_subhypergraph(trimmed, keep)


# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_domains(h: SignedHypergraph, f: VertexFunction) -> tuple[
        tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Nodal partitions from first principles: (strong, weak cores, weak
    closures), in the form of ``nodal.NodalDecomposition``: ascending
    vertex tuples ordered by smallest vertex.  Limited to 8 vertices.

    Every edge containing x offers the steps (w, sgn(e)) to its other
    vertices w; parallel edges of one sign offer the same step, so the
    distinct steps of each vertex are tabulated once.  Strong links carry
    no parity: the strong domains are the components of the directly
    linked pairs.  Weak links do, so they are found by enumerating the
    simple paths with zero interior, one recursion per distinct step,
    with their sign products; a walk that repeats a zero can have a sign
    no simple path has.  A zero joins the closure of every core with a
    vertex it reaches through zeros, which is plain reachability.  Related
    pairs are closed into the components of the pair graph.
    """
    if h.n > ORACLE_MAX_N:
        raise ValueError(f"instance too large: {h.n} vertices exceeds {ORACLE_MAX_N}")
    if f.n != h.n:
        raise ValueError(f"function has {f.n} values, hypergraph has {h.n} vertices")
    sign = [0] + [f.sign(v) for v in h.vertex_range()]
    support = [v for v in h.vertex_range() if sign[v] != 0]

    table: list[set[tuple[int, int]]] = [set() for _ in range(h.n + 1)]
    for e in h.edges:
        if e.size < 2:
            continue
        sg = edge_sign(e)
        vs = e.vertices
        for x in vs:
            table[x].update((w, sg) for w in vs if w != x)
    steps = [sorted(s) for s in table]

    strong_pairs = [(x, w) for x in support for w, sg in steps[x]
                    if sign[x] * sg * sign[w] > 0]

    weak_pairs: set[tuple[int, int]] = set()

    def w_walk(cur: int, visited: set[int], acc: int, start: int) -> None:
        # cur is the latest vertex; acc is sign(start) times the edge-sign
        # product since start
        for w, sg in steps[cur]:
            if w in visited:
                continue
            if sign[w] == 0:
                visited.add(w)
                w_walk(w, visited, acc * sg, start)
                visited.remove(w)
            elif acc * sg * sign[w] > 0:
                weak_pairs.add((start, w))

    for x in support:
        w_walk(x, {x}, sign[x], x)

    def closure(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
        adjacent: dict[int, list[int]] = {v: [] for v in support}
        for a, b in pairs:
            adjacent[a].append(b)
            adjacent[b].append(a)
        blocks = []
        seen: set[int] = set()
        for v in support:
            if v in seen:
                continue
            seen.add(v)
            block = [v]
            for u in block:
                for w in adjacent[u]:
                    if w not in seen:
                        seen.add(w)
                        block.append(w)
            blocks.append(tuple(sorted(block)))
        return tuple(blocks)

    strong = closure(strong_pairs)
    cores = closure(weak_pairs)

    core_of = {v: i for i, core in enumerate(cores) for v in core}
    absorbed = [set(core) for core in cores]

    # a vertex reachable from z through zeros by a walk is reachable by a
    # simple path (the shortest walk), so a search over zeros suffices
    for z in h.vertex_range():
        if sign[z] != 0:
            continue
        reached = {z}
        frontier = [z]
        for cur in frontier:
            for w, _ in steps[cur]:
                if sign[w] != 0:
                    absorbed[core_of[w]].add(z)
                elif w not in reached:
                    reached.add(w)
                    frontier.append(w)

    closures = tuple(tuple(sorted(s)) for s in absorbed)
    return strong, cores, closures


# ---------------------------------------------------------------------------
# campaign plumbing


@dataclass(frozen=True)
class FailureRecord:
    seed: int
    index: int
    property_id: str
    instance_text: str
    details: str


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign: failures empty means the campaign passed.

    sharpness_stats histograms the slack (k + r - 1) - strong_count over
    every eigenpair of every instance, as sorted (slack, count) pairs.
    property_costs maps each selected property id to its call count and
    CPU seconds, summed over instances; the first property to read a lazily
    built part of an instance's ``Analysis`` is charged for building it.
    Timings differ from run to run, so they take no part in equality and
    stay out of ``as_dict``.
    """

    config: GenConfig
    property_ids: tuple[str, ...]
    instances_run: int
    failures: tuple[FailureRecord, ...]
    sharpness_stats: tuple[tuple[int, int], ...]
    notes: tuple[str, ...]
    property_costs: dict[str, tuple[int, float]] = field(
        default_factory=dict, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "property_ids": list(self.property_ids),
            "instances_run": self.instances_run,
            "failures": [
                {
                    "seed": rec.seed,
                    "index": rec.index,
                    "property_id": rec.property_id,
                    "instance": rec.instance_text,
                    "details": rec.details,
                }
                for rec in self.failures
            ],
            "sharpness_stats": [list(pair) for pair in self.sharpness_stats],
            "notes": list(self.notes),
            "passed": self.passed,
        }


def _is_classical(h: SignedHypergraph) -> bool:
    return all(e.size == 2 and sorted(s for _, s in e.incidences) == [-1, 1] for e in h.edges)


PropertyFn = Callable[[Analysis, random.Random], tuple[list[str], list[str]]]


def _random_function(ctx: Analysis, rng: random.Random,
                     zero_prob: float = 0.0) -> VertexFunction:
    vals = [rng.gauss(0.0, 1.0) for _ in range(ctx.h.n)]
    if zero_prob > 0.0:
        vals = [0.0 if rng.random() < zero_prob else x for x in vals]
    return VertexFunction.from_values(vals)


# --- core properties -------------------------------------------------------


def _p_cyclomatic_nonnegative(ctx: Analysis, rng: random.Random):
    fails = []
    if ctx.cycles.l < 0:
        fails.append(f"cyclomatic {ctx.cycles.l} < 0")
    return fails, []


def _p_acyclic_iff_zero(ctx: Analysis, rng: random.Random):
    fails = []
    h, l = ctx.h, ctx.cycles.l
    acyclic = is_acyclic(h)
    if acyclic != (l == 0):
        fails.append(f"is_acyclic={acyclic} but l={l}")
    # per-component count identity, the component-wise route
    per_component_ok = True
    for block in connected_components(h):
        total = sum(
            max(len([v for v in e.vertices if v in block]) - 1, 0)
            for e in h.edges if e.vertices and e.vertices[0] in block
        )
        if total != len(block) - 1:
            per_component_ok = False
    if per_component_ok != acyclic:
        fails.append(f"component sums say acyclic={per_component_ok}, op says {acyclic}")
    return fails, []


def _p_tree_like_no_cycle(ctx: Analysis, rng: random.Random):
    h = ctx.h
    if h.n > _SMALL_N or any(e.size < 2 for e in h.edges):
        return [], []
    fails = []
    n_components = ctx.cycles.n_components
    for x in h.vertex_range():
        tl = is_tree_like(h, x, n_components)
        cyc = lies_on_cycle(h, x)
        if tl != (not cyc):
            fails.append(f"vertex {x}: tree_like={tl}, on_cycle={cyc}")
    return fails, []


def _p_tree_like_deletion(ctx: Analysis, rng: random.Random):
    """Iterated deletion of tree-like vertices with their incident edges:
    each victim must still be tree-like when its turn comes, and each
    step must raise the component count by exactly (current degree - 1).
    """
    h = ctx.h
    fails = []
    current, before = h, ctx.cycles.n_components
    for _ in range(min(3, h.n - 1)):
        tree_like = [x for x in current.vertex_range()
                     if is_tree_like(current, x, before)]
        if not tree_like or current.n <= 1:
            break
        x = rng.choice(tree_like)
        d = sum(1 for e in current.edges if x in e.vertices)
        nxt = _strong_delete(current, x)
        after_weak = len(connected_components(weak_delete(current, x)))
        if after_weak != before + d - 1:
            fails.append(f"deleting {x}: components {before} -> {after_weak}, expected {before + d - 1}")
            break
        current = nxt
        before = len(connected_components(current))
    return fails, []


def _p_induced_identity(ctx: Analysis, rng: random.Random):
    h = ctx.h
    fails = []
    full = induced_subhypergraph(h, set(h.vertex_range()))
    if full != h:
        fails.append("inducing on the full vertex set changed the hypergraph")
    if h.n >= 1:
        size = rng.randint(1, h.n)
        keep = set(rng.sample(list(h.vertex_range()), size))
        once = induced_subhypergraph(h, keep)
        twice = induced_subhypergraph(once, set(once.vertex_range()))
        if once != twice:
            fails.append(f"re-inducing on {sorted(keep)} was not idempotent")
    return fails, []


def _p_exact_forest_geq_greedy(ctx: Analysis, rng: random.Random):
    h = ctx.h
    if h.m > EXACT_FOREST_LIMIT:
        return [], []
    fails = []
    greedy = spanning_hyperforest(h, exact=False)
    exact = spanning_hyperforest(h, exact=True)
    w = lambda idx: sum(max(h.edges[i].size - 1, 0) for i in idx)
    if w(exact) < w(greedy):
        fails.append(f"exact weight {w(exact)} < greedy weight {w(greedy)}")
    # checked apart from the search: the edge set is a hyperforest, and no
    # hyperforest weighs more than n - c
    chosen = SignedHypergraph(h.n, tuple(h.edges[i] for i in exact), allow_empty_edges=True)
    if not is_acyclic(chosen):
        fails.append(f"exact edge set {list(exact)} is not acyclic")
    cap = h.n - ctx.cycles.n_components
    if w(exact) > cap:
        fails.append(f"exact weight {w(exact)} exceeds n - c = {cap}")
    return fails, []


# --- spectra properties ----------------------------------------------------


def _p_self_adjoint(ctx: Analysis, rng: random.Random):
    h, b = ctx.h, ctx.bundle
    fails = []
    for _ in range(5):
        f = _random_function(ctx, rng)
        g = _random_function(ctx, rng)
        lf = b.l @ f.array()
        lg = b.l @ g.array()
        left = weighted_inner(h, lf, g.array())
        right = weighted_inner(h, f.array(), lg)
        scale = max(1.0, abs(left), abs(right))
        if abs(left - right) > 1e-9 * scale:
            fails.append(f"<Lf,g>={left!r} vs <f,Lg>={right!r}")
    return fails, []


def _p_trace_eigsum(ctx: Analysis, rng: random.Random):
    b = ctx.bundle
    fails = []
    if any(b.l[i, i] != 1.0 for i in range(b.n)):
        fails.append("Laplacian diagonal is not all ones")
    total = sum(ctx.spectrum.eigenvalues)
    if abs(total - b.n) > 1e-8 * b.n:
        fails.append(f"eigenvalue sum {total!r} != {b.n}")
    return fails, []


def _p_classical_graph(ctx: Analysis, rng: random.Random):
    if not _is_classical(ctx.h):
        return [], []
    h, b = ctx.h, ctx.bundle
    fails = []
    # independent route: unsigned multigraph adjacency counts
    counts = np.zeros((h.n, h.n))
    for e in h.edges:
        (u, _), (v, _) = e.incidences
        counts[u - 1, v - 1] += 1
        counts[v - 1, u - 1] += 1
    deg = counts.sum(axis=1)
    classical_l = np.eye(h.n) - counts / deg[:, None]
    if not np.allclose(b.l, classical_l, atol=1e-12):
        fails.append("Laplacian differs from the classical normalized Laplacian")
    w = ctx.spectrum.eigenvalues
    if w[0] < -1e-8 or w[-1] > 2 + 1e-8:
        fails.append(f"classical eigenvalues outside [0,2]: {w[0]!r}..{w[-1]!r}")
    if abs(w[0]) > 1e-8:
        fails.append(f"classical smallest eigenvalue {w[0]!r} != 0")
    if ctx.cycles.n_components == 1:
        f1 = ctx.spectrum.functions[0]
        signs = {f1.sign(v) for v in h.vertex_range()}
        if 1 in signs and -1 in signs:
            fails.append("first eigenfunction of a connected classical graph changes sign")
    return fails, []


def _p_interlacing(ctx: Analysis, rng: random.Random):
    # Valid for 2-uniform instances only.  For larger edges the global
    # edge sign flips when a vertex is removed, so the reduced quadratic
    # form is not a restriction of the original one and the eigenvalue
    # bracketing genuinely fails (small counterexamples are easy to hit).
    h = ctx.h
    if any(e.size != 2 for e in h.edges):
        return [], []
    fails = []
    w = ctx.spectrum.eigenvalues
    slack = 1e-8 * max(1.0, w[-1] - w[0])
    for n_del in (1, 2):
        if h.n - n_del < 1:
            continue
        current = h
        for _ in range(n_del):
            v = rng.randint(1, current.n)
            current = weak_delete(current, v)
        cleaned = _spectral_cleanup(current)
        if cleaned is None or cleaned.n < 1:
            continue
        what = eigendecompose(laplacian(cleaned)).eigenvalues
        r_eff = h.n - cleaned.n
        for k in range(1, cleaned.n + 1):
            lo, hi = w[k - 1], w[k + r_eff - 1]
            if not (lo - slack <= what[k - 1] <= hi + slack):
                fails.append(
                    f"deleting {n_del}: eigenvalue {k} of the reduced instance "
                    f"{what[k-1]!r} outside [{lo!r}, {hi!r}]")
    return fails, []


def _p_supertree_rank(ctx: Analysis, rng: random.Random):
    st = generate_supertree(rng, rng.randint(1, 5))
    rank, rows = chained_difference_rank(st)
    want = sum(e.size - 1 for e in st.edges)
    fails = []
    if rows != want or rank != want or want != st.n - 1:
        fails.append(f"supertree rank {rank} rows {rows}, expected {want} = n-1 = {st.n - 1}")
    return fails, []


def _p_rayleigh_bounds(ctx: Analysis, rng: random.Random):
    h, b = ctx.h, ctx.bundle
    w = ctx.spectrum.eigenvalues
    slack = 1e-8 * max(1.0, abs(w[0]), abs(w[-1]))
    fails = []
    for _ in range(5):
        g = _random_function(ctx, rng)
        q = rayleigh(h, b, g)
        if not (w[0] - slack <= q <= w[-1] + slack):
            fails.append(f"Rayleigh quotient {q!r} outside [{w[0]!r}, {w[-1]!r}]")
    for k in (1, h.n):
        fk = ctx.spectrum.functions[k - 1]
        q = rayleigh(h, b, fk)
        if abs(q - w[k - 1]) > 1e-8 * max(1.0, abs(w[k - 1])):
            fails.append(f"Rayleigh of eigenfunction {k}: {q!r} != {w[k-1]!r}")
    return fails, []


# --- nodal properties ------------------------------------------------------


def _sample_functions(ctx: Analysis, rng: random.Random) -> list[VertexFunction]:
    fs = list(ctx.spectrum.functions)
    fs.append(_random_function(ctx, rng, zero_prob=0.35))
    fs.append(_random_function(ctx, rng, zero_prob=0.35))
    return fs


def _decomposed(ctx: Analysis, fs: list[VertexFunction]) -> Iterator[
        tuple[int, VertexFunction, NodalDecomposition]]:
    """(j, f, decomposition of f) per sample function; the eigenfunctions,
    which come first, reuse the analysis' decompositions."""
    n = ctx.spectrum.n
    for j, f in enumerate(fs):
        yield j, f, ctx.decompositions[j] if j < n else decompose(ctx.h, f)


def _p_oracle_agreement(ctx: Analysis, rng: random.Random):
    if ctx.h.n > ORACLE_MAX_N:
        return [], []
    fails = []
    for j, f, dec in _decomposed(ctx, _sample_functions(ctx, rng)):
        strong, cores, closures = oracle_domains(ctx.h, f)
        if dec.strong != strong:
            fails.append(f"function {j}: strong domains disagree with the oracle")
        if dec.weak_cores != cores:
            fails.append(f"function {j}: weak cores disagree with the oracle")
        if dec.weak_closures != closures:
            fails.append(f"function {j}: weak closures disagree with the oracle")
    return fails, []


def _p_weak_le_strong(ctx: Analysis, rng: random.Random):
    fails = []
    for j, _, dec in _decomposed(ctx, _sample_functions(ctx, rng)):
        if dec.weak_count > dec.strong_count:
            fails.append(f"function {j}: weak count {dec.weak_count} > strong {dec.strong_count}")
    return fails, []


def _p_no_zeros_identical(ctx: Analysis, rng: random.Random):
    fails = []
    fs = _sample_functions(ctx, rng)
    n = ctx.spectrum.n
    full = [j for j, f in enumerate(fs) if len(f.support()) == f.n]
    # the batched strong pass, apart from decompose; of the random
    # functions only the zero-free ones, which the property reads
    batched = {j: dec.strong for j, dec in enumerate(ctx.decompositions)}
    extra = [j for j in full if j >= n]
    if extra:
        batched.update(zip(extra, ctx.strong_partitions([fs[j] for j in extra])))
    for j in full:
        dec = decompose(ctx.h, fs[j])
        if not (dec.strong == dec.weak_cores == dec.weak_closures == batched[j]):
            fails.append(f"zero-free function {j}: strong and weak partitions differ")
    return fails, []


def _p_max_two_memberships(ctx: Analysis, rng: random.Random):
    fails = []
    for j, _, dec in _decomposed(ctx, _sample_functions(ctx, rng)):
        count: Counter[int] = Counter()
        for closure in dec.weak_closures:
            for v in closure:
                count[v] += 1
        worst = max(count.values(), default=0)
        if worst > 2:
            fails.append(f"function {j}: a vertex lies in {worst} weak closures")
    return fails, []


def _p_zero_neighbor_containment(ctx: Analysis, rng: random.Random):
    fails = []
    for j, f, dec in _decomposed(ctx, _sample_functions(ctx, rng)):
        holders: dict[int, list[int]] = {}
        for i, closure in enumerate(dec.weak_closures):
            for v in closure:
                holders.setdefault(v, []).append(i)
        for v, ids in holders.items():
            if f.sign(v) != 0 or len(ids) != 2:
                continue
            union = set(dec.weak_closures[ids[0]]).union(dec.weak_closures[ids[1]])
            stray = hyperneighbors(ctx.h, v) - union
            if stray:
                fails.append(f"function {j}: neighbors {sorted(stray)} of zero {v} escape its two domains")
    return fails, []


def _p_domain_graph_connected(ctx: Analysis, rng: random.Random):
    if ctx.cycles.n_components != 1:
        return [], []
    fails = []
    for j, _, dec in _decomposed(ctx, _sample_functions(ctx, rng)):
        if dec.weak_count == 0:
            continue
        if not domain_graph_connected(ctx.h, dec):
            fails.append(f"function {j}: weak domain graph is disconnected")
    return fails, []


def _p_eigen_upper_bounds(ctx: Analysis, rng: random.Random):
    fails = []
    for rep in ctx.bounds():
        if not rep.strong_upper_ok:
            fails.append(
                f"eig {rep.eig_index}: strong count {rep.strong_count} > k+r-1 = {rep.k + rep.r - 1}")
        if not rep.weak_upper_ok:
            fails.append(
                f"eig {rep.eig_index}: weak count {rep.weak_count} > k+c-1 = {rep.k + rep.c - 1}")
    return fails, []


def _p_eigen_lower_bound_logged(ctx: Analysis, rng: random.Random):
    fails, notes = [], []
    for rep, clique_rep in zip(ctx.bounds(), ctx.bounds("clique")):
        clique_bound = clique_rep.strong_lower_bound
        if rep.strong_count < clique_bound:
            fails.append(
                f"eig {rep.eig_index}: strong count {rep.strong_count} < clique bound {clique_bound}")
        if rep.strong_lower_ok:
            continue
        notes.append(
            f"lower bound violated at eig {rep.eig_index}: strong count {rep.strong_count} "
            f"< {rep.strong_lower_bound} (k={rep.k}, r={rep.r}, l'={rep.l_prime}, "
            f"l+={rep.l_plus}, fiedler={rep.fiedler_size}); clique bound {clique_bound}")
    return fails, notes


def _p_sandwich(ctx: Analysis, rng: random.Random):
    # every count is over the distinct vertex pairs sharing an edge, kept
    # where A o gg^T is positive or nonzero; the forests of a graph form a
    # matroid, so a maximum spanning forest of the positive pairs weighs
    # n - c(positive)
    h, bundle = ctx.h, ctx.bundle
    full = [i for i, g in enumerate(ctx.spectrum.functions, 1) if len(g.support()) == h.n]
    if not full:
        return [], []
    a, b = np.array(sorted({(min(x, y), max(x, y)) for x, y, _ in h.pairs}),
                    dtype=np.intp).reshape(-1, 2).T
    values = np.array([ctx.spectrum.functions[i - 1].values for i in full])
    coeff = bundle.a[a - 1, b - 1] * (values[:, a - 1] * values[:, b - 1])
    positive, nonzero = coeff > 0, coeff != 0
    c_pos, c_nonzero = component_counts(
        h.n + 1, a, b, np.concatenate((positive, nonzero))).reshape(2, -1)
    sigma_ts = (h.n - c_pos).tolist()
    n_poss = positive.sum(axis=1).tolist()
    l_nonzeros = (nonzero.sum(axis=1) - h.n + c_nonzero).tolist()
    fails = []
    for i, sigma_t, n_pos, l_nonzero in zip(full, sigma_ts, n_poss, l_nonzeros):
        s = nodal_quadratic_form(bundle, ctx.spectrum.functions[i - 1], ctx.spectrum.eigenvalues[i - 1])
        p = positive_inertia(s)
        if not (p <= sigma_t <= n_pos <= p + l_nonzero):
            fails.append(
                f"eig {i}: inertia {p}, forest weight {sigma_t}, positive pairs {n_pos}, "
                f"slack cap {p + l_nonzero}")
    return fails, []


def _p_scaling_invariance(ctx: Analysis, rng: random.Random):
    fails = []
    for j, f, a in _decomposed(ctx, _sample_functions(ctx, rng)[:4]):
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 20.0)
        scaled = VertexFunction.from_values([c * x for x in f.values])
        d = decompose(ctx.h, scaled)
        if (a.strong, a.weak_cores, a.weak_closures) != (d.strong, d.weak_cores, d.weak_closures):
            fails.append(f"function {j}: decomposition changed under scaling by {c!r}")
    return fails, []


CORE_PROPERTY_IDS = (
    "core.cyclomatic-nonnegative",
    "core.acyclic-iff-zero",
    "core.tree-like-no-cycle",
    "core.tree-like-deletion",
    "core.induced-identity",
    "core.exact-forest-geq-greedy",
)
SPECTRA_PROPERTY_IDS = (
    "spectra.self-adjoint",
    "spectra.trace-eigsum",
    "spectra.classical-graph",
    "spectra.interlacing",
    "spectra.supertree-rank",
    "spectra.rayleigh-bounds",
)
NODAL_PROPERTY_IDS = (
    "nodal.oracle-agreement",
    "nodal.weak-le-strong",
    "nodal.no-zeros-identical",
    "nodal.max-two-memberships",
    "nodal.zero-neighbor-containment",
    "nodal.domain-graph-connected",
    "nodal.eigen-upper-bounds",
    "nodal.eigen-lower-bound-logged",
    "nodal.sandwich",
    "nodal.scaling-invariance",
)

REGISTRY: dict[str, PropertyFn] = {
    "core.cyclomatic-nonnegative": _p_cyclomatic_nonnegative,
    "core.acyclic-iff-zero": _p_acyclic_iff_zero,
    "core.tree-like-no-cycle": _p_tree_like_no_cycle,
    "core.tree-like-deletion": _p_tree_like_deletion,
    "core.induced-identity": _p_induced_identity,
    "core.exact-forest-geq-greedy": _p_exact_forest_geq_greedy,
    "spectra.self-adjoint": _p_self_adjoint,
    "spectra.trace-eigsum": _p_trace_eigsum,
    "spectra.classical-graph": _p_classical_graph,
    "spectra.interlacing": _p_interlacing,
    "spectra.supertree-rank": _p_supertree_rank,
    "spectra.rayleigh-bounds": _p_rayleigh_bounds,
    "nodal.oracle-agreement": _p_oracle_agreement,
    "nodal.weak-le-strong": _p_weak_le_strong,
    "nodal.no-zeros-identical": _p_no_zeros_identical,
    "nodal.max-two-memberships": _p_max_two_memberships,
    "nodal.zero-neighbor-containment": _p_zero_neighbor_containment,
    "nodal.domain-graph-connected": _p_domain_graph_connected,
    "nodal.eigen-upper-bounds": _p_eigen_upper_bounds,
    "nodal.eigen-lower-bound-logged": _p_eigen_lower_bound_logged,
    "nodal.sandwich": _p_sandwich,
    "nodal.scaling-invariance": _p_scaling_invariance,
}

ALL_PROPERTY_IDS = CORE_PROPERTY_IDS + SPECTRA_PROPERTY_IDS + NODAL_PROPERTY_IDS


def _child_rng(seed: int, index: int, property_id: str) -> random.Random:
    return random.Random(f"{seed}:{index}:{property_id}")


def rerun_property(record: FailureRecord) -> tuple[list[str], list[str]]:
    """Replay one failure record: rebuild the instance from its text and
    re-run the property with the same derived randomness."""
    from .shgio import parse
    ctx = Analysis(parse(record.instance_text))
    rng = _child_rng(record.seed, record.index, record.property_id)
    return REGISTRY[record.property_id](ctx, rng)


def run_campaign(cfg: GenConfig,
                 property_ids: Sequence[str] | None = None) -> CampaignResult:
    """Run the selected properties over the config's instance stream.

    A property that raises records a failure instead of aborting the
    campaign.  Results are deterministic for a given (config, selection).
    """
    ids = tuple(property_ids) if property_ids is not None else ALL_PROPERTY_IDS
    unknown = [pid for pid in ids if pid not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown property ids: {unknown}")
    failures: list[FailureRecord] = []
    notes: list[str] = []
    sharp: Counter[int] = Counter()
    calls: Counter[str] = Counter()
    cpu_s: Counter[str] = Counter()
    instances_run = 0
    for index, h in enumerate(generate(cfg)):
        instances_run += 1
        text = serialize(h)
        ctx = Analysis(h)
        for pid in ids:
            rng = _child_rng(cfg.seed, index, pid)
            start = time.process_time()
            try:
                fails, notes_i = REGISTRY[pid](ctx, rng)
            except Exception as exc:
                fails, notes_i = [f"unexpected error: {exc!r}"], []
            cpu_s[pid] += time.process_time() - start
            calls[pid] += 1
            failures.extend(
                FailureRecord(cfg.seed, index, pid, text, d) for d in fails)
            notes.extend(f"instance {index} [{pid}]: {t}" for t in notes_i)
        try:
            for rep in ctx.bounds():
                sharp[rep.k + rep.r - 1 - rep.strong_count] += 1
        except Exception as exc:
            failures.append(FailureRecord(
                cfg.seed, index, "campaign.sharpness", text, f"unexpected error: {exc!r}"))
    return CampaignResult(
        config=cfg,
        property_ids=ids,
        instances_run=instances_run,
        failures=tuple(failures),
        sharpness_stats=tuple(sorted(sharp.items())),
        notes=tuple(notes),
        property_costs={pid: (calls[pid], cpu_s[pid]) for pid in ids},
    )

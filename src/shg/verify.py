"""Random instances, brute-force oracles, and the invariant campaign.

The campaign runs a registry of properties over a deterministic stream
of generated instances.  Failures are data, not exceptions: each one is
captured with the seed, instance index, property id, and the instance's
text serialization so it can be replayed byte-for-byte.

A property is one function, declared with its id by the ``_property``
decorator, which adds it to ``REGISTRY`` in definition order; the id
tuples are derived from the registry.  ``run_campaign`` and
``rerun_property`` run a property through one runner, ``_check``, so a
replayed record gives back the failure the campaign recorded, one made
from an exception included.

The eigenvalue-indexed strong-count lower bound is checked on every
eigenpair under the signed clique expansion reading, and a violation of
it is a failure.  Violations of the whole-hyperedge all_pairs reading
are recorded as notes rather than failures, given with the clique
bound, because the source does not settle how the bound's correction
terms are built.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Edge,
    SignedHypergraph,
    connected_components,
    degrees,
    edge_sign,
    hyperneighbors,
    induced_subhypergraph,
    lies_on_cycle,
    spanning_hyperforest,
    weak_delete,
)
from .nodal import (
    Analysis,
    NodalDecomposition,
    component_counts,
    cyclic_vertices,
    decompose,
    domain_graph_connected,
    row_chunks,
)
from .shgio import parse, serialize
from .spectra import (
    VertexFunction,
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
    +1), the signed encoding of an ordinary graph, and so needs at least
    two vertices in every instance.  ensure_spectral patches isolated
    vertices with an extra edge so the normalized Laplacian exists.
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
        if self.classical and self.n_range[0] < 2:
            raise ValueError("classical instances need at least two vertices")
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
        return asdict(self)


def _edge_key(e: Edge) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(e.incidences))


def _random_edge(rng: random.Random, cfg: GenConfig, n: int) -> Edge:
    if cfg.classical:
        a, b = rng.sample(range(1, n + 1), 2)
        return Edge(((a, 1), (b, -1)))
    size = rng.randint(cfg.edge_size_range[0], min(cfg.edge_size_range[1], n))
    vs = rng.sample(range(1, n + 1), size)
    return Edge(tuple((v, 1 if rng.random() < cfg.sign_bias else -1) for v in vs))


def _edge_goal(cfg: GenConfig, n: int, m: int) -> int:
    """min(m, the number of distinct edges ``_random_edge`` draws on n
    vertices): n(n - 1) ordered pairs when classical, else C(n, s) * 2^s
    signed edges of each size s."""
    if cfg.classical:
        return min(m, n * (n - 1))
    lo, hi = cfg.edge_size_range
    total = 0
    for size in range(lo, min(hi, n) + 1):
        total += math.comb(n, size) << size
        if total >= m:
            return m
    return total


def _one_instance(rng: random.Random, cfg: GenConfig) -> SignedHypergraph:
    n = rng.randint(*cfg.n_range)
    m = rng.randint(*cfg.m_range)
    goal = _edge_goal(cfg, n, m)
    edges: list[Edge] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    attempts = 0
    while len(edges) < goal and attempts < 100 * (m + 1):
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


def _strong_delete(h: SignedHypergraph, v: int) -> SignedHypergraph:
    """Remove a vertex together with every incident edge, renumbering."""
    kept = tuple(e for e in h.edges if v not in e.vertices)
    return weak_delete(SignedHypergraph(h.n, kept, allow_empty_edges=h.allow_empty_edges), v)


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

    def as_dict(self) -> dict:
        """One entry of the ``failures`` list of ``CampaignResult.as_dict``
        (the JSON of ``shg fuzz``): the instance text goes under
        ``instance``."""
        return {
            "seed": self.seed,
            "index": self.index,
            "property_id": self.property_id,
            "instance": self.instance_text,
            "details": self.details,
        }

    @classmethod
    def from_dict(cls, d: dict) -> FailureRecord:
        """The record that ``as_dict`` wrote, as read back from that JSON."""
        return cls(d["seed"], d["index"], d["property_id"], d["instance"], d["details"])


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
            "failures": [rec.as_dict() for rec in self.failures],
            "sharpness_stats": [list(pair) for pair in self.sharpness_stats],
            "notes": list(self.notes),
            "passed": self.passed,
        }


def _is_classical(h: SignedHypergraph) -> bool:
    return all(e.size == 2 and sorted(s for _, s in e.incidences) == [-1, 1] for e in h.edges)


PropertyFn = Callable[[Analysis, random.Random], tuple[list[str], list[str]]]

# property id -> property, in definition order; filled by ``_property``
REGISTRY: dict[str, PropertyFn] = {}


def _property(pid: str) -> Callable[[PropertyFn], PropertyFn]:
    """Register the decorated property under ``pid`` and return it
    unwrapped, so that the registry holds the function itself."""
    def register(fn: PropertyFn) -> PropertyFn:
        REGISTRY[pid] = fn
        return fn
    return register


def _random_function(ctx: Analysis, rng: random.Random) -> VertexFunction:
    """Gaussian values, then each set to 0 with probability 0.35."""
    vals = [rng.gauss(0.0, 1.0) for _ in range(ctx.h.n)]
    return VertexFunction.from_values([0.0 if rng.random() < 0.35 else x for x in vals])


def _random_stack(ctx: Analysis, rng: random.Random, count: int) -> np.ndarray:
    """``count`` zero-free functions of Gaussian values, one row each, in
    draw order."""
    return np.array([[rng.gauss(0.0, 1.0) for _ in range(ctx.h.n)] for _ in range(count)])


# --- core properties -------------------------------------------------------


@_property("core.acyclic-iff-zero")
def _p_acyclic_iff_zero(ctx: Analysis, rng: random.Random):
    fails = []
    h, l = ctx.h, ctx.cycles.l
    # the greedy forest keeps every edge exactly when no edge closes a cycle
    acyclic = len(spanning_hyperforest(h)) == h.m
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


@_property("core.tree-like-no-cycle")
def _p_tree_like_no_cycle(ctx: Analysis, rng: random.Random):
    h = ctx.h
    if h.n > _SMALL_N or any(e.size < 2 for e in h.edges):
        return [], []
    fails = []
    cyclic = cyclic_vertices(h)[0]
    for x in h.vertex_range():
        cyc = lies_on_cycle(h, x)
        if cyclic[x] != cyc:
            fails.append(f"vertex {x}: tree_like={not cyclic[x]}, on_cycle={cyc}")
    return fails, []


@_property("core.tree-like-deletion")
def _p_tree_like_deletion(ctx: Analysis, rng: random.Random):
    """Iterated deletion of tree-like vertices with their incident edges:
    each victim, tree-like by ``cyclic_vertices`` on the current
    hypergraph, must raise the component count under weak deletion, the
    definition of tree-like, by exactly its current degree minus 1.
    """
    h = ctx.h
    fails = []
    current, before = h, ctx.cycles.n_components
    for _ in range(min(3, h.n - 1)):
        cyclic = cyclic_vertices(current)[0]
        tree_like = [x for x in current.vertex_range() if not cyclic[x]]
        if not tree_like or current.n <= 1:
            break
        x = rng.choice(tree_like)
        d = degrees(current)[x]
        nxt = _strong_delete(current, x)
        after_weak = len(connected_components(weak_delete(current, x)))
        if after_weak != before + d - 1:
            fails.append(f"deleting {x}: components {before} -> {after_weak}, expected {before + d - 1}")
            break
        current = nxt
        before = len(connected_components(current))
    return fails, []


# --- spectra properties ----------------------------------------------------


@_property("spectra.self-adjoint")
def _p_self_adjoint(ctx: Analysis, rng: random.Random):
    b, l = ctx.bundle, ctx.bundle.l
    # five pairs (f, g), each f drawn before its g
    pairs = _random_stack(ctx, rng, 10)
    f, g = pairs[0::2], pairs[1::2]
    fails = []
    for left, right in zip(weighted_inner(b, f @ l.T, g).tolist(),
                           weighted_inner(b, f, g @ l.T).tolist()):
        scale = max(1.0, abs(left), abs(right))
        if abs(left - right) > 1e-9 * scale:
            fails.append(f"<Lf,g>={left!r} vs <f,Lg>={right!r}")
    return fails, []


@_property("spectra.trace-eigsum")
def _p_trace_eigsum(ctx: Analysis, rng: random.Random):
    b = ctx.bundle
    fails = []
    if any(b.l[i, i] != 1.0 for i in range(b.n)):
        fails.append("Laplacian diagonal is not all ones")
    total = sum(ctx.spectrum.eigenvalues)
    if abs(total - b.n) > 1e-8 * b.n:
        fails.append(f"eigenvalue sum {total!r} != {b.n}")
    return fails, []


@_property("spectra.classical-graph")
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


@_property("spectra.interlacing")
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


@_property("spectra.rayleigh-bounds")
def _p_rayleigh_bounds(ctx: Analysis, rng: random.Random):
    h, b = ctx.h, ctx.bundle
    w = ctx.spectrum.eigenvalues
    slack = 1e-8 * max(1.0, abs(w[0]), abs(w[-1]))
    # five random functions, then the eigenfunctions of indices 1 and n
    indices = (1, h.n)
    stack = np.vstack((_random_stack(ctx, rng, 5),
                       [ctx.spectrum.functions[k - 1].values for k in indices]))
    quotients = rayleigh(b, stack).tolist()
    fails = []
    for q in quotients[:5]:
        if not (w[0] - slack <= q <= w[-1] + slack):
            fails.append(f"Rayleigh quotient {q!r} outside [{w[0]!r}, {w[-1]!r}]")
    for k, q in zip(indices, quotients[5:]):
        if abs(q - w[k - 1]) > 1e-8 * max(1.0, abs(w[k - 1])):
            fails.append(f"Rayleigh of eigenfunction {k}: {q!r} != {w[k-1]!r}")
    return fails, []


# --- nodal properties ------------------------------------------------------


def _sample_functions(ctx: Analysis, rng: random.Random) -> list[VertexFunction]:
    fs = list(ctx.spectrum.functions)
    fs.append(_random_function(ctx, rng))
    fs.append(_random_function(ctx, rng))
    return fs


def _decomposed(ctx: Analysis, fs: list[VertexFunction]) -> Iterator[
        tuple[int, VertexFunction, NodalDecomposition]]:
    """(j, f, decomposition of f) per sample function; the eigenfunctions,
    which come first, reuse the analysis' decompositions."""
    n = ctx.spectrum.n
    for j, f in enumerate(fs):
        yield j, f, ctx.decompositions[j] if j < n else decompose(ctx.h, f)


@_property("nodal.oracle-agreement")
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


@_property("nodal.weak-le-strong")
def _p_weak_le_strong(ctx: Analysis, rng: random.Random):
    fails = []
    for j, _, dec in _decomposed(ctx, _sample_functions(ctx, rng)):
        if dec.weak_count > dec.strong_count:
            fails.append(f"function {j}: weak count {dec.weak_count} > strong {dec.strong_count}")
    return fails, []


@_property("nodal.no-zeros-identical")
def _p_no_zeros_identical(ctx: Analysis, rng: random.Random):
    fails = []
    n = ctx.spectrum.n
    for j, f in enumerate(_sample_functions(ctx, rng)):
        if len(f.support()) < f.n:
            continue
        dec = decompose(ctx.h, f)
        # a zero-free eigenfunction's domains come from the row pass, which
        # shares no code with decompose; every instance runs one row pass
        if not (dec.strong == dec.weak_cores == dec.weak_closures
                and (j >= n or dec.strong == ctx.decompositions[j].strong)):
            fails.append(f"zero-free function {j}: strong and weak partitions differ")
    return fails, []


@_property("nodal.max-two-memberships")
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


@_property("nodal.zero-neighbor-containment")
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
            stray = [w for w in hyperneighbors(ctx.h, v) if w not in union]
            if stray:
                fails.append(f"function {j}: neighbors {stray} of zero {v} escape its two domains")
    return fails, []


@_property("nodal.domain-graph-connected")
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


@_property("nodal.eigen-upper-bounds")
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


@_property("nodal.eigen-lower-bound-logged")
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


@_property("nodal.sandwich")
def _p_sandwich(ctx: Analysis, rng: random.Random):
    # every count is over the distinct vertex pairs sharing an edge, kept
    # where A o gg^T is positive or nonzero; the forests of a graph form a
    # matroid, so a maximum spanning forest of the positive pairs weighs
    # n - c(positive).  A is integer-valued and a full row has no value
    # within its zero tolerance, so sgn(A_xy g(x) g(y)) is read off the
    # sign matrix as sgn(A_xy) s(x) s(y), which no underflow changes; the
    # nonzero pairs are those with A_xy != 0, the same for every row
    h, bundle = ctx.h, ctx.bundle
    # the rows of the eigenfunctions with full support
    full = np.flatnonzero((ctx.signs[:, 1:] != 0).all(axis=1))
    if not len(full):
        return [], []
    a, b = np.array(sorted({(min(x, y), max(x, y)) for x, y, _ in h.pairs}),
                    dtype=np.intp).reshape(-1, 2).T
    adjacency = np.sign(bundle.a[a - 1, b - 1]).astype(np.int8)
    nonzero = adjacency != 0
    l_nonzero = int(nonzero.sum()) - h.n + int(component_counts(h.n + 1, a, b, nonzero[None])[0])
    eigenvalues = np.array(ctx.spectrum.eigenvalues)
    fails = []
    # a form holds n^2 entries a row, more than a mask over the pairs
    for rows in row_chunks(len(full), h.n * h.n):
        chunk = full[rows]
        s = ctx.signs[chunk]
        positive = adjacency * s[:, a] * s[:, b] > 0
        sigma_ts = (h.n - component_counts(h.n + 1, a, b, positive)).tolist()
        values = np.array([ctx.spectrum.functions[i].values for i in chunk.tolist()])
        inertia = positive_inertia(nodal_quadratic_form(bundle, values, eigenvalues[chunk])).tolist()
        for i, p, sigma_t, n_pos in zip((chunk + 1).tolist(), inertia, sigma_ts,
                                        positive.sum(axis=1).tolist()):
            if not (p <= sigma_t <= n_pos <= p + l_nonzero):
                fails.append(
                    f"eig {i}: inertia {p}, forest weight {sigma_t}, positive pairs {n_pos}, "
                    f"slack cap {p + l_nonzero}")
    return fails, []


@_property("nodal.scaling-invariance")
def _p_scaling_invariance(ctx: Analysis, rng: random.Random):
    fails = []
    for j, f, a in _decomposed(ctx, _sample_functions(ctx, rng)[:4]):
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 20.0)
        scaled = VertexFunction.from_values([c * x for x in f.values])
        d = decompose(ctx.h, scaled)
        if (a.strong, a.weak_cores, a.weak_closures) != (d.strong, d.weak_cores, d.weak_closures):
            fails.append(f"function {j}: decomposition changed under scaling by {c!r}")
    return fails, []


ALL_PROPERTY_IDS = tuple(REGISTRY)
CORE_PROPERTY_IDS, SPECTRA_PROPERTY_IDS, NODAL_PROPERTY_IDS = (
    tuple(pid for pid in ALL_PROPERTY_IDS if pid.startswith(f"{section}."))
    for section in ("core", "spectra", "nodal"))


def _selection(ids: Iterable[str]) -> tuple[str, ...]:
    ids = tuple(ids)
    unknown = [pid for pid in ids if pid not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown property ids: {unknown}")
    return ids


def _check(ctx: Analysis, seed: int, index: int, pid: str) -> tuple[list[str], list[str]]:
    """Run one property on instance ``index`` of the stream of ``seed``,
    with the randomness derived from all three; a property that raises
    fails with the exception as its detail."""
    try:
        return REGISTRY[pid](ctx, random.Random(f"{seed}:{index}:{pid}"))
    except Exception as exc:
        return [f"unexpected error: {exc!r}"], []


def rerun_property(record: FailureRecord) -> tuple[list[str], list[str]]:
    """Replay one failure record: rebuild the instance from its text and
    run the property through the campaign's runner, with the same derived
    randomness."""
    _selection((record.property_id,))
    return _check(Analysis(parse(record.instance_text)), record.seed, record.index,
                  record.property_id)


def run_campaign(cfg: GenConfig,
                 property_ids: Sequence[str] | None = None) -> CampaignResult:
    """Run the selected properties over the config's instance stream.

    A property that raises records a failure instead of aborting the
    campaign.  Results are deterministic for a given (config, selection).
    """
    ids = _selection(ALL_PROPERTY_IDS if property_ids is None else property_ids)
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
            start = time.process_time()
            fails, notes_i = _check(ctx, cfg.seed, index, pid)
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

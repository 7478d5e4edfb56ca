"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single verdict
line (PASS/FAIL plus the measured quantities).  Criterion 5 checks the
strong-count lower bound with its correction terms l', l+ and |F| read
on the signed clique expansion, on every eigenpair of the campaign.  The
whole-hyperedge reading (all_pairs coherence) fails on part of the
instance family, the reference instance included; those failures are
reported, not asserted.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from shg.core import (
    Edge,
    SignedHypergraph,
    connected_components,
    cyclomatic,
    degrees,
    induced_subhypergraph,
    spanning_hyperforest,
    weak_delete,
)
from shg.fixtures import (
    DISCREPANCY_NOTES,
    PRINTED_EIGENFUNCTIONS,
    PRINTED_EIGENVALUES,
    PRINTED_LAPLACIAN,
    fixture_example1,
    printed_laplacian_array,
)
from shg.nodal import Analysis, decompose
from shg.report import build_report, input_digest
from shg.shgio import serialize
from shg.spectra import (
    VertexFunction,
    eigendecompose,
    laplacian,
    laplacian_exact,
    nodal_quadratic_form,
    positive_inertia,
    weighted_inner,
)
from shg.verify import GenConfig, generate, run_campaign

from references import chained_difference_rank, generate_supertree, product_rule_defect

CAMPAIGN_CONFIG = GenConfig(seed=2026, count=500)

CAMPAIGN_IDS = (
    "nodal.eigen-upper-bounds",
    "nodal.eigen-lower-bound-logged",
    "nodal.domain-graph-connected",
    "nodal.max-two-memberships",
    "nodal.zero-neighbor-containment",
    "nodal.weak-le-strong",
    "nodal.scaling-invariance",
    "spectra.trace-eigsum",
    "spectra.self-adjoint",
)

STRUCTURAL_IDS = tuple(pid for pid in CAMPAIGN_IDS
                       if pid != "nodal.eigen-upper-bounds"
                       and pid != "nodal.eigen-lower-bound-logged")


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def campaign():
    t0 = time.perf_counter()
    result = run_campaign(CAMPAIGN_CONFIG, property_ids=CAMPAIGN_IDS)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fixture_spectrum():
    h = fixture_example1()
    return h, eigendecompose(laplacian(h))


def test_criterion_1_fixture_laplacian_exact():
    t0 = time.perf_counter()
    h = fixture_example1()
    exact = laplacian_exact(h)
    diffs = [
        (i + 1, j + 1)
        for i in range(9)
        for j in range(9)
        if exact[i][j] != PRINTED_LAPLACIAN[i][j]
    ]
    cells_ok = diffs == [(5, 1), (5, 3)] and all(
        exact[i - 1][j - 1] == Fraction(-1, 3) and PRINTED_LAPLACIAN[i - 1][j - 1] == 0
        for i, j in diffs
    )
    report = build_report(h, input_digest(serialize(h)), notes=DISCREPANCY_NOTES)
    note_ok = any("(5,1)" in t and "(5,3)" in t and "-1/3" in t
                  for t in report["discrepancy_notes"])
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 1 (exact fixture Laplacian vs published matrix)",
        cells_ok and note_ok and elapsed < 1.0,
        f"entrywise equal except {diffs} (-1/3 vs printed 0), "
        f"note present: {note_ok}, {elapsed:.3f}s",
    )


def test_criterion_2_printed_eigenpair_residuals():
    t0 = time.perf_counter()
    l_raw = printed_laplacian_array()
    residuals = []
    for lam, vals in zip(PRINTED_EIGENVALUES, PRINTED_EIGENFUNCTIONS):
        v = np.array(vals)
        residuals.append(float(np.max(np.abs(l_raw @ v - lam * v))))
    elapsed = time.perf_counter() - t0
    worst = max(residuals)
    _verdict(
        "criterion 2 (published eigenpairs vs verbatim matrix, tol 0.05)",
        len(residuals) == 9 and worst <= 0.05 and elapsed < 1.0,
        f"nine pairs, worst residual {worst:.4f}, {elapsed:.3f}s",
    )


def test_criterion_3_published_table_strong_domains():
    h = fixture_example1()
    fns = [VertexFunction.from_values(v) for v in PRINTED_EIGENFUNCTIONS]
    expected = {
        1: [(1, 2, 3, 4, 5, 6, 7, 8, 9)],
        2: [(1, 2, 3, 7, 9), (4, 5, 6, 8)],
        3: [(1, 6, 7), (3, 4, 9)],
        7: [(2,), (5,), (7,), (8,), (9,), (1, 3, 4, 6)],
    }
    sets_ok = True
    for row, want in expected.items():
        got = sorted(tuple(sorted(s)) for s in decompose(h, fns[row - 1]).strong)
        if got != sorted(want):
            sets_ok = False
    counts = [decompose(h, fns[row - 1]).strong_count for row in (1, 2, 3, 7)]
    weak_equal_ok = all(
        decompose(h, fns[row - 1]).weak_count == len(expected[row])
        for row in (1, 2, 7)
    )
    cores3 = decompose(h, fns[2]).weak_cores
    cores3_ok = sorted(tuple(sorted(s)) for s in cores3) == [(1, 6, 7), (3, 4, 9)]
    _verdict(
        "criterion 3 (published domain table rows 1, 2, 3, 7)",
        sets_ok and counts == [1, 2, 2, 6] and weak_equal_ok and cores3_ok,
        f"strong sets match, counts {counts}, zero-free weak counts equal strong, "
        f"f3 weak cores {{1,6,7}} {{3,4,9}}",
    )


def test_criterion_4_strong_and_weak_upper_bounds(campaign):
    result, elapsed = campaign
    bad = [r for r in result.failures
           if r.property_id in ("nodal.eigen-upper-bounds", "campaign.sharpness")]
    _verdict(
        "criterion 4 (upper bounds S <= k+r-1 and W <= k+c-1, 500 instances)",
        result.instances_run == 500 and not bad and elapsed < 300.0,
        f"{result.instances_run} instances, {len(bad)} failures, "
        f"campaign took {elapsed:.1f}s",
    )


def test_criterion_5_strong_count_lower_bound(campaign, fixture_spectrum):
    h, _ = fixture_spectrum
    analysis = Analysis(h)
    rep = analysis.bounds()[0]
    spot_ok = rep.strong_count == 1 and rep.strong_lower_bound <= 1
    _verdict(
        "criterion 5 spot check (bottom eigenfunction of the reference instance)",
        spot_ok,
        f"strong count {rep.strong_count}, lower bound {rep.strong_lower_bound}",
    )

    top = analysis.bounds("clique")[6]
    top_ok = (top.strong_count == 6 and top.strong_lower_bound == 5
              and top.strong_lower_ok)
    _verdict(
        "criterion 5 spot check (top eigenspace of the reference instance, "
        "clique reading)",
        top_ok,
        f"strong count {top.strong_count} >= clique bound "
        f"{top.strong_lower_bound} (l'={top.l_prime}, "
        f"l+={top.l_plus}, |F|={top.fiedler_size})",
    )

    result, _ = campaign
    violations = [t for t in result.notes if "lower bound violated" in t]
    clique_failures = [r for r in result.failures
                       if r.property_id == "nodal.eigen-lower-bound-logged"]
    _verdict(
        "criterion 5 (lower bound S >= k+r-1-l'+l+-|F| on the clique "
        "expansion, every eigenpair of 500 instances)",
        not clique_failures,
        f"{len(clique_failures)} eigenpairs below the clique bound; the "
        f"whole-hyperedge all_pairs reading fails on {len(violations)}, across "
        f"{result.instances_run} instances",
    )


def _cleaned(h: SignedHypergraph) -> SignedHypergraph | None:
    """Drop empty edges, then degree-0 vertices (renumbering)."""
    kept = SignedHypergraph(h.n, tuple(e for e in h.edges if e.size > 0))
    deg = degrees(kept)
    alive = [v for v in kept.vertex_range() if deg[v] > 0]
    if not alive:
        return None
    return induced_subhypergraph(kept, alive)


def _pair_graph(h, coeff, keep_positive_only):
    """The graph of the distinct vertex pairs sharing an edge of h whose
    coefficient is positive (or nonzero), one 2-edge per pair."""
    pairs = set()
    for x, y, _ in h.pairs:
        a, b = min(x, y), max(x, y)
        c = coeff[a - 1, b - 1]
        if c > 0 or (not keep_positive_only and c != 0):
            pairs.add((a, b))
    edges = tuple(Edge(((a, 1), (b, -1))) for a, b in sorted(pairs))
    return SignedHypergraph(h.n, edges)


def test_criterion_6_identity_suite():
    rng = np.random.default_rng(20260818)
    defect_worst = 0.0
    form_worst = 0.0
    const_worst = 0.0
    indicator_worst = 0.0
    for h in generate(GenConfig(seed=61, count=50)):
        b = laplacian(h)
        s = eigendecompose(b)
        for _ in range(100):
            f = rng.normal(size=h.n)
            g = rng.normal(size=h.n)
            f /= np.max(np.abs(f))
            g /= np.max(np.abs(g))
            defect_worst = max(
                defect_worst, product_rule_defect(h, b, f, g) / max(1.0, h.n))
            k = int(rng.integers(0, h.n))
            gk, lam = s.functions[k], s.eigenvalues[k]
            form = nodal_quadratic_form(b, gk, lam)
            f2 = rng.normal(size=h.n)
            lhs = float(f2 @ form @ f2)
            fg = f2 * gk.array()
            rhs = weighted_inner(b, fg, b.l @ fg - lam * fg)
            form_worst = max(
                form_worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        # spot identities of the quadratic form
        k = int(rng.integers(0, h.n))
        gk, lam = s.functions[k], s.eigenvalues[k]
        form = nodal_quadratic_form(b, gk, lam)
        ones = np.ones(h.n)
        const_worst = max(const_worst, abs(float(ones @ form @ ones)))
        domains = decompose(h, gk).strong
        if domains:
            ind = np.zeros(h.n)
            for v in domains[0]:
                ind[v - 1] = 1.0
            indicator_worst = max(indicator_worst, float(ind @ form @ ind))
    identities_ok = (defect_worst <= 1e-9 and form_worst <= 1e-9
                     and const_worst <= 1e-9 and indicator_worst <= 1e-9)

    # eigenvalue bracketing under one and two weak vertex deletions,
    # on 2-edge instances where the reduced form restricts the original
    del_rng = random.Random(67)
    deletions = 0
    bracket_fails = []
    for h in generate(GenConfig(classical=True, seed=67, count=50)):
        w = eigendecompose(laplacian(h)).eigenvalues
        slack = 1e-8 * max(1.0, w[-1] - w[0])
        for n_del in (1, 2):
            current = h
            for _ in range(n_del):
                current = weak_delete(current, del_rng.randint(1, current.n))
            reduced = _cleaned(current)
            if reduced is None:
                continue
            what = eigendecompose(laplacian(reduced)).eigenvalues
            t = h.n - reduced.n
            deletions += 1
            for k in range(1, reduced.n + 1):
                lo, hi = w[k - 1], w[k + t - 1]
                if not (lo - slack <= what[k - 1] <= hi + slack):
                    bracket_fails.append(
                        f"{n_del}-deletion eig {k}: {what[k - 1]!r} outside "
                        f"[{lo!r}, {hi!r}]")

    st_rng = random.Random(71)
    rank_fails = 0
    for _ in range(50):
        st = generate_supertree(st_rng, st_rng.randint(1, 6))
        rank, rows = chained_difference_rank(st)
        want = sum(e.size - 1 for e in st.edges)
        if not (rank == rows == want == st.n - 1):
            rank_fails += 1

    sandwich_checks = 0
    sandwich_fails = []
    for h in generate(GenConfig(seed=73, count=200)):
        if sandwich_checks >= 50:
            break
        b = laplacian(h)
        s = eigendecompose(b)
        for i, g in enumerate(s.functions, 1):
            if len(g.support()) != h.n:
                continue
            coeff = b.a * np.outer(g.array(), g.array())
            positive = _pair_graph(h, coeff, keep_positive_only=True)
            form = nodal_quadratic_form(b, g, s.eigenvalues[i - 1])
            p = positive_inertia(form)
            # on 2-edges the greedy forest weighs n - c(positive), the most
            forest = spanning_hyperforest(positive)
            sigma_t = sum(positive.edges[j].size - 1 for j in forest)
            n_pos = positive.m
            l_nonzero = cyclomatic(_pair_graph(h, coeff, keep_positive_only=False)).l
            sandwich_checks += 1
            if not (p <= sigma_t <= n_pos <= p + l_nonzero):
                sandwich_fails.append(
                    f"eig {i}: inertia {p}, forest {sigma_t}, pairs {n_pos}, "
                    f"cap {p + l_nonzero}")

    _verdict(
        "criterion 6 (identity suite)",
        identities_ok and deletions >= 100 and not bracket_fails
        and rank_fails == 0 and sandwich_checks >= 50 and not sandwich_fails,
        f"product-rule defect <= {defect_worst:.2e}, form-vs-direct "
        f"<= {form_worst:.2e} (5000 pairs, tol 1e-9); {deletions} weak "
        f"deletions bracketed within 1e-8 ({len(bracket_fails)} out); 50 "
        f"supertree ranks exact ({rank_fails} off); {sandwich_checks} "
        f"inertia-forest sandwiches ({len(sandwich_fails)} out)",
    )


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = GenConfig(n_range=(4, 8), seed=79, count=200)
    result = run_campaign(cfg, property_ids=("nodal.oracle-agreement",))
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 7 (path-enumeration oracle vs efficient nodal partitions)",
        result.instances_run == 200 and result.passed and elapsed < 120.0,
        f"200 instances with at most 8 vertices, {len(result.failures)} "
        f"mismatches, {elapsed:.1f}s",
    )


def test_criterion_8_structural_invariants(campaign):
    result, _ = campaign
    by_id = {pid: [r for r in result.failures if r.property_id == pid]
             for pid in STRUCTURAL_IDS}
    bad = {pid: len(rs) for pid, rs in by_id.items() if rs}
    _verdict(
        "criterion 8 (domain-graph connectivity, membership caps, "
        "containment, W <= S, scaling, trace, self-adjointness)",
        result.instances_run == 500 and not bad,
        f"{len(STRUCTURAL_IDS)} invariants over {result.instances_run} "
        f"instances, failures: {bad or 'none'}",
    )

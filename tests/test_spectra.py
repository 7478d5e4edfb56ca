"""Matrix layer: adjacency, Laplacian, eigenstructure, quadratic identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.core import Edge, SignedHypergraph, degrees
from shg.fixtures import PRINTED_LAPLACIAN, fixture_example1
from shg.spectra import (
    VertexFunction,
    _adjacency_int,
    adjacency,
    chained_difference_rank,
    eigendecompose,
    laplacian,
    laplacian_exact,
    nodal_quadratic_form,
    positive_inertia,
    rayleigh,
    weighted_inner,
)

from references import product_rule_defect


def h_of(n, *edge_specs):
    return SignedHypergraph(n, tuple(Edge(tuple(spec)) for spec in edge_specs))


@pytest.fixture(scope="module")
def fixture():
    h = fixture_example1()
    return h, laplacian(h)


class TestVertexFunction:
    def test_signs_respect_tolerance(self):
        f = VertexFunction.from_values([1.0, 1e-12, -0.5])
        assert f.sign(1) == 1 and f.sign(2) == 0 and f.sign(3) == -1
        assert f.support() == frozenset({1, 3})

    def test_all_zero_function(self):
        f = VertexFunction.from_values([0.0, 0.0])
        assert f.support() == frozenset()

    @pytest.mark.parametrize("values,kwargs", [
        ([1.0, float("inf")], {}),
        ([1.0, float("nan")], {}),
        ([1.0, 0.0], {"rel_tol": -1.0}),
        ([1.0, 0.0], {"rel_tol": float("nan")}),
        ([1.0, 0.0], {"rel_tol": float("inf")}),
    ])
    def test_refuses_non_finite_values_and_bad_tolerances(self, values, kwargs):
        with pytest.raises(ValueError, match="finite"):
            VertexFunction.from_values(values, **kwargs)


class TestAdjacency:
    def test_aggregates_shared_edges(self):
        # two edges on {1,2} with opposite global signs cancel
        h = h_of(2, ((1, 1), (2, 1)), ((1, 1), (2, -1)))
        assert _adjacency_int(h)[0][1] == 0

    def test_singleton_edges_add_nothing(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, -1),))
        a = _adjacency_int(h)
        assert a[0][1] == -1 and a[0][0] == 0

    def test_three_edge_pairs(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        a = _adjacency_int(h)
        assert a[0][1] == a[0][2] == a[1][2] == 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_adjacency_equals_integer_adjacency(self, data):
        # n = 1 and edges of size 1..4, some repeated with one incidence
        # sign flipped: parallel pairs of opposite sign
        n = data.draw(st.integers(1, 7))
        edges = []
        for _ in range(data.draw(st.integers(0, 8))):
            vs = data.draw(st.permutations(range(1, n + 1)))[:data.draw(st.integers(1, min(4, n)))]
            edges.append(tuple((v, data.draw(st.sampled_from((1, -1)))) for v in vs))
            if data.draw(st.booleans()):
                (v, s), *rest = edges[-1]
                edges.append(((v, -s), *rest))
        h = h_of(n, *edges)
        a = adjacency(h)
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert np.array_equal(a, np.array(_adjacency_int(h), dtype=float).reshape(n, n))


class TestLaplacian:
    def test_isolated_vertex_rejected(self):
        h = h_of(2, ((1, 1),))
        with pytest.raises(ValueError, match="isolated vertex"):
            laplacian(h)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            laplacian(SignedHypergraph(0, ()))

    def test_unit_diagonal(self, fixture):
        _, b = fixture
        assert np.allclose(np.diag(b.l), 1.0)

    def test_exact_matches_float(self, fixture):
        h, b = fixture
        exact = laplacian_exact(h)
        approx = np.array([[float(x) for x in row] for x in [0] for row in exact])
        assert np.allclose(approx, b.l, atol=1e-15)

    def test_fixture_row_two(self, fixture):
        h, _ = fixture
        exact = laplacian_exact(h)
        assert exact[1] == [Fraction(-1), Fraction(1), Fraction(-1)] + [Fraction(0)] * 6

    def test_fixture_differs_from_printed_at_typo_cells(self, fixture):
        h, _ = fixture
        exact = laplacian_exact(h)
        # row 5 of the published matrix drops the (5,1) and (5,3) entries
        for i in range(9):
            for j in range(9):
                if (i, j) in ((4, 0), (4, 2)):
                    assert exact[i][j] == Fraction(-1, 3)
                    assert PRINTED_LAPLACIAN[i][j] == 0
                else:
                    assert exact[i][j] == PRINTED_LAPLACIAN[i][j]


class TestEigendecomposition:
    def test_fixture_spectrum(self, fixture):
        _, b = fixture
        s = eigendecompose(b)
        expected = [-2 / 3, 1 / 3, 1 / 3, 1, 1, 1, 2, 2, 2]
        assert np.allclose(s.eigenvalues, expected, atol=1e-9)
        assert s.clusters == ((1, 1), (2, 2), (4, 3), (7, 3))

    def test_trace_equals_n(self, fixture):
        _, b = fixture
        s = eigendecompose(b)
        assert abs(sum(s.eigenvalues) - 9) < 1e-9

    def test_degree_orthonormal_functions(self, fixture):
        h, b = fixture
        s = eigendecompose(b)
        for i, fi in enumerate(s.functions):
            for j, fj in enumerate(s.functions):
                want = 1.0 if i == j else 0.0
                assert abs(weighted_inner(h, fi.array(), fj.array()) - want) < 1e-9

    def test_eigen_residuals(self, fixture):
        _, b = fixture
        s = eigendecompose(b)
        for lam, f in zip(s.eigenvalues, s.functions):
            v = f.array()
            assert np.max(np.abs(b.l @ v - lam * v)) < 1e-9

    def test_cluster_of_out_of_range(self, fixture):
        _, b = fixture
        s = eigendecompose(b)
        with pytest.raises(IndexError):
            s.cluster_of(10)

    def test_zero_cluster_tol_splits(self, fixture):
        _, b = fixture
        s = eigendecompose(b, cluster_tol=0.0)
        # exact ties still merge; merely close values split
        assert s.cluster_of(1) == (1, 1)

    @pytest.mark.parametrize("tol", [-5.0, -1e-12, float("nan"), float("inf"), float("-inf")])
    def test_refuses_bad_cluster_tol(self, fixture, tol):
        # NaN and negative values split every cluster, infinity merges them all
        _, b = fixture
        with pytest.raises(ValueError, match="cluster tolerance must be finite and nonnegative"):
            eigendecompose(b, cluster_tol=tol)

    def test_flat_spectrum_single_cluster(self):
        # identity-like Laplacian: n isolated-pair components with zero adjacency
        h = h_of(4, ((1, 1), (2, 1)), ((1, 1), (2, -1)),
                 ((3, 1), (4, 1)), ((3, 1), (4, -1)))
        s = eigendecompose(laplacian(h))
        assert s.clusters == ((1, 4),)


class TestRayleigh:
    def test_zero_function_rejected(self, fixture):
        h, b = fixture
        with pytest.raises(ValueError, match="zero function"):
            rayleigh(h, b, np.zeros(9))

    def test_extremes_bracket(self, fixture):
        h, b = fixture
        s = eigendecompose(b)
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=9)
            q = rayleigh(h, b, g)
            assert s.eigenvalues[0] - 1e-9 <= q <= s.eigenvalues[-1] + 1e-9


class TestQuadraticIdentities:
    def test_product_rule_defect_small(self, fixture):
        h, b = fixture
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = rng.normal(size=9)
            g = rng.normal(size=9)
            scale = max(1.0, np.max(np.abs(f)) * np.max(np.abs(g)))
            assert product_rule_defect(h, b, f, g) <= 1e-9 * scale

    def test_nodal_form_rejects_non_eigenfunction(self, fixture):
        _, b = fixture
        with pytest.raises(ValueError, match="not an eigenfunction"):
            nodal_quadratic_form(b, VertexFunction.from_values([1.0] * 9), 0.5)

    def test_nodal_form_inertia_simple_bottom(self, fixture):
        # for the simple lowest eigenvalue with a zero-free eigenfunction
        # the form D(g) D (L - lambda I) D(g) has positive inertia n - 1
        _, b = fixture
        s = eigendecompose(b)
        g = s.functions[0]
        assert len(g.support()) == 9
        form = nodal_quadratic_form(b, g, s.eigenvalues[0])
        assert positive_inertia(form) == 8

    def test_positive_inertia_counts(self):
        m = np.diag([2.0, -1.0, 0.0])
        assert positive_inertia(m) == 1


class TestChainedDifferenceRank:
    def test_single_edge(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        rank, rows = chained_difference_rank(h)
        assert (rank, rows) == (2, 2)

    def test_cycle_loses_rank(self):
        h = h_of(3, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 1)))
        rank, rows = chained_difference_rank(h)
        assert rows == 3 and rank == 2


@st.composite
def spectral_instances(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    m = draw(st.integers(min_value=1, max_value=6))
    edges = []
    seen = set()
    for _ in range(m):
        size = draw(st.integers(min_value=2, max_value=min(3, n)))
        vs = draw(st.permutations(range(1, n + 1)))[:size]
        incs = tuple(sorted((v, draw(st.sampled_from((1, -1)))) for v in vs))
        if incs in seen:
            continue
        seen.add(incs)
        edges.append(Edge(incs))
    h = SignedHypergraph(n, tuple(edges))
    deg = degrees(h)
    missing = [v for v in h.vertex_range() if deg[v] == 0]
    if missing:
        extra = []
        for v in missing:
            u = 1 if v != 1 else 2
            incs = ((min(u, v), 1), (max(u, v), -1))
            if incs not in seen:
                seen.add(incs)
                extra.append(Edge(incs))
        h = SignedHypergraph(n, h.edges + tuple(extra))
    return h


class TestRandomizedIdentities:
    @given(spectral_instances())
    @settings(max_examples=40, deadline=None)
    def test_trace_and_self_adjointness(self, h):
        b = laplacian(h)
        s = eigendecompose(b)
        assert abs(sum(s.eigenvalues) - h.n) < 1e-8 * max(1, h.n)
        rng = np.random.default_rng(3)
        f, g = rng.normal(size=h.n), rng.normal(size=h.n)
        left = weighted_inner(h, b.l @ f, g)
        right = weighted_inner(h, f, b.l @ g)
        assert abs(left - right) < 1e-9 * max(1.0, abs(left))

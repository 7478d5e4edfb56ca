"""Matrix layer: adjacency, Laplacian, eigenstructure, quadratic identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shg.core import Edge, SignedHypergraph, degrees
from shg.fixtures import PRINTED_LAPLACIAN, fixture_example1
from shg.spectra import (
    MatrixBundle,
    VertexFunction,
    adjacency,
    eigendecompose,
    laplacian,
    laplacian_exact,
    nodal_quadratic_form,
    positive_inertia,
    rayleigh,
    sign_matrix,
    weighted_inner,
)

from shg.verify import GenConfig, generate

from references import (
    adjacency_int,
    chained_difference_rank,
    cycle_family,
    path_family,
    product_rule_defect,
    reference_nodal_quadratic_form,
    reference_positive_inertia,
    reference_rayleigh,
    reference_weighted_inner,
    star_family,
    wide_edge_family,
)


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
        assert f.support() == (1, 3)

    def test_all_zero_function(self):
        f = VertexFunction.from_values([0.0, 0.0])
        assert f.support() == ()

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

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_refuses_a_bad_tolerance_however_built(self, tol):
        # every copy of the zero rule assumes a finite, nonnegative
        # tolerance, so a function built directly is held to it too
        with pytest.raises(ValueError, match="finite and nonnegative"):
            VertexFunction((0.0, 1.0, -2.0), tol)

    NAN_ROWS = [(float("nan"), 1.0), (1.0, 0.0, float("nan")), (float("nan"),)]

    @pytest.mark.parametrize("values", NAN_ROWS)
    def test_nan_has_no_sign(self, values):
        # a function built directly skips from_values; NaN fails both
        # comparisons of the zero rule, so it is refused where a sign is
        # decided instead of read as a zero
        with pytest.raises(ValueError, match="function values must be finite"):
            VertexFunction(values, 0.0).signs

    @pytest.mark.parametrize("values", NAN_ROWS)
    def test_nan_has_no_sign_in_the_sign_matrix(self, values):
        fs = [VertexFunction((1.0,) * len(values), 0.0), VertexFunction(values, 0.0)]
        with pytest.raises(ValueError, match="function values must be finite"):
            sign_matrix(fs)

    def test_refuses_a_relative_tolerance_that_overflows(self):
        with pytest.raises(ValueError, match="got inf"):
            VertexFunction.from_values([1e10, 2.0, 3.0], rel_tol=1e300)


class TestAdjacency:
    def test_aggregates_shared_edges(self):
        # two edges on {1,2} with opposite global signs cancel
        h = h_of(2, ((1, 1), (2, 1)), ((1, 1), (2, -1)))
        assert adjacency_int(h)[0][1] == 0

    def test_singleton_edges_add_nothing(self):
        h = h_of(2, ((1, 1), (2, 1)), ((1, -1),))
        a = adjacency_int(h)
        assert a[0][1] == -1 and a[0][0] == 0

    def test_three_edge_pairs(self):
        h = h_of(3, ((1, 1), (2, 1), (3, 1)))
        a = adjacency_int(h)
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
        assert np.array_equal(a, np.array(adjacency_int(h), dtype=float).reshape(n, n))


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
        _, b = fixture
        s = eigendecompose(b)
        for i, fi in enumerate(s.functions):
            for j, fj in enumerate(s.functions):
                want = 1.0 if i == j else 0.0
                assert abs(weighted_inner(b, fi.array(), fj.array()) - want) < 1e-9

    def test_eigen_residuals(self, fixture):
        _, b = fixture
        s = eigendecompose(b)
        for lam, f in zip(s.eigenvalues, s.functions):
            v = f.array()
            assert np.max(np.abs(b.l @ v - lam * v)) < 1e-9

    def test_zero_cluster_tol_splits(self, fixture):
        _, b = fixture
        s = eigendecompose(b, cluster_tol=0.0)
        # exact ties still merge; merely close values split
        assert s.clusters[0] == (1, 1)

    @pytest.mark.parametrize("tol", [-5.0, -1e-12, float("nan"), float("inf"), float("-inf")])
    def test_refuses_bad_cluster_tol(self, fixture, tol):
        # NaN and negative values split every cluster, infinity merges them all
        _, b = fixture
        with pytest.raises(ValueError, match="cluster tolerance must be finite and nonnegative"):
            eigendecompose(b, cluster_tol=tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-8, 0.2])
    def test_functions_equal_the_per_column_construction(self, tol):
        # the eigenvectors are built into functions all at once; each must
        # be the function that from_values makes of its column
        for h in generate(GenConfig(seed=2026, count=20)):
            b = laplacian(h)
            _, u = np.linalg.eigh((b.m + b.m.T) / 2.0)
            columns = (u / np.sqrt(b.deg)[:, None]).T.tolist()
            s = eigendecompose(b, zero_tol_rel=tol)
            assert s.functions == tuple(VertexFunction.from_values(c, rel_tol=tol) for c in columns)
            assert all(type(x) is float for f in s.functions for x in (*f.values, f.zero_tolerance))

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_refuses_bad_zero_tol(self, fixture, monkeypatch, tol):
        # before the solver, as the cluster tolerance is
        _, b = fixture
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        with pytest.raises(ValueError, match="zero tolerance must be finite and nonnegative"):
            eigendecompose(b, zero_tol_rel=tol)
        assert calls == []

    def test_refuses_non_finite_functions(self, fixture):
        # a NaN degree makes D^-1/2 u NaN; a bad tolerance is refused
        # first, before the solve
        _, b = fixture
        deg = b.deg.copy()
        deg[3] = np.nan
        broken = MatrixBundle(b.n, b.a, deg, b.l, b.m)
        with pytest.raises(ValueError, match="function values must be finite"):
            eigendecompose(broken, zero_tol_rel=1e-8)
        with pytest.raises(ValueError, match="zero tolerance must be finite and nonnegative"):
            eigendecompose(broken, zero_tol_rel=-1.0)

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
            rayleigh(b, np.zeros(9))

    def test_extremes_bracket(self, fixture):
        h, b = fixture
        s = eigendecompose(b)
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=9)
            q = rayleigh(b, g)
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
        left = weighted_inner(b, b.l @ f, g)
        right = weighted_inner(b, f, b.l @ g)
        assert abs(left - right) < 1e-9 * max(1.0, abs(left))


def stack_cases():
    """(h, bundle, eigenfunction stack, eigenvalues, random stack): the
    seed-2026 campaign instances and one instance on a single vertex."""
    rng = np.random.default_rng(2026)
    hs = list(generate(GenConfig(seed=2026, count=30))) + [h_of(1, ((1, 1),))]
    for h in hs:
        b = laplacian(h)
        s = eigendecompose(b)
        eig = np.array([f.values for f in s.functions])
        yield h, b, eig, np.array(s.eigenvalues), rng.normal(size=(7, h.n))


def assert_close(got, want, scale):
    """Agreement within 1e-12 of ``scale``: the magnitude of the terms
    summed for an inner product, of the quotient itself (at least 1) for
    a Rayleigh quotient."""
    assert len(got) == len(want)
    assert all(abs(a - b) <= 1e-12 * c for a, b, c in zip(got, want, scale))


class TestStackedHelpers:
    """The stacked helpers against one function at a time
    (``references``): forms and inertia counts identical, quotients and
    inner products within 1e-12 relative, as ``assert_close`` reads it
    (the summation order may differ)."""

    def test_forms_and_inertia_are_identical(self):
        for _, b, eig, lam, _ in stack_cases():
            forms = nodal_quadratic_form(b, eig, lam)
            assert forms.shape == (b.n, b.n, b.n)
            want = [reference_nodal_quadratic_form(b, g, x) for g, x in zip(eig, lam)]
            assert all(np.array_equal(f, w) for f, w in zip(forms, want, strict=True))
            counts = positive_inertia(forms)
            assert counts.tolist() == [reference_positive_inertia(w) for w in want]

    def test_quotients_and_inner_products_agree(self):
        for h, b, eig, _, rand in stack_cases():
            for stack in (eig, rand):
                got = rayleigh(b, stack)
                assert got.shape == (len(stack),)
                want = [reference_rayleigh(b, g) for g in stack]
                assert_close(got.tolist(), want, [max(1.0, abs(q)) for q in want])
            f, g = rand, rand[::-1] @ b.l.T
            got = weighted_inner(b, f, g)
            scale = [float(np.dot(b.deg, np.abs(x * y))) for x, y in zip(f, g)]
            assert_close(got.tolist(), [reference_weighted_inner(h, x, y) for x, y in zip(f, g)], scale)

    def test_one_function_keeps_its_return_type(self):
        h, b, eig, lam, rand = next(stack_cases())
        assert type(weighted_inner(b, rand[0], rand[1])) is float
        assert type(rayleigh(b, rand[0])) is float
        form = nodal_quadratic_form(b, VertexFunction.from_values(eig[0]), lam[0])
        assert form.shape == (h.n, h.n)
        assert type(positive_inertia(form)) is int
        # a stack of one is an array of one
        assert rayleigh(b, rand[:1]).shape == (1,)
        assert positive_inertia(form[None]).shape == (1,)

    def test_empty_stack(self):
        h, b, _, _, _ = next(stack_cases())
        empty = np.zeros((0, h.n))
        assert weighted_inner(b, empty, empty).shape == (0,)
        assert rayleigh(b, empty).shape == (0,)
        forms = nodal_quadratic_form(b, empty, np.zeros(0))
        assert forms.shape == (0, h.n, h.n)
        assert positive_inertia(forms).shape == (0,)

    def test_one_bad_row_refuses_the_stack(self):
        h, b, eig, lam, rand = next(stack_cases())
        with pytest.raises(ValueError, match="zero function"):
            rayleigh(b, np.vstack((rand, np.zeros(h.n))))
        with pytest.raises(ValueError, match="not an eigenfunction"):
            nodal_quadratic_form(b, np.vstack((eig, rand[:1])), np.append(lam, 0.5))
        with pytest.raises(ValueError, match="one value per vertex"):
            weighted_inner(b, np.zeros((2, h.n + 1)), np.zeros((2, h.n + 1)))


class TestClosedFormFamilies:
    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize("family", [
        path_family, cycle_family, lambda n: cycle_family(n, flipped=True), star_family,
        lambda n: wide_edge_family(n, -1), lambda n: wide_edge_family(n, 1)],
        ids=["path", "balanced-cycle", "flipped-cycle", "star", "wide-edge-minus", "wide-edge-plus"])
    def test_spectrum_matches_the_closed_form(self, family, n):
        h, expected = family(n)
        got = eigendecompose(laplacian(h)).eigenvalues
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-10

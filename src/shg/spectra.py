"""Matrices and spectra of signed hypergraphs.

The adjacency entry for two distinct vertices sums the signs of all
edges containing both; diagonal entries are zero.  The degree matrix
counts incident edges.  The normalized Laplacian is L = I - D^-1 A,
self-adjoint in the degree-weighted inner product
<f, g> = sum_v deg(v) f(v) g(v); its symmetrization
M = D^1/2 L D^-1/2 is what the dense solver diagonalizes, and returned
eigenfunctions f = D^-1/2 u are orthonormal in the weighted product.

Eigenvalue indices in public results are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import SignedHypergraph, degrees

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "DEFAULT_ZERO_TOL_REL",
    "VertexFunction",
    "MatrixBundle",
    "Spectrum",
    "adjacency",
    "laplacian",
    "laplacian_exact",
    "weighted_inner",
    "eigendecompose",
    "rayleigh",
    "positive_inertia",
    "nodal_quadratic_form",
    "chained_difference_rank",
]

DEFAULT_CLUSTER_TOL = 1e-9
DEFAULT_ZERO_TOL_REL = 1e-8
_SYMMETRY_TOL = 1e-12
_INERTIA_TOL = 1e-9     # of ||S||_2, in positive_inertia
_RESIDUAL_TOL = 1e-7    # relative, in nodal_quadratic_form


@dataclass(frozen=True)
class VertexFunction:
    """A real function on vertices 1..n with an absolute zero threshold.

    Entries with magnitude at most ``zero_tolerance`` count as zeros;
    the default threshold is 1e-8 times the max-norm of the function.
    ``from_values`` refuses values that are not finite and a tolerance
    that is negative or not finite: NaN has no sign, an infinite value
    makes the relative threshold infinite, and a negative threshold
    counts exact zeros as support.
    """

    values: tuple[float, ...]
    zero_tolerance: float

    @staticmethod
    def from_values(values: Sequence[float], rel_tol: float = DEFAULT_ZERO_TOL_REL) -> "VertexFunction":
        vals = tuple(map(float, values))
        if not all(map(math.isfinite, vals)):
            raise ValueError("function values must be finite")
        if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
            raise ValueError(f"zero tolerance must be finite and nonnegative, got {rel_tol!r}")
        return VertexFunction(vals, rel_tol * max(map(abs, vals), default=0.0))

    @property
    def n(self) -> int:
        return len(self.values)

    def sign(self, v: int) -> int:
        x = self.values[v - 1]
        if abs(x) <= self.zero_tolerance:
            return 0
        return 1 if x > 0 else -1

    def support(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.values, 1) if abs(x) > self.zero_tolerance)

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _as_values(f: "VertexFunction | Sequence[float] | np.ndarray", n: int) -> np.ndarray:
    """Coerce a vertex function to a length-n float array (index v-1)."""
    arr = f.array() if isinstance(f, VertexFunction) else np.asarray(f, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"function must have one value per vertex ({n}), got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MatrixBundle:
    """Adjacency, degrees, normalized Laplacian, and its symmetrization."""

    n: int
    a: np.ndarray
    deg: np.ndarray
    l: np.ndarray
    m: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with degree-orthonormal eigenfunctions.

    ``clusters`` lists (first index k, multiplicity r) per tolerance
    group, 1-based, covering 1..n in order.
    """

    eigenvalues: tuple[float, ...]
    functions: tuple[VertexFunction, ...]
    clusters: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def cluster_of(self, index: int) -> tuple[int, int]:
        """The (k, r) cluster containing the 1-based eigenvalue index."""
        for k, r in self.clusters:
            if k <= index <= k + r - 1:
                return k, r
        raise IndexError(f"eigenvalue index {index} out of range 1..{self.n}")


def _adjacency_int(h: SignedHypergraph) -> list[list[int]]:
    """Integer adjacency: a[i][j] sums edge signs over edges containing
    both i and j (0-based lists, zero diagonal, singleton edges add nothing).
    """
    a = [[0] * h.n for _ in range(h.n)]
    for u, w, s in h.pairs:
        a[u - 1][w - 1] += s
        a[w - 1][u - 1] += s
    return a


def adjacency(h: SignedHypergraph) -> np.ndarray:
    """The adjacency of ``_adjacency_int`` as floats, summed over the pair
    table in numpy; sums of +-1 are exact in float, in any order."""
    a = np.zeros((h.n, h.n))
    xs, ys, s = np.array(h.pairs, dtype=np.intp).reshape(-1, 3).T
    np.add.at(a, (xs - 1, ys - 1), s)
    np.add.at(a, (ys - 1, xs - 1), s)
    return a


def laplacian(h: SignedHypergraph) -> MatrixBundle:
    """L = I - D^-1 A and M = I - D^-1/2 A D^-1/2.

    Raises if any vertex has degree zero (isolated vertices have no
    normalized Laplacian row).
    """
    deg = np.asarray(degrees(h)[1:], dtype=float)
    if h.n == 0:
        raise ValueError("empty hypergraph has no Laplacian")
    if np.any(deg == 0):
        missing = [v + 1 for v in range(h.n) if deg[v] == 0]
        raise ValueError(f"isolated vertex: Laplacian undefined (vertices {missing})")
    a = adjacency(h)
    l = np.eye(h.n) - a / deg[:, None]
    root = np.sqrt(deg)
    m = np.eye(h.n) - a / np.outer(root, root)
    return MatrixBundle(h.n, a, deg, l, m)


def laplacian_exact(h: SignedHypergraph) -> list[list[Fraction]]:
    """The normalized Laplacian as exact rationals (small instances)."""
    deg = degrees(h)
    a = _adjacency_int(h)
    out: list[list[Fraction]] = []
    for i in range(h.n):
        if deg[i + 1] == 0:
            raise ValueError(f"isolated vertex: Laplacian undefined (vertices [{i + 1}])")
        row = [Fraction(int(i == j)) - Fraction(a[i][j], deg[i + 1]) for j in range(h.n)]
        out.append(row)
    return out


def weighted_inner(h: SignedHypergraph, f, g) -> float:
    """Degree-weighted inner product sum_v deg(v) f(v) g(v)."""
    deg = np.asarray(degrees(h)[1:], dtype=float)
    return float(np.dot(deg * _as_values(f, h.n), _as_values(g, h.n)))


def _cluster(eigenvalues: np.ndarray, cluster_tol: float) -> tuple[tuple[int, int], ...]:
    n = len(eigenvalues)
    spread = float(eigenvalues[-1] - eigenvalues[0]) if n else 0.0
    gap_floor = cluster_tol * spread
    clusters: list[tuple[int, int]] = []
    start = 0
    for i in range(1, n + 1):
        if i < n:
            gap = float(eigenvalues[i] - eigenvalues[i - 1])
            # exact ties always merge, even when the whole spectrum is flat
            if gap < gap_floor or gap == 0.0:
                continue
        clusters.append((start + 1, i - start))
        start = i
    return tuple(clusters)


def eigendecompose(bundle: MatrixBundle, cluster_tol: float = DEFAULT_CLUSTER_TOL,
                   zero_tol_rel: float = DEFAULT_ZERO_TOL_REL) -> Spectrum:
    """Dense symmetric eigendecomposition with tolerance clustering.

    Eigenvalues ascend; eigenfunctions are D-orthonormal, with zero
    tolerance ``zero_tol_rel`` times their max-norm; eigenvalues whose
    consecutive gaps fall below cluster_tol * (max - min) share a
    multiplicity cluster.  A cluster_tol that is negative or not finite is
    refused: NaN and negative values split every cluster, and an infinite
    one merges the whole spectrum.
    """
    if not (math.isfinite(cluster_tol) and cluster_tol >= 0.0):
        raise ValueError(f"cluster tolerance must be finite and nonnegative, got {cluster_tol!r}")
    m = bundle.m
    asym = float(np.max(np.abs(m - m.T)))
    if asym > _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"symmetrized Laplacian is not symmetric (defect {asym:.3e})")
    w, u = np.linalg.eigh((m + m.T) / 2.0)
    funcs = u / np.sqrt(bundle.deg)[:, None]
    functions = tuple(VertexFunction.from_values(col, rel_tol=zero_tol_rel)
                      for col in funcs.T.tolist())
    return Spectrum(tuple(float(x) for x in w), functions, _cluster(w, cluster_tol))


def rayleigh(h: SignedHypergraph, bundle: MatrixBundle, g) -> float:
    """Weighted Rayleigh quotient <Lg, g> / <g, g>; g must be nonzero."""
    vals = _as_values(g, bundle.n)
    denom = float(np.dot(bundle.deg * vals, vals))
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero function")
    num = float(np.dot(bundle.deg * (bundle.l @ vals), vals))
    return num / denom


def positive_inertia(s: np.ndarray) -> int:
    """Number of eigenvalues of a symmetric matrix above _INERTIA_TOL * ||S||_2."""
    s = np.asarray(s, dtype=float)
    w = np.linalg.eigvalsh((s + s.T) / 2.0)
    norm = float(np.max(np.abs(w))) if len(w) else 0.0
    return int(np.sum(w > _INERTIA_TOL * norm))


def nodal_quadratic_form(bundle: MatrixBundle, g, eigenvalue: float) -> np.ndarray:
    """Symmetric matrix S = D(g) Ddeg (L - lambda I) D(g) for an
    eigenfunction g of eigenvalue lambda.

    The Euclidean quadratic form f^T S f equals
    sum_{x<y adjacent} A_xy g(x) g(y) (f(x)-f(y))^2 for every f, so the
    coefficient of an unordered pair is a_xy = A_xy g(x) g(y).
    """
    gv = _as_values(g, bundle.n)
    scale = float(np.max(np.abs(gv))) or 1.0
    residual = float(np.max(np.abs(bundle.l @ gv - eigenvalue * gv)))
    if residual > _RESIDUAL_TOL * (1.0 + abs(eigenvalue)) * scale:
        raise ValueError(f"not an eigenfunction: residual {residual:.3e}")
    core = bundle.deg[:, None] * (bundle.l - eigenvalue * np.eye(bundle.n))
    s = gv[:, None] * core * gv[None, :]
    return (s + s.T) / 2.0


def chained_difference_rank(h: SignedHypergraph) -> tuple[int, int]:
    """Rank of the difference forms x_i - x_j chained within each edge.

    Every edge of size s contributes s-1 rows linking consecutive
    vertices in incidence order.  Returns (rank, number of rows).
    """
    rows: list[np.ndarray] = []
    for e in h.edges:
        vs = e.vertices
        for u, w in zip(vs, vs[1:]):
            row = np.zeros(h.n)
            row[u - 1] = 1.0
            row[w - 1] = -1.0
            rows.append(row)
    if not rows:
        return 0, 0
    mat = np.vstack(rows)
    return int(np.linalg.matrix_rank(mat)), len(rows)

"""Reference definitions that only the tests read.

Each computes one term of the bounds, one identity or one predicate,
the slow and plain way; the program computes the same from one pass
(over all rows in ``nodal._row_pass``, over the incidence graph in
``nodal.cyclic_vertices``), and the tests compare the two.
"""

import numpy as np

from shg.core import (
    CycleStats,
    Edge,
    SignedHypergraph,
    cyclomatic,
    degrees,
    induced_subhypergraph,
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

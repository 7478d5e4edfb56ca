"""Reference definitions that only the tests read.

Each computes one term of the bounds, or one identity, the slow and
plain way; the program computes the same from one pass over all rows
(``nodal._row_pass``), and the tests compare the two.
"""

import numpy as np

from shg.core import CycleStats, Edge, SignedHypergraph, cyclomatic, induced_subhypergraph


def support_cyclomatic(h, f) -> CycleStats:
    """Cyclomatic data of the subhypergraph induced on the support of f
    (edges truncated to nonzero vertices, empty truncations dropped): the
    l' of the bounds on h."""
    if f.n != h.n:
        raise ValueError(f"function has {f.n} values, hypergraph has {h.n} vertices")
    return cyclomatic(induced_subhypergraph(h, f.support()))


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

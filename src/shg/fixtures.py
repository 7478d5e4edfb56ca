"""The reference instance and its published numerical data.

The instance has nine vertices, three 3-edges forming a cycle through
the hub vertices 1, 3, 5, and a pendant 2-edge on each hub.  All
incidences are +, so the 3-edges have sign +1 and the 2-edges sign -1.

The published source for this instance prints its Laplacian with two
typos: entries (5,1) and (5,3) appear as 0 where the hypergraph forces
-1/3 (adjacency symmetry).  The published eigenvalues and eigenfunctions
(two-decimal precision) belong to the matrix as printed, so they are
kept verbatim here for raw-matrix comparisons, alongside the published
nodal-domain table.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import Edge, SignedHypergraph

__all__ = [
    "fixture_example1",
    "PRINTED_LAPLACIAN",
    "PRINTED_EIGENVALUES",
    "PRINTED_EIGENFUNCTIONS",
    "TABLE1_STRONG",
    "TABLE1_WEAK",
    "DISCREPANCY_NOTES",
    "printed_laplacian_array",
]


def fixture_example1() -> SignedHypergraph:
    """Nine vertices; edges {1,2,3}, {3,4,5}, {1,5,6}, {1,7}, {5,8},
    {3,9}, every incidence +."""
    def plus(*vs: int) -> Edge:
        return Edge(tuple((v, 1) for v in vs))

    return SignedHypergraph(9, (
        plus(1, 2, 3),
        plus(3, 4, 5),
        plus(1, 5, 6),
        plus(1, 7),
        plus(5, 8),
        plus(3, 9),
    ))


_F = Fraction
_T = _F(1, 3)

# Verbatim published matrix, including the (5,1) = (5,3) = 0 typos.
PRINTED_LAPLACIAN: tuple[tuple[Fraction, ...], ...] = (
    (_F(1), -_T, -_T, _F(0), -_T, -_T, _T, _F(0), _F(0)),
    (_F(-1), _F(1), _F(-1), _F(0), _F(0), _F(0), _F(0), _F(0), _F(0)),
    (-_T, -_T, _F(1), -_T, -_T, _F(0), _F(0), _F(0), _T),
    (_F(0), _F(0), _F(-1), _F(1), _F(-1), _F(0), _F(0), _F(0), _F(0)),
    (_F(0), _F(0), _F(0), -_T, _F(1), -_T, _F(0), _T, _F(0)),
    (_F(-1), _F(0), _F(0), _F(0), _F(-1), _F(1), _F(0), _F(0), _F(0)),
    (_F(1), _F(0), _F(0), _F(0), _F(0), _F(0), _F(1), _F(0), _F(0)),
    (_F(0), _F(0), _F(0), _F(0), _F(1), _F(0), _F(0), _F(1), _F(0)),
    (_F(0), _F(0), _F(1), _F(0), _F(0), _F(0), _F(0), _F(0), _F(1)),
)

PRINTED_EIGENVALUES: tuple[float, ...] = (-0.51, 0.22, 0.33, 1.0, 1.0, 1.0, 1.95, 2.0, 2.0)

PRINTED_EIGENFUNCTIONS: tuple[tuple[float, ...], ...] = (
    (-0.38, -0.50, -0.38, -0.38, -0.2, -0.38, 0.25, 0.13, 0.25),
    (-0.22, -0.56, -0.22, 0.19, 0.37, 0.19, 0.28, -0.47, 0.28),
    (0.3, 0.0, -0.3, -0.45, 0.0, 0.45, -0.45, 0.0, 0.45),
    (0.0, -0.38, 0.0, 0.47, 0.0, -0.33, -0.71, 0.14, 0.08),
    (0.0, -0.63, 0.0, 0.18, 0.0, 0.18, -0.44, 0.36, -0.45),
    (0.0, 0.4, 0.0, 0.37, 0.0, -0.3, 0.1, 0.07, 0.77),
    (-0.07, 0.16, -0.07, -0.45, 0.5, -0.45, -0.08, 0.53, -0.08),
    (0.09, 0.0, -0.09, -0.4, 0.49, -0.58, 0.09, 0.49, -0.09),
    (0.23, 0.0, -0.23, 0.64, -0.41, 0.18, 0.23, -0.41, -0.23),
)


# Published nodal-domain table, keyed by eigenfunction index; domains as
# ascending tuples, in the printed order.
TABLE1_STRONG: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1, 2, 3, 4, 5, 6, 7, 8, 9),),
    2: ((1, 2, 3, 7, 9), (4, 5, 6, 8)),
    3: ((1, 6, 7), (3, 4, 9)),
    4: ((2,), (4,), (6,), (7,), (8,), (9,)),
    5: ((2,), (4,), (6,), (7,), (8,), (9,)),
    6: ((2,), (4,), (6,), (7,), (8,), (9,)),
    7: ((2,), (5,), (7,), (8,), (9,), (1, 3, 4, 6)),
    8: ((1, 5, 8), (3, 4), (6,), (7,), (9,)),
    9: ((1, 6), (3, 5), (4,), (7,), (8,), (9,)),
}

TABLE1_WEAK: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((1, 2, 3, 4, 5, 6, 7, 8, 9),),
    2: ((1, 2, 3, 7, 9), (4, 5, 6, 8)),
    3: ((1, 2, 6, 7), (3, 4, 5, 8, 9)),
    4: ((2, 3, 9), (5, 6, 8), (4,), (1, 7)),
    5: ((1, 6, 7), (3, 4, 9), (2,), (5, 8)),
    6: ((1, 5, 6, 7, 8), (2, 3, 4), (9,)),
    7: ((2,), (5,), (7,), (8,), (9,), (1, 3, 4, 6)),
    8: ((1, 5, 8), (2, 3, 4), (6,), (7,), (9,)),
    9: ((1, 6), (2, 3, 5), (4,), (7,), (8,), (9,)),
}

# Known divergences between the published data and the definitions,
# carried into every report that touches the reference instance.
DISCREPANCY_NOTES: tuple[str, ...] = (
    "published matrix entries (5,1) and (5,3) are 0; the hypergraph "
    "forces -1/3 at both (adjacency symmetry with the printed (1,5) "
    "and (3,5) entries), so the corrected Laplacian differs there",
    "published eigenvalues/eigenfunctions were computed from the matrix "
    "as printed; against the corrected Laplacian the exact spectrum is "
    "-2/3, 1/3, 1/3, 1, 1, 1, 2, 2, 2",
    "published companion text states l = l_plus = 3 for this instance; "
    "the definitions give l = 1 and l_plus(f_1) = 1 on whole hyperedges "
    "and l = l_plus(f_1) = 4 on the signed clique expansion (the lower "
    "bound holds either way)",
    "published domain table assigns each zero to exactly one weak "
    "domain; the definitions allow a zero to join up to two closures, "
    "so only counts and nonzero cores are compared",
    "published domain table rows 4-6 and 8 are inconsistent with the "
    "definitions on this instance: row 8 strongly links 5 and 8 through "
    "the sign -1 edge {5,8} despite equal signs, and rows 4-6 miss weak "
    "links through the zero hubs (e.g. 2 and 6 connect through vertex 1 "
    "with sign product +1), giving weak counts 2, 2, 2 instead of the "
    "printed 4, 4, 3; rows 1, 2, 3, 7 are reproduced exactly",
)


def printed_laplacian_array() -> np.ndarray:
    """The published matrix as floats."""
    return np.array([[float(x) for x in row] for row in PRINTED_LAPLACIAN])

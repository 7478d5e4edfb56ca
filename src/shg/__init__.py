"""Spectra and nodal domains of signed hypergraphs.

A signed hypergraph carries a sign on every vertex-edge incidence; the
sign of an edge is (-1)^(size-1) times the product of its incidence
signs.  The package builds the normalized Laplacian I - D^-1 A of such
instances, decomposes vertex functions into strong and weak nodal
domains, checks the eigenvalue-indexed domain-count bounds, and runs a
randomized invariant campaign with a brute-force oracle.
"""

__version__ = "0.1.0"

from .core import (
    CycleStats,
    Edge,
    Relabeled,
    SignedHypergraph,
    UnionFind,
    VertexPartition,
    connected_components,
    cyclomatic,
    degree,
    degrees,
    edge_sign,
    hyperneighbors,
    incident_edges,
    induced_subhypergraph,
    is_acyclic,
    is_tree_like,
    lies_on_cycle,
    spanning_hyperforest,
    weak_delete,
)
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_ZERO_TOL_REL,
    MatrixBundle,
    Spectrum,
    VertexFunction,
    adjacency,
    adjacency_int,
    chained_difference_rank,
    eigendecompose,
    laplacian,
    laplacian_exact,
    nodal_quadratic_form,
    positive_inertia,
    product_rule_defect,
    rayleigh,
    weighted_inner,
)
from .nodal import (
    BoundReport,
    DomainGraph,
    FiedlerSets,
    NodalDecomposition,
    bounds_table,
    check_bounds,
    counts,
    decompose,
    domain_adjacency_graph,
    fiedler_sets,
    forest_count_diagnostic,
    l_plus,
    strong_domains,
    support_cyclomatic,
    weak_domains,
)
from .shgio import ParseError, parse, serialize
from .fixtures import (
    DISCREPANCY_NOTES,
    PRINTED_EIGENFUNCTIONS,
    PRINTED_EIGENVALUES,
    PRINTED_LAPLACIAN,
    fixture_example1,
    printed_laplacian_array,
)
from .verify import (
    ALL_PROPERTY_IDS,
    CampaignResult,
    FailureRecord,
    GenConfig,
    generate,
    generate_supertree,
    oracle_domains,
    rerun_property,
    run_campaign,
)
from .report import (
    REPORT_SCHEMA,
    aligned_text,
    build_report,
    csv_matrix,
    input_digest,
    report_json,
)

__all__ = [
    "__version__",
    # core
    "CycleStats", "Edge", "Relabeled", "SignedHypergraph", "UnionFind",
    "VertexPartition", "connected_components", "cyclomatic", "degree",
    "degrees", "edge_sign", "hyperneighbors", "incident_edges",
    "induced_subhypergraph", "is_acyclic", "is_tree_like", "lies_on_cycle",
    "spanning_hyperforest", "weak_delete",
    # spectra
    "DEFAULT_CLUSTER_TOL", "DEFAULT_ZERO_TOL_REL", "MatrixBundle",
    "Spectrum", "VertexFunction", "adjacency", "adjacency_int",
    "chained_difference_rank", "eigendecompose", "laplacian",
    "laplacian_exact", "nodal_quadratic_form", "positive_inertia",
    "product_rule_defect", "rayleigh", "weighted_inner",
    # nodal
    "BoundReport", "DomainGraph", "FiedlerSets", "NodalDecomposition",
    "bounds_table", "check_bounds", "counts", "decompose", "domain_adjacency_graph",
    "fiedler_sets", "forest_count_diagnostic", "l_plus", "strong_domains",
    "support_cyclomatic", "weak_domains",
    # io
    "ParseError", "parse", "serialize",
    # fixtures
    "DISCREPANCY_NOTES", "PRINTED_EIGENFUNCTIONS", "PRINTED_EIGENVALUES",
    "PRINTED_LAPLACIAN", "fixture_example1", "printed_laplacian_array",
    # verify
    "ALL_PROPERTY_IDS", "CampaignResult", "FailureRecord", "GenConfig",
    "generate", "generate_supertree", "oracle_domains", "rerun_property",
    "run_campaign",
    # report
    "REPORT_SCHEMA", "aligned_text", "build_report", "csv_matrix",
    "input_digest", "report_json",
]

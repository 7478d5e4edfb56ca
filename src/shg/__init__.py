"""Spectra and nodal domains of signed hypergraphs.

A signed hypergraph carries a sign on every vertex-edge incidence; the
sign of an edge is (-1)^(size-1) times the product of its incidence
signs.  The package builds the normalized Laplacian I - D^-1 A of such
instances, decomposes vertex functions into strong and weak nodal
domains, checks the eigenvalue-indexed domain-count bounds, and runs a
randomized invariant campaign with a brute-force oracle.

The top level exports what the library tour, the command line, the
report and the campaign hand to a user; the building blocks stay
importable from their submodules (``shg.core``, ``shg.spectra``,
``shg.nodal``, ``shg.verify``).
"""

__version__ = "0.1.0"

from .core import Edge, SignedHypergraph
from .spectra import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_ZERO_TOL_REL,
    Spectrum,
    VertexFunction,
    eigendecompose,
    laplacian,
    laplacian_exact,
)
from .nodal import (
    Analysis,
    BoundReport,
    FiedlerSets,
    NodalDecomposition,
    decompose,
    fiedler_sets,
)
from .shgio import ParseError, parse, serialize
from .fixtures import fixture_example1
from .verify import (
    CampaignResult,
    FailureRecord,
    GenConfig,
    generate,
    oracle_domains,
    rerun_property,
    run_campaign,
)
from .report import REPORT_SCHEMA, aligned_text, build_report, input_digest, report_json

__all__ = [
    "__version__",
    # core
    "Edge", "SignedHypergraph",
    # spectra
    "DEFAULT_CLUSTER_TOL", "DEFAULT_ZERO_TOL_REL", "Spectrum", "VertexFunction",
    "eigendecompose", "laplacian", "laplacian_exact",
    # nodal
    "Analysis", "BoundReport", "FiedlerSets", "NodalDecomposition", "decompose",
    "fiedler_sets",
    # io
    "ParseError", "parse", "serialize",
    # fixtures
    "fixture_example1",
    # verify
    "CampaignResult", "FailureRecord", "GenConfig", "generate", "oracle_domains",
    "rerun_property", "run_campaign",
    # report
    "REPORT_SCHEMA", "aligned_text", "build_report", "input_digest", "report_json",
]

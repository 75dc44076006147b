"""treeforge: exact spanning-tree counts and minimal graphs realizing them.

For any n >= 3 the library constructs a small simple graph with exactly n
spanning trees, certifies the count with exact integer arithmetic, and can
compute the extremal functions alpha(n) (fewest vertices) and beta(n)
(fewest edges) by exhaustive isomorphism-free search.
"""

from .graph_core import (
    GraphError,
    Multigraph,
    SimpleGraphCertificate,
    add_path,
    are_isomorphic,
    canonical_form,
    certify_simple,
    complete_graph,
    contract_edge,
    cycle_graph,
    delete_edge,
    is_simple,
    is_two_edge_connected,
    path_graph,
)
from .tree_count import TreeCount, tau_dc, tau_matrix, tau_subdivision, subdivide
from .constructions import (
    BouquetSpec,
    ThetaSpec,
    VariantSpec,
    build_bouquet,
    build_cycle_glue,
    build_generalized_theta,
    build_theta,
    build_variant,
    parse_construction,
    tau_bouquet,
    tau_generalized_theta,
    tau_theta,
    tau_variant,
)
from .idoneal import (
    EULER_IDONEAL_NUMBERS,
    Representation,
    cheapest_theta,
    is_idoneal,
    strict_representations,
    theta_representations,
)
from .minimal_builder import (
    BETA_EXCEPTIONS,
    BoundReport,
    ExceptionClass,
    QUARTER_EXCEPTIONS,
    Strategy,
    Witness,
    build_witness,
    check_bounds,
)
from .search_oracle import (
    SearchKind,
    SearchResult,
    Skeleton,
    alpha_exact,
    beta_exact,
    enumerate_connected_graphs,
    enumerate_skeletons,
    verify_no_smaller_graph,
)

__version__ = "0.1.0"

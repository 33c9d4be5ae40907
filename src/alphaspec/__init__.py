"""alphaspec: alpha-spectral radius of graphs with given matching number.

The library computes the largest eigenvalue of alpha*D(G) + A(G),
classifies which graph maximizes it among all graphs of order n with
matching number beta, and verifies the classification exhaustively at
small order and by structured family search at larger order.
"""

from .graphs import (
    ComponentDecomposition,
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    induced_subgraph,
    is_connected,
    join,
    parse_edge_list,
    parse_graph6,
    path_graph,
    read_graph6_file,
    star_graph,
    to_edge_list,
    to_graph6,
    union_all,
)
from .matching import (
    TutteBergeWitness,
    has_perfect_matching,
    matching_number,
    matching_number_oracle,
    maximum_matching,
    tutte_berge_witness,
)
from .spectral import (
    FamilyBatch,
    JoinFamily,
    SpectralResult,
    alpha_matrix,
    closed_form_complete_split,
    complete_split_family,
    complete_split_graph,
    cubic_f,
    family_radius,
    one_clique_family,
    shift_function_f,
    spectral_radii,
    spectral_radius,
    spectral_radius_oracle,
    split_graph_quadratic,
)
from .theorem import (
    ABOVE,
    BELOW,
    COMPLETE,
    COMPLETE_SPLIT,
    EMPTY,
    EMPTY_GRAPH,
    FULL,
    ODD_CLIQUE_PLUS_ISOLATES,
    THRESHOLD,
    RegimeVerdict,
    as_fraction,
    case2_applicable,
    case2_sample_check,
    classify_regime,
    predicted_bound,
    threshold_n_star,
)
from .enumeration import (
    KNOWN_CLASS_COUNTS,
    are_isomorphic,
    canonical_graph,
    canonical_key,
    enumerate_graphs,
    isomorphism_classes,
)
from .verify import (
    FamilySearchResult,
    VerificationReport,
    candidate_families,
    exhaustive_max,
    family_count,
    family_search,
    shift_monotonicity_check,
    verify_order,
)

__version__ = "0.1.0"

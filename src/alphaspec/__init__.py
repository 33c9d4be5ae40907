"""alphaspec: alpha-spectral radius of graphs with given matching number.

The library computes the largest eigenvalue of alpha*D(G) + A(G),
classifies which graph maximizes it among all graphs of order n with
matching number beta, and verifies the classification exhaustively at
small order and by structured family search at larger order.
"""

from .graphs import (
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    join,
    parse_edge_list,
    parse_graph6,
    path_graph,
    read_graph6_file,
    star_graph,
    to_graph6,
)
from .matching import (
    TutteBergeWitness,
    matching_number,
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
    family_radius,
    one_clique_family,
    spectral_radii,
    spectral_radius,
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
    classify_regime,
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
    family_count,
    family_search,
    shift_monotonicity_check,
    verify_order,
)

__version__ = "0.1.0"

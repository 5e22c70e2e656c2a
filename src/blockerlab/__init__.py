"""blockerlab: blocker problems on graphs.

Given a graph, find a smallest set of edge contractions, vertex deletions or
edge deletions that reduces a target parameter (independence number, clique
number, chromatic number) by a required amount.  The package pairs
polynomial solvers for structured inputs (bipartite contraction blocking,
cograph colouring budgets) with brute-force oracles and executable hardness
gadgets, so every answer ships with a checkable witness.
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    Graph,
    contains_induced,
    contract_edges,
    delete_edges,
    delete_vertices,
    is_forest,
    restriction,
)
from .cotree import Cotree, build_cotree, cotree_sexpr, realize_cotree  # noqa: F401
from .parameters import (  # noqa: F401
    ParameterValue,
    alpha_bipartite,
    alpha_chordal,
    alpha_exact,
    chi_exact,
    mu_bipartite,
    omega_exact,
    tau_from_alpha,
)
from .recognizers import (  # noqa: F401
    Bipartition,
    CotreeCertificate,
    EliminationOrder,
    MultipartiteParts,
    NotInClass,
    recognize_bipartite,
    recognize_chordal,
    recognize_cograph,
    recognize_complete_multipartite,
)
from .bipartite_blocker import (  # noqa: F401
    BlockerOutcome,
    ContractionWitness,
    alpha_after_contraction_bipartite,
    build_contraction_tree,
    solve_bipartite_contraction_blocker,
)
from .monochromatic import (  # noqa: F401
    count_monochromatic_edges,
    has_property_one,
    lambda_merge,
    lambda_val,
    min_mono_edges_deficiency,
    min_mono_edges_fixed_h,
    recolour_module,
)
from .reductions import (  # noqa: F401
    MssInstance,
    SatInstance,
    assignment_to_contraction_set,
    assignment_to_deletion_set,
    build_chordal_gadget,
    build_mss_gadget,
    build_vc_gadget,
    colouring_to_partition,
    contraction_set_to_assignment,
    contraction_set_to_vc,
    deletion_set_to_assignment,
    partition_to_colouring,
    vc_to_contraction_set,
)
from .oracle import (  # noqa: F401
    BlockerQuery,
    OracleAnswer,
    brute_blocker,
    brute_blocker_decision,
    brute_min_mono,
    brute_mss,
    is_contraction_critical,
    is_minimal_critical,
)
from .catalogue import graph_catalogue  # noqa: F401

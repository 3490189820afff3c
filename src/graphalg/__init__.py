"""Exact algebraic invariants of graphs with boundary.

Networks (graphs with boundary plus a generalized Laplacian) carry a
family of algebraic invariants computed here over Z, Z/n, and Q/Z with
exact arithmetic: the fundamental module and critical group, modules of
harmonic functions vanishing on the boundary, layer-stripping and
harmonic continuation, planar duality, and functoriality along graph
morphisms and covering maps.
"""

from .exact_algebra import (
    ExactMatrix,
    Mod,
    ModuleDecomposition,
    SnfResult,
    charpoly,
    cokernel,
    determinant,
    kernel_QmodZ_torsion,
    kernel_mod_n,
    rank_over_Q,
    smith_diagonal,
    snf,
)
from .partial_graph import (
    DGraphMorphism,
    PartialGraph,
    SubGraph,
    bipartite_double_cover,
    box_product,
    compose,
    disjoint_union,
    identity_morphism,
    is_covering_map,
    is_unramified,
    validate_morphism,
    wedge_sum,
)
from .network import (
    Network,
    VertexFunction,
    U0_QmodZ,
    U0_mod_n,
    apply_L,
    in_U0,
    interior_block,
    is_harmonic,
    is_nondegenerate,
    laplacian_matrix,
    pullback_harmonic,
    pushforward_U0,
    validate_network_morphism,
)
from .fundamental import (
    UpsilonReport,
    charpoly_divisibility_check,
    critical_group,
    eigen_multiplicity,
    laplacian_charpoly,
    spanning_tree_count,
    torsion_crosscheck,
    upsilon,
    upsilon_reduced,
)
from .layering import (
    Filtration,
    LayerOp,
    apply_op,
    apply_op_network,
    degenerate_weights_general,
    degenerate_weights_normalized,
    find_strippable,
    find_wedge_split,
    interiorize,
    is_completely_reducible,
    is_flower,
    is_irreducible,
    is_layerable,
    reduce_to_flower,
    standard_form_filtration,
)
from .continuation import (
    BoundaryTransform,
    ContinuationPlan,
    complementary_plan,
    continuation_plan,
    continue_harmonic,
    edge_transform,
    find_layering_set,
    initial_transform,
    invariant_factor_bound,
    is_symplectic,
    multiplicity_bound_check,
    spike_transform,
    symplectic_form,
    u0_matrix_A,
    u0_mod_n_via_continuation,
    u0_via_continuation,
)

from .planar import (
    DualNetwork,
    EmbeddedPartialGraph,
    Face,
    double_dual_is_isomorphic,
    dual,
    harmonic_conjugate,
    trace_faces,
    validate_embedding,
    verify_duality,
)
from .families import (
    clf,
    clf_prime,
    clf_prime_isomorphism,
    complete_bipartite_bi,
    complete_graph,
    cube,
    cycle,
    rotation_action,
    wheel,
)

__version__ = "0.1.0"

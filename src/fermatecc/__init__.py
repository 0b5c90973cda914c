"""Fermat (Steiner-3) eccentricities, Zagreb-Fermat indices, and
mechanical verification of their comparison inequalities."""

from .errors import (
    ConnectivityError,
    GraphError,
    InternalError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .fermat import (
    FermatProfile,
    FermatWitness,
    eps3_oracle,
    eps3_profile,
    eps3_pruned,
    eps3_tree,
    fermat_distance,
    fermat_vertices,
)
from .generators import (
    TreeDecoration,
    bicyclic_delta_formula,
    cycle,
    decorate_tree,
    dumbbell,
    enumerate_bicyclic,
    enumerate_free_trees,
    enumerate_unicyclic,
    multicyclic_delta_formula,
    path,
    random_connected,
    random_tree,
    random_unicyclic,
    star,
    theta,
    two_cycles_with_tail,
)
from .graph import (
    Ecc2Profile,
    Graph,
    GraphClass,
    GraphKind,
    all_pairs_distances,
    bfs_distances,
    classify,
    eccentricity2_profile,
    from_graph6,
    is_connected,
    make_graph,
    parse_edge_list,
    to_edge_list,
    to_graph6,
)
from .indices import (
    Comparison,
    IndexReport,
    compare_averages,
    full_report,
)
from .verify import (
    CheckOutcome,
    SweepSummary,
    check_cyclic_sequence,
    check_diametrical_lemmas,
    check_eccentric_analogue,
    check_edge_lipschitz,
    is_path_graph,
    search_counterexample,
    sweep_class,
    verify_main_inequality,
)

__version__ = "0.1.0"

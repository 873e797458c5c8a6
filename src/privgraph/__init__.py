"""privgraph: differentially private synthetic attributed graphs with
fused Gromov-Wasserstein utility guarantees."""

__version__ = "0.1.0"  # the manifest's "version"; defined before the submodules load

from .space import (
    SpaceConfig,
    Partition,
    AttributeDataset,
    build_grid_partition,
    cell_indices,
    load_points_csv,
)
from .noise import (
    NoiseSpec,
    discrete_laplace,
    pmf,
    sample,
    expected_abs,
    dp_ratio_satisfied,
)
from .measures import (
    PrivateMeasureResult,
    true_counts,
    tv_project,
    run_private_measure,
)
from .graphs import (
    Kernel,
    AttributedGraph,
    chung_lu,
    constant_kernel,
    inverse_distance,
    kernel_matrix,
    graph_to_json,
    graph_from_json,
    graph_to_dot,
)
from .generator import (
    CoupledGraphs,
    generate_coupled_graphs,
)
from .fgw import (
    FgwParams,
    graph_to_measure,
    fgw_cost,
    exact_small_search,
    fgw_upper_bound,
    matched_plan_cost,
    plan_coupling,
    plan_cost_exact,
    mc_expected_fgw,
    ipm_lower_bound,
    reference_graphs,
    spawn_streams,
    worst_pair_cost,
)
from .bounds import (
    BoundInputs,
    BoundTerms,
    cost_rates,
    expected_fgw_bound,
    expected_fgw_bound_grid,
    stein_constants,
    distribution_bound,
    distribution_bound_grid,
    optimal_params,
    rate_bounds,
    bound_table,
    bound_report,
)

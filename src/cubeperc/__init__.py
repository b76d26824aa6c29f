"""Percolation laboratory for the d-dimensional binary cube.

Fast reproducible Monte Carlo on Q^d_p with component statistics, the
analytic fixed-point law of the supercritical phase, and exact brute-force
oracles at desk scale.
"""

from .components import (
    ComponentLabeling,
    ExplorationResult,
    WSet,
    distance_to_set,
    explore_component,
    label_components,
    size_gap_count,
    w_set,
    write_histogram_csv,
)
from .errors import CapacityError, ConfigError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    parse_config_file,
    run_experiment,
    write_report,
)
from .hypercube import (
    CubeGraph,
    EdgeRef,
    edge_endpoint_arrays,
    edge_from_index,
    edge_index,
    export_adjacency,
    neighbors,
)
from .oracles import (
    HarperReport,
    PercolationDistribution,
    SmallGraph,
    count_subtrees,
    edge_boundary,
    exact_percolation_distribution,
    harper_check,
)
from .sampler import (
    BitStream,
    EdgeKeyedBitSource,
    EdgeSample,
    SampleKey,
    SprinklingSplit,
    read_sample,
    sample_edges,
    split_probability,
    uniform01,
    write_sample,
)
from .theory import (
    GWParams,
    TreeCountBound,
    binom_tail_geq,
    chernoff_interval_bound,
    gw_extinction,
    gw_survival_limit_check,
    second_component_bound,
    solve_y,
    subcritical_bound,
    tree_count_bound,
)

__version__ = "0.1.0"

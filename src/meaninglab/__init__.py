"""meaninglab: a simulation lab for reasoning over noisy symbol graphs.

A hidden meaning graph is observed only through sampled symbol graphs:
each concept appears as several replicas, edges survive or appear with
channel-dependent probabilities, and similarity measurements add noise of
their own. The package samples these observations, runs the connectivity
separator on them, estimates its hypothesis separation, evaluates the
matching closed-form bounds, and probes the spectral closeness of
coupled cut worlds.
"""

from .bounds import (
    BoundReport,
    GilbertBounds,
    bound_report,
    gilbert_bounds,
    laplacian_diff_bound,
    lb_connected,
    theorem_preconditions,
    ub_disconnected,
    ub_disconnected_raw,
)
from .experiments import (
    DISCONNECTED,
    HeatmapTable,
    distance_cap,
    emit_heatmap_csv,
    emit_svg_heatmap,
    heatmap,
)
from .graph import (
    Graph,
    bfs_distance,
    bfs_distances,
    components,
    min_cut,
    write_edge_list,
)
from .meaning import (
    CutPair,
    MeaningGraph,
    NontrivialityReport,
    TriplesFormatError,
    check_nontrivial,
    gen_er,
    load_triples,
    make_cut_pair,
    pick_disconnected_pair,
    pick_pair_at_distance,
)
from .reasoning import (
    DTildeMode,
    GammaEstimate,
    Hypothesis,
    NoFixtureError,
    choose_d_tilde,
    estimate_gamma,
    separator,
    wilson_interval,
)
from .sampler import (
    PairClass,
    SampleParams,
    SymbolGraph,
    edge_probability,
    fold_noise,
    read_symbol_graph,
    sample_coupled,
    sample_symbol_graph,
    write_symbol_graph,
)
from .spectral import (
    SpectralNormResult,
    SpectralTrial,
    coupled_cut_trial,
    laplacian_of,
    spectral_norm,
)

__version__ = "0.1.0"

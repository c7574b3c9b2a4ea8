"""Continuous-time classical and quantum walks on chains with side vertices.

Builds the model graphs, evolves both walk types exactly, extracts
first-passage densities by Volterra deconvolution, and provides the
coherence diagnostics and ancillary absorber estimators. The ``ctwalk``
command line (``cli``) drives every experiment.
"""

from .classical import (
    ProbabilitySeries,
    RateMatrix,
    build_rate_matrix,
    evolve_master,
    mfpt_linear_solve,
    stationary_distribution,
    survival_horizon,
    vertex_occupations,
)
from .coherence import (
    average_entropy,
    entropy_series,
    reduce_density,
    von_neumann_entropy,
)
from .errors import (
    DegenerateNormalizationError,
    GridMismatchError,
    NotBipartiteError,
    NoZeroCrossingError,
    NumericsError,
    StepInstabilityError,
    UnknownVertexError,
    ValidationError,
    ZeroNormError,
)
from .experiments import (
    Deltas,
    EntropyStudy,
    PowerLawFit,
    SweepRecord,
    cached_run_case,
    delta_table,
    entropy_study,
    fit_power_law,
    offset_study,
    run_case,
    side_chain_deltas,
    speedup_fit,
    sweep,
)
from .first_passage import (
    FirstPassageResult,
    cumulative_mass,
    deconvolve,
    detect_tau0,
    extract_first_passage,
    first_passage_result,
    mean_fpt,
    reconstruct,
)
from .gillespie import (
    FirstPassageHistogram,
    gillespie_first_passage,
    histogram_density_l1,
)
from .graphs import (
    ColorAssignment,
    Graph,
    SideChainConfig,
    attach_sticky_vertex,
    bipartite_coloring,
    build_side_chain_graph,
    dress_with_ring,
    from_edge_list_text,
    path_graph,
    to_edge_list_text,
)
from .grid import TimeGrid
from .open_quantum import (
    AncillaryFirstPassage,
    DensityMatrixSeries,
    LindbladConfig,
    complement_flux,
    evolve_lindblad,
    overlay_l2_error,
    ring_first_passage,
    sticky_first_passage,
)
from .quantum import (
    AmplitudeSeries,
    build_hamiltonian,
    evolve_schrodinger,
    occupation,
    transition_probabilities,
)

__version__ = "0.1.0"

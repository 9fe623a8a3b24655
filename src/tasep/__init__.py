"""Discrete-time parallel-update exclusion processes on rings, lines and lattices.

Simulation of the synchronous hard-core dynamics (homogeneous, heterogeneous
ball sizes, static obstacles), construction of the stochastic and
maximal-entropy Markov measure families, exact one-step stationarity
verification on cylinders, and fundamental-diagram / stochastic-stability
experiments.
"""

from .configuration import (
    LINE,
    AdmissibilityError,
    AdmissibilityReport,
    Configuration,
    LineWindow,
    ProcessParams,
    Ring,
    check_admissible,
    decode_word,
    density,
    encode_word,
    even_lattice_ring,
    evenly_spaced_ring,
    gaps,
    radius_conjugate,
    read_configuration_csv,
    scale_shift,
    write_configuration_csv,
)
from .dynamics import (
    CoinStream,
    CoupledRun,
    ObstacleField,
    TrajectorySummary,
    coupled_run,
    run,
    step,
)
from .invariance import (
    MarkovIdentityReport,
    PushforwardReport,
    markov_identity_check,
    one_step_cylinder_pushforward,
    verify_invariance,
)
from .measures import (
    MarkovMatrix,
    TransitionStructure,
    build_invariant_matrix,
    cylinder_measure,
    empirical_cylinder_frequency,
    parry_matrix,
    periodic_point_count,
    periodic_points,
    sample_ring_configuration,
    sample_ring_word,
    solve_parameter,
)
from .velocity import (
    FundamentalDiagramRow,
    SimilarityReport,
    StabilityRow,
    VelocityEstimate,
    estimate_velocity,
    extend_obstacles,
    finite_ring_velocity,
    fundamental_diagram,
    similarity_check,
    stability_sweep,
    theoretical_velocity,
    theoretical_velocity_obstacles,
)

__version__ = "0.3.0"

"""Coupling-map-aware compiler and simulator for GHZ-family experiments.

Builds GHZ, envariance and parity-learning circuits that respect a device's
directed CNOT connectivity, simulates them exactly, and reproduces the
associated measurements: output histograms, Bhattacharyya fidelity, and
parity-learner error curves.
"""

from .analysis import (
    FidelityReport,
    LearningOutcome,
    bhattacharyya,
    fidelity_experiment,
    majority_vote,
    parity_learn,
    path_for,
    perr_curve,
    two_peak_distribution,
)
from .circuits import (
    Circuit,
    Gate,
    IllegalCouplingError,
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    cnot_legal,
    effective_a,
    emit_qasm,
    verify_legality,
    with_measurements,
)
from .coupling import (
    CouplingMap,
    MapFormatError,
    bundled_map,
    line_map,
    load_map,
    load_map_file,
    most_connected,
    rank_all,
    resolve_map,
)
from .paths import ConnectionPath, UnreachableQubitsError, create_path
from .simulator import (
    NoisySampleConfig,
    exact_distribution,
    sample,
    sample_noisy_oracle,
)

__version__ = "0.1.0"

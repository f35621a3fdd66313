"""Coupling-map-aware compiler and simulator for GHZ-family experiments.

Builds GHZ, envariance and parity-learning circuits that respect a device's
directed CNOT connectivity, simulates them exactly, and reproduces the
associated measurements: output histograms, Bhattacharyya fidelity, and
parity-learner error curves.

The simulator and analysis modules need numpy; they load on first use of
one of their names (PEP 562), so importing the package and compiling
circuits load no numpy.
"""

import importlib

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
)
from .coupling import (
    CouplingMap,
    MapFormatError,
    bundled_map,
    load_map,
    load_map_file,
    most_connected,
    rank_all,
    resolve_map,
)
from .paths import ConnectionPath, UnreachableQubitsError, create_path, path_for

__version__ = "0.1.0"

_LAZY = {
    "analysis": None,
    "kernels": None,
    "simulator": None,
    "bhattacharyya": "analysis",
    "perr_curve": "analysis",
    "two_peak_distribution": "analysis",
    "NoisySampleConfig": "simulator",
    "sample": "simulator",
    "sample_noisy_oracle": "simulator",
}


def __getattr__(name):
    # Not cached here: a name patched in its own module (by a test or a
    # tracer) reads the same through the package.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _LAZY[name]
    if module is None:
        return importlib.import_module(f"{__name__}.{name}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

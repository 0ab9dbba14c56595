"""Interacting two-colour urns with multiple drawings on finite graphs.

Simulation of the exact integer-ball process, spectral analysis of the
model matrices, closed-form limit/fluctuation predictions, and replicated
Monte Carlo verification.
"""

from .dynamics import EnsembleTrajectories, ModelConfig, simulate_ensemble
from .experiments import (
    fluctuation_estimate,
    manifold_distance,
    rate_fit,
    sync_metrics,
    verify,
)
from .graphs import GraphSpec, load_edge_file, matrices, parse_edge_list
from .spectral import SpectralData, eigendecompose, nullspace
from .theory import (
    ClassificationReport,
    DecayPrediction,
    DriftModel,
    FluctuationReport,
    LimitSet,
    Params,
    Problem,
    classify,
    decay_exponents,
    drift_model,
    fluctuation,
    limit_set,
    stability,
)

__version__ = "0.1.0"

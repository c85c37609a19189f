"""Arboviral transmission model toolkit.

Threshold and equilibrium analysis (including backward-bifurcation
detection), Latin-hypercube/PRCC global sensitivity, Pontryagin optimal
control of five interventions, and cost-effectiveness ranking, for a
ten-compartment human-vector-aquatic dengue-type model.
"""

from .model import (
    ControlParams, ModelParams, ParamError, ZeroPopulationError,
    basic_field, controlled_field, derive_constants,
)
from .ode import TimeGrid, Trajectory, rk4_forward
from .thresholds import (
    ThresholdError, ThresholdReport, basic_reproduction_number,
    bifurcation_thresholds, dfe_components, net_reproductive_number,
    threshold_arrays,
)

__version__ = "0.1.0"

SPEC_VERSION = "1.0"

__all__ = [
    "ControlParams", "ModelParams", "ParamError", "SPEC_VERSION",
    "ThresholdError", "ThresholdReport", "TimeGrid", "Trajectory",
    "ZeroPopulationError", "basic_field", "basic_reproduction_number",
    "bifurcation_thresholds", "controlled_field", "derive_constants",
    "dfe_components", "net_reproductive_number", "rk4_forward",
    "threshold_arrays",
]

"""Invariant tracking and estimation on the planar rigid motions.

A wheeled robot measured through squared distances to known landmarks,
with a symmetry-preserving observer and tracking controller whose error
dynamics freeze into constant linear systems along constant-input
reference paths, so the two designs can be certified separately and then
composed.
"""

from .closed_loop import (
    Scenario,
    SimulationResult,
    closed_loop_error_field,
    controller_error_field,
    observer_error_field,
    separation_matrix,
    simulate,
)
from .controller import ControllerGains, ctrl_loop_matrix
from .errors import (
    DegenerateReferenceError,
    DivergenceError,
    GeometryError,
    InvtrackError,
    LogBranchError,
    ScenarioError,
)
from .numerics import time_invariance_probe
from .observer import ObserverGains, gain_matrix, obs_error_matrix, observer_field
from .robot import LandmarkSet, Measurement, RobotInput, dynamics, invariance_residual, measure
from .scenario import parse_scenario
from .se2 import GroupElement, TangentVector, compose, exp, inverse, log, transport_tangent
from .trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    Segment,
    permanence_probe,
)

__version__ = "0.1.0"

__all__ = [
    "ControllerGains",
    "DegenerateReferenceError",
    "DivergenceError",
    "GeometryError",
    "GroupElement",
    "IntegratedTrajectory",
    "InvtrackError",
    "LandmarkSet",
    "LogBranchError",
    "Measurement",
    "ObserverGains",
    "PermanentTrajectory",
    "PiecewiseTrajectory",
    "RobotInput",
    "Scenario",
    "ScenarioError",
    "Segment",
    "SimulationResult",
    "TangentVector",
    "closed_loop_error_field",
    "compose",
    "controller_error_field",
    "ctrl_loop_matrix",
    "dynamics",
    "exp",
    "gain_matrix",
    "invariance_residual",
    "inverse",
    "log",
    "measure",
    "obs_error_matrix",
    "observer_error_field",
    "observer_field",
    "parse_scenario",
    "permanence_probe",
    "separation_matrix",
    "simulate",
    "time_invariance_probe",
    "transport_tangent",
    "__version__",
]

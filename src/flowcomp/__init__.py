"""Turing machines compiled into planar gradient flows and Beltrami lifts."""

from .beltrami import Poly2, beltrami_from_potential, residuals
from .field import FieldSpec, error_schedule, field_eval_plane, potential_plane
from .logmag import LogMagnitude
from .machine import (
    Configuration,
    EncodedPoint,
    MachineSpec,
    TapeBoundedSpec,
    encode,
    enumerate_inputs,
    load_machine,
    parse_machine,
    run,
    run_bounded,
    step,
)
from .robust import contraction_check, resource_estimate, sample_perturbation
from .simulate import (
    HaltingSetSpec,
    simulate_bounded,
    simulate_input,
)
from .sphere import delta_threshold, discrete_orbit_verdict

__all__ = [
    "Configuration",
    "EncodedPoint",
    "FieldSpec",
    "HaltingSetSpec",
    "LogMagnitude",
    "MachineSpec",
    "Poly2",
    "TapeBoundedSpec",
    "beltrami_from_potential",
    "contraction_check",
    "delta_threshold",
    "discrete_orbit_verdict",
    "encode",
    "enumerate_inputs",
    "error_schedule",
    "field_eval_plane",
    "load_machine",
    "parse_machine",
    "potential_plane",
    "residuals",
    "resource_estimate",
    "run",
    "run_bounded",
    "sample_perturbation",
    "simulate_bounded",
    "simulate_input",
    "step",
]

__version__ = "0.1.0"

"""Discrete-event co-execution engine and model validation.

The shared clock — canonical boundary tolerance, typed event log, and
the phase kernel (scalar and batch) every simulator adapts — lives in
:mod:`repro.simulate.kernel`.
"""

from .engine import (
    BatchSimulationResult,
    SimulationResult,
    simulate_schedule,
    simulate_schedule_batch,
)
from .kernel import (
    ABS_TOL,
    REL_TOL,
    Event,
    EventLog,
    at_or_before,
    boundary_tol,
    run_phase_kernel,
    run_phase_kernel_batch,
)
from .validation import ValidationReport, validate_schedule, work_conserving_gain

__all__ = [
    "SimulationResult",
    "simulate_schedule",
    "BatchSimulationResult",
    "simulate_schedule_batch",
    "run_phase_kernel_batch",
    "ABS_TOL",
    "REL_TOL",
    "Event",
    "EventLog",
    "at_or_before",
    "boundary_tol",
    "run_phase_kernel",
    "ValidationReport",
    "validate_schedule",
    "work_conserving_gain",
]

"""Model-vs-simulation agreement checks.

The analytical model (Eq. 2) and the event engine describe the same
execution; :func:`validate_schedule` runs both and reports the
discrepancy, and :func:`work_conserving_gain` quantifies how much
makespan a runtime work-conserving reallocation would recover — zero
for a perfect equal-finish schedule (Lemma 1 says the optimum leaves
nothing on the table), positive for baselines like Fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import Schedule
from .engine import SimulationResult, simulate_schedule

__all__ = ["ValidationReport", "validate_schedule", "work_conserving_gain",
           "TOLERANCE"]

#: Largest relative model-vs-simulation error that still counts as
#: agreement: the two compute the same times up to rounding.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class ValidationReport:
    """Agreement between the analytical model and the event engine.

    Attributes
    ----------
    model_times : numpy.ndarray
        ``Exe_i(p_i, x_i)`` per application.
    simulated_times : numpy.ndarray
        Finish times from the event engine (static policy).
    max_relative_error : float
        ``max |sim - model| / model``.
    agrees : bool
        Whether the error is at most :data:`TOLERANCE`.
    """

    model_times: np.ndarray
    simulated_times: np.ndarray
    max_relative_error: float
    agrees: bool


def validate_schedule(schedule: Schedule) -> ValidationReport:
    """Simulate *schedule* and compare with the analytical times."""
    model = schedule.times()
    sim = simulate_schedule(schedule, policy="static").finish_times
    rel = float(np.max(np.abs(sim - model) / model))
    return ValidationReport(
        model_times=model,
        simulated_times=sim,
        max_relative_error=rel,
        agrees=rel <= TOLERANCE,
    )


def work_conserving_gain(schedule: Schedule) -> tuple[float, SimulationResult]:
    """Relative makespan improvement from work-conserving reallocation.

    Returns ``(gain, result)`` where ``gain = 1 - wc_makespan /
    static_makespan`` (>= 0 up to fp noise: extra processors never
    hurt a running application).
    """
    static = simulate_schedule(schedule, policy="static")
    wc = simulate_schedule(schedule, policy="work-conserving")
    gain = 1.0 - wc.makespan / static.makespan if static.makespan > 0 else 0.0
    return gain, wc

"""The feasibility slack and the library's exceptions."""

from __future__ import annotations

__all__ = [
    "FEASIBILITY_SLACK",
    "ReproError",
    "ModelError",
    "InfeasibleScheduleError",
    "SolverError",
]

#: Slack allowed when checking resource-capacity constraints
#: (``sum(p_i) <= p`` and ``sum(x_i) <= 1``).  Binary-search processor
#: allocation meets the budget only up to solver tolerance.
FEASIBILITY_SLACK: float = 1e-6


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ModelError(ReproError, ValueError):
    """Raised when application or platform parameters are invalid."""


class InfeasibleScheduleError(ReproError, ValueError):
    """Raised when a schedule violates a resource or model constraint."""


class SolverError(ReproError, RuntimeError):
    """Raised when a numeric solver fails to converge or bracket."""


"""Workload data sets: measured NPB constants and synthetic generators."""

from .npb import NPB_DESCRIPTIONS, NPB_TABLE2, npb6_workload_data, npb_application
from .synthetic import (
    DATASETS,
    SEQ_RANGE,
    WORK_RANGE,
    generate,
    npb6,
    npb_synth,
    random_workload,
)

__all__ = [
    "NPB_DESCRIPTIONS",
    "NPB_TABLE2",
    "npb_application",
    "npb6_workload_data",
    "npb6",
    "npb_synth",
    "random_workload",
    "generate",
    "DATASETS",
    "WORK_RANGE",
    "SEQ_RANGE",
]

"""Experiment harness: workloads and per-figure regenerators.

Every regenerator takes the :class:`repro.engine.SimulationSession` it
reads results from; the scales are re-exported from the engine.
"""

from ..engine.session import DEFAULT_SCALE, QUICK_SCALE, ExperimentScale
from .claims import Claim, evaluate_claims, render_claims
from .machreport import (
    MachineRow,
    machine_sensitivity,
    render_machine_report,
    render_scenarios,
)
from .memreport import (
    MemRow,
    memory_sensitivity,
    render_memory_levels,
    render_memory_report,
)
from .figures import (
    FIG16_POLICIES,
    fig13a,
    fig14,
    fig15,
    fig16,
    render_fig13a,
    render_fig16,
    render_speedup_table,
)
from .workloads import WORKLOAD_ORDER, WORKLOADS, validate_workloads

__all__ = [
    "Claim",
    "evaluate_claims",
    "render_claims",
    "DEFAULT_SCALE",
    "QUICK_SCALE",
    "ExperimentScale",
    "FIG16_POLICIES",
    "fig13a",
    "fig14",
    "fig15",
    "fig16",
    "render_fig13a",
    "render_fig16",
    "render_speedup_table",
    "WORKLOAD_ORDER",
    "WORKLOADS",
    "validate_workloads",
    "MemRow",
    "memory_sensitivity",
    "render_memory_levels",
    "render_memory_report",
    "MachineRow",
    "machine_sensitivity",
    "render_machine_report",
    "render_scenarios",
]

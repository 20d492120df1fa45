"""Benchmark harnesses regenerating the paper's tables and figures."""

from .figure8 import (
    Figure8Point,
    aggregation_sweep,
    bnl_writeout_sweep,
    merge_sort_sweep,
)
from .harness import Experiment, ExperimentRow, run_experiment
from .table1 import ALL_EXPERIMENTS
from .validation import (
    run_validation,
    validation_experiment,
    write_validation_report,
)


def __getattr__(name: str):
    # VALIDATION_WORKLOADS is itself a lazy registry view; re-exporting
    # it eagerly here would cycle through repro.api during import.
    if name == "VALIDATION_WORKLOADS":
        from . import validation

        return validation.VALIDATION_WORKLOADS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Experiment",
    "ExperimentRow",
    "run_experiment",
    "ALL_EXPERIMENTS",
    "VALIDATION_WORKLOADS",
    "validation_experiment",
    "run_validation",
    "write_validation_report",
    "Figure8Point",
    "bnl_writeout_sweep",
    "merge_sort_sweep",
    "aggregation_sweep",
]

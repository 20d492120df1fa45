"""Execution substrates — the stand-ins for the paper's testbed.

Three pluggable backends behind one interface
(:mod:`repro.runtime.backend`): the analytic simulator (``SimBackend``
over ``AnalyticInterpreter``), the real-file out-of-core executor
(``FileBackend``), and the generated-Python executor over the same
filestore (``CompiledBackend``).
"""

from .accounting import (
    ChargeModel,
    ExecutionConfig,
    ExecutionError,
    ExecutionResult,
    InputSpec,
    build_devices,
    cumulative_edge_costs,
)
from .backend import (
    ExecutionBackend,
    SimBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .cache import CacheSim
from .cache_experiment import (
    CacheExperimentResult,
    run_cache_experiment,
    simulate_join_accesses,
)
from .clock import SimClock
from .devices import Extent, FlashDrive, HardDisk, Ram, SimDevice
from .compiled_backend import CompiledBackend
from .faults import (
    ExecutionFault,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
)
from .file_backend import FileBackend
from .interpreter import AnalyticInterpreter
from .stats import DeviceStats, ExecutionStats
from .values import RtList, RtScalar, RtValue

__all__ = [
    "SimClock",
    "SimDevice",
    "HardDisk",
    "FlashDrive",
    "Ram",
    "Extent",
    "CacheSim",
    "DeviceStats",
    "ExecutionStats",
    "InputSpec",
    "ExecutionConfig",
    "ExecutionResult",
    "ExecutionError",
    "ChargeModel",
    "AnalyticInterpreter",
    "ExecutionBackend",
    "SimBackend",
    "FileBackend",
    "CompiledBackend",
    "get_backend",
    "register_backend",
    "backend_names",
    "build_devices",
    "cumulative_edge_costs",
    "RtList",
    "RtScalar",
    "RtValue",
    "CacheExperimentResult",
    "run_cache_experiment",
    "simulate_join_accesses",
    "FaultPlan",
    "ExecutionFault",
    "InjectedFault",
    "RetryPolicy",
]

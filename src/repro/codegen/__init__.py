"""Code generation: OCAL → runnable Python and → executable plans.

The lowering is :mod:`repro.codegen.py_codegen` — tuned programs
compiled once into flat Python loop nests that the ``compiled`` backend
executes over the real block filestore.
"""

from .plan import ExecutablePlan, PlanError, compile_candidate
from .py_codegen import (
    CompiledExec,
    clear_exec_cache,
    compile_exec,
    exec_cache_size,
)

__all__ = [
    "ExecutablePlan",
    "compile_candidate",
    "PlanError",
    "CompiledExec",
    "compile_exec",
    "exec_cache_size",
    "clear_exec_cache",
]

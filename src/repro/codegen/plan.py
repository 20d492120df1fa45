"""Executable plans: tuned programs ready for an execution substrate.

In the paper, the optimized OCAL program is compiled to C and run on real
hardware.  Here the "compiled" artifact is an :class:`ExecutablePlan`
binding the tuned parameter values into the program; running it hands the
bound program to a pluggable :class:`~repro.runtime.backend
.ExecutionBackend` — the analytic simulator by default, or the real-file
out-of-core executor with ``backend="file"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ocal.ast import Node, block_params
from ..ocal.interp import substitute_blocks
from ..runtime.backend import ExecutionBackend, get_backend
from ..runtime.accounting import (
    ExecutionConfig,
    ExecutionResult,
    InputSpec,
)
from ..search.result import Candidate

__all__ = ["ExecutablePlan", "compile_candidate", "PlanError"]


class PlanError(ValueError):
    """Raised when a program cannot be turned into a runnable plan."""


@dataclass(frozen=True)
class ExecutablePlan:
    """A program with all block/bucket parameters bound to integers."""

    program: Node
    parameter_values: dict[str, int]

    def __post_init__(self) -> None:
        unbound = block_params(self.program)
        if unbound:
            raise PlanError(
                f"plan still has unbound parameters: {sorted(unbound)}"
            )

    def execute(
        self,
        config: ExecutionConfig,
        inputs: dict[str, InputSpec],
        backend: "str | ExecutionBackend" = "sim",
        **backend_options,
    ) -> ExecutionResult:
        """Run the plan on the selected substrate (``"sim"``/``"file"``).

        ``backend_options`` are forwarded to the backend constructor when
        ``backend`` is a name (e.g. ``seed=``/``workdir=`` for the file
        backend).  An unknown backend name, or options the backend
        rejects, raise :class:`PlanError` listing the registered
        backends — never a bare ``KeyError``/``TypeError``.
        """
        try:
            resolved = get_backend(backend, **backend_options)
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        return resolved.run(self.program, inputs, config)


def compile_candidate(candidate: Candidate) -> ExecutablePlan:
    """Bind a search candidate's tuned parameters into a runnable plan.

    Parameters the optimizer never saw (e.g. output blocks of loops whose
    results are consumed in RAM) default to one element.
    """
    values = dict(candidate.tuned.values)
    for name in block_params(candidate.program):
        values.setdefault(name, 1)
    bound = substitute_blocks(candidate.program, values)
    return ExecutablePlan(program=bound, parameter_values=values)

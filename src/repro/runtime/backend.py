"""Pluggable execution backends.

An :class:`ExecutionBackend` turns a tuned program plus input statistics
into an :class:`~repro.runtime.accounting.ExecutionResult`.  Three
substrates are provided:

* :class:`SimBackend` — the analytic simulator
  (:class:`~repro.runtime.interpreter.AnalyticInterpreter`): loops are
  charged analytically against behavioral device models, which scales
  to gigabyte workloads;
* :class:`~repro.runtime.file_backend.FileBackend` — real execution:
  block-sized reads/writes against actual temp files, bounded in-memory
  buffers, spill files for intermediates, measured wall clock and byte
  counters;
* :class:`~repro.runtime.compiled_backend.CompiledBackend` — the same
  real-file substrate driven by generated flat Python instead of the
  AST walker.

The two real-file backends register themselves when their modules are
imported, which ``repro.runtime`` does eagerly, so every name is in the
registry before any caller can reach :func:`get_backend`.

``get_backend("sim" | "file" | "compiled")`` resolves names to
instances so call sites (CLI, benches, plans) can thread a string
through.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..ocal.ast import Node
from .accounting import ExecutionConfig, ExecutionResult, InputSpec
from .interpreter import AnalyticInterpreter

__all__ = [
    "ExecutionBackend",
    "SimBackend",
    "get_backend",
    "register_backend",
    "backend_names",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The substrate interface every executor implements."""

    name: str

    def run(
        self,
        program: Node,
        inputs: dict[str, InputSpec],
        config: ExecutionConfig,
    ) -> ExecutionResult:
        """Execute a fully-bound program and report the outcome."""
        ...


class SimBackend:
    """The analytic simulator behind the backend interface.

    It *is* :class:`AnalyticInterpreter` and its charge model, merely
    reached through the pluggable interface.
    """

    name = "sim"

    def run(
        self,
        program: Node,
        inputs: dict[str, InputSpec],
        config: ExecutionConfig,
    ) -> ExecutionResult:
        return AnalyticInterpreter(config).run(program, inputs)


_REGISTRY: dict[str, type] = {"sim": SimBackend}


def register_backend(name: str, factory: type) -> None:
    """Register a backend class under a name (idempotent)."""
    _REGISTRY[name] = factory


def backend_names() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: "str | ExecutionBackend", **options) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Keyword options are forwarded to the backend constructor — e.g.
    ``get_backend("file", workdir=..., seed=7)``.
    """
    if not isinstance(backend, str):
        if options:
            raise ValueError(
                f"backend options {sorted(options)} cannot be applied to "
                f"an already-constructed backend instance"
            )
        return backend
    try:
        factory = _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"expected one of {sorted(_REGISTRY)}"
        ) from None
    if not options:
        # No caller kwargs to misattribute: let real constructor bugs
        # surface with their own traceback.
        return factory()
    try:
        return factory(**options)
    except TypeError as error:
        raise ValueError(
            f"backend {backend!r} rejected options {sorted(options)}: {error}"
        ) from None

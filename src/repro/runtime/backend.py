"""Pluggable execution backends.

An :class:`ExecutionBackend` turns a tuned program plus input statistics
into an :class:`~repro.runtime.accounting.ExecutionResult`.  Two
substrates are provided:

* :class:`SimBackend` — the analytic simulator (the seed's
  ``SimExecutor``): loops are charged analytically against behavioral
  device models, which scales to gigabyte workloads;
* :class:`~repro.runtime.file_backend.FileBackend` — real execution:
  block-sized reads/writes against actual temp files, bounded in-memory
  buffers, spill files for intermediates, measured wall clock and byte
  counters (registered lazily to avoid an import cycle);
* :class:`~repro.runtime.compiled_backend.CompiledBackend` — the same
  real-file substrate driven by generated flat Python instead of the
  AST walker (also registered lazily).

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

    Bit-for-bit compatible with the seed's ``SimExecutor``: it *is* the
    same interpreter and charge model, merely reached through the
    pluggable interface.
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
    _ensure_builtin_backends()
    return tuple(sorted(_REGISTRY))


def _ensure_builtin_backends() -> None:
    """Import-to-register the lazily-loaded builtin backends.

    Keeps ``_REGISTRY`` the single source of truth for every name
    enumeration (CLI help, ``PlanError`` messages) while avoiding an
    import cycle at module load.
    """
    if "file" not in _REGISTRY:
        from . import file_backend  # noqa: F401  (registers itself)
    if "compiled" not in _REGISTRY:
        from . import compiled_backend  # noqa: F401  (registers itself)


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
    _ensure_builtin_backends()
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

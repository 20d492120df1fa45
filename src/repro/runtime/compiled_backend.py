"""The compiled execution backend: generated Python over real files.

:class:`CompiledBackend` is the shipped executor.  It lowers the tuned
program once through :func:`repro.codegen.py_codegen.compile_exec` and
runs the generated flat loop nest against a plain
:class:`~repro.runtime.primitives.PrimitiveLibrary` — no AST walker
exists on that object, so a shape the lowering missed is an
``AttributeError``, never a silent slow path.  Input materialization,
device stores, counter pricing and output write-out are inherited from
:class:`~repro.runtime.file_backend.FileBackend`, whose walker drives
the same primitives, so measured byte/seek counters match the ``file``
backend exactly; only the wall clock drops.
"""

from __future__ import annotations

from ..codegen.py_codegen import compile_exec
from ..ocal.ast import Node
from .backend import register_backend
from .file_backend import FileBackend
from .primitives import PrimitiveLibrary

__all__ = ["CompiledBackend"]


class CompiledBackend(FileBackend):
    """Executes tuned programs through generated Python loop nests."""

    name = "compiled"
    runtime_class = PrimitiveLibrary

    def _evaluate(self, rt: PrimitiveLibrary, program: Node, env: dict):
        return compile_exec(program).fn(env, rt)


register_backend("compiled", CompiledBackend)

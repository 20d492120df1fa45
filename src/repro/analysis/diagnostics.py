"""Structured, positioned diagnostics for the static plan verifier.

Every verifier pass (:mod:`repro.analysis.type_pass`,
:mod:`repro.analysis.placement`, :mod:`repro.analysis.capacity`,
:mod:`repro.analysis.effects`) reports problems as :class:`Diagnostic`
records: a stable code (``TYP001``, ``PLC003``, ``CAP002``, ``EFF001``
…), a severity, the AST position path of the offending subexpression
(the same ``(field, index)`` step format the rewrite engine records on
each :class:`~repro.rules.base.Rewrite`), the offending rule when verify
mode caught a rewrite output, and a human rendering.

Diagnostics are data, not exceptions: passes return lists so callers
can aggregate across passes and render/serialize them uniformly (the
CLI renders and exits 1, the service returns them as a JSON list with
HTTP 422, verify mode wraps errors in :class:`VerificationError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..ocal.ast import Node, PositionPath, child_steps, format_path

__all__ = [
    "Diagnostic",
    "VerificationError",
    "errors",
    "has_errors",
    "render_report",
    "walk_paths",
]

#: the two diagnostic severities; only errors make a program invalid.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding, positioned and stably coded."""

    code: str
    message: str
    severity: str = "error"
    #: position path from the program root to the offending node.
    path: PositionPath = ()
    #: the rewrite rule that produced the offending program, when known
    #: (verify mode fills this in; plan/workload checks leave it unset).
    rule: str | None = None
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {list(SEVERITIES)}"
            )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One-line human rendering, e.g.
        ``TYP001 error at body.fn: ⊔ on incompatible lists …``."""
        line = (
            f"{self.code} {self.severity} at {format_path(self.path)}: "
            f"{self.message}"
        )
        if self.rule is not None:
            line += f" [rule: {self.rule}]"
        if self.hint is not None:
            line += f"\n  hint: {self.hint}"
        return line

    def to_json(self) -> dict:
        doc: dict = {
            "code": self.code,
            "severity": self.severity,
            "path": [list(step) for step in self.path],
            "message": self.message,
        }
        if self.rule is not None:
            doc["rule"] = self.rule
        if self.hint is not None:
            doc["hint"] = self.hint
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Diagnostic":
        return cls(
            code=doc["code"],
            message=doc["message"],
            severity=doc.get("severity", "error"),
            path=tuple(
                (step[0], step[1]) for step in doc.get("path", ())
            ),
            rule=doc.get("rule"),
            hint=doc.get("hint"),
        )


def errors(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """The error-severity subset (what makes a program invalid)."""
    return [d for d in diagnostics if d.severity == "error"]


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def render_report(diagnostics: Iterable[Diagnostic]) -> str:
    """Render a diagnostic list, one finding per line."""
    return "\n".join(d.render() for d in diagnostics)


class VerificationError(Exception):
    """A program failed static verification (verify mode, strict APIs).

    Carries the full diagnostic list; ``str()`` renders the report.
    """

    def __init__(
        self,
        diagnostics: "list[Diagnostic]",
        context: str | None = None,
    ):
        self.diagnostics = list(diagnostics)
        self.context = context
        header = context or "static verification failed"
        super().__init__(f"{header}\n{render_report(self.diagnostics)}")


# ----------------------------------------------------------------------
# Positioned traversal
# ----------------------------------------------------------------------
def walk_paths(
    node: Node, path: PositionPath = ()
) -> Iterator[tuple[PositionPath, Node]]:
    """Pre-order traversal yielding ``(position, node)`` pairs.

    Positions use the rewrite engine's step format — field name plus
    tuple index (``None`` for scalar node fields) — so a diagnostic's
    path and a :class:`~repro.rules.base.Rewrite` position are
    interchangeable.
    """
    yield path, node
    for step, child in child_steps(node):
        yield from walk_paths(child, path + (step,))

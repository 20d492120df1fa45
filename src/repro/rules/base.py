"""Rule infrastructure (Section 6.2).

A transformation rule ``e1 ⇒ e2`` may be applied at any subexpression
position of a program; the application conditions are *conservative*
syntactic checks — "a stronger but simpler condition" that "never allows
[the tool] to apply a rule in a non-valid context", at the price of
missed opportunities.

``RuleContext`` supplies what the checks need: the memory hierarchy, the
declared input locations and the output node (for seq-ac's interference
condition), plus engine-managed bookkeeping (fresh parameter names, the
loop variables bound around the current position, the rewrite memo).

A rule's ``apply`` must be a function of ``(node, ctx)``: the engine
memoizes firings per subtree and replays them (DESIGN.md §3).  Drawing
``ctx.fresh_param`` is the one allowed side effect — such applications
are re-run on replay, so the names come out in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from ..hierarchy import MemoryHierarchy
from ..ocal.ast import Node

__all__ = ["Rule", "RuleContext", "Rewrite"]


@dataclass
class RuleContext:
    """Everything a rule's applicability condition may consult."""

    hierarchy: MemoryHierarchy | None = None
    input_locations: dict[str, str] = field(default_factory=dict)
    output_location: str | None = None
    max_treefold_arity: int = 64
    #: loop variables bound by enclosing `for`s around the current position
    #: (engine-managed; used to avoid re-blocking block views).
    for_bound_vars: frozenset[str] = frozenset()
    #: engine-managed counter state for fresh block-parameter names.
    _param_counter: list[int] = field(default_factory=lambda: [0])
    #: engine-managed table of rule firings per (subtree, scope); the
    #: synthesizer shares one per rule-context fingerprint across
    #: requests, ``None`` gives each ``iter_rewrites`` call its own.
    _rewrite_memo: dict | None = None

    def fresh_param(self, prefix: str = "k") -> str:
        """A parameter name unused so far in this rewrite session."""
        self._param_counter[0] += 1
        return f"{prefix}{self._param_counter[0]}"

    def at_position(self, for_bound: frozenset[str]) -> "RuleContext":
        """Context specialized to one subexpression position."""
        return replace(self, for_bound_vars=for_bound)

    def device_of(self, name: str) -> str | None:
        """The device an input variable resides on, if declared."""
        return self.input_locations.get(name)


@dataclass(frozen=True)
class Rewrite:
    """One rule application: the rule's name and the rewritten program.

    ``position`` records where in the original program the rule fired, as
    a tuple of ``(field_name, index)`` steps from the root (``index`` is
    ``None`` for scalar fields) — diagnostics for derivation replay.
    """

    rule: str
    program: Node
    position: tuple[tuple[str, int | None], ...] = ()


class Rule:
    """Base class: yields replacements for one subexpression."""

    #: short rule identifier, as used in the paper (e.g. "apply-block")
    name: str = "rule"

    def apply(self, node: Node, ctx: RuleContext) -> Iterator[Node]:
        """Yield semantically equivalent replacements for *node*.

        The engine splices each replacement back into the whole program.
        Yield nothing when the conservative condition does not hold.
        """
        raise NotImplementedError

"""order-inputs: evaluate a two-input program with the shorter list first.

    f ⇒ λ⟨x1, x2⟩. f (if length(x1) ≤ length(x2) then ⟨x1, x2⟩
                                                 else ⟨x2, x1⟩)

"a Block Nested Loops join is more efficient if the outer relation is
the smaller".  Our programs name their inputs rather than abstracting
over them, so the rule matches a *top-level* expression with exactly two
free list inputs and produces the λ-wrapped form with the inputs
substituted by the pattern variables.

Conservative conditions:

* the expression has exactly two free input variables with declared
  locations (i.e. genuine inputs);
* the program is not already wrapped by an ordering combinator;
* the result is order-equivalent up to the pairing of columns — as in
  the paper, where the canonical BNL example swaps which relation drives
  the outer loop (tests compare joins up to component swap).
"""

from __future__ import annotations

from typing import Iterator

from ..ocal.ast import (
    App,
    Builtin,
    For,
    If,
    Lam,
    Node,
    Prim,
    Tup,
    Var,
    free_vars,
    fresh_name,
    substitute,
)
from .base import Rule, RuleContext

__all__ = ["OrderInputs"]


class OrderInputs(Rule):
    name = "order-inputs"

    def apply(self, node: Node, ctx: RuleContext) -> Iterator[Node]:
        inputs = sorted(free_vars(node) & set(ctx.input_locations))
        if len(inputs) != 2:
            return
        if self._already_ordered(node):
            return
        if not self._is_input_symmetric(node, inputs):
            return
        first, second = inputs
        avoid = free_vars(node)
        n1 = fresh_name(f"{first}o", avoid)
        n2 = fresh_name(f"{second}o", avoid)
        body = substitute(substitute(node, first, Var(n1)), second, Var(n2))
        ordering = If(
            Prim(
                "<=",
                (
                    App(Builtin("length"), Var(first)),
                    App(Builtin("length"), Var(second)),
                ),
            ),
            Tup((Var(first), Var(second))),
            Tup((Var(second), Var(first))),
        )
        yield App(Lam((n1, n2), body), ordering)

    @staticmethod
    def _is_input_symmetric(node: Node, inputs: list[str]) -> bool:
        """Conservative check that swapping the inputs preserves the result
        (up to pairing of columns) — true for nested-loop joins/products,
        false for inherently asymmetric programs like set difference.

        The accepted shape: a ``for`` nest where one input drives the
        outer loop and the other the inner loop.
        """
        current = node
        if not isinstance(current, For):
            return False
        outer = current.source
        inner_loop = current.body
        # Allow an If-guard around the inner loop.
        if isinstance(inner_loop, If):
            inner_loop = inner_loop.then
        if not isinstance(inner_loop, For):
            return False
        inner = inner_loop.source
        names = set()
        for source in (outer, inner):
            if not isinstance(source, Var):
                return False
            names.add(source.name)
        return names == set(inputs)

    @staticmethod
    def _already_ordered(node: Node) -> bool:
        return (
            isinstance(node, App)
            and isinstance(node.fn, Lam)
            and isinstance(node.arg, If)
            and isinstance(node.arg.then, Tup)
            and isinstance(node.arg.orelse, Tup)
        )

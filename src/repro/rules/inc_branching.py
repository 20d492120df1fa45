"""inc-branching: double the fan-in of a treeFold.

    treeFold[2^k](c, funcPow[k](f)) ⇒ treeFold[2^{k+1}](c, funcPow[k+1](f))

and the variant the External Merge-Sort derivation needs::

    treeFold[2^k](c, unfoldR(funcPow[k](f)))
      ⇒ treeFold[2^{k+1}](c, unfoldR(funcPow[k+1](f)))

Fewer, wider applications: "approximately n/(2^k − 1) applications of
funcPow[k](f) instead of approximately n applications of f".  The
auxiliary rule ``f ⇒ funcPow[1](f)`` is folded in by treating a bare
``f``/``unfoldR(f)`` as power 1.  The condition is the same associativity
whitelist as fldL-to-trfld; the fan-in is capped to keep the search
space finite.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from ..ocal.ast import Builtin, FuncPow, Lam, Node, TreeFold, UnfoldR
from .base import Rule, RuleContext
from .fld_to_trfld import is_associative_with_identity

__all__ = ["IncBranching"]


class IncBranching(Rule):
    name = "inc-branching"

    def apply(self, node: Node, ctx: RuleContext) -> Iterator[Node]:
        if not isinstance(node, TreeFold):
            return
        if node.arity * 2 > ctx.max_treefold_arity:
            return
        fn = node.fn
        if isinstance(fn, UnfoldR):
            inner = fn.fn
            power = self._power_of(inner)
            if power is None or 2**power != node.arity:
                return
            if not is_associative_with_identity(fn, node.init):
                return
            base = inner.fn if isinstance(inner, FuncPow) else inner
            raised = dataclasses.replace(fn, fn=FuncPow(power + 1, base))
            yield TreeFold(node.arity * 2, node.init, raised)
            return
        power = self._power_of(fn)
        if power is None or 2**power != node.arity:
            return
        base = fn.fn if isinstance(fn, FuncPow) else fn
        if not is_associative_with_identity(base, node.init):
            return
        yield TreeFold(node.arity * 2, node.init, FuncPow(power + 1, base))

    @staticmethod
    def _power_of(fn: Node) -> int | None:
        """funcPow[k](·) → k; a bare merge/binary step counts as power 1."""
        if isinstance(fn, FuncPow):
            return fn.power
        if isinstance(fn, Builtin) and fn.name == "mrg":
            return 1
        if isinstance(fn, Lam):
            return 1
        return None

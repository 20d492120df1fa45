"""The rewrite engine: apply every rule at every program position.

``iter_rewrites(program, rules, ctx)`` lazily yields one
:class:`Rewrite` per (rule, position, variant) triple, in a
deterministic pre-order — node first, then fields in declaration order,
tuple items left to right.  Identical outcomes produced at different
positions are deduplicated *during* generation, so consumers that stop
early (beam and best-first strategies, truncated searches) never pay for
rewrites they will not look at.  ``all_rewrites`` materializes the same
sequence for callers that want the full single-step neighborhood — the
breadth-first search of Section 6 expands a program by exactly this set.

Positions are tracked as tuples of ``(field_name, index)`` steps from
the program root (``index`` is ``None`` for scalar fields) and recorded
on each emitted :class:`Rewrite` for diagnostics and ordering.

**Each subtree is expanded once** (DESIGN.md §3).  A search expands
hundreds of programs that differ from their parent in one subtree, so
the engine memoizes, per ``(interned subtree, for-bound scope)``, the
pre-order list of rule firings inside that subtree — each a position
relative to the subtree, the rule, and the replacements it yielded
there.  A later visit of the same subtree in the same scope replays the
list instead of re-running every rule at every position, and the whole
program is rebuilt (by splicing the replacement in along its path) only
where a rule fired.  The list is recorded when the walk of its subtree
*finishes*, so a consumer that stops early leaves no partial entry.

The memo relies on one contract: ``Rule.apply`` is a function of
``(node, ctx)`` — of the node, its scope and the rule context's fixed
fields.  The one sanctioned exception is ``ctx.fresh_param``: an
application that drew a fresh name (the engine sees the counter move)
is recorded as "fires here" and *re-applied* on replay, so fresh names
are drawn in exactly the order a memo-less walk draws them and every
pre-canonical rewrite is bit-identical.

The table is a plain dict — ``(subtree, scope)`` → the pre-order tuple
of ``(relative position, rule, outcome)`` for every position inside the
subtree where a rule fired, ``outcome`` being the tuple of replacements
or a :class:`_Refire` — owned by whoever owns the rule context: the
:class:`~repro.search.synthesizer.Synthesizer` keeps one per
rule-context fingerprint and hands it over as
``RuleContext._rewrite_memo``; a bare context gets a table for the one
call.  At ``_REWRITE_MEMO_CAP`` entries the table sheds its oldest half
before the next insert (recomputation only, never a different stream).
"""

from __future__ import annotations

from typing import Iterator

from ..bounded import trim_oldest_half
from ..ocal.ast import For, Node, PositionPath, child_steps, field_names
from .base import Rewrite, Rule, RuleContext

__all__ = ["all_rewrites", "iter_rewrites"]

#: entries a rewrite table holds before it sheds its oldest half.  Not
#: measured against traffic: the benchmark's warm Session fills ~1 600.
_REWRITE_MEMO_CAP = 1 << 16


class _Refire:
    """A recorded application that drew fresh names: re-apply on replay."""

    __slots__ = ("node", "scope")

    def __init__(self, node: Node, scope: frozenset[str]) -> None:
        self.node = node
        self.scope = scope


def iter_rewrites(
    program: Node, rules: list[Rule], ctx: RuleContext
) -> Iterator[Rewrite]:
    """Lazily yield the deduplicated single-step rewrites of *program*.

    The first occurrence of each ``(rule, resulting program)`` pair wins;
    later positions producing an identical program are suppressed as they
    are generated, keeping the output order identical to the historical
    materialize-then-dedup behavior.
    """
    memo = ctx._rewrite_memo
    if memo is None:
        memo = {}
    emitted: set[tuple[str, Node]] = set()
    firings = _firings(program, frozenset(), (), tuple(rules), ctx, memo)
    for rule_name, position, replacement in firings:
        rewritten = _splice(program, position, replacement)
        key = (rule_name, rewritten)
        if key in emitted:
            continue
        emitted.add(key)
        yield Rewrite(rule_name, rewritten, position)


def all_rewrites(
    program: Node, rules: list[Rule], ctx: RuleContext
) -> list[Rewrite]:
    """All single-step rewrites of *program* under *rules*."""
    return list(iter_rewrites(program, rules, ctx))


def _firings(
    node: Node,
    scope: frozenset[str],
    position: PositionPath,
    rules: tuple[Rule, ...],
    ctx: RuleContext,
    memo: dict,
):
    """Pre-order generator of (rule name, position, replacement).

    Returns (as the generator's value) the firings recorded for *node*
    in *scope*, relative to *node*.
    """
    key = (node, scope)
    recorded = memo.get(key)
    if recorded is not None:
        for relative, rule, outcome in recorded:
            if type(outcome) is _Refire:
                outcome = rule.apply(
                    outcome.node, ctx.at_position(outcome.scope)
                )
            for replacement in outcome:
                yield rule.name, position + relative, replacement
        return recorded

    firings: list = []
    position_ctx = ctx.at_position(scope)
    counter = ctx._param_counter
    for rule in rules:
        drawn = counter[0]
        replacements = []
        for replacement in rule.apply(node, position_ctx):
            replacements.append(replacement)
            yield rule.name, position, replacement
        if counter[0] != drawn:
            firings.append(((), rule, _Refire(node, scope)))
        elif replacements:
            firings.append(((), rule, tuple(replacements)))

    for step, child in child_steps(node):
        inner = yield from _firings(
            child,
            _child_scope(node, step[0], scope),
            position + (step,),
            rules,
            ctx,
            memo,
        )
        firings.extend(
            ((step,) + relative, rule, outcome)
            for relative, rule, outcome in inner
        )
    recorded = tuple(firings)
    if len(memo) >= _REWRITE_MEMO_CAP:
        trim_oldest_half(memo)
    memo[key] = recorded
    return recorded


def _child_scope(
    node: Node, field_name: str, scope: frozenset[str]
) -> frozenset[str]:
    """The for-bound variables a child field of *node* sees."""
    # Only the body of a `for` sees the loop variable; its source does not.
    if isinstance(node, For) and field_name == "body":
        return scope | {node.var}
    return scope


def _splice(root: Node, path: PositionPath, replacement: Node) -> Node:
    """*root* with the subexpression at *path* replaced.

    Rebuilds only the spine from the root down to *path*; every other
    subtree is shared with *root*.
    """
    spine = []
    node = root
    for name, index in path:
        spine.append(node)
        node = getattr(node, name)
        if index is not None:
            node = node[index]
    for parent, (name, index) in zip(reversed(spine), reversed(path)):
        value: object = replacement
        if index is not None:
            items = getattr(parent, name)
            value = items[:index] + (replacement,) + items[index + 1 :]
        replacement = type(parent)(
            *[
                value if field == name else getattr(parent, field)
                for field in field_names(type(parent))
            ]
        )
    return replacement

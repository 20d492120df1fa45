"""hash-part: partition the inputs of an equi-join by the join key.

    f ⇒ λ⟨x1, …, xk⟩. flatMap(f)(zip(⟨partition(x1), …, partition(xk)⟩))

Applying this to a nested-loop equi-join yields the GRACE hash join: all
data is read only twice — once while partitioning and once while joining
— "provided [the partitions] are small enough to fit in the node" (which
the bucket-count parameter ``s``, tuned by the optimizer under the
capacity constraints, ensures).

Conservative condition: the expression must be a nested-loop *equi-join*
whose condition compares one tuple component of each side —
``for (x ← R) for (y ← S) if x.i == y.j then [⟨x, y⟩] else []`` — since
then the union of per-bucket joins equals the whole join when both sides
are hashed on their join components.  Arbitrary ``f`` would require the
undecidable "order does not matter" property.
"""

from __future__ import annotations

from typing import Iterator

from ..ocal.ast import (
    App,
    Builtin,
    Empty,
    FlatMap,
    For,
    HashPartition,
    If,
    Lam,
    Node,
    Prim,
    Proj,
    Tup,
    Var,
    free_vars,
    fresh_name,
)
from .base import Rule, RuleContext

__all__ = ["HashPart", "match_equi_join"]


def match_equi_join(node: Node) -> tuple[str, str, int, int, For] | None:
    """Recognize ``for (x ← R) for (y ← S) if x.i == y.j then … else []``.

    Returns ``(R, S, i, j, outer_for)`` or ``None``; the source names must
    be plain variables and the loops unblocked (hash-part fires on the
    naive join; blocking happens afterwards, inside the bucket join).
    """
    if not isinstance(node, For) or node.block_in != 1:
        return None
    if not isinstance(node.source, Var):
        return None
    inner = node.body
    if not isinstance(inner, For) or inner.block_in != 1:
        return None
    if not isinstance(inner.source, Var):
        return None
    branch = inner.body
    if not isinstance(branch, If) or not isinstance(branch.orelse, Empty):
        return None
    cond = branch.cond
    if not isinstance(cond, Prim) or cond.op != "==" or len(cond.args) != 2:
        return None
    left, right = cond.args
    if not (isinstance(left, Proj) and isinstance(right, Proj)):
        return None
    if not (
        isinstance(left.tup, Var)
        and isinstance(right.tup, Var)
    ):
        return None
    pairs = {left.tup.name: left.index, right.tup.name: right.index}
    if set(pairs) != {node.var, inner.var}:
        return None
    return (
        node.source.name,
        inner.source.name,
        pairs[node.var],
        pairs[inner.var],
        node,
    )


class HashPart(Rule):
    name = "hash-part"

    def apply(self, node: Node, ctx: RuleContext) -> Iterator[Node]:
        match = match_equi_join(node)
        if match is None:
            return
        r_name, s_name, r_key, s_key, outer = match
        if r_name == s_name:
            return  # self-join partitioning needs a single partition pass
        if r_name in ctx.for_bound_vars or s_name in ctx.for_bound_vars:
            return  # partitioning a block view of an enclosing loop is moot
        inner = outer.body
        avoid = free_vars(node) | {outer.var, inner.var}
        pair_var = fresh_name("p", avoid)
        bucket_join = For(
            var=outer.var,
            source=Proj(Var(pair_var), 1),
            body=For(
                var=inner.var,
                source=Proj(Var(pair_var), 2),
                body=inner.body,
                block_in=1,
            ),
            block_in=1,
        )
        buckets = ctx.fresh_param("s")
        partitioned = App(
            Builtin("zip"),
            Tup(
                (
                    App(HashPartition(buckets, r_key), Var(r_name)),
                    App(HashPartition(buckets, s_key), Var(s_name)),
                )
            ),
        )
        yield App(FlatMap(Lam(pair_var, bucket_join)), partitioned)

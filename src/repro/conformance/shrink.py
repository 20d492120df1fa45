"""Counterexample minimization for the conformance oracle.

Greedy type-preserving reduction: alternately shrink the failing
program's *inputs* (drop list chunks ddmin-style, then zero values) and
its *term* (replace any subtree by a smaller well-typed alternative —
an empty list, a literal, or one of its own like-typed subexpressions),
keeping every candidate only if the oracle still reports a failure of
the same kind.  Iterates to a fixpoint under a step budget, then drops
inputs the program no longer mentions.

The result is the small, reproducible witness that gets persisted to
``tests/conformance/corpus/`` and replayed by the test suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

from ..ocal.ast import (
    App,
    Concat,
    Empty,
    For,
    If,
    Lit,
    Node,
    Prim,
    Proj,
    Sing,
    Tup,
    child_steps,
    node_size,
)
from ..ocal.typecheck import OcalTypeError, check_program
from .generator import GeneratedProgram
from .oracle import ConformanceFailure, Oracle

__all__ = ["shrink_counterexample"]


def shrink_counterexample(
    oracle: Oracle,
    gen: GeneratedProgram,
    failure: ConformanceFailure,
    max_steps: int = 400,
) -> tuple[GeneratedProgram, ConformanceFailure]:
    """Minimize *gen* while it still fails with the same failure kind."""
    kind = failure.kind

    def still_fails(candidate: GeneratedProgram) -> ConformanceFailure | None:
        found = oracle.first_failure(candidate)
        if found is not None and found.kind == kind:
            return found
        return None

    best = gen
    best_failure = failure
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(best):
            steps += 1
            if steps >= max_steps:
                break
            found = still_fails(candidate)
            if found is not None and _weight(candidate) < _weight(best):
                best = candidate
                best_failure = found
                improved = True
                break
    return best.pruned(best.program), best_failure


def _weight(gen: GeneratedProgram) -> tuple[int, int]:
    data = sum(len(inp.values) for inp in gen.inputs.values())
    return (node_size(gen.program), data)


# ----------------------------------------------------------------------
def _candidates(gen: GeneratedProgram):
    """Smaller variants of *gen*, most aggressive first."""
    yield from _input_candidates(gen)
    yield from _program_candidates(gen)


def _input_candidates(gen: GeneratedProgram):
    for name, inp in gen.inputs.items():
        values = inp.values
        n = len(values)
        if n == 0:
            continue
        halves = [values[: n // 2], values[n // 2 :]] if n > 1 else []
        drops = halves + [values[:-1], values[1:]]
        for smaller in drops:
            if len(smaller) < n:
                yield replace(
                    gen,
                    inputs={
                        **gen.inputs,
                        name: dataclasses.replace(inp, values=smaller),
                    },
                )
        zeroed = [_zero_like(value) for value in values]
        if zeroed != values:
            yield replace(
                gen,
                inputs={
                    **gen.inputs,
                    name: dataclasses.replace(inp, values=zeroed),
                },
            )


def _zero_like(value):
    if isinstance(value, list):
        return [_zero_like(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_zero_like(item) for item in value)
    return 0


def _program_candidates(gen: GeneratedProgram):
    types = gen.input_types()
    seen: set[Node] = set()
    for candidate in _reductions(gen.program):
        if candidate in seen or candidate == gen.program:
            continue
        seen.add(candidate)
        if node_size(candidate) >= node_size(gen.program):
            continue
        try:
            check_program(candidate, types)
        except OcalTypeError:
            continue
        yield replace(gen, program=candidate)


def _reductions(node: Node):
    """Whole-program variants obtained by reducing one position."""
    for replacement in _local_reductions(node):
        yield replacement
    for (name, index), child in child_steps(node):
        for reduced in _reductions(child):
            if index is None:
                yield dataclasses.replace(node, **{name: reduced})
            else:
                items = getattr(node, name)
                items = items[:index] + (reduced,) + items[index + 1 :]
                yield dataclasses.replace(node, **{name: items})


def _local_reductions(node: Node):
    """Smaller replacements for one node.

    Scope/type correctness is *not* checked here — the whole-program
    typecheck in :func:`_program_candidates` filters invalid splices.
    """
    if not isinstance(node, Empty):
        yield Empty()
    if not (isinstance(node, Lit) and node.value == 0):
        yield Lit(0)
    if isinstance(node, If):
        yield node.then
        yield node.orelse
    if isinstance(node, Concat):
        yield node.left
        yield node.right
    if isinstance(node, For):
        yield node.source
    if isinstance(node, App):
        yield node.arg
    if isinstance(node, Prim):
        yield from node.args
    if isinstance(node, Tup):
        yield from node.items
    if isinstance(node, (Proj, Sing)):
        yield node.tup if isinstance(node, Proj) else node.item

"""The rewrite engine's subtree-firing memo (DESIGN.md §3).

``iter_rewrites`` records, per ``(subtree, for-bound scope)``, the rule
firings inside that subtree and replays them on later visits.  These
tests pin the contract that makes that invisible:

* the ``(rule, position, program)`` stream equals a memo-less reference
  walker's — pre-canonical programs included — on every expansion of a
  registry sweep, first visit and Session-warm replay alike;
* a rule is applied once per distinct ``(subtree, scope)`` per table;
* an application that drew fresh names re-fires on replay, drawing the
  same names in the same order;
* a table starved far below the working set changes nothing;
* the per-node facts the engine and canonicalization lean on
  (memoized ``free_vars``, block-parameter order) equal their
  from-scratch definitions.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.api import Session
from repro.conformance.generator import GenConfig, ProgramGenerator
from repro.ocal import App, For, Node, Sing, Var, walk
from repro.ocal.ast import (
    FoldL,
    HashPartition,
    Lam,
    UnfoldR,
    block_param_order,
    free_vars,
    fresh_name,
    pattern_names,
)
from repro.ocal.builders import for_, sing, tup, v
from repro.ocal.interp import canonicalize_blocks
from repro.rules import Rule, RuleContext, iter_rewrites
from repro.rules import engine
from repro.rules.registry import default_rules
from repro.search import synthesizer as synthesizer_module

STRATEGIES = ("exhaustive-bfs", "beam", "best-first")


# ----------------------------------------------------------------------
# The memo-less reference: the engine as it was before the memo
# ----------------------------------------------------------------------
def reference_rewrites(program: Node, rules, ctx: RuleContext):
    """Every rule at every position, each rewrite rebuilt from scratch."""
    emitted = set()
    out = []
    for rule_name, position, rewritten in _reference_positions(
        program, rules, ctx, frozenset(), lambda new: new, ()
    ):
        if (rule_name, rewritten) in emitted:
            continue
        emitted.add((rule_name, rewritten))
        out.append((rule_name, position, rewritten))
    return out


def _reference_positions(node, rules, ctx, bound, rebuild, position):
    position_ctx = dataclasses.replace(ctx, for_bound_vars=bound)
    for rule in rules:
        for replacement in rule.apply(node, position_ctx):
            yield rule.name, position, rebuild(replacement)
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, Node):
            child_bound = bound
            if isinstance(node, For) and field.name == "body":
                child_bound = bound | {node.var}
            yield from _reference_positions(
                value,
                rules,
                ctx,
                child_bound,
                _reference_rebuild(node, field.name, None, rebuild),
                position + ((field.name, None),),
            )
        elif isinstance(value, tuple) and value and all(
            isinstance(item, Node) for item in value
        ):
            for index, item in enumerate(value):
                yield from _reference_positions(
                    item,
                    rules,
                    ctx,
                    bound,
                    _reference_rebuild(node, field.name, index, rebuild),
                    position + ((field.name, index),),
                )


def _reference_rebuild(node, field_name, index, outer):
    def rebuild(new_child):
        if index is None:
            return outer(dataclasses.replace(node, **{field_name: new_child}))
        items = list(getattr(node, field_name))
        items[index] = new_child
        return outer(dataclasses.replace(node, **{field_name: tuple(items)}))

    return rebuild


def _stream(rewrites):
    return [(r.rule, r.position, r.program) for r in rewrites]


def _assert_same_as_reference(program, rules, ctx):
    """Run the engine and the reference from the same counter state."""
    start = ctx._param_counter[0]
    reference_ctx = dataclasses.replace(
        ctx, _param_counter=[start], _rewrite_memo=None
    )
    expected = reference_rewrites(program, rules, reference_ctx)
    actual = list(iter_rewrites(program, rules, ctx))
    assert _stream(actual) == expected
    assert ctx._param_counter[0] == reference_ctx._param_counter[0]
    return actual


# ----------------------------------------------------------------------
# (a) differential over a registry sweep, first visit and warm replay
# ----------------------------------------------------------------------
def test_sweep_streams_match_reference_first_visit_and_warm(monkeypatch):
    calls = Counter()

    def checked(program, rules, ctx):
        calls["expansions"] += 1
        assert ctx._rewrite_memo is not None  # the synthesizer's table
        return iter(_assert_same_as_reference(program, rules, ctx))

    monkeypatch.setattr(synthesizer_module, "iter_rewrites", checked)
    session = Session()
    names = [
        name
        for name in session.workloads("table1")
        if name != "bnl-with-cache"  # its table1-shaped search dominates
    ]
    for sweep in ("first", "warm"):
        before = calls["expansions"]
        sizes = {}
        for name in names:
            for strategy in STRATEGIES:
                session.synthesize(name, scale="table1", strategy=strategy)
        for synthesizer in session._synthesizers.values():
            for memo in synthesizer._rewrite_memos.values():
                sizes[id(memo)] = len(memo)
        if sweep == "first":
            first_sizes = sizes
        else:
            # The warm sweep expanded the same programs again, entirely
            # from recorded firings: no table gained an entry.
            assert sizes == first_sizes
        assert calls["expansions"] > before
    assert calls["expansions"] > 1000


# ----------------------------------------------------------------------
# (b) one rule application per distinct (subtree, scope) per table
# ----------------------------------------------------------------------
class CountVisits(Rule):
    name = "count-visits"

    def __init__(self):
        self.visits = Counter()

    def apply(self, node, ctx):
        self.visits[(node, ctx.for_bound_vars)] += 1
        return iter(())


def _programs():
    shared = sing(v("x"))
    return [
        for_("x", v("R"), tup(shared, shared)),
        for_("y", v("R"), for_("x", v("S"), tup(shared, v("y")))),
        tup(shared, for_("x", v("R"), shared)),
    ]


def test_counting_rule_sees_each_subtree_scope_once_per_table():
    counter = CountVisits()
    ctx = RuleContext(_rewrite_memo={})
    for program in _programs() * 2:
        list(iter_rewrites(program, [counter], ctx))
    assert counter.visits and set(counter.visits.values()) == {1}
    # ``sing(x)`` is visited in two scopes: unbound (a tuple item at the
    # root) and with ``x`` bound (a loop body).
    scopes = {scope for node, scope in counter.visits if node == sing(v("x"))}
    assert frozenset() in scopes and frozenset({"x"}) in scopes


def test_bare_context_gets_a_per_call_table():
    counter = CountVisits()
    program = tup(sing(v("x")), sing(v("x")))
    for _ in range(2):
        list(iter_rewrites(program, [counter], RuleContext()))
    # Within a call the repeated sibling is replayed; across calls
    # nothing is shared.
    assert counter.visits[(sing(v("x")), frozenset())] == 2


# ----------------------------------------------------------------------
# (c) fresh-name rules re-fire on replay
# ----------------------------------------------------------------------
class FreshWrap(Rule):
    """Var(n) => Sing(Var(<fresh name>)) — draws a name per firing."""

    name = "fresh-wrap"

    def __init__(self):
        self.applications = 0

    def apply(self, node, ctx):
        self.applications += 1
        if isinstance(node, Var):
            yield Sing(Var(ctx.fresh_param("n")))


class DrawOnly(Rule):
    """Draws a fresh name at every Sing but never fires."""

    name = "draw-only"

    def apply(self, node, ctx):
        if isinstance(node, Sing):
            ctx.fresh_param("d")
        return iter(())


def test_fresh_name_rule_refires_and_draws_in_the_same_order():
    rule = FreshWrap()
    rules = [DrawOnly(), rule]
    memo = {}
    program = tup(v("a"), sing(v("b")), v("a"))
    first = _assert_same_as_reference(
        program, rules, RuleContext(_rewrite_memo=memo)
    )
    applied = rule.applications
    replay_ctx = RuleContext(_rewrite_memo=memo)
    replayed = _assert_same_as_reference(program, rules, replay_ctx)
    assert _stream(replayed) == _stream(first)
    # The reference applies the rule at all five positions; the replay
    # re-applies it only where it fired (the three Vars) and draws as
    # many names as the first walk did: n1, d2, n3, n4.
    assert rule.applications - applied == 5 + 3
    assert replay_ctx._param_counter[0] == 4
    assert first[0].program.items[0] == Sing(Var("n1"))
    assert first[-1].program.items[2] == Sing(Var("n4"))


# ----------------------------------------------------------------------
# (d) a starved table gives identical streams
# ----------------------------------------------------------------------
def test_starved_table_gives_identical_streams(monkeypatch):
    monkeypatch.setattr(engine, "_REWRITE_MEMO_CAP", 4)
    session = Session()
    memo = {}
    for name in ("bnl-join", "external-sort", "grace-join"):
        experiment = session.experiment(name, "validation")
        ctx = RuleContext(
            hierarchy=experiment.hierarchy,
            input_locations=dict(experiment.input_locations),
            output_location=experiment.output_location,
            _rewrite_memo=memo,
        )
        frontier = [experiment.spec]
        for _ in range(2):
            children = []
            for program in frontier:
                for rewrite in _assert_same_as_reference(
                    program, default_rules(), ctx
                ):
                    children.append(canonicalize_blocks(rewrite.program))
                assert len(memo) <= 4
            frontier = children
        assert frontier


# ----------------------------------------------------------------------
# (e) memoized per-node facts equal their definitions
# ----------------------------------------------------------------------
def _reference_free_vars(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Lam):
        return _reference_free_vars(node.body) - set(
            pattern_names(node.pattern)
        )
    if isinstance(node, For):
        return _reference_free_vars(node.source) | (
            _reference_free_vars(node.body) - {node.var}
        )
    out = set()
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, Node):
                out |= _reference_free_vars(item)
    return out


def _reference_param_order(node):
    order = []
    for sub in walk(node):
        if isinstance(sub, (For, UnfoldR, FoldL)):
            values = (sub.block_in, sub.block_out)
        elif isinstance(sub, HashPartition):
            values = (sub.buckets,)
        else:
            values = ()
        for value in values:
            if isinstance(value, str) and value not in order:
                order.append(value)
    return tuple(order)


def _generated_programs():
    generator = ProgramGenerator(seed=31, config=GenConfig(max_size=30))
    ctx = RuleContext()
    for gen in generator.stream(40):
        yield gen.program
        # Rewrites add named block parameters the generator never emits.
        for rewrite in iter_rewrites(gen.program, default_rules(), ctx):
            yield rewrite.program


def test_memoized_facts_match_reference_on_generated_programs():
    checked = 0
    with_params = 0
    for program in _generated_programs():
        for sub in walk(program):
            assert free_vars(sub) == _reference_free_vars(sub)
            assert block_param_order(sub) == _reference_param_order(sub)
            checked += 1
        with_params += bool(block_param_order(program))
        canonical = canonicalize_blocks(program)
        expected = tuple(
            f"k{index}"
            for index in range(1, len(block_param_order(program)) + 1)
        )
        assert block_param_order(canonical) == expected
        assert _reference_param_order(canonical) == expected
    assert checked > 1000 and with_params > 10


def test_canonicalize_returns_an_already_canonical_program_unchanged():
    program = App(
        FoldL(Var("c"), Var("f"), block_in="k1", block_out="k2"), Var("R")
    )
    assert canonicalize_blocks(program) is program
    renamed = App(
        FoldL(Var("c"), Var("f"), block_in="k7", block_out="k1"), Var("R")
    )
    assert canonicalize_blocks(renamed) == program


def test_fresh_name_fallback_is_a_function_of_its_arguments():
    avoid = {"p", "p_0", "p_2"}
    first = fresh_name("p", avoid)
    # Under the old process-global counter these calls advanced the
    # suffix every later fallback started from.
    for base in ("q", "r", "s"):
        fresh_name(base, {base})
    assert fresh_name("p", avoid) == first == "p_1"


@pytest.mark.parametrize("cap", [1, 2])
def test_memo_trims_oldest_half_at_the_cap(monkeypatch, cap):
    monkeypatch.setattr(engine, "_REWRITE_MEMO_CAP", cap)
    memo = {}
    ctx = RuleContext(_rewrite_memo=memo)
    for index in range(5):
        program = tup(v(f"x{index}"), sing(v("y")))
        list(iter_rewrites(program, default_rules(), ctx))
        assert len(memo) <= cap
    # The root's entry is recorded last, so it survives the shed.
    assert (program, frozenset()) in memo

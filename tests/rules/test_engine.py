"""Engine-level tests: lazy generation, dedup, splicing, scoping.

These pin down the traversal machinery itself (``iter_rewrites``,
``_splice``, ``_child_scope``) independently of any real
transformation rule.
"""

from repro.ocal import For, Lit, Sing, Tup, Var
from repro.ocal.builders import for_, sing, tup, v
from repro.rules import Rule, RuleContext, all_rewrites, iter_rewrites
from repro.rules.engine import _child_scope, _splice


class UnwrapSing(Rule):
    """Sing(e) => e — contrived so nested positions can collide."""

    name = "unwrap-sing"

    def __init__(self):
        self.applications = 0

    def apply(self, node, ctx):
        self.applications += 1
        if isinstance(node, Sing):
            yield node.item


class RenameVar(Rule):
    """Var(old) => Var(new) at every occurrence."""

    name = "rename-var"

    def __init__(self, old: str, new: str):
        self.old = old
        self.new = new

    def apply(self, node, ctx):
        if isinstance(node, Var) and node.name == self.old:
            yield Var(self.new)


class RecordScopes(Rule):
    """Never rewrites; records the for-bound variables at each position."""

    name = "record-scopes"

    def __init__(self):
        self.scopes: list[tuple[type, frozenset]] = []

    def apply(self, node, ctx):
        self.scopes.append((type(node), ctx.for_bound_vars))
        return iter(())


class TestDedupDuringGeneration:
    def test_identical_rewrites_from_different_positions_collapse(self):
        # Sing(Sing(x)): unwrapping the outer or the inner Sing both
        # produce Sing(x) — one Rewrite must come out, not two.
        program = Sing(Sing(Var("x")))
        rewrites = all_rewrites(program, [UnwrapSing()], RuleContext())
        assert len(rewrites) == 1
        assert rewrites[0].program == Sing(Var("x"))

    def test_duplicate_variants_from_one_position_collapse(self):
        class TwiceRule(Rule):
            name = "twice"

            def apply(self, node, ctx):
                if isinstance(node, Var):
                    yield Lit(0)
                    yield Lit(0)

        rewrites = all_rewrites(Var("x"), [TwiceRule()], RuleContext())
        assert len(rewrites) == 1

    def test_dedup_happens_lazily(self):
        # Consuming one rewrite must not visit the whole tree: the root
        # Sing fires first and generation stops there.
        rule = UnwrapSing()
        deep = Sing(Sing(Sing(Sing(Sing(Var("x"))))))
        iterator = iter_rewrites(deep, [rule], RuleContext())
        first = next(iterator)
        assert first.program == Sing(Sing(Sing(Sing(Var("x")))))
        assert rule.applications == 1

    def test_distinct_outcomes_are_all_kept(self):
        program = tup(v("a"), v("a"))
        rewrites = all_rewrites(
            program, [RenameVar("a", "b")], RuleContext()
        )
        # Each occurrence produces a different whole program.
        assert {r.program for r in rewrites} == {
            Tup((Var("b"), Var("a"))),
            Tup((Var("a"), Var("b"))),
        }


class TestPositions:
    def test_positions_are_recorded(self):
        program = tup(v("a"), sing(v("a")))
        rewrites = all_rewrites(
            program, [RenameVar("a", "b")], RuleContext()
        )
        positions = {r.program: r.position for r in rewrites}
        assert positions[Tup((Var("b"), Sing(Var("a"))))] == (("items", 0),)
        assert positions[Tup((Var("a"), Sing(Var("b"))))] == (
            ("items", 1),
            ("item", None),
        )

    def test_generation_order_is_preorder(self):
        program = sing(tup(v("a"), v("a")))
        rewrites = all_rewrites(
            program, [RenameVar("a", "b")], RuleContext()
        )
        assert [r.position for r in rewrites] == [
            (("item", None), ("items", 0)),
            (("item", None), ("items", 1)),
        ]


class TestSplice:
    def test_scalar_field_splice(self):
        node = for_("x", v("R"), sing(v("x")))
        rebuilt = _splice(node, (("source", None),), v("S"))
        assert rebuilt == for_("x", v("S"), sing(v("x")))

    def test_tuple_field_splice_preserves_sibling_order(self):
        node = tup(v("a"), v("b"), v("c"))
        rebuilt = _splice(node, (("items", 1),), v("B"))
        assert rebuilt == Tup((Var("a"), Var("B"), Var("c")))

    def test_tuple_field_splice_at_each_index(self):
        node = tup(v("a"), v("b"), v("c"))
        for index, expected in [
            (0, Tup((Var("X"), Var("b"), Var("c")))),
            (2, Tup((Var("a"), Var("b"), Var("X")))),
        ]:
            assert _splice(node, (("items", index),), v("X")) == expected

    def test_nested_path_composes(self):
        outer_node = for_("x", v("R"), sing(v("x")))
        path = (("body", None), ("item", None))
        assert _splice(outer_node, path, v("y")) == for_(
            "x", v("R"), sing(v("y"))
        )

    def test_root_path_returns_the_replacement(self):
        assert _splice(sing(v("x")), (), v("y")) == v("y")


class TestChildScope:
    def test_for_source_does_not_see_loop_variable(self):
        node = for_("x", v("R"), sing(v("x")))
        inner = frozenset({"x"})
        outer = frozenset()
        assert _child_scope(node, "source", outer) == outer
        assert _child_scope(node, "body", outer) == inner

    def test_non_for_nodes_use_outer_scope(self):
        node = tup(v("a"), v("b"))
        outer = frozenset({"y"})
        assert _child_scope(node, "items", outer) == outer

    def test_engine_scoping_end_to_end(self):
        recorder = RecordScopes()
        program = for_(
            "x", v("R"), for_("y", sing(v("x")), sing(tup(v("x"), v("y"))))
        )
        list(iter_rewrites(program, [recorder], RuleContext()))
        by_type = {}
        for node_type, bound in recorder.scopes:
            by_type.setdefault(node_type, []).append(bound)
        # The outer For itself sits in an empty scope; the outer source
        # (Var R) sees nothing; the inner For's source sees only "x";
        # the innermost Tup sees both loop variables.
        assert frozenset() in by_type[For]
        assert by_type[Var][0] == frozenset()  # R, visited first
        assert frozenset({"x"}) in by_type[Sing][0:2]
        assert frozenset({"x", "y"}) in by_type[Tup]

"""Unit tests for the OCAL → Python lowering (DESIGN.md §12).

The parity suite (``tests/runtime/test_compiled_parity.py``) and the
conformance oracle pin end-to-end equivalence; this module pins the
*mechanics*: generated source shape (tuned blocks baked as constants,
loop shapes inlined, combinators dispatched statically onto the
primitive library), the per-program cache, evaluation-order/error
parity with the interpreter, and — one targeted case per shape —
that the lowering is total: function values, computed application and
every combinator run on a plain ``PrimitiveLibrary`` with the same
values, counters and error text as the ``file`` lane's walker.
"""

import pytest

from repro.codegen.py_codegen import (
    CompiledExec,
    clear_exec_cache,
    compile_exec,
    exec_cache_size,
)
from repro.hierarchy import KB, hdd_ram_hierarchy
from repro.ocal.builders import (
    add,
    app,
    concat,
    div,
    empty,
    eq,
    flat_map,
    fold_l,
    for_,
    func_pow,
    hash_partition,
    if_,
    lam,
    length,
    lit,
    lt,
    mrg,
    proj,
    sing,
    tree_fold,
    tup,
    unfold_r,
    v,
    zip_,
)
from repro.ocal.interp import InterpreterError, evaluate
from repro.runtime import (
    CompiledBackend,
    ExecutionConfig,
    ExecutionError,
    FileBackend,
    InputSpec,
)
from repro.runtime.file_backend import _Evaluator, materialize_value
from repro.runtime.filestore import MemList
from repro.runtime.primitives import PrimitiveLibrary


def scan(block=64):
    return for_(
        "xB", v("A"), for_("x", v("xB"), sing(v("x"))), block_in=block
    )


def config(**kwargs):
    defaults = dict(
        hierarchy=hdd_ram_hierarchy(8 * KB),
        input_locations={"A": "HDD", "B": "HDD"},
    )
    defaults.update(kwargs)
    return ExecutionConfig(**defaults)


def run_captured(backend_cls, program, data, specs, tmp_path, **cfg):
    backend = backend_cls(
        workdir=str(tmp_path), seed=3, data=data, capture_output=True
    )
    backend.run(program, specs, config(**cfg))
    return backend.last_output


class TestGeneratedSource:
    def test_blocked_scan_bakes_block_constant(self):
        compiled = compile_exec(scan(block=64))
        assert isinstance(compiled, CompiledExec)
        # The tuned block size is a literal in the loop nest, and the
        # hot scan shape is fully inlined — no AST re-walk at run time.
        assert "64" in compiled.source
        assert "rt.eval(" not in compiled.source
        assert "for " in compiled.source

    def test_different_tuning_compiles_different_source(self):
        a = compile_exec(scan(block=32))
        b = compile_exec(scan(block=128))
        assert a is not b
        assert a.source != b.source

    def test_lambda_step_unfold_is_inlined(self):
        # λ-step unfolds take the walker's *generic* path, so the
        # compiled form inlines the step loop; merge steps (mrg)
        # dispatch statically onto the shared stream-merge primitive.
        step = lam(
            "st",
            if_(
                eq(app(v("length"), proj(v("st"), 1)), lit(0)),
                tup(empty(), tup(empty(), empty())),
                tup(sing(lit(1)), tup(empty(), empty())),
            ),
        )
        lam_unfold = app(unfold_r(step, block_in=4), tup(v("A"), v("B")))
        source = compile_exec(lam_unfold).source
        assert "while any(" in source
        assert "rt._merge_streams" not in source
        mrg_unfold = app(unfold_r(mrg(), block_in=4), tup(v("A"), v("B")))
        source = compile_exec(mrg_unfold).source
        assert "rt._merge_streams(" in source
        assert "while any(" not in source

    def test_merge_treefold_bakes_tuned_blocks(self):
        sort = app(
            tree_fold(
                4, empty(), unfold_r(func_pow(2, mrg()), block_in=8,
                                     block_out=16)
            ),
            v("A"),
        )
        compiled = compile_exec(sort)
        # Static dispatch onto the external merge sort: block-in,
        # block-out and arity are literals, no node is consulted.
        assert ", 8, 16, 4)" in compiled.source
        assert "rt.merge_sort(" in compiled.source
        assert "_nodes" not in compiled.source

    def test_source_is_attached_to_function(self):
        compiled = compile_exec(scan())
        assert compiled.fn.__repro_source__ == compiled.source


class TestCache:
    def test_structurally_equal_programs_share_compilation(self):
        clear_exec_cache()
        first = compile_exec(scan(block=16))
        again = compile_exec(scan(block=16))
        assert first is again
        assert exec_cache_size() >= 1

    def test_clear_resets(self):
        compile_exec(scan(block=16))
        clear_exec_cache()
        assert exec_cache_size() == 0


class TestScalarSemantics:
    """Pure scalar programs run without touching the evaluator (rt)."""

    def exec_(self, program, env=None):
        return compile_exec(program).fn(dict(env or {}), None)

    def test_arithmetic_and_tuples(self):
        program = add(proj(tup(lit(2), lit(5)), 2), lit(1))
        assert self.exec_(program) == evaluate(program, {})

    def test_unbound_variable_message_matches_evaluator(self):
        with pytest.raises(ExecutionError, match="unbound variable 'S'"):
            self.exec_(v("S"))

    def test_dead_branch_never_evaluates_missing_input(self):
        # `S` is absent from the env; the interpreter only faults on
        # variables it actually evaluates, and so must generated code.
        program = if_(lit(False), v("S"), lit(3))
        assert self.exec_(program) == 3

    def test_non_bool_condition_rejected(self):
        program = if_(lit(1), lit(2), lit(3))
        with pytest.raises(ExecutionError, match="must be Bool"):
            self.exec_(program)

    def test_division_by_zero_matches_interpreter(self):
        program = div(lit(4), lit(0))
        with pytest.raises(InterpreterError, match="division by zero"):
            evaluate(program, {})
        with pytest.raises(InterpreterError, match="division by zero"):
            self.exec_(program)

    def test_integer_division_floors_like_interpreter(self):
        program = div(lit(7), lit(2))
        assert self.exec_(program) == evaluate(program, {})

    def test_bool_int_literals_stay_distinct(self):
        # Lit(False) and Lit(0) hash-cons to *different* programs; the
        # compiled forms must not be conflated through the cache.
        assert self.exec_(if_(lit(False), lit(1), lit(2))) == 2
        assert self.exec_(lit(0)) == 0
        assert self.exec_(lit(False)) is False


class TestBackendEquivalence:
    def test_fold_with_lambda_matches_file(self, tmp_path):
        program = for_(
            "xB",
            v("A"),
            sing(
                app(
                    fold_l(lit(0), lam(("acc", "e"), add(v("acc"), v("e")))),
                    v("xB"),
                )
            ),
            block_in=8,
        )
        data = {"A": list(range(20))}
        specs = {"A": InputSpec(20, 8)}
        file_out = run_captured(FileBackend, program, data, specs,
                                tmp_path / "f")
        comp_out = run_captured(CompiledBackend, program, data, specs,
                                tmp_path / "c")
        assert comp_out == file_out

    def test_nested_same_name_loops_do_not_clobber(self, tmp_path):
        # Both loops bind `x`: compile-time scoping must give each its
        # own Python local.
        program = for_(
            "x",
            v("A"),
            for_("x", v("B"), sing(v("x"))),
        )
        data = {"A": [1, 2], "B": [10, 20]}
        specs = {"A": InputSpec(2, 8), "B": InputSpec(2, 8)}
        comp_out = run_captured(CompiledBackend, program, data, specs,
                                tmp_path)
        assert sorted(comp_out) == [10, 10, 20, 20]

    def test_equality_filter_join(self, tmp_path):
        program = for_(
            "x",
            v("A"),
            for_(
                "y",
                v("B"),
                if_(eq(v("x"), v("y")), sing(tup(v("x"), v("y"))), empty()),
            ),
        )
        data = {"A": [1, 2, 3], "B": [2, 3, 4]}
        specs = {"A": InputSpec(3, 8), "B": InputSpec(3, 8)}
        comp_out = run_captured(CompiledBackend, program, data, specs,
                                tmp_path)
        assert sorted(tuple(r) for r in comp_out) == [(2, 2), (3, 3)]


PLUS = lam(("a", "b"), add(v("a"), v("b")))


def both_lanes(program, env=None):
    """Run *program* in memory on the walker and on generated code over
    a plain primitive library; return the two observations — value,
    ``sorted`` flag and CPU counters, or error type and message."""
    cfg = config(input_locations={})
    observed = []
    for lane in ("file", "compiled"):
        bound = {
            name: MemList(list(value)) if isinstance(value, list) else value
            for name, value in (env or {}).items()
        }
        try:
            if lane == "file":
                rt = _Evaluator(cfg, {})
                value = rt.eval(program, bound)
            else:
                rt = PrimitiveLibrary(cfg, {})
                assert not hasattr(rt, "eval")
                value = compile_exec(program).fn(bound, rt)
        except (ExecutionError, InterpreterError) as error:
            observed.append((type(error).__name__, str(error)))
        else:
            observed.append((
                materialize_value(value),
                getattr(value, "sorted", None),
                rt.iterations,
                rt.hashes,
            ))
    return observed


def agreed(program, env=None):
    """Both lanes' common observation (they must agree exactly)."""
    walker, generated = both_lanes(program, env)
    assert generated == walker
    return generated


class TestTotalLowering:
    """One case per shape the lowering used to hand to the walker."""

    A = [3, 1, 2, 5]

    def test_no_walker_entry_point_in_generated_source(self):
        program = for_(
            "x",
            app(
                lam("f", app(v("f"), tup(v("A"), v("A")))),
                unfold_r(mrg()),
            ),
            app(flat_map(if_(lit(True), lam("y", sing(v("y"))), length())),
                app(hash_partition(2), sing(v("x")))),
        )
        source = compile_exec(program).source
        for entry in ("eval", "_exec_flatmap", "_exec_unfold",
                      "_exec_treefold", "_apply_node"):
            assert f"rt.{entry}" not in source

    def test_closure_captured_in_a_fold_is_applied_later(self):
        # Each step wraps the previous accumulator *function*: the
        # closure must keep its own iteration's acc and e.
        program = app(
            app(
                fold_l(
                    lam("z", v("z")),
                    lam(
                        ("acc", "e"),
                        lam("y", add(app(v("acc"), v("y")), v("e"))),
                    ),
                ),
                v("A"),
            ),
            lit(100),
        )
        value, _, iterations, _ = agreed(program, {"A": self.A})
        assert value == 100 + sum(self.A)
        assert iterations == len(self.A)

    def test_closures_outlive_the_loop_that_made_them(self):
        makers = for_("x", v("A"), sing(lam("y", add(v("x"), v("y")))))
        program = for_("f", makers, sing(app(v("f"), lit(10))))
        value, *_ = agreed(program, {"A": self.A})
        assert value == [x + 10 for x in self.A]

    def test_if_selected_function_value_is_applied(self):
        program = app(
            if_(lt(lit(1), lit(2)), PLUS, lam(("a", "b"), v("a"))),
            tup(lit(4), lit(5)),
        )
        assert agreed(program)[0] == 9
        chosen = app(
            if_(lit(False), fold_l(lit(0), PLUS), length()), v("A")
        )
        assert agreed(chosen, {"A": self.A})[0] == len(self.A)

    def test_if_selected_flatmap_streams_into_the_loop_sink(self):
        once = flat_map(lam("x", sing(v("x"))))
        twice = flat_map(lam("x", concat(sing(v("x")), sing(v("x")))))
        program = for_(
            "xB",
            v("A"),
            app(
                if_(lt(app(length(), v("xB")), lit(2)), once, twice),
                v("xB"),
            ),
            block_in=2,
        )
        value, *_ = agreed(program, {"A": self.A + [9]})
        assert value == [3, 3, 1, 1, 2, 2, 5, 5, 9]

    def test_computed_flatmap_spills_exactly_like_the_walker(self, tmp_path):
        # Each application emits 32 KB on an 8 KB root.  The walker
        # streams a computed flatMap into the loop's sink; a private
        # builder would spill and be re-read — different counters.
        twice = flat_map(lam("x", concat(sing(v("x")), sing(v("x")))))
        program = for_(
            "xB",
            v("A"),
            app(if_(lit(True), twice, flat_map(lam("x", empty()))), v("xB")),
            block_in=2048,
        )
        data = {"A": list(range(4096))}
        specs = {"A": InputSpec(4096, 8)}
        runs = []
        for backend_cls in (FileBackend, CompiledBackend):
            backend = backend_cls(
                workdir=str(tmp_path / backend_cls.name), data=data,
                capture_output=True,
            )
            result = backend.run(program, specs, config())
            hdd = result.stats.device("HDD")
            runs.append((
                backend.last_output, hdd.reads, hdd.writes, hdd.bytes_read,
                hdd.bytes_written, hdd.seeks, result.elapsed,
            ))
        assert runs[0] == runs[1]
        assert runs[0][4] == 2 * 4096 * 8  # spilled once, never re-written

    def test_applying_a_non_function_is_the_same_error(self):
        assert agreed(app(lit(3), lit(4))) == (
            "ExecutionError", "cannot execute application of Lit"
        )

    def test_flatmap_over_a_computed_function(self):
        program = app(
            lam("f", app(flat_map(v("f")), v("A"))),
            lam("x", sing(add(v("x"), lit(1)))),
        )
        value, _, iterations, _ = agreed(program, {"A": self.A})
        assert value == [x + 1 for x in self.A]
        assert iterations == len(self.A)

    def test_non_merge_treefold_runs_the_shared_queue(self):
        program = app(tree_fold(2, lit(0), PLUS), v("A"))
        value, _, iterations, _ = agreed(program, {"A": self.A})
        assert (value, iterations) == (sum(self.A), 3)
        assert agreed(program, {"A": []})[0] == 0
        wide = app(tree_fold(4, lit(0), func_pow(2, PLUS)), v("A"))
        assert agreed(wide, {"A": self.A + [7]})[0] == sum(self.A) + 7

    def test_non_merge_treefold_over_the_root_budget(self, tmp_path):
        program = app(tree_fold(2, lit(0), PLUS), v("A"))
        data = {"A": list(range(2000))}  # 16 KB on an 8 KB root
        specs = {"A": InputSpec(2000, 8)}
        errors = []
        for backend_cls in (FileBackend, CompiledBackend):
            with pytest.raises(ExecutionError) as caught:
                run_captured(backend_cls, program, data, specs,
                             tmp_path / backend_cls.name)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0] == "non-merge treeFold working set exceeds the root"

    def test_unexecutable_steps_are_the_same_errors(self):
        assert agreed(
            app(tree_fold(2, lit(0), fold_l(lit(0), PLUS)), v("A")),
            {"A": self.A},
        ) == ("ExecutionError", "cannot execute treeFold step FoldL")
        assert agreed(
            app(tree_fold(4, lit(0), func_pow(2, mrg())), v("A")),
            {"A": self.A},
        ) == ("ExecutionError", "cannot execute funcPow over Builtin")
        assert agreed(
            app(unfold_r(length()), tup(v("A"), v("A"))), {"A": self.A}
        ) == ("ExecutionError", "cannot execute unfoldR step Builtin")

    def test_funcpow_arity_errors(self):
        quad = func_pow(2, PLUS)
        assert agreed(app(quad, tup(*map(lit, (1, 2, 3, 4)))))[0] == 10
        assert agreed(app(quad, tup(lit(1), lit(2), lit(3)))) == (
            "ExecutionError", "funcPow[2] expects a tuple of arity 4"
        )
        assert agreed(app(quad, lit(1))) == (
            "ExecutionError", "funcPow expects a tuple argument"
        )
        octo = app(func_pow(3, PLUS), tup(*map(lit, range(8))))
        assert agreed(octo)[0] == sum(range(8))

    def test_unfold_merge_is_sorted_and_zip_is_not(self):
        env = {"A": [1, 3, 5], "B": [2, 4, 6]}
        merged = app(unfold_r(mrg(), block_in=2), tup(v("A"), v("B")))
        value, is_sorted, iterations, _ = agreed(merged, env)
        assert (value, is_sorted, iterations) == ([1, 2, 3, 4, 5, 6], True, 6)
        zipped = app(unfold_r(zip_(), block_in=2), tup(v("A"), v("B")))
        value, is_sorted, iterations, _ = agreed(zipped, env)
        assert (value, is_sorted, iterations) == (
            [(1, 2), (3, 4), (5, 6)], False, 3
        )

    def test_definitions_as_values(self):
        apply_to_a = lambda fn: app(lam("f", app(v("f"), v("A"))), fn)  # noqa: E731
        value, _, _, hashes = agreed(
            apply_to_a(hash_partition(2)), {"A": self.A}
        )
        assert sorted(sum(value, [])) == sorted(self.A)
        assert hashes == len(self.A)
        assert agreed(
            apply_to_a(tree_fold(2, lit(0), PLUS)), {"A": self.A}
        )[0] == sum(self.A)

"""End-to-end pipeline tests: spec → synthesis → plan → simulation →
generated code.

These cover the seams between packages that unit tests cannot: tuned
parameters flowing into executable plans, semantic equivalence of the
winner at every stage, and the code generator accepting (and running)
real synthesizer output.
"""

import pytest

from repro.codegen import compile_candidate, compile_exec
from repro.cost import atom, list_annot, tuple_annot
from repro.hierarchy import MB, hdd_ram_hierarchy, two_hdd_hierarchy
from repro.conformance.oracle import output_bag
from repro.ocal import block_params, evaluate
from repro.ocal.ast import For, walk
from repro.runtime import CompiledBackend, ExecutionConfig, InputSpec
from repro.search import Synthesizer
from repro.symbolic import var
from repro.workloads import (
    aggregation_spec,
    insertion_sort_spec,
    make_singleton_runs,
    make_tuples,
    naive_join_spec,
)


@pytest.fixture(scope="module")
def join_result():
    synth = Synthesizer(
        hierarchy=hdd_ram_hierarchy(8 * MB), max_depth=4, max_programs=200
    )
    return synth.synthesize(
        spec=naive_join_spec(),
        input_annots={
            "R": list_annot(tuple_annot(atom(8), atom(504)), var("x")),
            "S": list_annot(tuple_annot(atom(8), atom(504)), var("y")),
        },
        input_locations={"R": "HDD", "S": "HDD"},
        stats={"x": 2.0**21, "y": 2.0**16},
    )


class TestJoinPipeline:
    def test_plan_has_no_unbound_parameters(self, join_result):
        plan = compile_candidate(join_result.best)
        assert block_params(plan.program) == frozenset()

    def test_plan_executes_and_returns_stats(self, join_result):
        plan = compile_candidate(join_result.best)
        config = ExecutionConfig(
            hierarchy=hdd_ram_hierarchy(8 * MB),
            input_locations={"R": "HDD", "S": "HDD"},
            cond_probability=1e-6,
            output_card_override=1000.0,
        )
        result = plan.execute(
            config,
            {"R": InputSpec(2**21, 512), "S": InputSpec(2**16, 512)},
        )
        assert result.elapsed > 0
        assert result.stats.device("HDD").bytes_read > 0

    def test_measured_tracks_estimate(self, join_result):
        plan = compile_candidate(join_result.best)
        config = ExecutionConfig(
            hierarchy=hdd_ram_hierarchy(8 * MB),
            input_locations={"R": "HDD", "S": "HDD"},
            cond_probability=1e-6,
            output_card_override=1000.0,
        )
        result = plan.execute(
            config,
            {"R": InputSpec(2**21, 512), "S": InputSpec(2**16, 512)},
        )
        assert 0.2 <= result.elapsed / join_result.opt_cost <= 5.0

    def test_winner_still_joins_correctly(self, join_result):
        program = join_result.best.executable()
        R = make_tuples(10, 4, seed=1)
        S = make_tuples(8, 4, seed=2)
        expected = {
            tuple(sorted(map(repr, (x, y))))
            for x in R
            for y in S
            if x[0] == y[0]
        }
        actual = {
            tuple(sorted(map(repr, row)))
            for row in evaluate(program, {"R": R, "S": S})
        }
        assert actual == expected

    def test_c_generation_accepts_winner(self, join_result, tmp_path):
        """The code that actually runs: the winner lowers to flat
        Python with its tuned block sizes as integer constants, and the
        generated function computes the reference join."""
        program = join_result.best.executable()
        source = compile_exec(program).source
        blocks = {
            node.block_in
            for node in walk(program)
            if isinstance(node, For) and node.block_in != 1
        }
        assert blocks
        for block in blocks:
            assert isinstance(block, int)
            assert f"), {block}):" in source  # the inlined block loop
        R = make_tuples(40, 6, seed=1)
        S = make_tuples(30, 6, seed=2)
        backend = CompiledBackend(
            workdir=str(tmp_path), data={"R": R, "S": S}, capture_output=True
        )
        backend.run(
            program,
            {"R": InputSpec(len(R), 16), "S": InputSpec(len(S), 16)},
            ExecutionConfig(
                hierarchy=hdd_ram_hierarchy(8 * MB),
                input_locations={"R": "HDD", "S": "HDD"},
            ),
        )
        pair_swap = "order-inputs" in join_result.best.derivation
        assert output_bag(
            backend.last_output, pair_swap=pair_swap
        ) == output_bag(
            evaluate(naive_join_spec(), {"R": R, "S": S}),
            pair_swap=pair_swap,
        )


class TestSortPipeline:
    @pytest.fixture(scope="class")
    def sort_result(self):
        synth = Synthesizer(
            hierarchy=hdd_ram_hierarchy(4 * MB),
            max_depth=6,
            max_programs=200,
            max_treefold_arity=16,
        )
        return synth.synthesize(
            spec=insertion_sort_spec(),
            input_annots={
                "Rs": list_annot(list_annot(atom(8), 1), var("x")),
            },
            input_locations={"Rs": "HDD"},
            stats={"x": 2.0**24},
            output_location="HDD",
        )

    def test_sort_plan_round_trip(self, sort_result):
        plan = compile_candidate(sort_result.best)
        data = make_singleton_runs(40, 500, seed=3)
        out = evaluate(plan.program, {"Rs": data})
        assert out == sorted(x for [x] in data)

    def test_sort_simulation_beats_naive_by_orders(self, sort_result):
        plan = compile_candidate(sort_result.best)
        config = ExecutionConfig(
            hierarchy=hdd_ram_hierarchy(4 * MB),
            input_locations={"Rs": "HDD"},
            output_location="HDD",
        )
        result = plan.execute(config, {"Rs": InputSpec(2**24, 8)})
        assert result.elapsed < sort_result.spec_cost / 1e4


class TestHierarchyAdaptation:
    def test_output_device_changes_the_winner_costs(self):
        """The same spec costed against two hierarchies gives different
        tuned programs — OCAS's installation-time adaptation story."""
        spec = aggregation_spec()
        annots = {"A": list_annot(atom(8), var("x"))}
        big = Synthesizer(
            hierarchy=hdd_ram_hierarchy(64 * MB), max_depth=3,
            max_programs=40,
        ).synthesize(spec, annots, {"A": "HDD"}, {"x": 2.0**27})
        small = Synthesizer(
            hierarchy=hdd_ram_hierarchy(64 * 1024), max_depth=3,
            max_programs=40,
        ).synthesize(spec, annots, {"A": "HDD"}, {"x": 2.0**27})
        big_k = max(big.best.tuned.values.values(), default=1)
        small_k = max(small.best.tuned.values.values(), default=1)
        assert big_k > small_k  # more memory → bigger blocks
        # More memory can never make the best program costlier; with a
        # seq-ac annotated scan (one seek per pass) the costs may tie.
        assert big.opt_cost <= small.opt_cost * 1.0001

    def test_two_disk_hierarchy_synthesizes(self):
        synth = Synthesizer(
            hierarchy=two_hdd_hierarchy(8 * MB), max_depth=3,
            max_programs=100,
        )
        result = synth.synthesize(
            spec=naive_join_spec(),
            input_annots={
                "R": list_annot(tuple_annot(atom(8), atom(504)), var("x")),
                "S": list_annot(tuple_annot(atom(8), atom(504)), var("y")),
            },
            input_locations={"R": "HDD", "S": "HDD"},
            stats={"x": 2.0**18, "y": 2.0**14},
            output_location="HDD2",
        )
        assert result.opt_cost < result.spec_cost

"""Tests for the cost memoization cache (estimates + tunings)."""

import pytest

from repro.cost import (
    CacheStats,
    CostEstimator,
    CostModel,
    CostMemo,
    EstimatorError,
    atom,
    list_annot,
    tuple_annot,
)
from repro.hierarchy import MB, hdd_ram_hierarchy
from repro.search import Synthesizer
from repro.symbolic import var
from repro.workloads import naive_join_spec

JOIN_ANNOTS = {
    "R": list_annot(tuple_annot(atom(1), atom(1)), var("x")),
    "S": list_annot(tuple_annot(atom(1), atom(1)), var("y")),
}
JOIN_STATS = {"x": 2.0**20, "y": 2.0**16}


def join_model():
    return CostModel(
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots=JOIN_ANNOTS,
        input_locations={"R": "HDD", "S": "HDD"},
        stats=JOIN_STATS,
    )


class TestCacheStats:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats(estimate_hits=3, estimate_misses=1, tune_hits=2,
                           tune_misses=2)
        assert stats.hits == 5
        assert stats.lookups == 8
        assert stats.hit_rate == pytest.approx(5 / 8)

    def test_since_snapshot(self):
        stats = CacheStats(estimate_hits=2, tune_misses=1)
        before = stats.snapshot()
        stats.estimate_hits += 3
        stats.tune_hits += 1
        delta = stats.since(before)
        assert delta.estimate_hits == 3
        assert delta.tune_hits == 1
        assert delta.tune_misses == 0


class TestEstimateMemo:
    def test_estimate_computed_once(self):
        memo = CostMemo()
        model = join_model()
        program = naive_join_spec()
        calls = []

        def compute():
            calls.append(1)
            return CostEstimator(model).estimate(program)

        first = memo.estimate(program, compute)
        second = memo.estimate(program, compute)
        assert first is second
        assert len(calls) == 1
        assert memo.stats.estimate_misses == 1
        assert memo.stats.estimate_hits == 1

    def test_failures_are_memoized(self):
        memo = CostMemo()
        calls = []

        def compute():
            calls.append(1)
            raise EstimatorError("nope")

        program = naive_join_spec()
        with pytest.raises(EstimatorError):
            memo.estimate(program, compute)
        with pytest.raises(EstimatorError):
            memo.estimate(program, compute)
        assert len(calls) == 1


class TestTuneMemo:
    def test_tuning_reused_for_identical_problems(self):
        memo = CostMemo()
        model = join_model()
        program = naive_join_spec()
        estimate = memo.estimate(
            program, lambda: CostEstimator(model).estimate(program)
        )
        first = memo.tune(estimate, JOIN_STATS)
        second = memo.tune(estimate, JOIN_STATS)
        assert first is second
        assert memo.stats.tune_misses == 1
        assert memo.stats.tune_hits == 1

    def test_different_stats_are_different_problems(self):
        memo = CostMemo()
        model = join_model()
        program = naive_join_spec()
        estimate = memo.estimate(
            program, lambda: CostEstimator(model).estimate(program)
        )
        memo.tune(estimate, JOIN_STATS)
        memo.tune(estimate, {"x": 2.0**10, "y": 2.0**8})
        assert memo.stats.tune_misses == 2

    def test_sizes_and_clear(self):
        memo = CostMemo()
        model = join_model()
        program = naive_join_spec()
        estimate = memo.estimate(
            program, lambda: CostEstimator(model).estimate(program)
        )
        memo.tune(estimate, JOIN_STATS)
        estimates, tunings, _subtrees = memo.sizes()
        assert estimates == 1 and tunings == 1
        memo.clear()
        assert memo.sizes() == (0, 0, 0)


class TestSynthesizerIntegration:
    def test_repeated_synthesis_hits_the_cache(self):
        synth = Synthesizer(
            hierarchy=hdd_ram_hierarchy(8 * MB), max_depth=2, max_programs=60
        )

        def run():
            return synth.synthesize(
                spec=naive_join_spec(),
                input_annots=JOIN_ANNOTS,
                input_locations={"R": "HDD", "S": "HDD"},
                stats=JOIN_STATS,
            )

        first, second = run(), run()
        assert first.cache.estimate_hits == 0 or (
            first.cache.estimate_hits < first.cache.estimate_misses
        )
        # The second run re-visits exactly the same programs: everything
        # is served from the memo.
        assert second.cache.estimate_misses == 0
        assert second.cache.tune_misses == 0
        assert second.cache.estimate_hits > 0
        assert second.best.program == first.best.program
        assert second.opt_cost == first.opt_cost

    def test_cache_counters_reported_per_run(self):
        synth = Synthesizer(
            hierarchy=hdd_ram_hierarchy(8 * MB), max_depth=2, max_programs=60
        )

        def run():
            return synth.synthesize(
                spec=naive_join_spec(),
                input_annots=JOIN_ANNOTS,
                input_locations={"R": "HDD", "S": "HDD"},
                stats=JOIN_STATS,
            )

        first, second = run(), run()
        # Per-run deltas, not cumulative totals.
        assert second.cache.estimate_hits <= (
            first.cache.estimate_hits + first.cache.estimate_misses
        )
        assert second.cache.hit_rate == 1.0

    def test_intra_run_tuning_reuse_across_candidates(self):
        synth = Synthesizer(
            hierarchy=hdd_ram_hierarchy(8 * MB), max_depth=3, max_programs=120
        )
        result = synth.synthesize(
            spec=naive_join_spec(),
            input_annots=JOIN_ANNOTS,
            input_locations={"R": "HDD", "S": "HDD"},
            stats=JOIN_STATS,
        )
        # Structurally different candidates collapse to identical
        # optimization problems; the optimizer runs once per problem.
        assert result.cache.tune_hits > 0
        assert result.cache.tune_misses < result.candidates_costed


class TestBoundedEviction:
    """A table at the cap sheds its oldest half — never the whole table.

    The old behaviour (``table.clear()`` at ``maxsize``) discarded every
    byte of amortization in one insert; these tests pin both the new
    eviction shape and the invariant that makes any eviction safe: a
    capped memo only ever recomputes, it never changes answers.
    """

    def _programs(self):
        """Five distinct programs, all estimable under ``join_model``."""
        from repro.ocal.builders import for_, sing, tup, v

        return [
            for_("a", v("R"), sing(v("a"))),
            for_("a", v("S"), sing(v("a"))),
            for_("a", v("R"), sing(tup(v("a"), v("a")))),
            for_("a", v("S"), sing(tup(v("a"), v("a")))),
            for_("a", v("R"), for_("b", v("S"), sing(tup(v("a"), v("b"))))),
        ]

    def test_trim_keeps_the_newest_half(self):
        from repro.bounded import trim_oldest_half

        table = {f"k{i}": i for i in range(6)}
        trim_oldest_half(table)
        assert list(table) == ["k3", "k4", "k5"]

    def test_trim_of_tiny_table_still_makes_room(self):
        from repro.bounded import trim_oldest_half

        table = {"only": 1}
        trim_oldest_half(table)
        assert table == {}

    def test_at_cap_insert_keeps_recent_entries(self):
        memo = CostMemo(maxsize=4)
        programs = self._programs()
        originals = [
            memo.estimate(
                program,
                lambda p=program: CostEstimator(
                    join_model(), memo=memo
                ).estimate(p),
            )
            for program in programs[:4]
        ]
        # Table is full; the next insert evicts the *oldest half* only.
        memo.estimate(
            programs[4],
            lambda: CostEstimator(join_model(), memo=memo).estimate(
                programs[4]
            ),
        )
        held, _, _ = memo.sizes()
        assert held == 3  # 4 - 2 evicted + 1 inserted
        # The newest pre-eviction entries survived…
        assert memo.has_estimate(programs[2])
        assert memo.has_estimate(programs[3])
        # …the oldest were evicted…
        assert not memo.has_estimate(programs[0])
        assert not memo.has_estimate(programs[1])
        # …and an evicted entry recomputes to the same answer.
        recomputed = memo.estimate(
            programs[0],
            lambda: CostEstimator(join_model(), memo=memo).estimate(
                programs[0]
            ),
        )
        assert recomputed.total == originals[0].total

    def test_capped_memo_never_changes_the_winner(self):
        def run(cap):
            synth = Synthesizer(
                hierarchy=hdd_ram_hierarchy(8 * MB),
                max_depth=2,
                max_programs=60,
            )
            memo = synth.memo_for_inputs(
                JOIN_ANNOTS, {"R": "HDD", "S": "HDD"}, JOIN_STATS
            )
            if cap is not None:
                memo.maxsize = cap
            results = [
                synth.synthesize(
                    spec=naive_join_spec(),
                    input_annots=JOIN_ANNOTS,
                    input_locations={"R": "HDD", "S": "HDD"},
                    stats=JOIN_STATS,
                )
                for _ in range(2)  # second run reuses the evicting memo
            ]
            return results

        unlimited = run(None)
        starved = run(4)  # evicts constantly
        for free, capped in zip(unlimited, starved):
            assert capped.best.program == free.best.program
            assert capped.opt_cost == free.opt_cost
            assert capped.best.tuned.values == free.best.tuned.values

    def _estimates(self, memo, programs):
        return [
            memo.estimate(
                program,
                lambda p=program: CostEstimator(
                    join_model(), memo=memo
                ).estimate(p),
            )
            for program in programs
        ]

    def test_bounds_table_sheds_its_oldest_half_at_the_cap(self):
        from repro.cost import optimistic_cost

        memo = CostMemo(maxsize=4)
        estimates = self._estimates(memo, self._programs()[:4])
        # One estimate under five statistics = five distinct problems.
        problems = [
            (estimates[i % 4], {"x": 2.0**20, "y": 2.0 ** (10 + i)})
            for i in range(5)
        ]
        for estimate, stats in problems[:4]:
            assert memo.bound(estimate, stats) == optimistic_cost(
                estimate, stats
            )
        keys = list(memo.bounds)
        assert len(keys) == 4
        memo.bound(*problems[4])
        assert list(memo.bounds)[:2] == keys[2:]  # newest half survived
        assert len(memo.bounds) == 3  # 4 - 2 shed + 1 inserted
        # A shed bound recomputes to the same float.
        estimate, stats = problems[0]
        assert memo.bound(estimate, stats) == optimistic_cost(estimate, stats)

    def test_bound_is_computed_once_per_problem(self, monkeypatch):
        import repro.cost.cache as cache

        calls = []
        real = cache.optimistic_cost
        monkeypatch.setattr(
            cache,
            "optimistic_cost",
            lambda estimate, stats, minima: calls.append(1)
            or real(estimate, stats, minima),
        )
        memo = CostMemo()
        (estimate,) = self._estimates(memo, self._programs()[:1])
        first = memo.bound(estimate, JOIN_STATS)
        assert memo.bound(estimate, dict(JOIN_STATS)) == first
        assert len(calls) == 1
        memo.clear()
        assert memo.bounds == {}

    def test_starved_tables_leave_table1_best_first_bit_identical(self):
        """Every table at ``maxsize=4`` — the bounds, folded-tuning,
        fold and term-minimum tables shed on nearly every insert —
        against the goldens and a free run."""
        import json
        import os

        from repro.api import Session
        from repro.ocal.printer import pretty

        golden_path = os.path.join(
            os.path.dirname(__file__), "..", "bench", "goldens",
            "table1_winners.json",
        )
        with open(golden_path) as handle:
            goldens = json.load(handle)

        starved_memos = []

        def sweep(maxsize):
            session = Session(strategy="best-first")
            rows = {}
            for name in session.workloads(scale="table1"):
                experiment = session.experiment(name, "table1")
                if maxsize is not None:
                    starved_memos.append(CostMemo(maxsize=maxsize))
                    session.synthesizer(experiment).memo_for_inputs(
                        experiment.input_annots,
                        experiment.input_locations,
                        experiment.stats,
                        experiment.output_location,
                        adopt=starved_memos[-1],
                    )
                job = session.synthesize(name, scale="table1")
                rows[job.workload] = (
                    pretty(job.winner),
                    list(job.derivation),
                    float.hex(job.opt_cost),
                    job.search.pruned,
                    job.search.costed,
                )
            return rows

        free, starved = sweep(None), sweep(4)
        assert starved == free
        # The folded-tuning, fold and term-minimum tables starved too;
        # the last two are shed once per problem, so they may exceed
        # the cap by one problem's terms and constraint sides.
        for memo in starved_memos:
            assert 0 < len(memo._folded_tunings) <= 4
            assert 0 < len(memo._folds) < 4 + 40
            assert 0 < len(memo._term_minima) < 4 + 40
        for name, (program, derivation, *_) in starved.items():
            assert program == goldens[name]["best-first"]["program"]
            assert derivation == goldens[name]["best-first"]["derivation"]

    def test_capped_memo_never_changes_reestimation_results(self):
        from repro.ocal.builders import for_, sing, tup, v

        inner = for_(
            "yB", v("S"), sing(tup(v("xB"), v("yB"))), block_in="k2"
        )
        warm_with = for_("xB", v("R"), inner, block_in="k1")
        target = for_("xB", v("R"), inner, block_in="k3")
        memo = CostMemo(maxsize=2)  # subtree table evicts while warming
        CostEstimator(join_model(), memo=memo).estimate(warm_with)
        via_capped = CostEstimator(join_model(), memo=memo).estimate(target)
        fresh = CostEstimator(join_model()).estimate(target)
        assert via_capped.total == fresh.total
        assert via_capped.constraints == fresh.constraints
        assert via_capped.events.init == fresh.events.init
        assert via_capped.events.unit == fresh.events.unit


class TestSubtreeCache:
    """Incremental re-estimation: cached subtrees replay exactly (ISSUE 5)."""

    def _estimate(self, program, memo):
        model = join_model()
        return CostEstimator(model, memo=memo).estimate(program)

    def test_sibling_candidates_share_subtrees(self):
        from repro.ocal.builders import for_, sing, tup, v

        # R and S have identical element annotations, so the loop body
        # is visited under a bit-identical context in both programs.
        body = sing(tup(v("xB"), v("xB")))
        a = for_("xB", v("R"), body)
        b = for_("xB", v("S"), body)
        memo = CostMemo()
        self._estimate(a, memo)
        before = memo.stats.subtree_hits
        self._estimate(b, memo)
        # The shared loop body (same subtree, same context) hits.
        assert memo.stats.subtree_hits > before

    def test_cached_estimate_identical_to_fresh_walk(self):
        from repro.ocal.builders import for_, sing, tup, v

        inner = for_("yB", v("S"), sing(tup(v("xB"), v("yB"))), block_in="k2")
        warm_with = for_("xB", v("R"), inner, block_in="k1")
        target = for_("xB", v("R"), inner, block_in="k3")
        memo = CostMemo()
        self._estimate(warm_with, memo)  # seeds subtree entries
        via_cache = self._estimate(target, memo)
        fresh = CostEstimator(join_model()).estimate(target)
        assert via_cache.total == fresh.total
        assert via_cache.constraints == fresh.constraints
        assert via_cache.parameters == fresh.parameters
        assert via_cache.events.init == fresh.events.init
        assert via_cache.events.unit == fresh.events.unit

    def test_maxsize_bounds_the_tables(self):
        from repro.ocal.builders import for_, sing, v

        memo = CostMemo(maxsize=2)
        for name in ("R", "S"):
            program = for_("a", v(name), sing(v("a")))
            memo.estimate(
                program,
                lambda p=program: CostEstimator(
                    join_model(), memo=memo
                ).estimate(p),
            )
        assert len(memo._estimates) <= 2
        assert len(memo.subtrees) <= 2

"""The paper's §7 evidence as tier-1 predicates.

* **Table 1** reads the session's one catalog sweep (``table1_jobs`` in
  ``conftest.py``) and adds one analytic ``sim`` run per row for the
  *Act* column; the exhaustive-BFS winner is the row's program.
* **Figure 8** calls :mod:`repro.bench.figure8`'s three sweeps.
* **The rule ablation** re-synthesizes the join and the sort with one
  rule disabled at a time.
* **§7.4** counts the join's search space by depth and input size, and
  what best-first and a width-3 beam (``narrow_beam`` in
  ``conftest.py``) cost against exhaustive BFS.

Absolute numbers are not the paper's (a simulated substrate, rescaled
inputs); the reproduced claims are the relationships.  Wall-clock
comparisons live in ``perf/`` (``program.*.plan_s``,
``parallel.*_workers2_ratio``), not here.
"""

import pytest

from repro.bench import aggregation_sweep, bnl_writeout_sweep, merge_sort_sweep
from repro.cost import CostMemo, atom, list_annot, tuple_annot
from repro.hierarchy import MB, hdd_ram_hierarchy
from repro.ocal import App, TreeFold
from repro.rules import default_rules
from repro.search import Synthesizer
from repro.symbolic import var
from repro.workloads import insertion_sort_spec, naive_join_spec

BNL = "BNL - No writeout"
BNL_CACHE = "BNL with cache - No writeout"
GRACE = "(GRACE) hash join - No writeout"
JOINS = (BNL, BNL_CACHE, GRACE)
WRITE_SAME, WRITE_OTHER, WRITE_FLASH = (
    "BNL writing to HDD",
    "BNL wr. to other HDD",
    "BNL writing to flash",
)
SORT = "External sorting"
UNIONS = (
    "Set Union",
    "Multiset Union (sorted list)",
    "Multiset Union (value-mult.)",
)
DIFFS = ("Multiset Diff. (sorted list)", "Multiset Diff. (value-mult.)")
COLS5, COLS10 = "Column Store Read 5 cols.", "Column Store Read 10 cols."
DEDUP, AGG = "Dup. Removal from Sorted List", "Aggregation"

RULE_NAMES = [rule.name for rule in default_rules()]
JOIN_ANNOTS = {
    "R": list_annot(tuple_annot(atom(8), atom(504)), var("x")),
    "S": list_annot(tuple_annot(atom(8), atom(504)), var("y")),
}
JOIN_LOCATIONS = {"R": "HDD", "S": "HDD"}
JOIN_STATS = {"x": 2.0**21, "y": 2.0**16}


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rows(table1_jobs):
    """``{experiment name: JobResult}``: each exhaustive winner on ``sim``."""
    return {
        name: per_strategy["exhaustive-bfs"].run("sim")
        for name, per_strategy in table1_jobs.items()
    }


def test_bnl_join(rows):
    row = rows[BNL]
    # Spec ≫ Opt; the simulated time tracks the estimate within a small
    # factor.
    assert row.job.spec_cost > row.job.opt_cost * 1e3
    assert 0.5 <= row.act_over_opt <= 4.0
    assert "apply-block" in row.job.derivation


def test_bnl_with_cache(rows):
    row = rows[BNL_CACHE]
    assert row.job.spec_cost > row.job.opt_cost * 1e3


def test_grace_hash_join_beats_bnl(rows):
    grace, bnl = rows[GRACE], rows[BNL]
    assert "hash-part" in grace.job.derivation
    assert grace.elapsed < bnl.elapsed
    assert grace.job.opt_cost < bnl.job.opt_cost


def test_writeout_ordering(rows):
    same, other, flash = rows[WRITE_SAME], rows[WRITE_OTHER], rows[WRITE_FLASH]
    # Rows 4 vs 5: a separate disk cuts estimated and simulated time.
    assert other.job.opt_cost < same.job.opt_cost
    assert other.elapsed < same.elapsed
    # Rows 5 vs 6: flash output is faster than the second hard disk,
    # and so faster than writing back to the input disk.
    assert flash.job.opt_cost < other.job.opt_cost
    assert flash.elapsed < other.elapsed < same.elapsed


def test_external_sorting(rows):
    row = rows[SORT]
    # The winner is a multi-way treeFold merge sort...
    program = row.job.winner
    assert isinstance(program, App) and isinstance(program.fn, TreeFold)
    assert program.fn.arity >= 4
    # ...derived through the paper's chain of rules...
    assert "fldL-to-trfld" in row.job.derivation
    assert "inc-branching" in row.job.derivation
    # ...with an enormous improvement over the n² spec.
    assert row.job.spec_cost > row.job.opt_cost * 1e5
    assert 0.3 <= row.act_over_opt <= 4.0


def test_setops_gain_over_specs(rows):
    for name in UNIONS + DIFFS:
        assert rows[name].job.spec_cost > rows[name].job.opt_cost * 10, name


def test_union_estimates_track_actuals(rows):
    for name in UNIONS:
        assert 0.4 <= rows[name].act_over_opt <= 2.5, name


def test_difference_is_overestimated(rows):
    # §7.3: the worst case (nothing cancels) does not materialize, so
    # difference runs finish faster relative to their estimates than
    # unions do.
    worst_union = max(rows[name].act_over_opt for name in UNIONS)
    for name in DIFFS:
        assert rows[name].act_over_opt < worst_union, name
        assert rows[name].act_over_opt < 1.1, name


def test_columns_scale_linearly(rows):
    # Twice the columns ≈ twice the time; slightly above 2x because ten
    # interleaved streams split the buffer pool and seek more often.
    cols5, cols10 = rows[COLS5], rows[COLS10]
    assert 1.6 <= cols10.elapsed / cols5.elapsed <= 2.6
    assert 1.6 <= cols10.job.opt_cost / cols5.job.opt_cost <= 2.6


def test_aggregation_estimate_is_accurate(rows):
    # The CPU-light task: simulated within a whisker of the estimate.
    assert 0.7 <= rows[AGG].act_over_opt <= 1.5


def test_scans_gain_over_specs(rows):
    for name in (COLS5, COLS10, DEDUP, AGG):
        assert rows[name].job.spec_cost > rows[name].job.opt_cost * 10, name


def test_strategies_agree_on_every_row(table1_jobs, narrow_beam):
    for name, per_strategy in table1_jobs.items():
        reference = per_strategy["exhaustive-bfs"].winner
        contenders = {
            "beam": per_strategy["beam"],
            "beam(width=3)": narrow_beam[name],
            "best-first": per_strategy["best-first"],
        }
        for strategy, job in contenders.items():
            assert job.winner == reference, (
                f"{strategy} diverged from exhaustive BFS on {name!r}"
            )


@pytest.mark.parametrize("strategy", ["beam(width=3)", "best-first"])
def test_candidate_reduction_on_join_workloads(
    table1_jobs, narrow_beam, strategy
):
    def costed(pick):
        return sum(pick(name).search.costed for name in JOINS)

    exhaustive = costed(lambda name: table1_jobs[name]["exhaustive-bfs"])
    if strategy == "best-first":
        reduced = costed(lambda name: table1_jobs[name]["best-first"])
    else:
        reduced = costed(narrow_beam.__getitem__)
    assert exhaustive / reduced >= 3.0, (strategy, exhaustive, reduced)


# ----------------------------------------------------------------------
# Figure 8: estimated vs simulated time across input sizes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def panels():
    return {
        "BNL join": bnl_writeout_sweep(),
        "Merge-sort": merge_sort_sweep(),
        "Aggregation": aggregation_sweep(),
    }


def test_join_and_sort_underestimated_increasingly(panels):
    # The estimator models no computation, so on the CPU-heavy tasks the
    # simulated time exceeds it by a gap that grows with the input.
    for name in ("BNL join", "Merge-sort"):
        gaps = [point.underestimation for point in panels[name]]
        assert 0 < gaps[0] < gaps[1] < gaps[2], (name, gaps)


def test_aggregation_estimates_stay_tight(panels):
    for point in panels["Aggregation"]:
        assert abs(point.underestimation) < 0.01 * point.measured, point


def test_measured_grows_with_input(panels):
    for name, points in panels.items():
        measured = [point.measured for point in points]
        assert measured == sorted(measured), name


# ----------------------------------------------------------------------
# Rule ablation and §7.4 search-space counts
# ----------------------------------------------------------------------
def synthesize_join(
    excluded=None, max_depth=4, max_programs=300, stats=JOIN_STATS, memo=None
):
    synth = Synthesizer(
        hierarchy=hdd_ram_hierarchy(8 * MB),
        rules=[rule for rule in default_rules() if rule.name != excluded],
        max_depth=max_depth,
        max_programs=max_programs,
    )
    if memo is not None:
        synth.memo_for_inputs(JOIN_ANNOTS, JOIN_LOCATIONS, stats, adopt=memo)
    return synth.synthesize(
        spec=naive_join_spec(),
        input_annots=JOIN_ANNOTS,
        input_locations=JOIN_LOCATIONS,
        stats=stats,
    )


def synthesize_sort(excluded=None):
    synth = Synthesizer(
        hierarchy=hdd_ram_hierarchy(8 * MB),
        rules=[rule for rule in default_rules() if rule.name != excluded],
        max_depth=6,
        max_programs=200,
        max_treefold_arity=16,
    )
    return synth.synthesize(
        spec=insertion_sort_spec(),
        input_annots={"Rs": list_annot(list_annot(atom(8), 1), var("x"))},
        input_locations={"Rs": "HDD"},
        stats={"x": 2.0**26},
        output_location="HDD",
    )


@pytest.fixture(scope="module")
def join_ablation():
    """Best estimated join cost with each rule disabled (``None``: all).

    A program's cost does not depend on which rules derived it, so the
    eight runs share one cost memo.
    """
    memo = CostMemo()
    return {
        name: synthesize_join(name, memo=memo).opt_cost
        for name in [None] + RULE_NAMES
    }


@pytest.fixture(scope="module")
def sort_ablation():
    return {
        name: synthesize_sort(name).opt_cost
        for name in [None, "fldL-to-trfld", "inc-branching", "apply-block"]
    }


def test_no_single_rule_removal_improves_the_join(join_ablation):
    full = join_ablation[None]
    for name in RULE_NAMES:
        assert join_ablation[name] >= full * 0.999, name


def test_apply_block_is_load_bearing(join_ablation):
    # Without blocking, the best program is orders of magnitude worse.
    assert join_ablation["apply-block"] > join_ablation[None] * 100


def test_hash_part_wins_the_join(join_ablation):
    # Disabling hash-part forces BNL, which costs measurably more here.
    assert join_ablation["hash-part"] > join_ablation[None] * 1.2


def test_sort_needs_the_folding_rules(sort_ablation):
    full = sort_ablation[None]
    # Without the folding-pattern rule the sort stays quadratic.
    assert sort_ablation["fldL-to-trfld"] > full * 1e3
    assert sort_ablation["inc-branching"] >= full * 0.999
    # Without blocking, every merge does per-element I/O.
    assert sort_ablation["apply-block"] > full * 100


def test_search_space_grows_with_steps():
    sizes = {
        depth: synthesize_join(max_depth=depth, max_programs=4000).search_space
        for depth in (1, 2, 3)
    }
    assert sizes[1] < sizes[2] < sizes[3]
    # Roughly exponential: each extra step multiplies the space.
    assert sizes[3] / sizes[2] >= 2


def test_search_space_independent_of_input_size():
    # Costing never runs the program: scaling the inputs by five orders
    # of magnitude leaves the explored space unchanged.
    small, large = (
        synthesize_join(max_depth=2, max_programs=4000, stats=stats)
        for stats in (
            {"x": 2.0**12, "y": 2.0**10},
            {"x": 2.0**30, "y": 2.0**28},
        )
    )
    assert small.search_space == large.search_space

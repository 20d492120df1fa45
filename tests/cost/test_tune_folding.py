"""Statistics-folded tuning and memoized term minima (ISSUE 16).

``CostMemo.tune`` searches the *folded* problem — statistics substituted
and simplified, satisfied parameter-free constraints dropped — once per
distinct folded problem and reports each candidate's own unfolded cost
at the shared values; ``CostMemo.bound`` minimizes each additive term
once per memo.  Both are pure-function caches, so this suite pins

* **differential** — every problem the Table-1 searches tune gets the
  values and the ``float.hex`` cost the unfolded pattern search gives;
* **order independence** — tuning a request's problems in reverse order
  (so a different candidate poses each folded problem first) changes no
  result;
* **traffic** — exact optimizer-run and term-minimization counts on one
  request, so a lost dedupe fails without a timer;
* **clear()** — the new tables empty with the rest.
"""

import pytest

import repro.cost.estimator as estimator
from repro.api import Session, default_registry
from repro.cost.cache import CostMemo
from repro.optimizer.penalty import ParameterOptimizer

REGISTRY = default_registry()
STRATEGIES = ("best-first", "exhaustive-bfs")
#: Requests whose candidates differ by order-inputs rewrites, i.e. where
#: several exact problems share one folded problem.
DEDUPING = ("bnl-join", "grace-join", "product-writeout-hdd")


def _memo(session, workload: str) -> CostMemo:
    """The cost memo *session* searched table1 *workload* with."""
    experiment = REGISTRY.experiment(workload, "table1")
    return session.synthesizer(experiment).memo_for_inputs(
        experiment.input_annots,
        experiment.input_locations,
        experiment.stats,
        experiment.output_location,
    )


def _snapshot(result) -> tuple:
    return (
        dict(sorted(result.values.items())),
        float.hex(result.cost),
        result.feasible,
    )


@pytest.fixture(scope="module")
def tuned_problems():
    """``{(workload, strategy): [(estimate, stats, rounds, result)]}`` —
    every exact-table miss of a cold Table-1 search, in tune order."""
    recorded: dict = {}
    current: list = []
    real_tune = CostMemo.tune

    def recording_tune(self, estimate, stats, penalty_rounds=2):
        misses = self.stats.tune_misses
        result = real_tune(self, estimate, stats, penalty_rounds)
        if self.stats.tune_misses != misses:
            current.append((estimate, dict(stats), penalty_rounds, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CostMemo, "tune", recording_tune)
        for name in REGISTRY.names("table1"):
            for strategy in STRATEGIES:
                current = recorded[name, strategy] = []
                Session().synthesize(name, scale="table1", strategy=strategy)
    return recorded


def test_every_table1_problem_tunes_like_the_unfolded_search(tuned_problems):
    assert len(tuned_problems) == 32
    unfolded: dict = {}  # the same exact problem recurs across strategies
    checked = 0
    for problems in tuned_problems.values():
        assert problems
        for estimate, stats, rounds, result in problems:
            key = (
                estimate.total,
                tuple(estimate.constraints),
                estimate.parameters,
                tuple(sorted(stats.items())),
                rounds,
            )
            want = unfolded.get(key)
            if want is None:
                want = unfolded[key] = ParameterOptimizer(
                    cost=estimate.total,
                    constraints=estimate.constraints,
                    parameters=estimate.parameters,
                    stats=dict(stats),
                    penalty_rounds=rounds,
                ).run()
            assert _snapshot(result) == _snapshot(want)
            # Dropped constraints make a probe cheaper, never dearer.
            assert result.evaluations <= want.evaluations
            checked += 1
    assert checked > 600


@pytest.mark.parametrize("workload", DEDUPING)
def test_reverse_order_yields_the_same_results(workload, tuned_problems):
    problems = tuned_problems[workload, "exhaustive-bfs"]
    memo = CostMemo()
    for estimate, stats, rounds, result in reversed(problems):
        again = memo.tune(estimate, stats, penalty_rounds=rounds)
        assert _snapshot(again) == _snapshot(result)
        assert again.evaluations == result.evaluations
    # The request really does pose shared folded problems.
    assert len(memo._folded_tunings) < len(problems) == memo.sizes()[1]


#: grace-join / table1 on a fresh memo, per strategy: exact-table
#: misses, pattern searches actually run, bounds computed and
#: ``_term_minimum`` computations (the parent ran one search per miss
#: and 603 term minimizations under best-first; exhaustive-bfs asks for
#: no bounds).
TRAFFIC = {
    "exhaustive-bfs": (93, 50, 0, 0),
    "best-first": (12, 9, 92, 132),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grace_join_traffic_is_pinned(strategy, monkeypatch):
    runs, minimized = [], []
    real_run = ParameterOptimizer.run
    real_minimum = estimator._term_minimum
    monkeypatch.setattr(
        ParameterOptimizer,
        "run",
        lambda self: runs.append(1) or real_run(self),
    )
    monkeypatch.setattr(
        estimator,
        "_term_minimum",
        lambda *args: minimized.append(1) or real_minimum(*args),
    )
    session = Session()
    session.synthesize("grace-join", scale="table1", strategy=strategy)
    memo = _memo(session, "grace-join")
    assert (
        memo.stats.tune_misses,
        len(runs),
        len(memo.bounds),
        len(minimized),
    ) == TRAFFIC[strategy]
    assert len(memo._folded_tunings) == len(runs)


def test_clear_empties_the_new_tables():
    session = Session()
    session.synthesize("bnl-join", scale="table1", strategy="best-first")
    memo = _memo(session, "bnl-join")
    assert memo._folded_tunings and memo._folds and memo._term_minima
    memo.clear()
    assert not (memo._folded_tunings or memo._folds or memo._term_minima)
    assert memo.sizes() == (0, 0, 0) and not memo.bounds


def test_optimistic_cost_with_a_shared_table_equals_without():
    """The term-minimum table is transparent: bounds through one shared
    table equal the from-scratch ``optimistic_cost`` bit for bit."""
    session = Session()
    session.synthesize("bnl-join", scale="table1", strategy="best-first")
    stats = dict(REGISTRY.experiment("bnl-join", "table1").stats)
    estimates = [
        estimate
        for _, estimate in _memo(session, "bnl-join").estimates_after()
        if estimate
    ]
    assert len(estimates) > 1
    shared: dict = {}
    for estimate in estimates:
        assert float.hex(
            estimator.optimistic_cost(estimate, stats, shared)
        ) == float.hex(estimator.optimistic_cost(estimate, stats))
    assert shared

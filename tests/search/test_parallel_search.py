"""Parallel frontier costing is observationally serial (DESIGN.md §13).

The determinism contract: with ``Synthesizer.workers > 1`` every
generation's candidate batch is costed on a process pool, but the
winner, its derivation chain, the cost totals, and the search-space
accounting must be *bit-identical* to the serial run — candidate
admission and truncation happen before costing, and worker costing is
the same pure pipeline the parent runs.

Pinned here over the full central registry (every workload at its
default scale) under all three strategies, through the declarative
front door.
"""

import pytest

from repro.api import Session, default_registry
from repro.parallel import PARALLEL_ENV

STRATEGIES = ("exhaustive-bfs", "beam", "best-first")


def _sweep(workers: int) -> dict:
    session = Session(workers=workers)
    results = {}
    for strategy in STRATEGIES:
        for workload in default_registry():
            job = session.synthesize(workload.name, strategy=strategy)
            results[(workload.name, strategy)] = job
    return results


@pytest.fixture(scope="module")
def serial():
    return _sweep(workers=1)


@pytest.fixture(scope="module")
def parallel():
    return _sweep(workers=2)


class TestRegistrySweepParity:
    def test_sweep_covers_all_registry_workloads(self, serial):
        names = {name for name, _ in serial}
        assert names == set(default_registry().names())
        assert len(names) == 17

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_winners_bit_identical(self, serial, parallel, strategy):
        for workload in default_registry():
            ours = parallel[(workload.name, strategy)]
            theirs = serial[(workload.name, strategy)]
            # Hash-consing makes node identity meaningful: the parallel
            # winner is the *same interned program*, not merely equal.
            assert ours.winner is theirs.winner, workload.name

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_derivations_identical(self, serial, parallel, strategy):
        for workload in default_registry():
            ours = parallel[(workload.name, strategy)]
            theirs = serial[(workload.name, strategy)]
            assert ours.derivation == theirs.derivation, workload.name

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cost_totals_identical(self, serial, parallel, strategy):
        for workload in default_registry():
            ours = parallel[(workload.name, strategy)]
            theirs = serial[(workload.name, strategy)]
            assert ours.spec_cost == theirs.spec_cost, workload.name
            assert ours.opt_cost == theirs.opt_cost, workload.name

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_search_accounting_identical(self, serial, parallel, strategy):
        # Space, truncation, and the number of candidates costed are
        # admission-side quantities; parallel costing may not move them.
        for workload in default_registry():
            ours = parallel[(workload.name, strategy)].search
            theirs = serial[(workload.name, strategy)].search
            assert ours.space == theirs.space, workload.name
            assert ours.costed == theirs.costed, workload.name
            assert ours.expanded == theirs.expanded, workload.name
            assert ours.pruned == theirs.pruned, workload.name

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tuned_parameters_identical(self, serial, parallel, strategy):
        for workload in default_registry():
            ours = parallel[(workload.name, strategy)]
            theirs = serial[(workload.name, strategy)]
            assert (
                ours.plan.parameter_values == theirs.plan.parameter_values
            ), workload.name


class TestWorkersLaneBounds:
    def test_worker_bounds_stay_with_the_worker(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "1")
        # DESIGN.md §11.4: a bound is keyed by its tuning problem, which
        # only the process that estimated the program holds.  A pool
        # worker's bounds therefore live in its private memo; the parent
        # table only ever holds problems the parent estimated itself —
        # and pruning cannot tell the difference.
        runs = {}
        for workers in (1, 2):
            session = Session(workers=workers, strategy="best-first")
            experiment = default_registry().experiment(
                "grace-join", "validation"
            )
            job = session.synthesize(experiment, scale="validation")
            memo = session.synthesizer(experiment).memo_for_inputs(
                experiment.input_annots,
                experiment.input_locations,
                experiment.stats,
                experiment.output_location,
            )
            estimated = {
                (e.total, tuple(e.constraints), e.parameters)
                for _, e in memo.estimates_after()
                if e is not None
            }
            assert {key[:3] for key in memo.bounds} <= estimated
            runs[workers] = (job, len(memo.bounds))
        (serial, serial_bounds), (pooled, pooled_bounds) = runs[1], runs[2]
        assert 0 < pooled_bounds < serial_bounds
        assert pooled.winner is serial.winner
        assert pooled.search.pruned == serial.search.pruned
        assert pooled.search.costed == serial.search.costed


class TestEscapeHatch:
    def test_env_zero_disables_the_pool(self, monkeypatch):
        monkeypatch.setenv(PARALLEL_ENV, "0")
        session = Session(workers=4)
        job = session.synthesize("grace-join", scale="validation")
        synthesizer = next(iter(session._synthesizers.values()))
        assert synthesizer.workers == 4  # the knob survives ...
        assert synthesizer._coster_for(None, {}) is None  # ... inert
        assert job.winner is not None


class TestSynthesizeAllAuto:
    def test_parallel_zero_resolves_to_auto(self, monkeypatch):
        # ``parallel=0`` must mean "one worker per CPU", not the old
        # silent serial fallback: the session consults resolve_workers
        # with the batch size, whatever this box's CPU count is.
        import repro.api.session as session_module

        seen = {}
        real = session_module.resolve_workers

        def spy(workers, task_count=None):
            seen["args"] = (workers, task_count)
            return real(workers, task_count)

        monkeypatch.setattr(session_module, "resolve_workers", spy)
        session = Session()
        jobs = session.synthesize_all(
            ["bnl-join", "grace-join"], scale="validation", parallel=0
        )
        assert seen["args"] == (0, 2)
        assert [job.workload for job in jobs] == ["bnl-join", "grace-join"]

    def test_batch_pool_goes_through_shared_utility(self, monkeypatch):
        # Exactly one pool-construction path: the batch fan-out is
        # `repro.parallel.run_tasks`, not a session-private executor.
        import repro.api.session as session_module

        seen = {}
        real = session_module.run_tasks

        def spy(fn, tasks, workers):
            seen["workers"] = workers
            return real(fn, tasks, workers)

        monkeypatch.setattr(
            session_module, "resolve_workers", lambda *a, **k: 2
        )
        monkeypatch.setattr(session_module, "run_tasks", spy)
        session = Session()
        jobs = session.synthesize_all(
            ["bnl-join", "grace-join"], scale="validation", parallel=2
        )
        assert seen["workers"] == 2
        assert [job.workload for job in jobs] == ["bnl-join", "grace-join"]
        assert all(job.winner is not None for job in jobs)

"""Session behavior: synthesis, memo sharing, batching, ad-hoc specs."""

import pytest

from repro.api import Session, WorkloadError
from repro.bench.harness import Experiment
from repro.codegen.plan import PlanError
from repro.cost import atom, list_annot
from repro.hierarchy import KB, hdd_ram_hierarchy
from repro.runtime.accounting import InputSpec
from repro.search import BeamSearch
from repro.symbolic import var
from repro.workloads import aggregation_spec

SMALL = ("aggregation", "set-union", "dup-removal")


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def jobs(session):
    return {name: session.synthesize(name) for name in SMALL}


class TestSynthesize:
    def test_job_carries_the_unified_record(self, jobs):
        job = jobs["aggregation"]
        assert job.workload == "aggregation"
        assert job.scale == "validation"
        assert job.derivation == ("apply-block", "seq-ac")
        assert 0 < job.opt_cost < job.spec_cost
        assert job.search.space > 0
        assert job.search.strategy == "best-first"
        assert job.plan.parameter_values  # tuned, bound
        assert job.spec is not None and job.winner is not None

    def test_lazy_execution_and_result_record(self, jobs):
        result = jobs["aggregation"].run()
        assert result.execution.backend == "sim"
        assert result.elapsed > 0
        assert result.act_over_opt == pytest.approx(1.0, rel=0.05)
        record = result.to_json()
        assert record["workload"] == "aggregation"
        assert record["search"]["space"] == jobs["aggregation"].search.space
        assert record["execution"]["devices"]["HDD"]["bytes_read"] > 0

    def test_explain_mentions_derivation_and_costs(self, jobs):
        text = jobs["aggregation"].explain()
        assert "apply-block" in text
        assert "seq-ac" in text
        assert "winner:" in text
        assert "estimated cost" in text

    def test_backend_error_path_is_plan_error(self, jobs):
        with pytest.raises(PlanError, match="'file', 'sim'"):
            jobs["aggregation"].run(backend="gpu")

    def test_synthesizer_reuse_across_same_hierarchy(self):
        session = Session()
        session.synthesize("set-union")
        session.synthesize("multiset-union")  # same hierarchy + caps
        assert len(session._synthesizers) == 1
        assert session.stats.synth_calls == 2
        assert session.stats.cache_hits > 0  # the memo amortized

    def test_strategy_override_per_job(self, session):
        job = session.synthesize("aggregation", strategy="exhaustive-bfs")
        assert job.search.strategy == "exhaustive-bfs"

    def test_configured_strategy_instance(self, session):
        job = session.synthesize("aggregation", strategy=BeamSearch(width=3))
        assert job.strategy == job.search.strategy == "beam"
        assert job.to_json()["strategy"] == "beam"


class TestSynthesizeAll:
    def test_results_are_in_input_order(self, session):
        batch = session.synthesize_all(SMALL)
        assert [job.workload for job in batch] == list(SMALL)

    def test_parallel_matches_serial_deterministically(self, session):
        serial = session.synthesize_all(SMALL)
        parallel = session.synthesize_all(SMALL, parallel=2)
        for a, b in zip(serial, parallel):
            assert a.workload == b.workload
            assert a.derivation == b.derivation
            assert a.opt_cost == pytest.approx(b.opt_cost, rel=1e-12)
            assert a.plan.parameter_values == b.plan.parameter_values
            assert a.search.space == b.search.space
            assert [x.derivation for x in a.alternatives] == [
                x.derivation for x in b.alternatives
            ]

    def test_parallel_jobs_are_runnable(self, session):
        # Two workloads so the pool path actually engages (a single
        # name short-circuits to the serial branch).
        jobs = session.synthesize_all(
            ["aggregation", "set-union"], parallel=2
        )
        assert len(jobs) == 2
        for job in jobs:
            assert job.run().elapsed > 0

    def test_parallel_honors_keep_alternatives(self):
        lean = Session(keep_alternatives=0)
        jobs = lean.synthesize_all(
            ["aggregation", "set-union"], parallel=2
        )
        assert all(job.alternatives == () for job in jobs)

    def test_unknown_workload_rejected_before_any_work(self, session):
        with pytest.raises(WorkloadError, match="tape-robot"):
            session.synthesize_all(["aggregation", "tape-robot"])


class TestAdHocExperiments:
    def test_session_accepts_a_hand_built_experiment(self):
        experiment = Experiment(
            name="my-aggregation",
            spec=aggregation_spec(),
            hierarchy=hdd_ram_hierarchy(8 * KB),
            input_annots={"A": list_annot(atom(8), var("x"))},
            input_locations={"A": "HDD"},
            stats={"x": 4096.0},
            inputs={"A": InputSpec(4096, 8)},
            max_depth=3,
            max_programs=40,
        )
        session = Session()
        job = session.synthesize(experiment)
        assert job.workload == "my-aggregation"
        assert job.scale == "custom"
        assert job.run().elapsed > 0

    def test_run_convenience_synthesizes_and_executes(self):
        result = Session().run("aggregation")
        assert result.workload == "aggregation"
        assert result.elapsed > 0

    def test_naming_default_backend_keeps_configured_options(self, tmp_path):
        workdir = tmp_path / "configured"
        session = Session(
            backend="file",
            backend_options={"seed": 7, "workdir": str(workdir)},
        )
        job = session.synthesize("aggregation")
        # Explicitly naming the session's default backend must not drop
        # its configured options: the data files land in the workdir.
        result = job.run(backend="file")
        assert result.execution.backend == "file"
        assert workdir.exists() and any(workdir.iterdir())

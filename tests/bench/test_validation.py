"""Validation-bench smoke: one small workload, real files, ranking gate.

This is the CI gate for the predicted-vs-measured loop: a scaled-down
Table-1 workload is synthesized, its plans execute on the FileBackend
inside a tmpdir, and the synthesized winner must rank first under the
measured (trace-priced) cost.
"""

import json

import pytest

from repro.bench.validation import (
    DEFAULT_WORKLOADS,
    VALIDATION_WORKLOADS,
    run_validation,
    validation_experiment,
    write_validation_report,
)


class TestWorkloadCatalog:
    def test_default_set_is_large_enough(self):
        assert len(DEFAULT_WORKLOADS) >= 6
        assert set(DEFAULT_WORKLOADS) <= set(VALIDATION_WORKLOADS)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown validation workload"):
            validation_experiment("tape-robot")

    def test_every_workload_instantiates(self):
        for name in VALIDATION_WORKLOADS:
            experiment = validation_experiment(name)
            assert experiment.spec is not None
            assert experiment.inputs


class TestValidationSmoke:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("validation")
        return write_validation_report(
            path=str(base / "BENCH_validation.json"),
            names=("aggregation",),
            seed=7,
            workdir=str(base / "files"),
        ), base

    def test_winner_ranked_first_on_measured_cost(self, report):
        data, _ = report
        (workload,) = data["workloads"]
        assert workload["winner_first"]
        assert workload["measured_ranking"][-1] == "spec"
        assert data["all_winner_first"]

    def test_report_records_both_sides(self, report):
        data, base = report
        on_disk = json.loads(
            (base / "BENCH_validation.json").read_text()
        )
        assert on_disk["workloads"][0]["workload"] == "aggregation"
        for plan in on_disk["workloads"][0]["plans"]:
            assert plan["predicted"] > 0
            assert plan["file_priced"] > 0
            assert plan["file_wall"] is not None
            assert plan["devices"]["HDD"]["bytes_read"] > 0

    def test_predicted_ranking_puts_spec_last(self, report):
        data, _ = report
        (workload,) = data["workloads"]
        assert workload["predicted_ranking"][0] == "winner"
        assert workload["predicted_ranking"][-1] == "spec"


class TestMultisetUnionAgreement:
    def test_merge_workload_agrees(self, tmp_path):
        # Two workloads so that ``parallel=2`` really fans synthesis out
        # over the process pool, as ``repro validate --parallel 2`` does.
        names = ("aggregation", "multiset-union")
        report = run_validation(
            names=names, seed=7, workdir=str(tmp_path), parallel=2
        )
        assert [w["workload"] for w in report["workloads"]] == list(names)
        for workload in report["workloads"]:
            assert workload["winner_first"], workload["workload"]
            assert workload["ranking_agreement"], workload["workload"]

"""Smoke test of the layered benchmark (tier-1 collects it; < 10 s).

Every workload runs at one pass on its smallest program, untraced once
and traced twice.  The tests pin what later count-based claims rest on:
every metric ``BENCHMARK.json`` names is emitted with its unit, nothing
fails its reference check, and counts repeat bit-for-bit run to run.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
sys.path.insert(0, ROOT)

from perf.layers import TARGETS  # noqa: E402
from perf.runner import load_spec, measure  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

SPEC = load_spec()
SEED = 3

#: counts that must not differ between two runs of the same commit.
EXACT = (
    "search.space", "search.expanded", "search.costed", "search.pruned",
    "search.opt_cost_sum", "rules.rewrites_yielded", "cost.estimate_calls",
    "optimizer.tune_calls", "optimizer.evaluations", "runtime.iterations",
    "runtime.filestore.read_calls", "runtime.filestore.read_bytes",
    "runtime.filestore.write_calls", "runtime.filestore.write_bytes",
    "runtime.filestore.seeks", "runtime.filestore.files_created",
    "plan.priced_cost_s", "service.hits", "service.misses",
    "service.store.get_calls", "service.store.put_calls",
    "service.job_table_size", "analysis.verify_job_calls",
)

#: per-layer metrics the one-program smoke runs leave at zero: layers
#: only the full-size programs reach, fault and overload counters, and
#: the two-worker probes a smoke run skips.
IDLE_IN_SMOKE = {
    "runtime.hashes", "runtime.filestore.retries",
    "runtime.primitives.merge_sort_s", "runtime.primitives.merge_sort_calls",
    "runtime.primitives.parallel_flatmap_s",
    "service.deduped", "service.rejected", "service.failed",
    "parallel.search_workers2_ratio", "parallel.exec_workers2_ratio",
    "trace.overhead_share", "program.plan_s_geomean",
}
SMOKE_PROGRAMS = {"set-union", "product-writeout-flash", "multiset-union"}


@pytest.fixture(scope="module")
def reports():
    return {
        name: {
            "untraced": measure(name, SEED, 0, trace=False, smoke=True),
            "traced": [
                measure(name, SEED, 0, trace=True, smoke=True)
                for _ in range(2)
            ],
        }
        for name in WORKLOADS
    }


def test_spec_names_the_workloads_and_only_its_own_directory():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perf"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_span_is_backed_by_a_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    internal = {"runtime.price", "runtime.materialize",
                "runtime.filestore.new_file"}
    for _, _, span, _ in TARGETS:
        assert span in internal or (
            f"{span}_s" in names or f"{span}_calls" in names
        ), span


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_nothing_fails_its_check(reports, name):
    for report in [reports[name]["untraced"], *reports[name]["traced"]]:
        assert report["attempted"] > 0
        assert report["failed"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(reports, name):
    rows = reports[name]["untraced"]["rows"]
    assert list(rows) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        row = rows[metric["name"]]
        assert row["unit"] == metric["unit"]
        assert row["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_emitted_with_units(reports, name):
    for report in reports[name]["traced"]:
        rows = report["rows"]
        assert list(rows) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            assert rows[metric["name"]]["unit"] == metric["unit"]
        assert rows["trace.unattributed_share"]["value"] <= 0.10


def test_every_layer_metric_moves_on_some_workload(reports):
    moved = {
        metric
        for per_workload in reports.values()
        for metric, row in per_workload["traced"][0]["rows"].items()
        if row["value"] != 0
    }
    expected = {
        m["name"]
        for m in SPEC["per_layer"]
        if m["name"] not in IDLE_IN_SMOKE
        and not (
            m["name"].startswith("program.")
            and "geomean" not in m["name"]
            and not any(f".{p}." in m["name"] for p in SMOKE_PROGRAMS)
        )
    }
    assert expected - moved == set()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_bit_for_bit(reports, name):
    first, second = (r["rows"] for r in reports[name]["traced"])
    for metric in EXACT:
        assert first[metric]["value"] == second[metric]["value"], metric

"""Reference pin: costing is bit-identical to the lane it replaced.

The costing pipeline used to run two ways — compiled (shipped) and an
interpreted twin scoring every probe with :meth:`Expr.evaluate`.  Before
the twin was deleted (ISSUE 14) its answers were dumped to
``goldens/tuned_reference.json`` (the file's ``provenance`` records the
commit and environment): tuned values, cost, feasibility, evaluation
count and the admissible bound for **all 17 registry specs** and their
17 best-first winners (the specs carry no block parameters; the
winners are the real tuning problems), plus three full syntheses.  This
suite requires *exact float equality* (``float.hex``) against that
golden, and checks incremental re-estimation against the memo-less
``CostEstimator``.

Since ISSUE 16 the tuner searches the statistics-folded problem, which
drops satisfied parameter-free constraints — two sides fewer per probe —
so ``evaluations`` may fall below the interpreted lane's count.  Only
the counts the golden's ``provenance`` names were re-cut; ``values``,
``cost``, ``feasible`` and ``optimistic_cost`` are still compared
against the interpreted lane's untouched strings.

Regenerate (only ever from a tree whose costing is trusted)::

    PYTHONPATH=src python tests/cost/test_fast_lane_differential.py \
        "<provenance>" > tests/cost/goldens/tuned_reference.json
"""

import json
import os
import sys

import pytest

from repro.api import Session, default_registry
from repro.cost.cache import CostMemo
from repro.cost.estimator import (
    CostEstimator,
    CostModel,
    EstimatorError,
    optimistic_cost,
)
from repro.ocal.serialize import node_from_json, node_to_json
from repro.rules import RuleContext, default_rules, iter_rewrites

REGISTRY = default_registry()
ALL_WORKLOADS = REGISTRY.names()
SYNTHESIS_WORKLOADS = ["bnl-join", "aggregation", "external-sort"]
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "tuned_reference.json"
)
#: What the interpreted lane decided; ``evaluations`` is bookkeeping.
INTERPRETED_FIELDS = ("values", "cost", "feasible", "optimistic_cost")


def _model(experiment) -> CostModel:
    return CostModel(
        hierarchy=experiment.hierarchy,
        input_annots=experiment.input_annots,
        input_locations=experiment.input_locations,
        output_location=experiment.output_location,
        stats=experiment.stats,
    )


def _tuned_snapshot(workload: str, program=None) -> dict:
    """Estimate + tune + bound one program (default: the workload's
    spec) against the workload's cost model, floats as hex."""
    experiment = REGISTRY.experiment(workload)
    program = experiment.spec if program is None else program
    memo = CostMemo()
    estimate = CostEstimator(_model(experiment), memo=memo).estimate(program)
    stats = dict(experiment.stats)
    tuned = memo.tune(estimate, stats)
    return {
        "values": dict(sorted(tuned.values.items())),
        "cost": float.hex(tuned.cost),
        "feasible": tuned.feasible,
        "evaluations": tuned.evaluations,
        "optimistic_cost": float.hex(optimistic_cost(estimate, stats)),
    }


def _winner_snapshot(workload: str) -> dict:
    """The best-first winner's tuning problem, program included."""
    winner = Session(strategy="best-first").synthesize(workload).winner
    return {
        "program": json.dumps(node_to_json(winner)),
        **_tuned_snapshot(workload, winner),
    }


def _synthesis_snapshot(workload: str) -> dict:
    job = Session(strategy="best-first").synthesize(
        workload, scale="validation"
    )
    return {
        "winner": str(job.winner),
        "derivation": list(job.derivation),
        "opt_cost": float.hex(job.opt_cost),
        "spec_cost": float.hex(job.spec_cost),
        "parameter_values": dict(sorted(job.plan.parameter_values.items())),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_all_17_registry_workloads_are_registered(golden):
    assert len(ALL_WORKLOADS) == 17
    assert sorted(golden["tuned"]) == sorted(ALL_WORKLOADS)


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_compiled_costs_exactly_equal_interpreted(workload, golden):
    assert _tuned_snapshot(workload) == golden["tuned"][workload]


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_tuned_winner_exactly_equals_interpreted(workload, golden):
    """Where the pattern search, repair and rounding actually run."""
    want = dict(golden["winners"][workload])
    program = node_from_json(json.loads(want.pop("program")))
    assert want["evaluations"] > 1 and want["values"]
    got = _tuned_snapshot(workload, program)
    for field in INTERPRETED_FIELDS:
        assert got[field] == want[field], field
    assert got["evaluations"] == want["evaluations"]


@pytest.mark.parametrize("workload", SYNTHESIS_WORKLOADS)
def test_full_synthesis_identical_across_lanes(workload, golden):
    assert _synthesis_snapshot(workload) == golden["synthesis"][workload]


def _rewrite_closure(experiment, depth: int = 2) -> list:
    """Every program within *depth* rewrites of the spec, spec first."""
    rules = default_rules()
    ctx = RuleContext(
        hierarchy=experiment.hierarchy,
        input_locations=dict(experiment.input_locations),
        output_location=experiment.output_location,
    )
    seen = {experiment.spec: None}
    frontier = [experiment.spec]
    for _ in range(depth):
        children = []
        for program in frontier:
            for rewrite in iter_rewrites(program, rules, ctx):
                if rewrite.program not in seen:
                    seen[rewrite.program] = None
                    children.append(rewrite.program)
        frontier = children
    return list(seen)


def _estimate_outcome(estimator: CostEstimator, program):
    """The comparable parts of an estimate, or the failure type."""
    try:
        estimate = estimator.estimate(program)
    except EstimatorError as error:
        return type(error)
    return (
        estimate.total,
        estimate.constraints,
        estimate.parameters,
        estimate.events,
    )


@pytest.mark.parametrize("workload", SYNTHESIS_WORKLOADS)
def test_incremental_estimation_equals_from_scratch(workload):
    """ONE memo shared across a rewrite closure changes no estimate."""
    experiment = REGISTRY.experiment(workload, "validation")
    model = _model(experiment)
    memo = CostMemo()
    programs = _rewrite_closure(experiment)
    assert len(programs) > 1
    for program in programs:
        incremental = _estimate_outcome(
            CostEstimator(model, memo=memo), program
        )
        assert incremental == _estimate_outcome(CostEstimator(model), program)
    assert memo.sizes()[2] > 0


if __name__ == "__main__":
    json.dump(
        {
            "provenance": sys.argv[1],
            "tuned": {name: _tuned_snapshot(name) for name in ALL_WORKLOADS},
            "winners": {name: _winner_snapshot(name) for name in ALL_WORKLOADS},
            "synthesis": {
                name: _synthesis_snapshot(name)
                for name in SYNTHESIS_WORKLOADS
            },
        },
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")

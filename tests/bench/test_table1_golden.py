"""Golden regression: the synthesized winner for every Table-1 workload.

Pins the *printed form* of the winning program (and its derivation
chain) for all 16 Table-1 experiments under each of the three search
strategies, so search/cost refactors cannot silently change synthesis
results.  The goldens live in ``goldens/table1_winners.json``.

The sweep is the session-scoped ``table1_jobs`` fixture of
``conftest.py``: ``Session.synthesize_all`` over the central registry's
``table1``-scale workloads, one session shared across the three
strategies.  This doubles as the acceptance check that batch synthesis
returns exactly the golden winners.

To regenerate after an *intentional* change::

    PYTHONPATH=src python tests/bench/test_table1_golden.py --regen
"""

import json
import os

import pytest

from repro.api import default_registry
from repro.ocal.printer import pretty

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "table1_winners.json"
)


def _load_goldens() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


#: The strategies the golden file pins; the coverage test checks that
#: they are exactly the ones the shared sweep runs.
GOLDEN_STRATEGIES = sorted(
    {strategy for row in _load_goldens().values() for strategy in row}
)


def _printed(jobs: dict) -> dict:
    """The golden form of a sweep: printed winner and derivation."""
    return {
        name: {
            strategy: {
                "program": pretty(job.winner),
                "derivation": list(job.derivation),
            }
            for strategy, job in per_strategy.items()
        }
        for name, per_strategy in jobs.items()
    }


@pytest.fixture(scope="module")
def synthesized(table1_jobs):
    return _printed(table1_jobs)


@pytest.fixture(scope="module")
def goldens():
    return _load_goldens()


def test_golden_file_covers_all_workloads_and_strategies(
    goldens, synthesized
):
    names = {
        workload.experiment("table1").name
        for workload in default_registry()
        if "table1" in workload.scales
    }
    assert set(goldens) == set(synthesized) == names
    for name, per_strategy in goldens.items():
        assert set(per_strategy) == set(synthesized[name]), name


@pytest.mark.parametrize("strategy", GOLDEN_STRATEGIES)
def test_winners_match_goldens(synthesized, goldens, strategy):
    mismatches = []
    for name, per_strategy in goldens.items():
        expected = per_strategy[strategy]
        actual = synthesized[name][strategy]
        if actual["program"] != expected["program"]:
            mismatches.append(
                f"{name} [{strategy}]\n  expected: {expected['program']}"
                f"\n  actual:   {actual['program']}"
            )
        elif actual["derivation"] != expected["derivation"]:
            mismatches.append(
                f"{name} [{strategy}] derivation "
                f"{actual['derivation']} != {expected['derivation']}"
            )
    assert not mismatches, (
        "synthesized winners drifted from goldens (regenerate with "
        "`python tests/bench/test_table1_golden.py --regen` if the "
        "change is intentional):\n" + "\n".join(mismatches)
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        from conftest import table1_sweep

        data = _printed(table1_sweep())
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(
                data, handle, indent=2, sort_keys=True, ensure_ascii=False
            )
            handle.write("\n")
        print(f"regenerated {GOLDEN_PATH}")
    else:
        print(__doc__)

"""The ``python -m repro validate`` exit code is CI's validation gate.

A passing report exits 0; any workload whose synthesized winner is not
ranked first exits 1; operator errors (no/unknown workloads) exit 2 —
so a misconfigured CI step can never pass vacuously.
"""

import pytest

from repro import cli


def _report(winner_first_flags):
    return {
        "workloads": [
            {
                "workload": f"w{i}",
                "winner_first": flag,
                "act_over_opt": 1.0,
            }
            for i, flag in enumerate(winner_first_flags)
        ],
        "all_winner_first": all(winner_first_flags),
    }


@pytest.fixture
def fake_report(monkeypatch):
    state = {"report": _report([True]), "calls": []}

    def write_validation_report(path, names, seed, workdir, parallel=None):
        state["calls"].append(
            {
                "path": path,
                "names": names,
                "seed": seed,
                "workdir": workdir,
                "parallel": parallel,
            }
        )
        return state["report"]

    import repro.bench.validation as validation

    monkeypatch.setattr(
        validation, "write_validation_report", write_validation_report
    )
    return state


def test_validate_exits_zero_when_all_winners_first(fake_report, tmp_path):
    out = str(tmp_path / "report.json")
    assert cli.main(["validate", "--out", out]) == 0


def test_validate_exits_nonzero_on_any_disagreement(fake_report, tmp_path):
    fake_report["report"] = _report([True, False, True])
    out = str(tmp_path / "report.json")
    assert cli.main(["validate", "--out", out]) == 1


def test_validate_exits_nonzero_on_empty_workload_list(fake_report):
    # `--workloads ""` used to collapse to all() over nothing == True.
    assert cli.main(["validate", "--workloads", ""]) == 2
    assert cli.main(["validate", "--workloads", " , ,"]) == 2
    assert not fake_report["calls"]


def test_validate_exits_nonzero_on_empty_report(fake_report, tmp_path):
    fake_report["report"] = {"workloads": [], "all_winner_first": True}
    out = str(tmp_path / "report.json")
    assert cli.main(["validate", "--out", out]) == 2


def test_validate_exits_nonzero_on_unknown_workload(tmp_path):
    out = str(tmp_path / "report.json")
    code = cli.main(
        ["validate", "--workloads", "no-such-workload", "--out", out]
    )
    assert code == 2


def test_validate_passes_workload_selection_through(fake_report, tmp_path):
    out = str(tmp_path / "report.json")
    cli.main(
        [
            "validate", "--workloads", "aggregation, set-union", "--out", out,
            "--parallel", "2", "--workdir", str(tmp_path),
        ]
    )
    (call,) = fake_report["calls"]
    assert call["names"] == ("aggregation", "set-union")
    assert call["parallel"] == 2
    assert call["workdir"] == str(tmp_path)

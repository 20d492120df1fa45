"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table/figure artifact of the paper and
records a paper-vs-measured report; ``pytest-benchmark`` times the
synthesize-and-simulate pipeline itself (the §7.4 "Running Time of OCAS"
measurement comes for free from these timings).

The regenerated artifacts (Table-1 rows, Figure-8 panels, cache-miss
counts, ablation tables) are written to ``bench_artifacts.txt`` next to
this file and echoed to the terminal at session end.
"""

import pathlib

import pytest

ARTIFACTS_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "bench_artifacts.txt"
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "table1: regenerates a block of Table 1 rows"
    )
    config.addinivalue_line(
        "markers", "figure8: regenerates a Figure 8 panel"
    )


@pytest.fixture(scope="session")
def report(request):
    """Collects printed artifacts; persisted at session end."""
    lines: list[str] = []
    yield lines
    if not lines:
        return
    text = "\n\n".join(lines) + "\n"
    ARTIFACTS_PATH.write_text(
        "Regenerated paper artifacts (DESIGN.md §8.3 has the "
        "paper-vs-measured discussion)\n"
        + "=" * 78 + "\n\n" + text
    )
    terminal = request.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_sep("=", "paper artifacts regenerated")
        for block in lines:
            terminal.write_line(block)
        terminal.write_line(f"(also written to {ARTIFACTS_PATH})")

"""The one Table-1 catalog sweep a test session pays for.

``table1_jobs`` synthesizes every ``table1``-scale registry workload
under each of the three search strategies through one
:class:`~repro.api.Session`, so its per-hierarchy synthesizers (and
their cost memos) amortize estimation and tuning across strategies.
Both the golden regression (``test_table1_golden.py``) and the paper's
§7 claims (``test_paper_claims.py``) read this one sweep.
"""

import pytest

from repro.api import Session
from repro.search import BeamSearch

STRATEGIES = ("exhaustive-bfs", "beam", "best-first")


def table1_sweep(session: Session | None = None) -> dict:
    """``{experiment name: {strategy: Job}}`` for all 16 Table-1 rows."""
    session = session or Session()
    names = session.workloads(scale="table1")
    jobs: dict = {}
    for strategy in STRATEGIES:
        for job in session.synthesize_all(
            names, scale="table1", strategy=strategy
        ):
            jobs.setdefault(job.workload, {})[strategy] = job
    return jobs


@pytest.fixture(scope="session")
def table1_sweeps():
    """The sweep, plus the same rows under ``BeamSearch(width=3)``.

    Width 3 is the narrowest beam that keeps every exhaustive winner.
    It runs in the sweep's session, whose cost memos already hold every
    estimate it needs, so only the search itself is paid for.  The
    session is dropped afterwards: its memos would otherwise stay alive
    for the rest of the test run.
    """
    session = Session()
    jobs = table1_sweep(session)
    narrow_beam = {}
    for name in session.workloads(scale="table1"):
        job = session.synthesize(
            name, scale="table1", strategy=BeamSearch(width=3)
        )
        narrow_beam[job.workload] = job
    return jobs, narrow_beam


@pytest.fixture(scope="session")
def table1_jobs(table1_sweeps):
    return table1_sweeps[0]


@pytest.fixture(scope="session")
def narrow_beam(table1_sweeps):
    """``{experiment name: Job}`` under ``BeamSearch(width=3)``."""
    return table1_sweeps[1]

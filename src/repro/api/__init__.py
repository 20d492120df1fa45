"""The declarative front door: Session / Job / Workload (DESIGN.md §10).

The paper's pipeline is one conceptual arrow — naive OCAL program +
hierarchy description → synthesized, tuned, runnable algorithm.  This
package exposes it as one::

    from repro.api import Session

    session = Session()
    job = session.synthesize("external-sort")   # search + tune (lazy)
    print(job.explain())                        # derivation report
    result = job.run(backend="file", seed=7)    # execute for real
    job.save("plan.json")                       # ship without re-searching

* :class:`Workload` / :class:`WorkloadRegistry` — first-class named
  workloads; :func:`default_registry` is the single source of truth the
  CLI, benches, goldens, and conformance all consume.
* :class:`Session` — hierarchy/strategy/backend defaults plus shared
  cost memos; ``synthesize_all(..., parallel=N)`` batches over a
  process pool with deterministic ordering.
* :class:`Job` / :class:`JobResult` — the unified, serializable
  artifact (``to_json``/``from_json`` round-trip the tuned plan).

The pre-api top-level names (``repro.Synthesizer``,
``repro.compile_candidate``) are gone; ``repro.search`` and
``repro.codegen`` still hold the machinery this layer drives.
"""

from .catalog import default_registry, validation_scale_names
from .job import (
    PLAN_FORMAT,
    Alternative,
    Job,
    JobResult,
    SearchStats,
    format_results,
)
from .session import Session, SessionStats
from .workload import Workload, WorkloadError, WorkloadRegistry

__all__ = [
    "Session",
    "SessionStats",
    "Job",
    "JobResult",
    "SearchStats",
    "Alternative",
    "format_results",
    "PLAN_FORMAT",
    "Workload",
    "WorkloadRegistry",
    "WorkloadError",
    "default_registry",
    "validation_scale_names",
]

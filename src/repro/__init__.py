"""OCAS — Out-of-Core Algorithm Synthesizer (reproduction).

Reproduction of Klonatos, Nötzli, Spielmann, Koch, Kuncak:
*Automatic Synthesis of Out-of-Core Algorithms*, SIGMOD 2013.

The package synthesizes memory-hierarchy-aware algorithms from naive
specifications written in the OCAL DSL.  The supported front door is
the declarative Session/Job API:

>>> from repro import Session
>>> job = Session().synthesize("bnl-join")     # doctest: +SKIP
>>> job.run(backend="file").summary()          # doctest: +SKIP

Subpackages
-----------
``repro.api``        the Session/Job/Workload front door (start here)
``repro.ocal``       the OCAL language (types, AST, interpreter, definitions)
``repro.symbolic``   symbolic arithmetic used by the cost estimator
``repro.hierarchy``  memory & storage hierarchy descriptions (Section 4)
``repro.cost``       automated cost estimation (Section 5)
``repro.rules``      transformation rules (Section 6)
``repro.optimizer``  non-linear block/buffer parameter tuning
``repro.search``     the breadth-first synthesizer (OCAS proper)
``repro.codegen``    OCAL -> flat Python and OCAL -> executable plan compilers
``repro.runtime``    pluggable execution backends: analytic simulator + real files
``repro.workloads``  naive specifications and synthetic relation generators
``repro.bench``      harnesses regenerating every table/figure of the paper
"""

from .version import __version__

__all__ = ["__version__"]


def __getattr__(name):
    """Lazily expose the high-level API to avoid import cycles at startup."""
    if name in {
        "Session",
        "Job",
        "JobResult",
        "Workload",
        "WorkloadRegistry",
        "default_registry",
    }:
        from . import api

        return getattr(api, name)
    if name == "synthesize":
        from .search import synthesize

        return synthesize
    if name in {
        "hdd_ram_hierarchy",
        "hdd_ram_cache_hierarchy",
        "two_hdd_hierarchy",
        "hdd_flash_hierarchy",
        "ram_ssd_hdd_hierarchy",
        "hierarchy_preset",
    }:
        from . import hierarchy

        return getattr(hierarchy, name)
    if name in {"SimBackend", "FileBackend", "get_backend"}:
        from . import runtime

        return getattr(runtime, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

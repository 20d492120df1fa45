"""Sessions: the one front door to synthesis and execution.

A :class:`Session` bundles everything the exploded pipeline used to
thread by hand — workload registry, search strategy, synthesizer
instances (whose cost memos now amortize across jobs *and* workloads
sharing a hierarchy), and backend defaults — behind two calls::

    session = Session()                       # defaults: best-first, sim
    job = session.synthesize("bnl-join")      # -> Job (lazy, serializable)
    result = job.run(backend="file", seed=7)  # -> JobResult

Batch synthesis fans the same pipeline out over a process pool with
deterministic result ordering::

    jobs = session.synthesize_all(               # the scaled-down set
        session.workloads("validation"), scale="validation", parallel=4
    )

Workers ship their winners back as plan documents (the same JSON the
``synth --save-plan`` CLI writes), so nothing non-picklable ever
crosses the pool boundary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..bench.harness import (
    Experiment,
    experiment_config,
    synthesize_experiment,
    synthesizer_for,
)
from ..ocal.serialize import node_from_json, node_to_json
from ..parallel import resolve_workers, run_tasks
from ..runtime.backend import ExecutionBackend
from ..search.result import SynthesisResult
from ..search.strategies import SearchStrategy
from ..search.synthesizer import Synthesizer
from .catalog import default_registry
from .job import Alternative, Job, JobResult, SearchStats
from .workload import Workload, WorkloadError, WorkloadRegistry

__all__ = ["Session", "SessionStats"]


@dataclass
class SessionStats:
    """Aggregate accounting across every job a session synthesized."""

    jobs: int = 0
    synth_calls: int = 0
    synth_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def note(self, synthesis: SynthesisResult, seconds: float) -> None:
        self.jobs += 1
        self.synth_calls += 1
        self.synth_seconds += seconds
        self.cache_hits += synthesis.cache.hits
        self.cache_misses += synthesis.cache.lookups - synthesis.cache.hits


@dataclass
class Session:
    """Shared context for a batch of synthesis/execution jobs."""

    registry: WorkloadRegistry = field(default_factory=default_registry)
    strategy: str = "best-first"
    backend: "str | ExecutionBackend" = "sim"
    backend_options: dict = field(default_factory=dict)
    #: how many non-winning candidates each job keeps (0 disables).
    keep_alternatives: int = 4
    #: intra-search parallelism for every synthesizer this session
    #: builds: each generation's frontier costing fans out over this
    #: many processes (``0`` = one per CPU, ``1`` = serial).  Distinct
    #: from ``synthesize_all(parallel=...)``, which parallelizes
    #: *across* workloads.
    workers: int = 1
    stats: SessionStats = field(default_factory=SessionStats)
    _synthesizers: dict = field(default_factory=dict, init=False, repr=False)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def workloads(self, scale: str | None = None) -> tuple[str, ...]:
        """Registered workload names (optionally restricted to a scale)."""
        return self.registry.names(scale)

    def experiment(
        self, workload: "str | Workload | Experiment", scale: str | None = None
    ) -> Experiment:
        """Resolve a name / workload / ad-hoc experiment to an Experiment."""
        if isinstance(workload, Experiment):
            return workload
        if isinstance(workload, Workload):
            return workload.experiment(scale)
        return self.registry.experiment(workload, scale)

    def _resolved_scale(
        self, workload: "str | Workload | Experiment", scale: str | None
    ) -> str:
        if isinstance(workload, Experiment):
            return scale or "custom"
        if isinstance(workload, str):
            workload = self.registry.get(workload)
        return scale or workload.default_scale

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    def synthesize(
        self,
        workload: "str | Workload | Experiment",
        scale: str | None = None,
        strategy: str | SearchStrategy | None = None,
    ) -> Job:
        """Synthesize one workload into a :class:`Job` (nothing executes).

        ``workload`` is a registry name, a :class:`Workload`, or an
        ad-hoc :class:`Experiment`; ``scale`` picks ``"validation"`` /
        ``"table1"`` (default: the workload's own default).
        ``strategy`` is a registered name or a configured instance such
        as ``BeamSearch(width=3)``; the job records its name.  Synthesizer
        instances — and therefore cost memos — are shared across calls
        with the same hierarchy and search caps, so repeated or related
        jobs only pay estimation once.
        """
        resolved_scale = self._resolved_scale(workload, scale)
        experiment = self.experiment(workload, scale)
        synthesizer = self._synthesizer_for(experiment)
        strategy = strategy or self.strategy
        started = time.perf_counter()
        synthesis = synthesize_experiment(
            experiment, strategy=strategy, synthesizer=synthesizer
        )
        seconds = time.perf_counter() - started
        self.stats.note(synthesis, seconds)
        return self._job_from_synthesis(
            experiment, resolved_scale, synthesis, seconds,
            strategy if isinstance(strategy, str) else synthesis.strategy,
        )

    def synthesize_all(
        self,
        workloads: "Iterable[str] | None" = None,
        scale: str | None = None,
        strategy: str | None = None,
        parallel: int | None = None,
    ) -> list[Job]:
        """Synthesize a batch of named workloads, optionally in parallel.

        Results are returned in input order regardless of completion
        order.  ``parallel`` > 1 fans the batch out over a process pool
        (each worker returns the winner as a plan document plus its
        search statistics — nothing non-picklable crosses the pool);
        ``parallel=0`` means *auto* — one worker per available CPU;
        ``None``/1 runs serially in-process, where the shared cost
        memos amortize across the batch instead.  ``REPRO_PARALLEL=0``
        forces every value down to serial.
        """
        names = list(
            self.registry.names(scale) if workloads is None else workloads
        )
        unknown = sorted(n for n in names if n not in self.registry)
        if unknown:
            raise WorkloadError(
                f"unknown workload(s) {unknown}; "
                f"expected a subset of {sorted(self.registry.names())}"
            )
        strategy = strategy or self.strategy
        effective = (
            1
            if parallel is None
            else resolve_workers(parallel, task_count=len(names))
        )
        if (
            effective <= 1
            # Workers resolve names against the default catalog; a
            # session over a custom registry must stay in-process.
            or self.registry is not default_registry()
        ):
            return [
                self.synthesize(name, scale=scale, strategy=strategy)
                for name in names
            ]
        tasks = [
            (name, scale, strategy, self.keep_alternatives)
            for name in names
        ]
        payloads = run_tasks(_synthesize_task, tasks, effective)
        jobs = [self._job_from_payload(payload) for payload in payloads]
        for job in jobs:
            self.stats.jobs += 1
            self.stats.synth_calls += 1
            self.stats.synth_seconds += job.synth_seconds
            self.stats.cache_hits += job.search.cache_hits
            self.stats.cache_misses += job.search.cache_misses
        return jobs

    def run(
        self,
        workload: "str | Workload | Experiment",
        scale: str | None = None,
        strategy: str | None = None,
        backend: "str | ExecutionBackend | None" = None,
        **backend_options,
    ) -> JobResult:
        """Convenience: synthesize then immediately execute one workload."""
        job = self.synthesize(workload, scale=scale, strategy=strategy)
        return job.run(backend=backend, **backend_options)

    def load_plan(self, source: "str | dict") -> Job:
        """Load a saved plan (path or parsed document) into a runnable
        job bound to this session's backend defaults."""
        job = (
            Job.from_json(source)
            if isinstance(source, dict)
            else Job.load(source)
        )
        job.backend = self.backend
        job.backend_options = dict(self.backend_options)
        return job

    def synthesizer(self, experiment: Experiment) -> Synthesizer:
        """The shared synthesizer instance a given experiment would use.

        Public so callers that need to touch the instance *before*
        synthesis — the serving stack warm-starts its cost memo from an
        on-disk spill — get exactly the object :meth:`synthesize` will
        pick up (same (hierarchy, rules, caps) fingerprint, same memos).
        """
        return self._synthesizer_for(experiment)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _synthesizer_for(self, experiment: Experiment) -> Synthesizer:
        """One synthesizer per (hierarchy, rule set, caps) fingerprint.

        Sharing the instance shares its cost memos: the golden harness
        re-running one experiment under three strategies, or a batch of
        workloads over the same machine description, pay for estimation
        and tuning once.
        """
        key = (
            json.dumps(experiment.hierarchy.to_json(), sort_keys=True),
            tuple(experiment.exclude_rules),
            experiment.max_depth,
            experiment.max_programs,
            experiment.max_treefold_arity,
        )
        synthesizer = self._synthesizers.get(key)
        if synthesizer is None:
            synthesizer = self._synthesizers[key] = synthesizer_for(experiment)
            synthesizer.workers = self.workers
        return synthesizer

    def _job_from_synthesis(
        self,
        experiment: Experiment,
        scale: str,
        synthesis: SynthesisResult,
        seconds: float,
        strategy: str,
    ) -> Job:
        from ..codegen.plan import compile_candidate

        best = synthesis.best
        alternatives = []
        for candidate in synthesis.top:
            if len(alternatives) >= self.keep_alternatives:
                break
            if candidate.program is best.program:
                continue
            alternatives.append(
                Alternative(
                    program=candidate.program,
                    derivation=candidate.derivation,
                    cost=candidate.cost,
                    parameter_values=dict(candidate.tuned.values),
                )
            )
        return Job(
            workload=experiment.name,
            scale=scale,
            plan=compile_candidate(best),
            config=experiment_config(experiment),
            inputs=dict(experiment.inputs),
            strategy=strategy,
            derivation=best.derivation,
            spec_cost=synthesis.spec_cost,
            opt_cost=synthesis.opt_cost,
            spec=synthesis.spec,
            winner=best.program,
            synth_seconds=seconds,
            search=SearchStats(
                space=synthesis.search_space,
                steps=synthesis.steps,
                expanded=synthesis.expanded,
                pruned=synthesis.pruned,
                costed=synthesis.candidates_costed,
                cache_hits=synthesis.cache.hits,
                cache_misses=synthesis.cache.lookups - synthesis.cache.hits,
                strategy=synthesis.strategy,
                subtree_hits=synthesis.cache.subtree_hits,
                subtree_misses=synthesis.cache.subtree_misses,
                memo_estimates=synthesis.memo_sizes[0],
                memo_tunings=synthesis.memo_sizes[1],
                memo_subtrees=synthesis.memo_sizes[2],
            ),
            alternatives=tuple(alternatives),
            backend=self.backend,
            backend_options=dict(self.backend_options),
            input_annots=dict(experiment.input_annots),
            stats=dict(experiment.stats),
        )

    def _job_from_payload(self, payload: dict) -> Job:
        job = Job.from_json(payload["plan"])
        job.synth_seconds = payload["synth_seconds"]
        job.search = SearchStats(**payload["search"])
        job.alternatives = tuple(
            Alternative(
                program=node_from_json(alt["program"]),
                derivation=tuple(alt["derivation"]),
                cost=alt["cost"],
                parameter_values=dict(alt["parameter_values"]),
            )
            for alt in payload["alternatives"]
        )
        job.backend = self.backend
        job.backend_options = dict(self.backend_options)
        return job


# ----------------------------------------------------------------------
# Process-pool worker (module level so it pickles by reference)
# ----------------------------------------------------------------------
def _synthesize_task(task: Sequence) -> dict:
    """Synthesize one named workload and return a JSON-able payload."""
    name, scale, strategy, keep_alternatives = task
    session = Session(strategy=strategy, keep_alternatives=keep_alternatives)
    job = session.synthesize(name, scale=scale)
    return {
        "plan": job.to_json(),
        "synth_seconds": job.synth_seconds,
        "search": job.search.to_json(),
        "alternatives": [
            {
                "program": node_to_json(alt.program),
                "derivation": list(alt.derivation),
                "cost": alt.cost,
                "parameter_values": dict(alt.parameter_values),
            }
            for alt in job.alternatives
        ],
    }

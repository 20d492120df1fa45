"""Jobs: synthesized algorithms as shippable, runnable artifacts.

A :class:`Job` is what :meth:`repro.api.Session.synthesize` returns —
the tuned winner bound into an executable plan, together with the
synthesis statistics, the runner-up candidates, and everything needed to
execute it (hierarchy, input statistics, workload knobs).  Jobs are

* **lazy** — nothing executes until :meth:`Job.run`;
* **explainable** — :meth:`Job.explain` pretty-prints the derivation;
* **serializable** — :meth:`Job.to_json` / :meth:`Job.from_json` round-
  trip the complete tuned plan through a versioned JSON document, so a
  synthesized algorithm can be shipped and re-executed elsewhere
  *without re-searching* (a loaded job carries zero search statistics
  and never touches the synthesizer).

:class:`JobResult` unifies what used to be three separate objects
(``SynthesisResult`` + tuned parameters + ``ExecutionResult``) into one
record with a machine-readable :meth:`JobResult.to_json` form (the
``--json`` CLI flag and CI artifact diffing build on it).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields

from ..codegen.plan import ExecutablePlan, PlanError
from ..hierarchy import MemoryHierarchy
from ..ocal.ast import Node, block_params
from ..ocal.interp import substitute_blocks
from ..ocal.printer import pretty
from ..ocal.serialize import (
    decode_value,
    encode_value,
    node_from_json,
    node_to_json,
)
from ..runtime.accounting import (
    ExecutionConfig,
    ExecutionResult,
    InputSpec,
)
from ..runtime.backend import ExecutionBackend
from ..version import __version__

__all__ = [
    "PLAN_FORMAT",
    "Alternative",
    "SearchStats",
    "Job",
    "JobResult",
    "format_results",
]

#: plan-document format tag; bumped on incompatible layout changes.
PLAN_FORMAT = "repro-plan/1"


@dataclass(frozen=True)
class SearchStats:
    """Search accounting carried by a job (all zero for loaded plans)."""

    space: int = 0
    steps: int = 0
    expanded: int = 0
    pruned: int = 0
    costed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    strategy: str = ""
    #: incremental re-estimation counters (DESIGN.md §11).
    subtree_hits: int = 0
    subtree_misses: int = 0
    #: entries resident in the shared CostMemo after this job
    #: (estimates, tunings, subtrees) — cumulative across the session.
    memo_estimates: int = 0
    memo_tunings: int = 0
    memo_subtrees: int = 0

    def to_json(self) -> dict:
        # A flat stats record, serialized once per job.
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)  # lint: allow-fields
        }


@dataclass(frozen=True)
class Alternative:
    """A non-winning candidate kept for ranking comparisons."""

    program: Node
    derivation: tuple[str, ...]
    cost: float
    parameter_values: dict[str, int]

    def plan(self) -> ExecutablePlan:
        """Bind the candidate into a runnable plan (like the winner's)."""
        values = dict(self.parameter_values)
        for name in block_params(self.program):
            values.setdefault(name, 1)
        return ExecutablePlan(
            program=substitute_blocks(self.program, values),
            parameter_values=values,
        )


def _input_spec_to_json(spec: InputSpec) -> dict:
    return {
        "card": spec.card,
        "elem_bytes": spec.elem_bytes,
        "sorted": spec.sorted,
        "key_domain": spec.key_domain,
        "nested_runs": spec.nested_runs,
    }


def _config_to_json(config: ExecutionConfig) -> dict:
    return {
        "hierarchy": config.hierarchy.to_json(),
        "input_locations": dict(config.input_locations),
        "output_location": config.output_location,
        "cond_probability": config.cond_probability,
        "output_card_override": config.output_card_override,
        "cpu_per_iteration": config.cpu_per_iteration,
        "cpu_per_output_byte": config.cpu_per_output_byte,
        "cpu_per_hash": config.cpu_per_hash,
        "cpu_per_request": config.cpu_per_request,
    }


def _config_from_json(data: dict) -> ExecutionConfig:
    # Optional knobs pass through only when present, so their defaults
    # live in ExecutionConfig alone (no stale copies here).
    optional = {
        key: data[key]
        for key in (
            "output_location",
            "cond_probability",
            "output_card_override",
            "cpu_per_iteration",
            "cpu_per_output_byte",
            "cpu_per_hash",
            "cpu_per_request",
        )
        if key in data
    }
    return ExecutionConfig(
        hierarchy=MemoryHierarchy.from_json(data["hierarchy"]),
        input_locations=dict(data["input_locations"]),
        **optional,
    )


@dataclass
class Job:
    """One synthesized (or loaded) algorithm, ready to run."""

    workload: str
    scale: str
    plan: ExecutablePlan
    config: ExecutionConfig
    inputs: dict[str, InputSpec]
    strategy: str
    derivation: tuple[str, ...]
    spec_cost: float
    opt_cost: float
    spec: Node | None = None
    #: the winner *before* parameter binding (symbolic k1/k2 blocks) —
    #: what the Table-1 goldens pin; ``plan.program`` is the bound form.
    winner: Node | None = None
    synth_seconds: float = 0.0
    search: SearchStats = field(default_factory=SearchStats)
    alternatives: tuple[Alternative, ...] = ()
    #: default substrate for :meth:`run` (a name or an instance).
    backend: "str | ExecutionBackend" = "sim"
    backend_options: dict = field(default_factory=dict)
    #: symbolic cost annotations the plan was tuned under — carried so
    #: the static verifier can re-derive capacity constraints without
    #: guessing from the concrete input specs.  Optional: plan documents
    #: written before these keys existed load as ``None`` and the
    #: verifier falls back to deriving annotations from ``inputs``.
    input_annots: "dict | None" = None
    #: estimator statistics (selectivities, domain sizes) the plan was
    #: tuned under; same optionality story as ``input_annots``.
    stats: "dict[str, float] | None" = None

    # ------------------------------------------------------------------
    @property
    def program(self) -> Node:
        """The tuned, fully-bound winning program."""
        return self.plan.program

    @property
    def speedup(self) -> float:
        """Estimated Spec/Opt ratio."""
        if self.opt_cost <= 0:
            return float("inf")
        return self.spec_cost / self.opt_cost

    def run(
        self,
        backend: "str | ExecutionBackend | None" = None,
        **backend_options,
    ) -> "JobResult":
        """Execute the plan and return the unified result record.

        ``backend`` overrides the job's default substrate;
        ``backend_options`` are forwarded to the backend constructor.
        Unknown names raise :class:`~repro.codegen.plan.PlanError`
        listing the registered backends.
        """
        if backend is None:
            backend = self.backend
            backend_options = {**self.backend_options, **backend_options}
        elif isinstance(backend, str) and backend == self.backend:
            # Naming the default backend explicitly keeps its configured
            # options (explicit keywords still win).
            backend_options = {**self.backend_options, **backend_options}
        execution = self.plan.execute(
            self.config, self.inputs, backend=backend, **backend_options
        )
        return JobResult(job=self, execution=execution)

    def runner_up(self, margin: float = 2.0) -> Alternative | None:
        """A clearly-dominated alternative, if the search kept one.

        The threshold is deliberately coarse (``margin`` × the winner's
        predicted cost): near-ties are exactly where the estimator's
        known blind spots (CPU, request overhead, seek interference —
        §7.3) can legitimately flip a real measurement.
        """
        for alternative in self.alternatives:
            if not alternative.derivation:
                continue
            if alternative.cost >= self.opt_cost * margin:
                return alternative
        return None

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """Human-readable derivation report for this job."""
        lines = [f"workload: {self.workload} [{self.scale}]"]
        if self.spec is not None:
            lines.append(f"specification: {pretty(self.spec)}")
        if self.derivation:
            lines.append("derivation:")
            lines.extend(
                f"  {i + 1}. {rule}"
                for i, rule in enumerate(self.derivation)
            )
        else:
            lines.append("derivation: (the specification is the winner)")
        lines.append(f"winner: {pretty(self.plan.program)}")
        if self.plan.parameter_values:
            tuned = ", ".join(
                f"{name}={value}"
                for name, value in sorted(self.plan.parameter_values.items())
            )
            lines.append(f"tuned parameters: {tuned}")
        lines.append(
            f"estimated cost: spec {self.spec_cost:.6g}s -> "
            f"opt {self.opt_cost:.6g}s ({self.speedup:.3g}x)"
        )
        if self.search.space:
            lines.append(
                f"search: {self.search.space} programs "
                f"({self.search.strategy or self.strategy}), "
                f"{len(self.derivation)} steps, "
                f"{self.synth_seconds:.2f}s"
            )
            lines.append(
                f"cost memo: {self.search.memo_estimates} estimates, "
                f"{self.search.memo_tunings} tunings, "
                f"{self.search.memo_subtrees} subtrees"
            )
        else:
            lines.append("search: none (plan loaded, not synthesized)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The versioned, self-contained plan document."""
        return {
            "format": PLAN_FORMAT,
            "repro_version": __version__,
            "workload": self.workload,
            "scale": self.scale,
            "strategy": self.strategy,
            "derivation": list(self.derivation),
            "spec_cost": self.spec_cost,
            "opt_cost": self.opt_cost,
            "program": node_to_json(self.plan.program),
            "parameter_values": dict(self.plan.parameter_values),
            "spec": None if self.spec is None else node_to_json(self.spec),
            "winner": (
                None if self.winner is None else node_to_json(self.winner)
            ),
            "config": _config_to_json(self.config),
            "inputs": {
                name: _input_spec_to_json(spec)
                for name, spec in self.inputs.items()
            },
            # The job's default substrate ships with the plan so `exec`
            # re-runs it where it was tuned to run.  Backend *options*
            # (workdir, data seed) are machine-local and stay out.
            "backend": (
                self.backend
                if isinstance(self.backend, str)
                else getattr(self.backend, "name", "sim")
            ),
            # Optional verifier context (no format bump: absent keys
            # load as None and the verifier derives fallbacks).
            "input_annots": (
                None
                if self.input_annots is None
                else {
                    name: encode_value(annot)
                    for name, annot in self.input_annots.items()
                }
            ),
            "stats": None if self.stats is None else dict(self.stats),
        }

    @classmethod
    def from_json(cls, document: dict) -> "Job":
        """Rebuild a runnable job from a plan document.

        Rejects documents whose ``format`` tag does not match
        :data:`PLAN_FORMAT` (a plan produced by an incompatible layout
        must not be silently misinterpreted); a differing
        ``repro_version`` only warns — the format tag, not the package
        version, owns compatibility.
        """
        if not isinstance(document, dict):
            raise PlanError(
                f"plan document must be a JSON object, "
                f"got {type(document).__name__}"
            )
        got = document.get("format")
        if got != PLAN_FORMAT:
            raise PlanError(
                f"unsupported plan document format {got!r}; "
                f"this build reads {PLAN_FORMAT!r}"
            )
        produced_by = document.get("repro_version")
        if produced_by != __version__:
            warnings.warn(
                f"plan was produced by repro {produced_by}, "
                f"loading under {__version__}",
                stacklevel=2,
            )
        spec_doc = document.get("spec")
        winner_doc = document.get("winner")
        return cls(
            workload=document["workload"],
            scale=document.get("scale", "validation"),
            plan=ExecutablePlan(
                program=node_from_json(document["program"]),
                parameter_values=dict(document["parameter_values"]),
            ),
            config=_config_from_json(document["config"]),
            inputs={
                name: InputSpec(
                    card=spec["card"],
                    elem_bytes=spec["elem_bytes"],
                    sorted=spec.get("sorted", False),
                    key_domain=spec.get("key_domain", 0),
                    nested_runs=spec.get("nested_runs", False),
                )
                for name, spec in document["inputs"].items()
            },
            strategy=document.get("strategy", ""),
            derivation=tuple(document.get("derivation", ())),
            spec_cost=document.get("spec_cost", 0.0),
            opt_cost=document.get("opt_cost", 0.0),
            spec=None if spec_doc is None else node_from_json(spec_doc),
            winner=None if winner_doc is None else node_from_json(winner_doc),
            backend=document.get("backend", "sim"),
            input_annots=(
                None
                if document.get("input_annots") is None
                else {
                    name: decode_value(annot)
                    for name, annot in document["input_annots"].items()
                }
            ),
            stats=(
                None
                if document.get("stats") is None
                else dict(document["stats"])
            ),
        )

    def save(self, path: str) -> str:
        """Write the plan document to *path*; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Job":
        """Read a plan document written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(json.load(handle))


@dataclass
class JobResult:
    """One executed job: synthesis + tuning + execution, unified."""

    job: Job
    execution: ExecutionResult

    # ------------------------------------------------------------------
    @property
    def workload(self) -> str:
        return self.job.workload

    @property
    def elapsed(self) -> float:
        """The backend's (priced) running time — Table 1's *Act*."""
        return self.execution.elapsed

    @property
    def act_over_opt(self) -> float:
        """Measured / estimated — >1 means the estimator underestimates."""
        if self.job.opt_cost <= 0:
            return float("inf")
        return self.execution.elapsed / self.job.opt_cost

    def summary(self) -> str:
        return (
            f"{self.job.workload}: opt={self.job.opt_cost:.6g}s "
            f"act={self.execution.elapsed:.6g}s "
            f"(x{self.act_over_opt:.2f}) on {self.execution.backend}"
        )

    def row(self) -> str:
        """One Table-1-style text row (see :func:`format_results`)."""
        job = self.job
        return (
            f"{job.workload:<26} {job.spec_cost:>12.5g} "
            f"{job.opt_cost:>10.4g} {self.execution.elapsed:>10.4g} "
            f"{self.act_over_opt:>8.2f} {job.search.space:>6} "
            f"{job.search.steps:>5} {job.synth_seconds:>8.2f}"
        )

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Machine-readable record (winner, costs, counters)."""
        devices = {
            name: {
                "bytes_read": stats.bytes_read,
                "bytes_written": stats.bytes_written,
                "reads": stats.reads,
                "writes": stats.writes,
                "seeks": stats.seeks,
                "erases": stats.erases,
            }
            for name, stats in self.execution.stats.devices.items()
        }
        return {
            "workload": self.job.workload,
            "scale": self.job.scale,
            "strategy": self.job.strategy,
            "backend": self.execution.backend,
            "winner": pretty(self.job.plan.program),
            "derivation": list(self.job.derivation),
            "parameter_values": dict(self.job.plan.parameter_values),
            "spec_cost": self.job.spec_cost,
            "opt_cost": self.job.opt_cost,
            "synth_seconds": self.job.synth_seconds,
            "search": self.job.search.to_json(),
            "execution": {
                "elapsed": self.execution.elapsed,
                "io_seconds": self.execution.io_seconds,
                "cpu_seconds": self.execution.cpu_seconds,
                "wall_seconds": self.execution.wall_seconds,
                "measured_io_seconds": self.execution.measured_io_seconds,
                "output_card": self.execution.output_card,
                "output_bytes": self.execution.output_bytes,
                "devices": devices,
            },
        }


def format_results(results: "list[JobResult]") -> str:
    """A Table-1-style text table for a batch of job results.

    The single formatter behind the CLI's ``run`` row and the examples'
    summary tables, so the column layout has one home.
    """
    header = (
        f"{'Experiment':<26} {'Spec[s]':>12} {'Opt[s]':>10} {'Act[s]':>10} "
        f"{'Act/Opt':>8} {'Space':>6} {'Steps':>5} {'Synth[s]':>8}"
    )
    lines = [header, "-" * len(header)]
    lines.extend(result.row() for result in results)
    return "\n".join(lines)

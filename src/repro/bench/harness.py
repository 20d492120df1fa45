"""Experiment harness regenerating the paper's evaluation artifacts.

One :class:`Experiment` bundles everything a Table-1 row needs: the naive
spec, the hierarchy, input statistics, the executor's workload knobs, and
the paper's reference numbers.  ``run_experiment`` performs the full
pipeline —

    synthesize → tune parameters → bind plan → simulate execution —

and returns a :class:`ExperimentRow` with the Spec/Opt/Act columns plus
search statistics.

Experiments are named and cataloged by the central registry
(:func:`repro.api.default_registry`); the supported front door for
synthesize-and-run is :class:`repro.api.Session`, which builds directly
on :func:`synthesizer_for` / :func:`synthesize_experiment` /
:func:`experiment_config` below.

Absolute numbers are *not* expected to match the paper (our substrate is
a simulator and our inputs are rescaled); the reproduced claims are the
relationships: Spec ≫ Opt, Act tracking Opt, hash join beating BNL,
same-disk write-out beating neither, and so on.  The tier-1 module
``tests/bench/test_paper_claims.py`` checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cost.annotated import Annot
from ..hierarchy import MemoryHierarchy
from ..ocal.ast import Node
from ..codegen.plan import compile_candidate
from ..runtime.accounting import ExecutionConfig, InputSpec
from ..search.strategies import SearchStrategy
from ..search.synthesizer import Synthesizer
from ..search.result import SynthesisResult

__all__ = [
    "Experiment",
    "ExperimentRow",
    "run_experiment",
    "synthesize_experiment",
    "synthesizer_for",
    "experiment_config",
]


@dataclass
class Experiment:
    """A fully-specified evaluation scenario."""

    name: str
    spec: Node
    hierarchy: MemoryHierarchy
    input_annots: dict[str, Annot]
    input_locations: dict[str, str]
    stats: dict[str, float]
    inputs: dict[str, InputSpec]
    output_location: str | None = None
    cond_probability: float = 1.0
    output_card_override: float | None = None
    max_depth: int = 4
    max_programs: int = 300
    max_treefold_arity: int = 64
    #: rule names to disable for this run (e.g. rows that pin down BNL
    #: exclude "hash-part" so the hash join does not shadow it).
    exclude_rules: tuple[str, ...] = ()
    #: Table-1 reference values (seconds), for side-by-side reporting.
    paper_spec: float | None = None
    paper_opt: float | None = None
    paper_act: float | None = None
    paper_steps: int | None = None
    paper_space: int | None = None


@dataclass
class ExperimentRow:
    """One produced Table-1 row."""

    experiment: Experiment
    synthesis: SynthesisResult
    spec_cost: float
    opt_cost: float
    actual: float
    io_seconds: float
    cpu_seconds: float
    search_space: int
    steps: int
    synth_runtime: float
    derivation: tuple[str, ...]
    #: the backend's full result (measured wall clock, byte counters …).
    result: "object | None" = None

    @property
    def act_over_opt(self) -> float:
        """Measured / estimated — >1 means the estimator underestimates."""
        if self.opt_cost <= 0:
            return math.inf
        return self.actual / self.opt_cost

    @property
    def speedup(self) -> float:
        if self.opt_cost <= 0:
            return math.inf
        return self.spec_cost / self.opt_cost


def synthesizer_for(
    experiment: Experiment, strategy: str | None = None
) -> Synthesizer:
    """A synthesizer honoring the experiment's rule exclusions and caps.

    Reusable across strategies: cost memoization on the instance makes
    running the same experiment under several strategies (the golden
    regression tests, strategy head-to-heads) pay for estimation once.
    """
    from ..rules.registry import default_rules

    rules = [
        rule
        for rule in default_rules()
        if rule.name not in experiment.exclude_rules
    ]
    return Synthesizer(
        hierarchy=experiment.hierarchy,
        rules=rules,
        max_depth=experiment.max_depth,
        max_programs=experiment.max_programs,
        max_treefold_arity=experiment.max_treefold_arity,
        strategy=strategy,
    )


def synthesize_experiment(
    experiment: Experiment,
    strategy: str | SearchStrategy | None = None,
    synthesizer: Synthesizer | None = None,
) -> SynthesisResult:
    """The synthesis half of the pipeline (shared by the bench, CLI, and
    validation).  Pass an explicit ``synthesizer`` (see
    :func:`synthesizer_for`) to reuse its cost memo across calls.
    """
    if synthesizer is None:
        synthesizer = synthesizer_for(experiment, strategy)
    elif strategy is not None:
        synthesizer.strategy = strategy
    return synthesizer.synthesize(
        spec=experiment.spec,
        input_annots=experiment.input_annots,
        input_locations=experiment.input_locations,
        stats=experiment.stats,
        output_location=experiment.output_location,
    )


def experiment_config(experiment: Experiment) -> ExecutionConfig:
    """The execution configuration an experiment's runs share."""
    return ExecutionConfig(
        hierarchy=experiment.hierarchy,
        input_locations=experiment.input_locations,
        output_location=experiment.output_location,
        cond_probability=experiment.cond_probability,
        output_card_override=experiment.output_card_override,
    )


def run_experiment(
    experiment: Experiment,
    backend: str = "sim",
    backend_options: dict | None = None,
    strategy: str | None = None,
) -> ExperimentRow:
    """Synthesize, tune, and execute one experiment.

    ``backend`` selects the execution substrate for the Act column:
    ``"sim"`` (the analytic simulator, default) or ``"file"`` (real
    temp-file execution; ``backend_options`` are forwarded, e.g.
    ``{"workdir": ..., "seed": 7}``).  ``strategy`` selects the search
    strategy (``None`` = the exhaustive default).
    """
    from ..runtime.backend import get_backend

    synthesis = synthesize_experiment(experiment, strategy=strategy)
    plan = compile_candidate(synthesis.best)
    config = experiment_config(experiment)
    resolved = get_backend(backend, **(backend_options or {}))
    result = plan.execute(config, experiment.inputs, backend=resolved)
    return ExperimentRow(
        experiment=experiment,
        synthesis=synthesis,
        spec_cost=synthesis.spec_cost,
        opt_cost=synthesis.opt_cost,
        actual=result.elapsed,
        io_seconds=result.io_seconds,
        cpu_seconds=result.cpu_seconds,
        search_space=synthesis.search_space,
        steps=synthesis.steps,
        synth_runtime=synthesis.runtime,
        derivation=synthesis.best.derivation,
        result=result,
    )

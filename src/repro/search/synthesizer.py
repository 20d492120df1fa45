"""OCAS — the Out-of-Core Algorithm Synthesizer (Sections 1, 6, 7.4).

Given a naive, memory-hierarchy-oblivious OCAL program and a hierarchy
description, the synthesizer:

1. explores the space of equivalent programs generated by the
   transformation-rule library, under a pluggable
   :class:`~repro.search.strategies.SearchStrategy` — exhaustive BFS by
   default (the paper's search), beam or best-first for large spaces
   (structural dedup over hash-consed programs keeps the space a set,
   not a tree);
2. costs candidates with the Section-5 estimator — *without running
   them* — and tunes block/buffer parameters with the non-linear
   optimizer, memoizing both phases in a
   :class:`~repro.cost.cache.CostMemo`;
3. returns the cheapest candidate together with the search statistics
   Table 1 reports (search-space size, derivation steps, synthesis
   time), plus strategy accounting (programs expanded, tunings pruned,
   cache hit/miss counters).

The search is bounded by ``max_depth`` and ``max_programs``; the paper
observes the space "growing roughly exponentially with the number of
transformation steps", which the caps — and the non-exhaustive
strategies — keep tractable.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Iterator

from ..cost.annotated import Annot
from ..cost.cache import CacheStats, CostMemo
from ..cost.estimator import (
    CostEstimator,
    CostModel,
    EstimatorError,
)
from ..hierarchy import MemoryHierarchy
from ..ocal.ast import Node, intern_node
from ..ocal.interp import canonicalize_blocks
from ..parallel import resolve_workers
from ..rules.base import Rewrite, Rule, RuleContext
from ..rules.engine import iter_rewrites
from ..rules.registry import default_rules
from .frontier import SearchLimits
from .parallel_cost import DeferredCandidate, FrontierCoster
from .result import Candidate, SynthesisResult
from .strategies import SearchStrategy, SearchTask, resolve_strategy

__all__ = ["Synthesizer", "synthesize"]


@dataclass
class Synthesizer:
    """Reusable synthesizer configured for one memory hierarchy.

    ``strategy`` selects the exploration policy: a
    :class:`~repro.search.strategies.SearchStrategy` instance, a
    registered name (``"exhaustive-bfs"``, ``"beam"``, ``"best-first"``),
    or ``None`` for the exhaustive default.  Cost memoization persists
    across ``synthesize`` calls on the same instance (one memo per cost
    model), so re-running a workload — or comparing strategies via
    separate instances — is cheap and fair respectively.

    ``workers`` enables parallel frontier costing: each generation's
    candidate batch fans out over a process pool (``0`` = one worker
    per CPU, ``1`` = serial, honoring ``REPRO_PARALLEL=0``).  Winners,
    derivations, truncation and cost totals are bit-identical to serial
    — see DESIGN.md §13 for the determinism argument.
    """

    hierarchy: MemoryHierarchy
    rules: list[Rule] = field(default_factory=default_rules)
    max_depth: int = 6
    max_programs: int = 4000
    max_treefold_arity: int = 64
    keep_top: int = 5
    strategy: SearchStrategy | str | None = None
    workers: int = 1
    #: statically verify every rewrite output during search (DESIGN.md
    #: §15): type + placement passes on each candidate, hard-failing
    #: with the offending rule's name and position.  ``None`` defers to
    #: the ``REPRO_VERIFY`` environment variable ("1" enables).
    verify: bool | None = None
    _memos: dict[object, CostMemo] = field(
        default_factory=dict, init=False, repr=False
    )
    _rewrite_memos: dict[object, dict] = field(
        default_factory=dict, init=False, repr=False
    )

    def _verify_enabled(self) -> bool:
        if self.verify is not None:
            return self.verify
        return os.environ.get("REPRO_VERIFY", "") not in ("", "0")

    def synthesize(
        self,
        spec: Node,
        input_annots: dict[str, Annot],
        input_locations: dict[str, str],
        stats: dict[str, float],
        output_location: str | None = None,
    ) -> SynthesisResult:
        """Derive the cheapest equivalent of *spec* for this hierarchy."""
        started = time.perf_counter()
        strategy = resolve_strategy(self.strategy)
        model = CostModel(
            hierarchy=self.hierarchy,
            input_annots=input_annots,
            input_locations=input_locations,
            output_location=output_location,
            stats=stats,
        )
        ctx = RuleContext(
            hierarchy=self.hierarchy,
            input_locations=dict(input_locations),
            output_location=output_location,
            max_treefold_arity=self.max_treefold_arity,
            _rewrite_memo=self._rewrite_memo_for(
                input_locations, output_location
            ),
        )
        memo = self._memo_for(model)
        cache_before = memo.stats.snapshot()

        spec = intern_node(spec)
        expand = lambda program: iter_rewrites(program, self.rules, ctx)
        if self._verify_enabled():
            from ..analysis.type_pass import input_types_from_annots

            input_types = input_types_from_annots(input_annots)
            self._verify_rewrite(
                Rewrite("<spec>", spec),
                input_types,
                input_locations,
                output_location,
            )
            expand = lambda program: self._verified_rewrites(
                program, ctx, input_types, input_locations, output_location
            )
        spec_candidate = self._cost(spec, (), model, stats, memo)
        if spec_candidate is None:
            raise EstimatorError("the specification program cannot be costed")

        coster = self._coster_for(model, stats)
        try:
            batch_cost = batch_bound = None
            if coster is not None:
                batch_cost, batch_bound = self._batch_closures(
                    coster, model, stats, memo
                )
            task = SearchTask(
                spec=spec,
                spec_candidate=spec_candidate,
                limits=SearchLimits(
                    max_depth=self.max_depth, max_programs=self.max_programs
                ),
                keep_top=self.keep_top,
                expand=expand,
                canonical=lambda program: intern_node(
                    canonicalize_blocks(program)
                ),
                cost=lambda program, chain: self._cost(
                    program, chain, model, stats, memo
                ),
                lower_bound=lambda program: self._lower_bound(
                    program, model, stats, memo
                ),
                batch_cost=batch_cost,
                batch_lower_bound=batch_bound,
            )
            state = strategy.search(task)
        finally:
            if coster is not None:
                coster.close()

        cache = memo.stats.since(cache_before)
        if coster is not None:
            cache = _merge_cache(cache, coster.cache_delta)
        runtime = time.perf_counter() - started
        return SynthesisResult(
            spec=spec,
            spec_cost=spec_candidate.cost,
            best=state.best,
            search_space=len(state.seen),
            runtime=runtime,
            depth_reached=state.depth_reached,
            candidates_costed=state.costed,
            frontier_truncated=state.truncated,
            top=state.top,
            strategy=strategy.name,
            expanded=state.expanded,
            pruned=state.pruned,
            cache=cache,
            memo_sizes=memo.sizes(),
        )

    # ------------------------------------------------------------------
    # Verify mode (DESIGN.md §15)
    # ------------------------------------------------------------------
    def _verified_rewrites(
        self,
        program: Node,
        ctx: RuleContext,
        input_types: dict,
        input_locations: dict[str, str],
        output_location: str | None,
    ) -> Iterator[Rewrite]:
        """``iter_rewrites`` with a static check on every output.

        Purely observational: every rewrite is yielded unchanged (in
        the same order), so winners are bit-identical to verify-off —
        unless a rule produced an invalid program, which hard-fails
        with the rule's name and position.
        """
        for rewrite in iter_rewrites(program, self.rules, ctx):
            self._verify_rewrite(
                rewrite, input_types, input_locations, output_location
            )
            yield rewrite

    def _verify_rewrite(
        self,
        rewrite: Rewrite,
        input_types: dict,
        input_locations: dict[str, str],
        output_location: str | None,
    ) -> None:
        from ..analysis.diagnostics import VerificationError, errors
        from ..analysis.verifier import verify_program

        diagnostics = errors(
            verify_program(
                rewrite.program,
                hierarchy=self.hierarchy,
                input_types=input_types,
                input_locations=input_locations,
                output_location=output_location,
                effects=False,
            )
        )
        if diagnostics:
            raise VerificationError(
                [
                    dataclasses.replace(
                        diagnostic,
                        rule=rewrite.rule,
                        path=diagnostic.path or rewrite.position,
                    )
                    for diagnostic in diagnostics
                ],
                context=(
                    f"rule {rewrite.rule!r} produced a statically "
                    f"invalid program"
                ),
            )

    # ------------------------------------------------------------------
    def _coster_for(
        self, model: CostModel, stats: dict[str, float]
    ) -> FrontierCoster | None:
        """A frontier coster when parallel costing applies, else ``None``.

        ``resolve_workers`` folds in the ``REPRO_PARALLEL`` escape hatch
        and fork availability; pool construction failure degrades to
        serial (never to an error).
        """
        effective = resolve_workers(self.workers)
        if effective <= 1:
            return None
        try:
            return FrontierCoster(model, stats, effective)
        except Exception:  # lint: allow-broad-except
            return None

    def _batch_closures(
        self,
        coster: FrontierCoster,
        model: CostModel,
        stats: dict[str, float],
        memo: CostMemo,
    ):
        """The vectorized cost/bound closures for one search task.

        Small batches — and any batch after a pool failure — run the
        serial scalar path, which is value-identical by the determinism
        contract, so degradation is invisible to the strategy.  Programs
        whose estimate the parent memo already holds stay in-process
        (the lookup is cheaper than the pickle round-trip); only cold
        candidates ship to workers.
        """
        broken = [False]

        def rehydrate(program: Node, chain: tuple[str, ...]):
            return self._cost(program, chain, model, stats, memo)

        def batch_cost(pairs):
            warm = [memo.has_estimate(program) for program, _ in pairs]
            cold = [index for index, hit in enumerate(warm) if not hit]
            if not broken[0] and len(cold) >= FrontierCoster.MIN_BATCH:
                try:
                    costs = coster.batch_cost(
                        [pairs[index][0] for index in cold]
                    )
                except Exception:  # lint: allow-broad-except
                    broken[0] = True
                else:
                    out: list = [None] * len(pairs)
                    for index, cost in zip(cold, costs):
                        program, chain = pairs[index]
                        out[index] = (
                            None
                            if cost is None
                            else DeferredCandidate(
                                program, chain, cost, rehydrate
                            )
                        )
                    for index, (program, chain) in enumerate(pairs):
                        if warm[index]:
                            out[index] = self._cost(
                                program, chain, model, stats, memo
                            )
                    return out
            return [
                self._cost(program, chain, model, stats, memo)
                for program, chain in pairs
            ]

        def batch_bound(programs):
            programs = list(programs)
            warm = [memo.has_estimate(program) for program in programs]
            cold = [index for index, hit in enumerate(warm) if not hit]
            if not broken[0] and len(cold) >= FrontierCoster.MIN_BATCH:
                try:
                    bounds = coster.batch_lower_bound(
                        [programs[index] for index in cold]
                    )
                except Exception:  # lint: allow-broad-except
                    broken[0] = True
                else:
                    out: list = [None] * len(programs)
                    for index, bound in zip(cold, bounds):
                        out[index] = bound
                    for index, program in enumerate(programs):
                        if warm[index]:
                            out[index] = self._lower_bound(
                                program, model, stats, memo
                            )
                    return out
            return [
                self._lower_bound(program, model, stats, memo)
                for program in programs
            ]

        return batch_cost, batch_bound

    # ------------------------------------------------------------------
    def memo_for_inputs(
        self,
        input_annots: dict[str, Annot],
        input_locations: dict[str, str],
        stats: dict[str, float],
        output_location: str | None = None,
        adopt: CostMemo | None = None,
    ) -> CostMemo:
        """The (created-on-demand) cost memo for one set of model inputs.

        The hierarchy is fixed per synthesizer, so these four inputs
        complete the model fingerprint.  ``adopt`` installs a memo the
        caller already holds for that fingerprint — the serving stack
        keeps warm memos resident between requests and hands one in —
        in place of whatever this synthesizer had.
        """
        key = (
            output_location,
            tuple(sorted(input_locations.items())),
            tuple(sorted(stats.items())),
            tuple(sorted(input_annots.items(), key=lambda kv: kv[0])),
        )
        if adopt is not None:
            self._memos[key] = adopt
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = CostMemo()
        return memo

    def _rewrite_memo_for(
        self, input_locations: dict[str, str], output_location: str | None
    ) -> dict:
        """The rewrite memo for one rule-context fingerprint.

        Rule firings are a function of the rules and of the context's
        fixed fields (DESIGN.md §3).  The rules, hierarchy and treefold
        arity are fixed per synthesizer, so one table per (input
        locations, output location) is shared by every request with
        that fingerprint.
        """
        key = (tuple(sorted(input_locations.items())), output_location)
        memo = self._rewrite_memos.get(key)
        if memo is None:
            memo = self._rewrite_memos[key] = {}
        return memo

    def _memo_for(self, model: CostModel) -> CostMemo:
        """The cost memo for one model fingerprint (hierarchy is fixed)."""
        return self.memo_for_inputs(
            model.input_annots,
            model.input_locations,
            model.stats,
            model.output_location,
        )

    def _cost(
        self,
        program: Node,
        derivation: tuple[str, ...],
        model: CostModel,
        stats: dict[str, float],
        memo: CostMemo,
    ) -> Candidate | None:
        try:
            estimate = memo.estimate(
                program,
                lambda: CostEstimator(model, memo=memo).estimate(program),
            )
        except EstimatorError:
            return None
        tuned = memo.tune(estimate, stats, penalty_rounds=2)
        if not tuned.feasible:
            return None
        return Candidate(
            program=program,
            derivation=derivation,
            estimate=estimate,
            tuned=tuned,
        )

    def _lower_bound(
        self,
        program: Node,
        model: CostModel,
        stats: dict[str, float],
        memo: CostMemo,
    ) -> float:
        """Optimistic untuned cost of *program* (``inf`` when uncostable)."""
        try:
            estimate = memo.estimate(
                program,
                lambda: CostEstimator(model, memo=memo).estimate(program),
            )
        except EstimatorError:
            return float("inf")
        return memo.bound(estimate, stats)


def _merge_cache(parent: CacheStats, workers: CacheStats) -> CacheStats:
    """Fold per-worker memo counters into the parent's run delta."""
    return CacheStats(
        parent.estimate_hits + workers.estimate_hits,
        parent.estimate_misses + workers.estimate_misses,
        parent.tune_hits + workers.tune_hits,
        parent.tune_misses + workers.tune_misses,
        parent.subtree_hits + workers.subtree_hits,
        parent.subtree_misses + workers.subtree_misses,
    )


def synthesize(
    spec: Node,
    hierarchy: MemoryHierarchy,
    input_annots: dict[str, Annot],
    input_locations: dict[str, str],
    stats: dict[str, float],
    output_location: str | None = None,
    **options,
) -> SynthesisResult:
    """One-call façade: build a :class:`Synthesizer` and run it.

    ``options`` pass through to :class:`Synthesizer` — including
    ``strategy=`` (a name or a strategy instance).
    """
    return Synthesizer(hierarchy=hierarchy, **options).synthesize(
        spec=spec,
        input_annots=input_annots,
        input_locations=input_locations,
        stats=stats,
        output_location=output_location,
    )

"""Keyed memoization for the costing pipeline (DESIGN.md §6.3, §11).

Costing a candidate is two-phase: the Section-5 **estimator** walks the
program and produces a symbolic cost with constraints, then the penalty
**optimizer** tunes the block/buffer parameters numerically.  The second
phase dominates (hundreds of expression evaluations per candidate), and
both phases are pure functions of their inputs — so the synthesizer
routes them through a :class:`CostMemo`:

* **estimates** are keyed by the (hash-consed) program itself — repeated
  synthesize calls over the same model, and any strategy that re-visits
  a program, reuse the full symbolic estimate;
* **tunings** are keyed by the *optimization problem* — the cost
  expression, constraints, parameter set and statistics.  The estimator
  interns these expressions (:func:`repro.symbolic.intern_expr`), so the
  key hashes are cached on shared instances and equality probes
  short-circuit on pointer identity.  Distinct programs frequently
  induce the identical problem (block-parameter names are canonicalized
  to ``k1, k2, …``, so e.g. variants that move an annotation without
  changing the transfer structure collide), and the pattern search is
  run once per problem, not once per candidate;
* **folded tunings** sit behind a miss of that exact table: the problem
  is folded (:func:`~repro.optimizer.penalty.fold_problem` — statistics
  substituted, simplified, satisfied parameter-free constraints
  dropped) and a second table is keyed on the folded ``(cost,
  constraints, parameters, statistics, penalty rounds)``.  Roughly every
  second problem of a search is numerically an earlier one (the
  order-inputs rewrites: ``max(x, y)`` vs ``x``), so the pattern search
  runs once per *folded* problem, on the folded — smaller — bundle.
  What a candidate gets back is that search's values with the cost of
  its **own unfolded** expression at those values: the values are a
  pure function of the folded problem and the cost a pure function of
  (own expression, values), so no result depends on visit order,
  strategy or worker, and the reported cost is bit-identical to the one
  the unfolded tune reports at the same point.  The per-expression
  folds are memoized too (``(expression, statistics)`` → folded form),
  so a term or constraint side is substituted and simplified once per
  memo, not once per problem;
* **subtrees** back incremental re-estimation: per ``(subtree,
  context-bindings)`` visit results plus a replayable side-effect
  journal, so a rewrite-derived candidate only re-walks the spine from
  its rewritten position to the root (see
  :class:`~repro.cost.estimator.CostEstimator`);
* **bounds** hold the best-first lower bound
  (:func:`~repro.cost.estimator.optimistic_cost`) per tuning problem —
  the same identity ``tune`` keys on, minus the penalty rounds the bound
  does not depend on — so a memo-warm search computes it once per
  distinct problem, not once per visit;
* **term minima** back the bound itself: the bound is a sum of
  independent per-term minima, and a rewrite-derived child shares most
  additive terms (and the parameter box) with its siblings, so each
  ``(interned term, its parameters, their box tuples, statistics)`` is
  minimized once and a child recomputes only the terms its rewrite
  changed.

Hit/miss counters are exposed as :class:`CacheStats` and surfaced on
``SynthesisResult`` so benchmarks can report cache effectiveness.

**Bounded growth.**  A long ``Session.synthesize_all`` batch funnels
every candidate of every workload through shared memos; each table is
therefore capped at ``maxsize`` entries.  A table at the cap sheds its
*oldest half* (dict insertion order) before the next insert — never the
whole table: wholesale clearing mid-search silently discarded every
byte of amortization the run had built, including entries the
incremental-estimation walk was about to re-use, and turned the
supposedly-amortized tail of a long batch into a cold start.  Eviction
only ever costs recomputation — the tables cache pure functions — so a
capped memo can never change winners or re-estimation results (pinned
by regression tests), only how much gets recomputed.

**Persistence.**  The serving stack appends memo contents to an on-disk
log so a restarted server keeps its amortization.  The estimate and
tuning tables are insertion-ordered and only ever shed from the old
end, so "what is new since the last spill" needs no per-insert
bookkeeping: :meth:`CostMemo.last_keys` names the newest entry of each
table, and :meth:`CostMemo.estimates_after` /
:meth:`CostMemo.tunings_after` walk back from the newest entry to such
a mark.  :meth:`CostMemo.seed_estimate` / :meth:`CostMemo.seed_tuning`
re-insert decoded entries without touching the hit/miss counters (a
warm start is not a cache hit).  Subtrees and bounds are not spilled —
both are rebuilt as a side effect of using the entries that are — and
neither are the folded tunings, the folds or the term minima: a spilled
exact tuning already answers every problem the log has seen, and a
problem it has not seen costs one fold and (at most) one search to
rebuild them.  See :mod:`repro.service.memo_disk`.

A ``CostMemo`` must only be shared between runs that cost against the
same :class:`~repro.cost.estimator.CostModel`; the synthesizer keeps one
memo per model fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..bounded import trim_oldest_half
from ..ocal.ast import Node
from ..optimizer.penalty import (
    OptimizationResult,
    ParameterOptimizer,
    fold_problem,
)
from .estimator import CostEstimate, EstimatorError, optimistic_cost

__all__ = ["CacheStats", "CostMemo"]


@dataclass
class CacheStats:
    """Hit/miss counters for one memoization scope.

    ``estimate``/``tune`` count whole-candidate lookups; ``subtree``
    counts the estimator's incremental re-estimation cache (one lookup
    per cacheable subtree visit, so the magnitudes differ).
    """

    estimate_hits: int = 0
    estimate_misses: int = 0
    tune_hits: int = 0
    tune_misses: int = 0
    subtree_hits: int = 0
    subtree_misses: int = 0

    @property
    def lookups(self) -> int:
        """Whole-candidate lookups (estimates + tunings)."""
        return (
            self.estimate_hits
            + self.estimate_misses
            + self.tune_hits
            + self.tune_misses
        )

    @property
    def hits(self) -> int:
        return self.estimate_hits + self.tune_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @property
    def subtree_hit_rate(self) -> float:
        """Fraction of subtree visits served from cache (0.0 when unused)."""
        lookups = self.subtree_hits + self.subtree_misses
        return self.subtree_hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.estimate_hits,
            self.estimate_misses,
            self.tune_hits,
            self.tune_misses,
            self.subtree_hits,
            self.subtree_misses,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated after an earlier :meth:`snapshot`."""
        return CacheStats(
            self.estimate_hits - earlier.estimate_hits,
            self.estimate_misses - earlier.estimate_misses,
            self.tune_hits - earlier.tune_hits,
            self.tune_misses - earlier.tune_misses,
            self.subtree_hits - earlier.subtree_hits,
            self.subtree_misses - earlier.subtree_misses,
        )


#: Sentinel stored for programs whose estimation failed, so the failure
#: is also memoized (uncostable candidates are common during search).
_FAILED = object()


def _inserted_after(table: dict, mark: object) -> list:
    """Items of *table* inserted after key *mark*, oldest first.

    Walks back from the newest entry, so the cost is the number of new
    entries, not the table size.  ``mark`` must be a key object taken
    from this table (compared by identity); when it is ``None`` or has
    been shed since, every item is returned.
    """
    newer = []
    for item in reversed(table.items()):
        if item[0] is mark:
            break
        newer.append(item)
    newer.reverse()
    return newer


class CostMemo:
    """Memoization tables for estimates, tunings, subtrees and bounds.

    ``maxsize`` caps each table individually; a table at the cap sheds
    its oldest half before the next insert (recomputation, never wrong
    answers — see the module docstring).
    """

    def __init__(self, maxsize: int = 1 << 17) -> None:
        self.maxsize = maxsize
        self._estimates: dict[Node, object] = {}
        self._tunings: dict[object, OptimizationResult] = {}
        #: (subtree, context) -> (Located, CostEvents, journal); read and
        #: written by CostEstimator._visit.
        self.subtrees: dict = {}
        #: tuning problem (sans penalty rounds) -> optimistic lower bound.
        self.bounds: dict[object, float] = {}
        #: folded tuning problem -> the one pattern search run for it.
        self._folded_tunings: dict[object, OptimizationResult] = {}
        #: (expression, statistics) -> its fold, filled by
        #: ``fold_problem``; and (term, parameters, box, statistics) ->
        #: minimum over the box, filled by ``optimistic_cost``.  Both
        #: are shed here, once per call, so they can overshoot
        #: ``maxsize`` by one problem's expressions.
        self._folds: dict = {}
        self._term_minima: dict = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def estimate(
        self, program: Node, compute: Callable[[], CostEstimate]
    ) -> CostEstimate:
        """Return the memoized estimate of *program*, computing on miss.

        :raises EstimatorError: when the (possibly cached) estimation
            failed — failures are memoized too.
        """
        cached = self._estimates.get(program)
        if cached is not None:
            self.stats.estimate_hits += 1
            if cached is _FAILED:
                raise EstimatorError("memoized estimation failure")
            return cached  # type: ignore[return-value]
        self.stats.estimate_misses += 1
        if len(self._estimates) >= self.maxsize:
            trim_oldest_half(self._estimates)
        try:
            estimate = compute()
        except EstimatorError:
            self._estimates[program] = _FAILED
            raise
        self._estimates[program] = estimate
        return estimate

    # ------------------------------------------------------------------
    def has_estimate(self, program: Node) -> bool:
        """Whether *program*'s estimate (or failure) is already cached.

        A pure peek: no counters move and nothing is computed.  The
        parallel frontier coster uses it to keep memo-warm candidates
        on the in-process fast path and ship only cold ones to workers.
        """
        return self._estimates.get(program) is not None

    # ------------------------------------------------------------------
    def tune(
        self,
        estimate: CostEstimate,
        stats: dict[str, float],
        penalty_rounds: int = 2,
    ) -> OptimizationResult:
        """Tune the parameters of *estimate*, memoized by problem identity.

        The estimator hands over interned expressions, so hashing the
        key reuses cached hashes and equality hits the pointer fast
        path.  A miss folds the problem and runs the pattern search
        only when the *folded* problem is new as well (see the module
        docstring); hit/miss counters describe the exact table alone.
        """
        stats_key = tuple(sorted(stats.items()))
        key = (
            estimate.total,
            tuple(estimate.constraints),
            estimate.parameters,
            stats_key,
            penalty_rounds,
        )
        cached = self._tunings.get(key)
        if cached is not None:
            self.stats.tune_hits += 1
            return cached
        self.stats.tune_misses += 1
        if len(self._tunings) >= self.maxsize:
            trim_oldest_half(self._tunings)
        if len(self._folds) >= self.maxsize:
            trim_oldest_half(self._folds)
        cost, constraints = fold_problem(
            estimate.total, estimate.constraints, stats, self._folds
        )
        folded_key = (
            cost,
            tuple(constraints),
            estimate.parameters,
            stats_key,
            penalty_rounds,
        )
        shared = self._folded_tunings.get(folded_key)
        if shared is None:
            if len(self._folded_tunings) >= self.maxsize:
                trim_oldest_half(self._folded_tunings)
            shared = self._folded_tunings[folded_key] = ParameterOptimizer(
                cost=cost,
                constraints=constraints,
                parameters=estimate.parameters,
                stats=dict(stats),
                penalty_rounds=penalty_rounds,
            ).run()
        tuned = self._tunings[key] = shared.reported_for(
            estimate.total, stats
        )
        return tuned

    # ------------------------------------------------------------------
    def bound(self, estimate: CostEstimate, stats: dict[str, float]) -> float:
        """The optimistic lower bound on *estimate*'s tuned cost,
        memoized by the tuning problem it is a pure function of."""
        key = (
            estimate.total,
            tuple(estimate.constraints),
            estimate.parameters,
            tuple(sorted(stats.items())),
        )
        cached = self.bounds.get(key)
        if cached is None:
            if len(self.bounds) >= self.maxsize:
                trim_oldest_half(self.bounds)
            if len(self._term_minima) >= self.maxsize:
                trim_oldest_half(self._term_minima)
            cached = self.bounds[key] = optimistic_cost(
                estimate, stats, self._term_minima
            )
        return cached

    # ------------------------------------------------------------------
    def store_subtree(self, key, value) -> None:
        """Insert one incremental-estimation entry, respecting maxsize."""
        if len(self.subtrees) >= self.maxsize:
            trim_oldest_half(self.subtrees)
        self.subtrees[key] = value

    # ------------------------------------------------------------------
    # Spill support (repro.service.memo_disk)
    # ------------------------------------------------------------------
    def last_keys(self) -> tuple:
        """The newest ``(estimate key, tuning key)`` — a mark for
        :meth:`estimates_after` / :meth:`tunings_after`; ``None`` stands
        for an empty table."""
        return (
            next(reversed(self._estimates), None),
            next(reversed(self._tunings), None),
        )

    def estimates_after(
        self, mark: object = None
    ) -> "list[tuple[Node, CostEstimate | None]]":
        """Estimates inserted after key *mark* (all when ``None`` or
        shed), oldest first; ``None`` marks a memoized failure."""
        return [
            (program, None if value is _FAILED else value)
            for program, value in _inserted_after(self._estimates, mark)
        ]

    def tunings_after(
        self, mark: object = None
    ) -> "list[tuple[object, OptimizationResult]]":
        """Tunings inserted after key *mark*, as ``(problem key, result)``."""
        return _inserted_after(self._tunings, mark)

    def seed_estimate(
        self, program: Node, estimate: "CostEstimate | None"
    ) -> bool:
        """Warm-start one estimate (``None`` = failure) without moving
        the hit/miss counters; an existing entry wins.  Returns whether
        the entry was inserted."""
        if program in self._estimates:
            return False
        if len(self._estimates) >= self.maxsize:
            trim_oldest_half(self._estimates)
        self._estimates[program] = _FAILED if estimate is None else estimate
        return True

    def seed_tuning(self, key: object, result: OptimizationResult) -> bool:
        """Warm-start one tuning without moving the counters; an
        existing entry wins.  Returns whether it was inserted."""
        if key in self._tunings:
            return False
        if len(self._tunings) >= self.maxsize:
            trim_oldest_half(self._tunings)
        self._tunings[key] = result
        return True

    # ------------------------------------------------------------------
    def sizes(self) -> tuple[int, int, int]:
        """(estimates, tunings, subtrees) cached — introspection.
        ``len(memo.bounds)`` is the fourth table's size."""
        return len(self._estimates), len(self._tunings), len(self.subtrees)

    def clear(self) -> None:
        self._estimates.clear()
        self._tunings.clear()
        self.subtrees.clear()
        self.bounds.clear()
        self._folded_tunings.clear()
        self._folds.clear()
        self._term_minima.clear()

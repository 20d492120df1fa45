"""Parallel frontier costing — lever (a) of the parallelism PR.

One synthesis generation (a BFS/beam depth level, or one best-first
expansion's lower bounds) is an embarrassingly parallel batch: every
candidate is costed independently and costing never feeds back into
admission, truncation or expansion.  The :class:`FrontierCoster` fans
those batches over a :class:`~repro.parallel.WorkerPool`:

* the pool uses the ``fork`` start method, so each worker inherits the
  parent's :class:`~repro.cost.estimator.CostModel` (hierarchy, input
  annotations, statistics) through the pool initializer without any
  serialization — only per-batch traffic crosses the process boundary;
* candidates travel as plan documents (``node_to_json``, the picklable
  shape ``Session.synthesize_all`` established) and come back as tuned
  cost floats plus a :class:`~repro.cost.cache.CacheStats` delta from
  the worker's private :class:`~repro.cost.cache.CostMemo`;
* results are merged **in input order** (``chunk_slices`` keeps chunks
  contiguous), so ranking, tie-breaks and the order counter see the
  exact sequence serial costing produces — winners, truncation and
  derivations are bit-identical by construction;
* only the handful of candidates that survive ranking are ever fully
  rehydrated: :class:`DeferredCandidate` carries the worker's cost and
  recomputes ``estimate``/``tuned`` through the parent's memoized cost
  path on first attribute access (both phases are deterministic, so the
  rehydrated values equal the worker's).

Workers are processes; a worker failure cannot corrupt parent state, so
the synthesizer simply falls back to the serial cost closure when a
batch errors.
"""

from __future__ import annotations

from typing import Callable

from ..cost.cache import CacheStats, CostMemo
from ..cost.estimator import CostEstimator, EstimatorError
from ..ocal.ast import Node, intern_node
from ..ocal.serialize import node_from_json, node_to_json
from ..parallel import WorkerPool, chunk_slices

__all__ = ["DeferredCandidate", "FrontierCoster"]


# ----------------------------------------------------------------------
# Worker side.  The initializer runs once per worker process; with the
# fork start method its arguments are inherited, not pickled, so the
# cost model can be passed as a live object.
# ----------------------------------------------------------------------
_MODEL = None
_STATS: dict[str, float] = {}
_MEMO: CostMemo | None = None


def _init_worker(model, stats: dict[str, float]) -> None:
    global _MODEL, _STATS, _MEMO
    _MODEL = model
    _STATS = dict(stats)
    _MEMO = CostMemo()


def _stats_delta(delta: CacheStats) -> tuple[int, int, int, int, int, int]:
    return (
        delta.estimate_hits,
        delta.estimate_misses,
        delta.tune_hits,
        delta.tune_misses,
        delta.subtree_hits,
        delta.subtree_misses,
    )


def _worker_cost_batch(docs):
    """Tuned costs for one chunk: ``float`` per feasible doc, else ``None``.

    Mirrors ``Synthesizer._cost`` exactly (memoized estimate, then a
    two-round penalty tune) so the returned floats equal what the
    parent's serial path would compute.
    """
    before = _MEMO.stats.snapshot()
    costs: list[float | None] = []
    for doc in docs:
        program = intern_node(node_from_json(doc))
        try:
            estimate = _MEMO.estimate(
                program,
                lambda: CostEstimator(_MODEL, memo=_MEMO).estimate(program),
            )
        except EstimatorError:
            costs.append(None)
            continue
        tuned = _MEMO.tune(estimate, _STATS, penalty_rounds=2)
        costs.append(tuned.cost if tuned.feasible else None)
    return costs, _stats_delta(_MEMO.stats.since(before))


def _worker_bound_batch(docs):
    """Optimistic lower bounds for one chunk (``inf`` when uncostable)."""
    before = _MEMO.stats.snapshot()
    bounds: list[float] = []
    for doc in docs:
        program = intern_node(node_from_json(doc))
        try:
            estimate = _MEMO.estimate(
                program,
                lambda: CostEstimator(_MODEL, memo=_MEMO).estimate(program),
            )
        except EstimatorError:
            bounds.append(float("inf"))
            continue
        bounds.append(_MEMO.bound(estimate, _STATS))
    return bounds, _stats_delta(_MEMO.stats.since(before))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class DeferredCandidate:
    """A costed search point whose estimate/tuning live in a worker.

    Duck-types :class:`~repro.search.result.Candidate`.  Ranking and
    tie-breaking only need ``cost``/``program``/``derivation`` — all
    local.  The expensive fields (``estimate``, ``tuned``) rehydrate
    lazily through the parent's serial cost path, which is
    deterministic, so they match the worker's values exactly; only the
    winner and the kept alternatives ever pay for it.
    """

    __slots__ = ("program", "derivation", "_cost", "_rehydrate", "_full")

    def __init__(
        self,
        program: Node,
        derivation: tuple[str, ...],
        cost: float,
        rehydrate: Callable,
    ) -> None:
        self.program = program
        self.derivation = derivation
        self._cost = cost
        self._rehydrate = rehydrate
        self._full = None

    @property
    def cost(self) -> float:
        return self._cost

    @property
    def steps(self) -> int:
        return len(self.derivation)

    def _materialize(self):
        if self._full is None:
            full = self._rehydrate(self.program, self.derivation)
            if full is None:  # pragma: no cover - both paths deterministic
                raise EstimatorError(
                    "candidate costed in a worker failed to rehydrate"
                )
            self._full = full
        return self._full

    @property
    def estimate(self):
        return self._materialize().estimate

    @property
    def tuned(self):
        return self._materialize().tuned

    def executable(self) -> Node:
        return self._materialize().executable()


class FrontierCoster:
    """A per-synthesize pool that costs candidate batches in parallel.

    Lives for one ``Synthesizer.synthesize`` call (the model is fixed at
    construction), accumulating every worker's cache-counter deltas in
    :attr:`cache_delta` for the final ``SynthesisResult.cache`` merge.
    """

    #: below this many candidates the fan-out overhead cannot pay for
    #: itself; the synthesizer costs such batches serially instead.
    MIN_BATCH = 4

    def __init__(self, model, stats: dict[str, float], workers: int) -> None:
        self.workers = workers
        self.cache_delta = CacheStats()
        self._pool = WorkerPool(
            workers,
            initializer=_init_worker,
            initargs=(model, dict(stats)),
        )

    # ------------------------------------------------------------------
    def _dispatch(self, fn, programs: list[Node]) -> list:
        docs = [node_to_json(program) for program in programs]
        chunks = [
            docs[lo:hi] for lo, hi in chunk_slices(len(docs), self.workers)
        ]
        merged: list = []
        for values, delta in self._pool.map_ordered(fn, chunks):
            merged.extend(values)
            self._absorb(delta)
        return merged

    def _absorb(self, delta: tuple[int, int, int, int, int, int]) -> None:
        self.cache_delta.estimate_hits += delta[0]
        self.cache_delta.estimate_misses += delta[1]
        self.cache_delta.tune_hits += delta[2]
        self.cache_delta.tune_misses += delta[3]
        self.cache_delta.subtree_hits += delta[4]
        self.cache_delta.subtree_misses += delta[5]

    # ------------------------------------------------------------------
    def batch_cost(self, programs: list[Node]) -> list[float | None]:
        """Tuned cost per program (input order), ``None`` when infeasible."""
        return self._dispatch(_worker_cost_batch, programs)

    def batch_lower_bound(self, programs: list[Node]) -> list[float]:
        """Optimistic bound per program (input order), ``inf`` when unusable."""
        return self._dispatch(_worker_bound_batch, programs)

    def close(self) -> None:
        self._pool.close()

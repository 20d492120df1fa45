"""Derivative-free parameter tuning (the paper's reference [19]).

OCAS characterizes a candidate program's cost as "a (possibly non-linear)
function of … parameters" — block sizes ``k1, k2, …``, buffer sizes
``bin``/``bout``, partition counts ``s`` — and uses "the non-linear
optimization solver described in [Liuzzi, Lucidi, Sciandrone 2010]" to
minimize it subject to capacity and maxSeq constraints.

This module implements the same family of method: a **sequential penalty
derivative-free** optimizer.  Constraint violations are added to the
objective with an increasing penalty factor; each penalty subproblem is
solved by pattern (coordinate) search over ``log2``-scaled parameters,
which suits the multiplicative nature of block sizes.  Block sizes are
integral, so the final point is rounded and repaired to feasibility.

For the common single-loop case the result coincides with the paper's
heuristic — "both k1 and k2 should be as big as possible, subject to the
aforementioned restrictions" — while competing loops (``k1 + k2 ≤ M``)
get genuinely balanced.

**Compiled probes (DESIGN.md §11).**  Probe evaluation is the synthesis
hot path: one tune runs thousands of probes, each evaluating the
objective and every constraint.  The optimizer pre-compiles the whole
problem once per tune (:func:`repro.symbolic.compile.compile_problem`)
and scores each pattern-search neighborhood in batch through the
compiled bundle.  Compiled evaluation is bit-identical to scoring each
probe with :meth:`Expr.evaluate` (same operations, same order) — pinned
by ``tests/cost/goldens/tuned_reference.json``.

**Fold, then tune (DESIGN.md §11.3).**  The statistics are numbers by
the time a problem is tuned, so :func:`fold_problem` substitutes them
into the objective and every constraint and simplifies before the search
runs: ``max(x, y)`` and ``x`` become the same constant, capacity
constraints that mention no parameter drop out, and the compiled bundle
shrinks.  Candidates that differ only by such rewrites then pose the
*same* folded problem, which :class:`~repro.cost.cache.CostMemo` tunes
once.  The search result is a pure function of the folded problem; the
*reported* cost is the candidate's own unfolded expression evaluated at
the shared values (:meth:`OptimizationResult.reported_for`), so it is
bit-identical to what tuning the unfolded problem reports at that point
no matter which candidate posed the folded problem first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from ..cost.events import Constraint
from ..symbolic import Add, Const, Expr, compile_expr, compile_problem, simplify
from ..symbolic.compile import DOMAIN_ERRORS, CompiledProblem

__all__ = [
    "ParameterOptimizer",
    "OptimizationResult",
    "fold_problem",
    "optimize_parameters",
    "single_param_upper_bound",
]

#: Errors a *structurally valid* expression may raise during numeric
#: probing — the shared tuple the compiled bundle's guards are generated
#: from, so ``_safe_eval`` and the bundle cannot drift.
_DOMAIN_ERRORS = DOMAIN_ERRORS

#: Additionally tolerated while screening constraints whose variable
#: coverage is only discovered by evaluating them.
_EVAL_ERRORS = (KeyError,) + _DOMAIN_ERRORS


def single_param_upper_bound(
    name: str,
    constraints: list[Constraint],
    stats: dict[str, float],
    max_value: float = 2.0**40,
) -> float:
    """Largest *name* allowed by its single-parameter constraints.

    Considers only constraints whose free variables are *name* plus
    statistics, treating the left side as linear in *name* (true of the
    capacity and ``maxSeq`` constraints the estimator emits).  Shared by
    the optimizer's search bounds and by the admissible lower bound of
    :func:`repro.cost.estimator.optimistic_cost` — the two must agree
    on the feasible box or best-first pruning loses its guarantee.
    """
    bound = max_value
    known = set(stats)
    for constraint in constraints:
        lhs_vars = constraint.lhs.free_vars()
        rhs_vars = constraint.rhs.free_vars()
        if name not in lhs_vars or (lhs_vars | rhs_vars) - {name} - known:
            continue
        env = dict(stats)
        env[name] = 1.0
        try:
            slope = compile_expr(constraint.lhs)(env)
            rhs = compile_expr(constraint.rhs)(env)
        except _EVAL_ERRORS:
            continue
        if slope > 0 and rhs >= slope:
            bound = min(bound, rhs / slope)
    return max(1.0, bound)


def _safe_eval(expr: Expr, env: dict[str, float]) -> float:
    """The reported cost at one point; domain errors become ``inf``.

    Deliberately narrow: a ``KeyError`` (unbound variable) means the
    optimization problem itself is malformed and must surface, not
    silently score as infinitely bad.
    """
    try:
        return expr.evaluate(env)
    except _DOMAIN_ERRORS:
        return math.inf


@dataclass
class OptimizationResult:
    """Tuned parameter values and the cost they achieve."""

    values: dict[str, int]
    cost: float
    feasible: bool
    evaluations: int = 0

    def env(self, stats: dict[str, float]) -> dict[str, float]:
        """Full evaluation environment: statistics plus tuned parameters."""
        merged = dict(stats)
        merged.update({k: float(v) for k, v in self.values.items()})
        return merged

    def reported_for(
        self, cost: Expr, stats: dict[str, float]
    ) -> "OptimizationResult":
        """This (folded-problem) result as one candidate reports it.

        Values, feasibility and the search's evaluation count are
        shared; the cost is the candidate's own *unfolded* expression at
        those values, so it does not depend on which of the candidates
        posing the folded problem was tuned.
        """
        return OptimizationResult(
            dict(self.values),
            _safe_eval(cost, self.env(stats)),
            self.feasible,
            self.evaluations,
        )


def fold_problem(
    cost: Expr,
    constraints: list[Constraint],
    stats: dict[str, float],
    folds: dict | None = None,
) -> tuple[Expr, list[Constraint]]:
    """The same tuning problem with the statistics folded into numbers.

    Every additive term of *cost* and every constraint side has the
    (finite) statistics substituted as exact rationals and is
    simplified; the folded terms are summed in the order of their
    printed form, so problems whose unfolded terms merely print — hence
    sort — differently (``max(x, y)*…`` vs ``x*…``) fold to one
    expression.  A constraint whose two sides fold to constants and
    that holds is dropped: it adds exactly ``0.0`` to every violation
    sum.  Duplicates are kept — they weigh the penalty.  An expression
    whose fold hits a domain error (a zero cardinality under a
    division) stays as it is and fails at probe time like today, which
    is why the folded problem is still tuned under *stats*.

    ``folds`` memoizes ``(expression, statistics) → (printed form,
    folded expression)`` across problems: a
    :class:`~repro.cost.cache.CostMemo` hands in its own table (and
    sheds it between calls), so a term or constraint side shared by
    sibling candidates is folded once per memo.
    """
    if folds is None:
        folds = {}
    stats_key = tuple(sorted(stats.items()))
    bindings = {
        name: Const(Fraction(value))
        for name, value in stats.items()
        if math.isfinite(value)
    }

    def fold(expr: Expr) -> tuple[str, Expr]:
        key = (expr, stats_key)
        entry = folds.get(key)
        if entry is None:
            try:
                folded = simplify(expr.substitute(bindings))
            except _DOMAIN_ERRORS:
                folded = expr
            entry = folds[key] = (str(folded), folded)
        return entry

    terms = cost.terms if isinstance(cost, Add) else (cost,)
    entries = sorted(map(fold, terms), key=itemgetter(0))
    folded_cost = (
        entries[0][1]
        if len(entries) == 1
        else Add(tuple(folded for _, folded in entries))
    )
    kept = []
    for constraint in constraints:
        lhs, rhs = fold(constraint.lhs)[1], fold(constraint.rhs)[1]
        if (
            isinstance(lhs, Const)
            and isinstance(rhs, Const)
            and lhs.value <= rhs.value
        ):
            continue
        kept.append(Constraint(lhs, rhs, constraint.reason))
    return folded_cost, kept


@dataclass
class ParameterOptimizer:
    """Sequential penalty + pattern search over log-scaled parameters."""

    cost: Expr
    constraints: list[Constraint]
    parameters: frozenset[str]
    stats: dict[str, float]
    max_value: float = 2.0**40
    penalty_start: float = 1e3
    penalty_growth: float = 100.0
    penalty_rounds: int = 4
    _evaluations: int = field(default=0, init=False)
    _compiled: CompiledProblem = field(init=False, repr=False)

    def run(self) -> OptimizationResult:
        """Minimize the cost expression over the named parameters."""
        params = sorted(self.parameters)
        if not params:
            self._evaluations += 1
            cost = _safe_eval(self.cost, self._env({}))
            return OptimizationResult({}, cost, True, self._evaluations)
        self._compiled = compile_problem(
            self.cost, [(c.lhs, c.rhs) for c in self.constraints]
        )

        bounds = {name: self._upper_bound(name) for name in params}
        # Start at the geometric middle of each parameter's range.
        point = {
            name: math.sqrt(max(1.0, bounds[name])) for name in params
        }
        point = self._repair(point, bounds)

        penalty = self.penalty_start
        for _ in range(self.penalty_rounds):
            point = self._pattern_search(point, bounds, penalty)
            penalty *= self.penalty_growth

        values = self._round_feasible(point, bounds)
        env = self._env({k: float(v) for k, v in values.items()})
        self._evaluations += 1
        cost = _safe_eval(self.cost, env)
        feasible = self._violation(
            {k: float(v) for k, v in values.items()}
        ) <= 1e-6
        return OptimizationResult(values, cost, feasible, self._evaluations)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _sweep_moves(
        self, names: list[str], step: float
    ) -> list[tuple[str, str, str, float]]:
        """One sweep's move descriptors, in the greedy visit order.

        Single-coordinate multiplicative moves first, then the
        sum-preserving exchange moves that shift budget between two
        parameters without leaving a shared-capacity boundary
        (``k1 + k2 ≤ M`` stays tight while the split rebalances).
        """
        moves: list[tuple[str, str, str, float]] = []
        for name in names:
            for factor in (step, 1.0 / step):
                moves.append(("coord", name, name, factor))
        for giver in names:
            for taker in names:
                if giver != taker:
                    moves.append(("exch", giver, taker, step))
        return moves

    @staticmethod
    def _apply_move(
        move: tuple[str, str, str, float],
        best: dict[str, float],
        bounds: dict[str, float],
    ) -> dict[str, float] | None:
        """The probe point one move produces from *best* (None = no-op)."""
        kind, giver, taker, factor = move
        if kind == "coord":
            candidate = dict(best)
            candidate[giver] = min(
                max(1.0, candidate[giver] * factor), bounds[giver]
            )
            if candidate[giver] == best[giver]:
                return None
            return candidate
        delta = best[giver] * (factor - 1.0)
        candidate = dict(best)
        candidate[giver] = max(1.0, best[giver] - delta)
        candidate[taker] = min(bounds[taker], best[taker] + delta)
        if candidate == best:
            return None
        return candidate

    def _pattern_search(
        self,
        point: dict[str, float],
        bounds: dict[str, float],
        penalty: float,
    ) -> dict[str, float]:
        step = 4.0  # multiplicative step in log space
        best = dict(point)
        self._count_probe()
        best_value = self._penalized(best, penalty)
        names = sorted(best)
        sweeps = 0
        while step > 1.0009 and sweeps < 120:
            sweeps += 1
            threshold = max(1e-12, 1e-9 * abs(best_value))
            moves = self._sweep_moves(names, step)
            improved = False
            # Greedy first-improvement scan: the probe at position i is
            # built from the best point *after* every accept before i.
            # A chunk of the remaining neighborhood is speculatively
            # scored in one batched pass; an accept invalidates the
            # chunk's tail, which is rebuilt from the new best — probe
            # points and accept decisions are identical to the
            # sequential scan.  The chunk starts small after an
            # accept (accepts cluster early, when speculation would be
            # wasted) and doubles while the scan keeps rejecting, so a
            # converged sweep is scored whole in one pass.
            position = 0
            chunk = 2
            while position < len(moves):
                batch: list[dict[str, float]] = []
                positions: list[int] = []
                index = position
                while index < len(moves) and len(batch) < chunk:
                    candidate = self._apply_move(moves[index], best, bounds)
                    if candidate is not None:
                        batch.append(candidate)
                        positions.append(index)
                    index += 1
                if not batch:
                    break
                try:
                    values = self._compiled.score_points(
                        self.stats, batch, penalty
                    )
                except KeyError as error:
                    raise self._unbound(error) from None
                accepted = False
                for offset, value in enumerate(values):
                    self._count_probe()
                    if value < best_value - threshold:
                        best, best_value = batch[offset], value
                        improved = True
                        accepted = True
                        position = positions[offset] + 1
                        break
                if accepted:
                    chunk = 2
                else:
                    position = index
                    chunk = min(2 * chunk, 512)
            if not improved:
                step = math.sqrt(step)
        return best

    def _count_probe(self) -> None:
        """Account one probe: the objective plus every constraint side."""
        self._evaluations += 1 + 2 * len(self.constraints)

    @staticmethod
    def _unbound(error: KeyError) -> KeyError:
        """Re-dress a raw compiled-bundle KeyError as the interpreter's.

        A malformed problem (a variable bound by neither ``stats`` nor
        the tuned parameters) surfaces as a ``KeyError`` with
        :meth:`Expr.evaluate`'s message.
        """
        return KeyError(f"unbound symbolic variable {error.args[0]!r}")

    def _penalized(self, point: dict[str, float], penalty: float) -> float:
        try:
            return self._compiled.penalized(self._env(point), penalty)
        except KeyError as error:
            raise self._unbound(error) from None

    def _violation(self, point: dict[str, float]) -> float:
        self._evaluations += 2 * len(self.constraints)
        try:
            return self._compiled.violation(self._env(point))
        except KeyError as error:
            raise self._unbound(error) from None

    # ------------------------------------------------------------------
    # Bounds, repair, rounding
    # ------------------------------------------------------------------
    def _upper_bound(self, name: str) -> float:
        """Largest value allowed by single-parameter constraints."""
        return single_param_upper_bound(
            name, self.constraints, self.stats, self.max_value
        )

    def _repair(
        self, point: dict[str, float], bounds: dict[str, float]
    ) -> dict[str, float]:
        """Shrink parameters geometrically until all constraints hold."""
        current = {
            name: min(max(1.0, value), bounds[name])
            for name, value in point.items()
        }
        for _ in range(80):
            if self._violation(current) <= 1e-9:
                return current
            current = {
                name: max(1.0, value / 2.0)
                for name, value in current.items()
            }
        return current

    def _round_feasible(
        self, point: dict[str, float], bounds: dict[str, float]
    ) -> dict[str, int]:
        floored = {
            name: max(1, int(min(value, bounds[name])))
            for name, value in point.items()
        }
        as_float = {k: float(v) for k, v in floored.items()}
        repaired = self._repair(as_float, bounds)
        return {name: max(1, int(value)) for name, value in repaired.items()}

    # ------------------------------------------------------------------
    # Evaluation plumbing
    # ------------------------------------------------------------------
    def _env(self, point: dict[str, float]) -> dict[str, float]:
        env = dict(self.stats)
        env.update(point)
        return env


def optimize_parameters(
    cost: Expr,
    constraints: list[Constraint],
    parameters: frozenset[str] | set[str],
    stats: dict[str, float],
) -> OptimizationResult:
    """One-call façade: fold, tune, report on the unfolded *cost*."""
    folded_cost, folded_constraints = fold_problem(
        cost, list(constraints), stats
    )
    return ParameterOptimizer(
        cost=folded_cost,
        constraints=folded_constraints,
        parameters=frozenset(parameters),
        stats=dict(stats),
    ).run().reported_for(cost, stats)

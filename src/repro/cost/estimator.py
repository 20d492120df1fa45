"""Automated cost estimation (Section 5 of the paper).

``CostEstimator`` walks an OCAL program and produces, *without running
the program*:

* the result-size annotation of every expression (Figure 5);
* symbolic counts of ``InitCom``/``UnitTr`` events per directed hierarchy
  edge (Figure 6);
* capacity and ``maxSeq`` constraints on the tunable block/buffer
  parameters, consumed by the non-linear optimizer;
* the total cost as one arithmetic expression over input cardinalities
  and parameters.

Operational reading of the Figure-6 rules (the concrete transfer model,
documented in DESIGN.md §4):

* every value *resides* at a hierarchy node; inputs start at their
  declared nodes, constructed values at the root;
* a ``for``/``foldL``/``unfoldR`` whose source resides at ``ms ≠ root``
  fetches it upward.  With block size 1 the element is carried all the
  way to the root, costing one ``InitCom`` and the element's bytes per
  edge per element — the "one I/O and one seek per tuple" naive cost.
  With block size ``k`` the block is staged at ``parent(ms)``, costing
  the full list's bytes once and ``card/k`` initiations on that edge
  (fewer when a ``seq-ac`` annotation licenses sequential access);
* a value bound by a λ whose size exceeds the root is *spilled* to a
  device (written once, read back by later loops) — this is what makes
  GRACE hash join's "read everything exactly twice" come out right;
* the final result is written to the configured output node, buffered by
  an output-block parameter; results that a ``treeFold`` has already
  materialized on that device are not charged twice.

The estimator deliberately charges **no CPU cost** — exactly the
simplification the paper makes and measures the consequences of in §7.3.

**Incremental re-estimation (DESIGN.md §11).**  Search candidates are
rewrite-derived: each child program edits one subtree of its parent, so
most subtrees reappear verbatim across hundreds of candidates.  When a
:class:`~repro.cost.cache.CostMemo` is supplied, ``_visit`` results are
cached per ``(subtree, context-bindings)`` key together with a journal
of the side effects the visit performed (constraints emitted, parameters
registered, capacity terms recorded); a later candidate re-walks only
the spine from its rewritten position to the root and replays the
journal for everything else.  Subtrees that allocate fresh spill-buffer
names (``bout1, bout2, …`` — a global counter) are not cached, since
their results depend on allocation order.  Replay is order-preserving,
so cached and uncached estimation produce identical estimates; a
``CostEstimator`` built without a memo is the from-scratch reference.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

from ..hierarchy import MemoryHierarchy
from ..ocal.ast import (
    App,
    Builtin,
    Concat,
    Empty,
    FlatMap,
    FoldL,
    For,
    FuncPow,
    HashPartition,
    If,
    Lam,
    Lit,
    Node,
    Pattern,
    Prim,
    Proj,
    Sing,
    SizeAnnot,
    TreeFold,
    Tup,
    UnfoldR,
    Var,
)
from ..symbolic import (
    Add,
    Const,
    Expr,
    Var as SymVar,
    as_expr,
    ceil,
    ceil_log2,
    compile_expr,
    intern_expr,
    simplify,
    smax,
    smin,
    summation,
)
from .annotated import (
    Annot,
    AnnotError,
    ConstSize,
    ListAnnot,
    TupleAnnot,
    annot_add,
    annot_linear_growth,
    annot_max,
    annot_min_card,
    annot_scale_card,
    atom,
    card_of,
    elem_of,
    size_of,
)
from .events import Constraint, CostEvents

__all__ = [
    "CostModel",
    "CostEstimate",
    "CostEstimator",
    "EstimatorError",
    "optimistic_cost",
]

ZERO = Const(0)
ONE = Const(1)

#: Location of a value: a node name, or a tuple mirroring tuple structure.
Location = object


class EstimatorError(ValueError):
    """Raised when a program cannot be costed."""


@dataclass(frozen=True)
class Located:
    """An annotated value together with where it resides."""

    annot: Annot
    loc: Location


@dataclass
class CostModel:
    """The costing configuration for one program.

    * ``hierarchy`` — the memory tree with edge weights;
    * ``input_annots`` — annotated types of the free input variables
      (cardinalities are usually symbolic, e.g. ``Var("x")``);
    * ``input_locations`` — node where each input resides;
    * ``output_location`` — node the result is written to, or ``None``
      when the output is consumed by the CPU (Section 4);
    * ``stats`` — numeric values for the cardinality variables, used for
      the fits-in-root spill decisions (the "statistics about the input"
      the paper's cost measure depends on).
    """

    hierarchy: MemoryHierarchy
    input_annots: dict[str, Annot]
    input_locations: dict[str, str]
    output_location: str | None = None
    stats: dict[str, float] = field(default_factory=dict)


@dataclass
class CostEstimate:
    """The outcome of costing one program."""

    events: CostEvents
    result: Located
    total: Expr
    constraints: list[Constraint]
    parameters: frozenset[str]

    def evaluate(self, env: dict[str, float]) -> float:
        """Numeric cost in seconds under a full variable binding."""
        return self.total.evaluate(env)


#: Parameter values probed by :func:`optimistic_cost` — powers of two
#: from 1 to 2^40 (the optimizer's own ``max_value``).  A factor-2 grid
#: overshoots the continuous minimum of a unimodal term (``k + n/k``
#: shapes) by at most ~6%; ``BestFirst.margin`` absorbs that slack.
_OPTIMISM_LADDER = tuple(2.0 ** e for e in range(0, 41))

#: Deliberately broader than the optimizer's domain-error set: the
#: admissible-bound relaxation probes terms under partial environments,
#: where an unbound variable just means "no usable bound" (``inf``),
#: not a malformed problem.
_EVAL_ERRORS = (KeyError, ValueError, ZeroDivisionError, OverflowError)


def _param_box(
    parameters: frozenset[str],
    constraints: list[Constraint],
    stats: dict[str, float],
) -> dict[str, tuple[float, ...]]:
    """Probe values per parameter, capped by single-parameter constraints.

    Uses the optimizer's own upper-bound derivation
    (:func:`~repro.optimizer.penalty.single_param_upper_bound`), so the
    relaxation box matches the feasible region the tuner searches.  The
    true constrained optimum lies inside the box (joint constraints only
    shrink it further), so minimizing over the box stays a valid
    relaxation — and a far tighter one than the raw ``[1, 2^40]`` range,
    which lets block-size terms collapse toward zero.
    """
    # Lazy on purpose: breaks the ``cost`` ↔ ``optimizer`` import cycle.
    from ..optimizer.penalty import single_param_upper_bound

    box: dict[str, tuple[float, ...]] = {}
    for name in parameters:
        bound = single_param_upper_bound(name, constraints, stats)
        box[name] = tuple(
            v for v in _OPTIMISM_LADDER if v < bound
        ) + (bound,)
    return box


def _term_minimum(
    term,
    params: tuple[str, ...],
    stats: dict[str, float],
    box: dict[str, tuple[float, ...]],
) -> float:
    """Minimum of one additive cost term over the relaxed parameter box.

    Terms with at most two parameters are minimized over the full probe
    grid; wider terms (rare) fall back to rank-aligned assignments.
    Cost terms are monotone or unimodal in each block parameter, so the
    probe ladder's endpoints and geometric interior capture the minimum.
    """
    evaluate = compile_expr(term).fn
    if not params:
        try:
            return evaluate(dict(stats))
        except _EVAL_ERRORS:
            return math.inf
    if len(params) <= 2:
        assignments = itertools.product(*(box[name] for name in params))
    else:
        width = max(len(box[name]) for name in params)
        assignments = (
            tuple(
                box[name][min(rank, len(box[name]) - 1)] for name in params
            )
            for rank in range(width)
        )
    best = math.inf
    env = dict(stats)
    for assignment in assignments:
        env.update(zip(params, assignment))
        try:
            best = min(best, evaluate(env))
        except _EVAL_ERRORS:
            continue
    return best


def optimistic_cost(
    estimate: CostEstimate,
    stats: dict[str, float],
    minima: dict | None = None,
) -> float:
    """An admissible lower bound on the *tuned* cost of an estimate.

    The untuned cost is a sum of transfer terms.  Each term is minimized
    *independently* over the parameter box spanned by the estimate's
    single-parameter constraints (joint constraints are relaxed away);
    the sum of independent minima is ≤ the value of the sum at any joint
    in-box assignment, in particular at the constrained optimum the
    penalty optimizer will find.  Best-first search uses the bound to
    order not-yet-tuned programs and to skip the full tuning pass for
    candidates that provably cannot beat the incumbent.

    Returns ``inf`` when some term never evaluates — such programs carry
    no usable bound.

    ``minima`` (a :class:`~repro.cost.cache.CostMemo` hands its own in,
    and sheds it between calls) memoizes the per-term minimum by everything it is a
    function of — the interned term, its parameters, their box tuples
    and the statistics — so sibling candidates, which share most terms
    and the box, minimize each term once.
    """
    total = estimate.total
    if not estimate.parameters:
        return _term_minimum(total, (), stats, {})
    box = _param_box(estimate.parameters, estimate.constraints, stats)
    terms = total.terms if isinstance(total, Add) else (total,)
    parameters = frozenset(estimate.parameters)
    if minima is None:
        minima = {}
    stats_key = tuple(sorted(stats.items()))
    bound = 0.0
    for term in terms:
        term_params = tuple(sorted(term.free_vars() & parameters))
        key = (
            term,
            term_params,
            tuple(box[name] for name in term_params),
            stats_key,
        )
        minimum = minima.get(key)
        if minimum is None:
            minimum = minima[key] = _term_minimum(
                term, term_params, stats, box
            )
        if minimum == math.inf:
            return math.inf
        bound += minimum
    return bound


@dataclass
class _Frame:
    """Side effects of one in-flight subtree visit (the journal)."""

    ops: list = field(default_factory=list)
    #: True when the subtree allocated a fresh ``boutN`` name — its
    #: result depends on global allocation order and must not be cached.
    volatile: bool = False


#: Node types whose visits are worth caching: composite expressions that
#: trigger annotation work and transfer charging.  Leaves and bare
#: function values (costed as zero until applied) are cheaper to re-walk
#: than to key.
_CACHED_NODE_TYPES = (App, Concat, For, If, Prim, Proj, Sing, SizeAnnot, Tup)


#: Binder-aware free variables per (hash-consed) OCAL node, memoized —
#: subtree cache keys restrict the context to them.  Delegates to the
#: one binder-aware implementation (:func:`repro.ocal.ast.free_vars`)
#: so the cache key can never drift from the language's scoping rules.
#: Bounded like the other costing memos: cleared wholesale past the
#: cap.
_NODE_FREE_VARS: dict[Node, frozenset[str]] = {}
_NODE_FREE_VARS_MAX = 1 << 18


def _node_free_vars(node: Node) -> frozenset[str]:
    cached = _NODE_FREE_VARS.get(node)
    if cached is not None:
        return cached
    from ..ocal.ast import free_vars as node_free_vars

    out = node_free_vars(node)
    if len(_NODE_FREE_VARS) >= _NODE_FREE_VARS_MAX:
        _NODE_FREE_VARS.clear()
    _NODE_FREE_VARS[node] = out
    return out


class CostEstimator:
    """Costs OCAL programs against a :class:`CostModel`.

    ``memo`` (optional, duck-typed as :class:`~repro.cost.cache.CostMemo`)
    supplies the cross-candidate subtree cache for incremental
    re-estimation; without one every estimate is walked from scratch.
    """

    def __init__(self, model: CostModel, memo=None) -> None:
        self.model = model
        self.hierarchy = model.hierarchy
        self.root = model.hierarchy.root.name
        self.constraints: list[Constraint] = []
        self.parameters: set[str] = set()
        self._bout_counter = 0
        self._capacity: dict[str, list[Expr]] = {}
        self._memo = memo
        self._frames: list[_Frame] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self, program: Node) -> CostEstimate:
        """Cost a whole program, including the final output write."""
        self.constraints = []
        self.parameters = set()
        self._bout_counter = 0
        self._capacity = {}
        self._frames = []
        ctx = self._initial_context()
        located, events = self._visit(program, ctx)
        out = self.model.output_location
        if out is not None and not self._already_at(located, out):
            self._charge_writeout(located.annot, out, events, program)
        self._emit_capacity_constraints()
        total = events.total_cost(self.hierarchy)
        # Intern the tuning problem's expressions: memo keys built over
        # them become pointer-comparable and their compiled evaluators
        # are shared across candidates (DESIGN.md §11).
        return CostEstimate(
            events=events,
            result=located,
            total=intern_expr(total),
            constraints=[
                Constraint(
                    intern_expr(c.lhs), intern_expr(c.rhs), c.reason
                )
                for c in self.constraints
            ],
            parameters=frozenset(self.parameters),
        )

    # ------------------------------------------------------------------
    # Side-effect journal and the subtree cache
    # ------------------------------------------------------------------
    def _constraint(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)
        if self._frames:
            self._frames[-1].ops.append(("constraint", constraint))

    def _parameter(self, name: str) -> None:
        self.parameters.add(name)
        if self._frames:
            self._frames[-1].ops.append(("parameter", name))

    def _capacity_term(self, node: str, term: Expr) -> None:
        self._capacity.setdefault(node, []).append(term)
        if self._frames:
            self._frames[-1].ops.append(("capacity", node, term))

    def _replay(self, ops: tuple) -> None:
        """Re-apply a cached subtree's journal, in recorded order."""
        for op in ops:
            kind = op[0]
            if kind == "constraint":
                self.constraints.append(op[1])
            elif kind == "parameter":
                self.parameters.add(op[1])
            else:
                self._capacity.setdefault(op[1], []).append(op[2])
        if self._frames:
            self._frames[-1].ops.extend(ops)

    def _subtree_key(self, expr: Node, ctx: dict[str, Located]):
        """Cache key: the subtree plus the context it can observe."""
        bindings = tuple(
            (name, ctx[name])
            for name in sorted(_node_free_vars(expr))
            if name in ctx
        )
        return (expr, bindings)

    def _visit(
        self, expr: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        memo = self._memo
        if memo is None or not isinstance(expr, _CACHED_NODE_TYPES):
            return self._visit_inner(expr, ctx)
        key = self._subtree_key(expr, ctx)
        try:
            hit = memo.subtrees.get(key)
        except TypeError:  # an unhashable annotation — skip caching
            return self._visit_inner(expr, ctx)
        if hit is not None:
            memo.stats.subtree_hits += 1
            located, events, ops = hit
            self._replay(ops)
            # The caller mutates the returned record; hand out a copy.
            return located, CostEvents(
                init=dict(events.init), unit=dict(events.unit)
            )
        memo.stats.subtree_misses += 1
        frame = _Frame()
        self._frames.append(frame)
        try:
            located, events = self._visit_inner(expr, ctx)
        finally:
            self._frames.pop()
            if self._frames:
                self._frames[-1].ops.extend(frame.ops)
                self._frames[-1].volatile |= frame.volatile
        if not frame.volatile:
            memo.store_subtree(
                key,
                (
                    located,
                    CostEvents(
                        init=dict(events.init), unit=dict(events.unit)
                    ),
                    tuple(frame.ops),
                ),
            )
        return located, events

    # ------------------------------------------------------------------
    # Context handling
    # ------------------------------------------------------------------
    def _initial_context(self) -> dict[str, Located]:
        ctx: dict[str, Located] = {}
        for name, annot in self.model.input_annots.items():
            loc = self.model.input_locations.get(name, self.root)
            ctx[name] = Located(annot, loc)
        return ctx

    def _already_at(self, located: Located, node: str) -> bool:
        return located.loc == node

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _visit_inner(
        self, expr: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        if isinstance(expr, Var):
            if expr.name not in ctx:
                raise EstimatorError(f"unbound variable {expr.name!r}")
            return ctx[expr.name], CostEvents()
        if isinstance(expr, Lit):
            return Located(atom(self._sizeof_lit(expr.value)), self.root), (
                CostEvents()
            )
        if isinstance(expr, Sing):
            item, events = self._visit(expr.item, ctx)
            return (
                Located(ListAnnot(item.annot, ONE), self.root),
                events,
            )
        if isinstance(expr, Empty):
            return Located(ListAnnot(atom(0), ZERO), self.root), CostEvents()
        if isinstance(expr, Tup):
            events = CostEvents()
            annots = []
            locs = []
            for item in expr.items:
                located, item_events = self._visit(item, ctx)
                events.merge(item_events)
                annots.append(located.annot)
                locs.append(located.loc)
            return Located(TupleAnnot(tuple(annots)), tuple(locs)), events
        if isinstance(expr, Proj):
            located, events = self._visit(expr.tup, ctx)
            annot = located.annot
            if isinstance(annot, TupleAnnot):
                if expr.index > len(annot.items):
                    raise EstimatorError(f".{expr.index} out of range")
                item_annot = annot.items[expr.index - 1]
            else:
                item_annot = annot
            loc = located.loc
            if isinstance(loc, tuple) and expr.index <= len(loc):
                loc = loc[expr.index - 1]
            return Located(item_annot, loc), events
        if isinstance(expr, Concat):
            left, events = self._visit(expr.left, ctx)
            right, right_events = self._visit(expr.right, ctx)
            events.merge(right_events)
            return (
                Located(
                    annot_add(left.annot, right.annot),
                    self._join_loc(left.loc, right.loc),
                ),
                events,
            )
        if isinstance(expr, If):
            return self._visit_if(expr, ctx)
        if isinstance(expr, Prim):
            events = CostEvents()
            for arg in expr.args:
                _, arg_events = self._visit(arg, ctx)
                events.merge(arg_events)
            width = 1 if expr.op not in {"==", "!=", "<=", ">=", "<", ">",
                                         "and", "or", "not"} else 1
            return Located(atom(width), self.root), events
        if isinstance(expr, For):
            return self._visit_for(expr, ctx)
        if isinstance(expr, SizeAnnot):
            located, events = self._visit(expr.expr, ctx)
            if not isinstance(expr.annot, Annot):
                raise EstimatorError("SizeAnnot carries a non-annotation")
            return Located(expr.annot, located.loc), events
        if isinstance(expr, App):
            return self._visit_app(expr, ctx)
        if isinstance(
            expr,
            (Lam, FoldL, FlatMap, TreeFold, UnfoldR, FuncPow, Builtin,
             HashPartition),
        ):
            # A bare function value costs nothing until applied.
            return Located(atom(0), self.root), CostEvents()
        raise EstimatorError(f"cannot cost {type(expr).__name__}")

    # ------------------------------------------------------------------
    # if-then-else, with the order-inputs refinement
    # ------------------------------------------------------------------
    def _visit_if(
        self, expr: If, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        ordered = self._match_order_inputs(expr, ctx)
        if ordered is not None:
            return ordered
        _, events = self._visit(expr.cond, ctx)
        then, then_events = self._visit(expr.then, ctx)
        orelse, else_events = self._visit(expr.orelse, ctx)
        events.merge(then_events)
        events.merge(else_events)
        return (
            Located(
                annot_max(then.annot, orelse.annot),
                self._join_loc(then.loc, orelse.loc),
            ),
            events,
        )

    def _match_order_inputs(
        self, expr: If, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents] | None:
        """Precise sizing for ``if length(a) ≤ length(b) then ⟨a,b⟩ else ⟨b,a⟩``.

        The first component of the result is the *shorter* list; Figure 5's
        plain worst-case max would lose that fact and neutralize the
        order-inputs rule, so this pattern is annotated with min/max
        cardinalities (Section 5.1's custom-annotation facility).
        """
        cond = expr.cond
        if not (
            isinstance(cond, Prim)
            and cond.op == "<="
            and len(cond.args) == 2
            and all(
                isinstance(a, App)
                and isinstance(a.fn, Builtin)
                and a.fn.name == "length"
                and isinstance(a.arg, Var)
                for a in cond.args
            )
        ):
            return None
        a_name = cond.args[0].arg.name
        b_name = cond.args[1].arg.name
        then, orelse = expr.then, expr.orelse
        if not (
            isinstance(then, Tup)
            and isinstance(orelse, Tup)
            and len(then.items) == 2
            and len(orelse.items) == 2
            and all(isinstance(i, Var) for i in then.items + orelse.items)
        ):
            return None
        then_names = tuple(i.name for i in then.items)
        else_names = tuple(i.name for i in orelse.items)
        if {a_name, b_name} != set(then_names) or then_names != tuple(
            reversed(else_names)
        ):
            return None
        if a_name not in ctx or b_name not in ctx:
            return None
        a, b = ctx[a_name], ctx[b_name]
        if not isinstance(a.annot, ListAnnot) or not isinstance(
            b.annot, ListAnnot
        ):
            return None
        shorter = annot_min_card(a.annot, b.annot)
        longer = ListAnnot(
            annot_max(a.annot.elem, b.annot.elem),
            simplify(smax(a.annot.card, b.annot.card)),
        )
        if then_names == (a_name, b_name):
            annot = TupleAnnot((shorter, longer))
        else:
            annot = TupleAnnot((longer, shorter))
        loc = (a.loc, b.loc) if a.loc == b.loc else (a.loc, b.loc)
        return Located(annot, loc), CostEvents()

    # ------------------------------------------------------------------
    # for loops — the heart of Figure 6
    # ------------------------------------------------------------------
    def _visit_for(
        self, expr: For, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        source, events = self._visit(expr.source, ctx)
        annot = source.annot
        if not isinstance(annot, ListAnnot):
            raise EstimatorError("for iterates over a non-list value")
        card = card_of(annot)
        elem = elem_of(annot)
        elem_bytes = size_of(elem)
        if isinstance(source.loc, tuple):
            # A zip view over device-resident lists: iterating it hands out
            # tuples whose components still live on their devices; the
            # loops that consume those components pay for the transfers.
            bound = Located(elem, source.loc)
            inner_ctx = dict(ctx)
            inner_ctx[expr.var] = bound
            body, body_events = self._visit(expr.body, inner_ctx)
            events.merge_scaled(body_events, card)
            if not isinstance(body.annot, ListAnnot):
                raise EstimatorError("for body must produce a list")
            return (
                Located(annot_scale_card(body.annot, card), self.root),
                events,
            )
        ms = source.loc

        k = self._block_expr(expr.block_in)
        if expr.block_in == 1:
            bound = Located(elem, self.root)
            iterations = card
            if ms != self.root:
                self._charge_element_path(ms, card, elem_bytes, events)
                self._require_fits_root(elem_bytes, "for element")
        else:
            staging = self._parent_toward_root(ms)
            bound = Located(ListAnnot(elem, k), staging)
            iterations = simplify(card / k)
            if ms != self.root:
                self._charge_block_fetch(
                    ms, staging, annot, k, expr.seq, events
                )
            self._register_block_param(expr.block_in, staging, elem_bytes, ms)
        inner_ctx = dict(ctx)
        inner_ctx[expr.var] = bound
        body, body_events = self._visit(expr.body, inner_ctx)
        events.merge_scaled(body_events, iterations)
        if not isinstance(body.annot, ListAnnot):
            raise EstimatorError("for body must produce a list")
        result = annot_scale_card(body.annot, iterations)
        return Located(result, self.root), events

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------
    def _visit_app(
        self, expr: App, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        fn = expr.fn
        if isinstance(fn, Lam):
            arg, events = self._visit(expr.arg, ctx)
            arg = self._materialize(arg, events, tag="let")
            inner_ctx = dict(ctx)
            self._bind_pattern(fn.pattern, arg, inner_ctx)
            body, body_events = self._visit(fn.body, inner_ctx)
            events.merge(body_events)
            return body, events
        if isinstance(fn, FlatMap):
            loop = For(
                var="_fm",
                source=expr.arg,
                body=App(fn.fn, Var("_fm")),
                block_in=1,
            )
            return self._visit_for(loop, ctx)
        if isinstance(fn, FoldL):
            return self._visit_fold(fn, expr.arg, ctx)
        if isinstance(fn, UnfoldR):
            return self._visit_unfold(fn, expr.arg, ctx)
        if isinstance(fn, TreeFold):
            return self._visit_treefold(fn, expr.arg, ctx)
        if isinstance(fn, Builtin):
            return self._visit_builtin(fn.name, expr.arg, ctx)
        if isinstance(fn, HashPartition):
            return self._visit_partition(fn, expr.arg, ctx)
        if isinstance(fn, FuncPow):
            arg, events = self._visit(expr.arg, ctx)
            return Located(self._funcpow_result(arg.annot), self.root), events
        if isinstance(fn, App):
            # Curried application: cost the inner application, then treat
            # its result as opaque (no further transfers).
            _, events = self._visit(fn, ctx)
            arg, arg_events = self._visit(expr.arg, ctx)
            events.merge(arg_events)
            return Located(arg.annot, self.root), events
        raise EstimatorError(
            f"cannot cost application of {type(fn).__name__}"
        )

    def _apply_value(
        self, fn: Node, arg: Located, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        """Apply a function *value* to an already-located argument.

        Used where the argument is synthetic (the ⟨acc, x⟩ pair of a
        ``foldL`` step) rather than an expression in the program.
        """
        if isinstance(fn, Lam):
            inner_ctx = dict(ctx)
            self._bind_pattern(fn.pattern, arg, inner_ctx)
            return self._visit(fn.body, inner_ctx)
        if isinstance(fn, UnfoldR):
            annot = arg.annot
            if not isinstance(annot, TupleAnnot):
                raise EstimatorError("unfoldR step consumes a tuple")
            lists = [a for a in annot.items if isinstance(a, ListAnnot)]
            if not lists:
                raise EstimatorError("unfoldR step consumes lists")
            elem = lists[0].elem
            for other in lists[1:]:
                elem = annot_max(elem, other.elem)
            total: Expr = ZERO
            for item in lists:
                total = total + item.card
            return (
                Located(ListAnnot(elem, simplify(total)), self.root),
                CostEvents(),
            )
        if isinstance(fn, Builtin) and fn.name == "mrg":
            annot = arg.annot
            if isinstance(annot, TupleAnnot) and annot.items:
                first = annot.items[0]
                elem = (
                    first.elem if isinstance(first, ListAnnot) else atom(1)
                )
            else:
                elem = atom(1)
            return (
                Located(
                    TupleAnnot((ListAnnot(elem, ONE), arg.annot)), self.root
                ),
                CostEvents(),
            )
        if isinstance(fn, FuncPow):
            return (
                Located(self._funcpow_result(arg.annot), self.root),
                CostEvents(),
            )
        raise EstimatorError(
            f"cannot apply function value {type(fn).__name__} in costing"
        )

    def _funcpow_result(self, arg_annot: Annot) -> Annot:
        if isinstance(arg_annot, TupleAnnot) and arg_annot.items:
            first = arg_annot.items[0]
            if isinstance(first, ListAnnot):
                total = ZERO
                for item in arg_annot.items:
                    total = total + card_of(item)
                return ListAnnot(first.elem, simplify(total))
            return first
        return arg_annot

    # ------------------------------------------------------------------
    # foldL — including the spilled-accumulator sum (insertion sort)
    # ------------------------------------------------------------------
    def _visit_fold(
        self, fn: FoldL, arg: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        source, events = self._visit(arg, ctx)
        annot = source.annot
        if not isinstance(annot, ListAnnot):
            raise EstimatorError("foldL consumes a non-list value")
        card = card_of(annot)
        elem = elem_of(annot)
        elem_bytes = size_of(elem)
        ms = source.loc if isinstance(source.loc, str) else self.root

        # Input fetch: element-wise (naive) or blocked, as for `for`.
        if ms != self.root:
            if fn.block_in == 1:
                self._charge_element_path(ms, card, elem_bytes, events)
            else:
                staging = self._parent_toward_root(ms)
                k = self._block_expr(fn.block_in)
                self._charge_block_fetch(ms, staging, annot, k, fn.seq, events)
                self._register_block_param(
                    fn.block_in, staging, elem_bytes, ms
                )

        init_located, init_events = self._visit(fn.init, ctx)
        events.merge(init_events)

        # One symbolic step to get the per-iteration growth (Figure 5).
        pair = Located(
            TupleAnnot((init_located.annot, elem)),
            (self.root, self.root),
        )
        step, step_events = self._apply_value(fn.fn, pair, ctx)
        final = annot_linear_growth(init_located.annot, step.annot, card)
        events.merge_scaled(step_events, card)

        # Accumulator residence: spill when the final value cannot fit.
        final_bytes = size_of(final)
        if not self._fits_root(final_bytes):
            if self._append_only_step(fn.fn):
                # The accumulated list is only ever appended to: it
                # streams to the device once, with buffered evictions —
                # duplicate removal, not insertion sort.
                device = self._spill_device(ms)
                bout = self._block_expr(fn.block_out)
                if isinstance(fn.block_out, str):
                    self._register_byte_buffer(fn.block_out)
                self._charge_route(
                    self.root,
                    device,
                    final_bytes,
                    simplify(final_bytes / bout),
                    events,
                )
                return Located(final, device), events
            device = self._spill_device(ms)
            i = SymVar("_i")
            acc_i = size_of(
                annot_linear_growth(init_located.annot, step.annot, i)
            )
            read_units = summation("_i", 0, card - 1, acc_i)
            write_units = summation(
                "_i",
                0,
                card - 1,
                size_of(
                    annot_linear_growth(
                        init_located.annot, step.annot, i + 1
                    )
                ),
            )
            # One seek per iteration to find the accumulator, element-
            # wise write-back (the naive pattern of Section 7.2).
            self._charge_route(
                device, self.root, simplify(read_units), card, events
            )
            bout = self._block_expr(fn.block_out)
            if isinstance(fn.block_out, str):
                self._register_byte_buffer(fn.block_out)
            self._charge_route(
                self.root,
                device,
                simplify(write_units),
                simplify(write_units / bout),
                events,
            )
            return Located(final, device), events
        return Located(final, self.root), events

    @staticmethod
    def _append_only_step(step: Node) -> bool:
        """Does the fold step only *append* to its accumulated lists?

        Checked syntactically: every projection of the accumulator
        variable that denotes a list occurs as the left operand of ⊔.
        Scalar components (counters, "last value seen") are always fine.
        """
        if not isinstance(step, Lam) or not isinstance(step.pattern, tuple):
            return False
        if len(step.pattern) != 2 or not isinstance(step.pattern[0], str):
            return False
        acc = step.pattern[0]

        # The conservative check: the accumulator may appear in
        # projections, comparisons and as the left-hand side of
        # concatenations; any use as a loop source / unfold input means
        # the accumulated data is re-read each iteration.
        from ..ocal.ast import walk as walk_nodes

        for sub in walk_nodes(step.body):
            source = None
            if isinstance(sub, For):
                source = sub.source
            elif isinstance(sub, App) and isinstance(
                sub.fn, (FoldL, UnfoldR, FlatMap, TreeFold, HashPartition)
            ):
                source = sub.arg
            if source is None:
                continue
            for ref in walk_nodes(source):
                if isinstance(ref, Var) and ref.name == acc:
                    return False
                if isinstance(ref, Proj) and isinstance(ref.tup, Var) and (
                    ref.tup.name == acc
                ):
                    return False
        return True

    # ------------------------------------------------------------------
    # unfoldR — merges, zips, set operations
    # ------------------------------------------------------------------
    def _visit_unfold(
        self, fn: UnfoldR, arg: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        source, events = self._visit(arg, ctx)
        annot = source.annot
        if not isinstance(annot, TupleAnnot):
            raise EstimatorError("unfoldR consumes a tuple of lists")
        locs = (
            source.loc
            if isinstance(source.loc, tuple)
            else tuple(source.loc for _ in annot.items)
        )
        elems = []
        total_card: Expr = ZERO
        min_card: Expr | None = None
        for item, loc in zip(annot.items, locs):
            if not isinstance(item, ListAnnot):
                raise EstimatorError("unfoldR input is not a list")
            elems.append(item.elem)
            total_card = total_card + item.card
            min_card = (
                item.card if min_card is None else smin(min_card, item.card)
            )
            ms = loc if isinstance(loc, str) else self.root
            if ms != self.root:
                elem_bytes = size_of(item.elem)
                if fn.block_in == 1:
                    self._charge_element_path(
                        ms, item.card, elem_bytes, events
                    )
                else:
                    staging = self._parent_toward_root(ms)
                    k = self._block_expr(fn.block_in)
                    self._charge_block_fetch(
                        ms, staging, item, k, fn.seq, events
                    )
                    self._register_block_param(
                        fn.block_in, staging, elem_bytes, ms,
                        copies=len(annot.items),
                    )
        total_card = simplify(total_card)
        inner = fn.fn
        if isinstance(inner, Builtin) and inner.name == "zip":
            result: Annot = ListAnnot(
                TupleAnnot(tuple(elems)),
                simplify(min_card if min_card is not None else ZERO),
            )
        else:
            elem_annot = elems[0] if elems else atom(0)
            for other in elems[1:]:
                elem_annot = annot_max(elem_annot, other)
            result = ListAnnot(elem_annot, total_card)
        return Located(result, self.root), events

    # ------------------------------------------------------------------
    # treeFold — the external merge-sort cost plugin (§7.2)
    # ------------------------------------------------------------------
    def _visit_treefold(
        self, fn: TreeFold, arg: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        source, events = self._visit(arg, ctx)
        annot = source.annot
        if not isinstance(annot, ListAnnot):
            raise EstimatorError("treeFold consumes a list")
        runs = card_of(annot)
        run_annot = elem_of(annot)
        if isinstance(run_annot, ListAnnot):
            elem_bytes = size_of(elem_of(run_annot))
            total_elems = simplify(runs * card_of(run_annot))
        else:
            elem_bytes = size_of(run_annot)
            total_elems = runs
        total_bytes = simplify(total_elems * elem_bytes)
        ms = source.loc if isinstance(source.loc, str) else self.root
        device = self._spill_device(ms)

        # ⌈⌈log x⌉ / k⌉ merge levels for treeFold[2^k]; each level reads and
        # writes the full data once (Section 7.2's closed form).
        log_arity = max(1, int(math.log2(fn.arity)))
        levels = simplify(ceil(ceil_log2(smax(runs, 2)) / log_arity))

        block_in: Expr = ONE
        block_out: Expr = ONE
        if isinstance(fn.fn, UnfoldR):
            block_in = self._block_expr(fn.fn.block_in)
            block_out = self._block_expr(fn.fn.block_out)
            self._register_block_param(
                fn.fn.block_in, self.root, elem_bytes, device,
                copies=fn.arity,
            )
            self._register_block_param(
                fn.fn.block_out, self.root, elem_bytes, device
            )
        per_level_units = total_bytes
        read_inits = simplify(total_elems / block_in)
        write_inits = simplify(total_elems / block_out)
        self._charge_route(
            device,
            self.root,
            simplify(levels * per_level_units),
            simplify(levels * read_inits),
            events,
        )
        self._charge_route(
            self.root,
            device,
            simplify(levels * per_level_units),
            simplify(levels * write_inits),
            events,
        )

        result_elem = (
            elem_of(run_annot)
            if isinstance(run_annot, ListAnnot)
            else run_annot
        )
        result = ListAnnot(result_elem, total_elems)
        # The sorted output is materialized on `device` by the last level.
        return Located(result, device), events

    # ------------------------------------------------------------------
    # builtins and partitioning
    # ------------------------------------------------------------------
    def _visit_builtin(
        self, name: str, arg: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        source, events = self._visit(arg, ctx)
        annot = source.annot
        if name == "length":
            return Located(atom(1), self.root), events
        if name == "avg":
            if isinstance(annot, ListAnnot):
                ms = source.loc if isinstance(source.loc, str) else self.root
                if ms != self.root:
                    self._charge_element_path(
                        ms, card_of(annot), size_of(elem_of(annot)), events
                    )
            return Located(atom(1), self.root), events
        if name == "head":
            if not isinstance(annot, ListAnnot):
                raise EstimatorError("head of a non-list")
            ms = source.loc if isinstance(source.loc, str) else self.root
            if ms != self.root:
                self._charge_element_path(
                    ms, ONE, size_of(elem_of(annot)), events
                )
            return Located(elem_of(annot), self.root), events
        if name == "tail":
            if not isinstance(annot, ListAnnot):
                raise EstimatorError("tail of a non-list")
            remaining = simplify(smax(card_of(annot) - 1, ZERO))
            return (
                Located(ListAnnot(elem_of(annot), remaining), source.loc),
                events,
            )
        if name == "mrg":
            if not isinstance(annot, TupleAnnot):
                raise EstimatorError("mrg consumes a pair")
            lists = [a for a in annot.items if isinstance(a, ListAnnot)]
            elem = lists[0].elem if lists else atom(1)
            return (
                Located(
                    TupleAnnot((ListAnnot(elem, ONE), annot)), self.root
                ),
                events,
            )
        if name == "zip":
            if not isinstance(annot, TupleAnnot):
                raise EstimatorError("zip consumes a tuple of lists")
            elems = []
            min_card: Expr | None = None
            for item in annot.items:
                if not isinstance(item, ListAnnot):
                    raise EstimatorError("zip input is not a list")
                elems.append(item.elem)
                min_card = (
                    item.card
                    if min_card is None
                    else smin(min_card, item.card)
                )
            result = ListAnnot(
                TupleAnnot(tuple(elems)),
                simplify(min_card if min_card is not None else ZERO),
            )
            # Zipping device-resident partition lists is a logical view:
            # the component lists stay where they are.
            return Located(result, source.loc if isinstance(
                source.loc, tuple
            ) else source.loc), events
        raise EstimatorError(f"cannot cost builtin {name!r}")

    def _visit_partition(
        self, fn: HashPartition, arg: Node, ctx: dict[str, Located]
    ) -> tuple[Located, CostEvents]:
        source, events = self._visit(arg, ctx)
        annot = source.annot
        if not isinstance(annot, ListAnnot):
            raise EstimatorError("partition consumes a list")
        card = card_of(annot)
        elem = elem_of(annot)
        elem_bytes = size_of(elem)
        total_bytes = simplify(card * elem_bytes)
        ms = source.loc if isinstance(source.loc, str) else self.root
        buckets = self._block_expr(fn.buckets)
        if isinstance(fn.buckets, str):
            self._parameter(fn.buckets)
            self._constraint(
                Constraint(ONE, buckets, reason="at least one partition")
            )
        if ms != self.root:
            # Partitioning streams the input sequentially (OCAS's linear
            # generator plugin): one initiation per root-sized chunk.
            chunk = max(1.0, self.hierarchy.root.size / 4)
            self._charge_route(
                ms,
                self.root,
                total_bytes,
                simplify(smax(total_bytes / chunk, ONE)),
                events,
            )
        bucket_card = simplify(ceil(card / buckets))
        result = ListAnnot(ListAnnot(elem, bucket_card), buckets)
        located = Located(result, self.root)
        return self._materialize_partition(located, ms, events), events

    def _materialize_partition(
        self, located: Located, source_node: str, events: CostEvents
    ) -> Located:
        total = size_of(located.annot)
        if self._fits_root(total):
            return located
        device = self._spill_device(source_node)
        bout = self._fresh_bout(device)
        self._charge_route(
            self.root, device, total, simplify(total / bout), events
        )
        return Located(located.annot, device)

    # ------------------------------------------------------------------
    # Spilling, materialization, write-out
    # ------------------------------------------------------------------
    def _materialize(
        self, located: Located, events: CostEvents, tag: str
    ) -> Located:
        """Spill a λ-bound value that cannot reside at the root."""
        if isinstance(located.loc, tuple):
            return located  # components are placed individually
        if located.loc != self.root:
            return located  # already on a device
        try:
            total = size_of(located.annot)
        except AnnotError:
            return located
        if self._fits_root(total):
            return located
        device = self._spill_device(self.root)
        bout = self._fresh_bout(device)
        self._charge_route(
            self.root, device, total, simplify(total / bout), events
        )
        return Located(located.annot, device)

    def _charge_writeout(
        self,
        annot: Annot,
        out: str,
        events: CostEvents,
        program: Node,
    ) -> None:
        """Write the final result to the output node.

        * Evictions are buffered by the output-block parameter (bytes).
        * On flash, one InitCom (an erase) precedes each write sequence of
          at most ``maxSeqW`` bytes, however large the buffer (§6.2, §7.2).
        * Writing to a device the program also *reads* interferes: every
          eviction displaces the head, so the next read seeks again —
          reproduced as one extra read-side InitCom per eviction.  This is
          what makes "BNL writing to the same HDD" markedly slower than
          writing to a second disk (Table 1 rows 4–5).
        """
        total = size_of(annot)
        bout = self._writeout_block(program)
        limit = self.hierarchy.node(out).max_seq_write
        if limit is not None:
            evictions = simplify(smax(total / bout, total / limit))
        else:
            evictions = simplify(total / bout)
        self._charge_route(self.root, out, total, evictions, events)
        if (out, self.root) in events.unit:
            events.add_init(out, self.root, simplify(total / bout))

    def _writeout_block(self, program: Node) -> Expr:
        """Output buffering for the final write.

        Uses the outermost loop's ``block_out`` annotation when present
        (``for (…) [k2] e`` — apply-block's output side, in *bytes* as in
        Figure 4's ``2xy/ko``), otherwise an unbuffered single-byte write.
        """
        if isinstance(program, SizeAnnot):
            return self._writeout_block(program.expr)
        if isinstance(program, (For, UnfoldR)) and isinstance(
            program.block_out, str
        ):
            self._register_byte_buffer(program.block_out)
            return SymVar(program.block_out)
        if isinstance(program, App) and isinstance(program.fn, Lam):
            return self._writeout_block(program.fn.body)
        if isinstance(program, App) and isinstance(
            program.fn, (UnfoldR, FoldL)
        ) and isinstance(program.fn.block_out, str):
            self._register_byte_buffer(program.fn.block_out)
            return SymVar(program.fn.block_out)
        if isinstance(program, (For, UnfoldR)) and program.block_out != 1:
            return as_expr(program.block_out)
        return ONE

    # ------------------------------------------------------------------
    # Transfer-charging helpers
    # ------------------------------------------------------------------
    def _charge_element_path(
        self, ms: str, count: Expr, elem_bytes: Expr, events: CostEvents
    ) -> None:
        """Naive per-element fetch from ``ms`` all the way to the root."""
        path = self.hierarchy.path_to_root(ms)
        total_bytes = simplify(count * elem_bytes)
        for lower, upper in zip(path, path[1:]):
            events.add_init(lower.name, upper.name, count)
            events.add_unit(lower.name, upper.name, total_bytes)

    def _edges_between(self, src: str, dst: str) -> list[tuple[str, str]]:
        """Directed adjacent hops from ``src`` to ``dst`` along the tree.

        Transfers only happen between adjacent levels (§5.2); charging a
        device↔root movement on a deep hierarchy means charging every
        intermediate edge.
        """
        up_from_src = [n.name for n in self.hierarchy.path_to_root(src)]
        if dst in up_from_src:
            hops = up_from_src[: up_from_src.index(dst) + 1]
            return list(zip(hops, hops[1:]))
        up_from_dst = [n.name for n in self.hierarchy.path_to_root(dst)]
        if src in up_from_dst:
            hops = up_from_dst[: up_from_dst.index(src) + 1]
            return [(b, a) for a, b in zip(hops, hops[1:])][::-1]
        raise EstimatorError(
            f"no ancestor path between {src!r} and {dst!r}"
        )

    def _charge_route(
        self,
        src: str,
        dst: str,
        nbytes: Expr,
        init_count: Expr,
        events: CostEvents,
    ) -> None:
        """Charge a transfer along every edge between two tree nodes."""
        for hop_src, hop_dst in self._edges_between(src, dst):
            events.add_unit(hop_src, hop_dst, nbytes)
            events.add_init(hop_src, hop_dst, init_count)

    def _charge_block_fetch(
        self,
        ms: str,
        staging: str,
        annot: ListAnnot,
        k: Expr,
        seq: tuple[str, str] | None,
        events: CostEvents,
    ) -> None:
        """Blocked fetch of a whole list across one edge (apply-block)."""
        card = card_of(annot)
        total_bytes = simplify(card * size_of(elem_of(annot)))
        events.add_unit(ms, staging, total_bytes)
        if seq is not None:
            events.add_init(
                ms, staging, self._seq_init_count(seq, total_bytes)
            )
        else:
            # At least one initiation per pass, however large the block —
            # otherwise fine partitioning would fake fractional seeks.
            events.add_init(ms, staging, simplify(smax(ONE, card / k)))

    def _seq_init_count(
        self, seq: tuple[str, str], total_bytes: Expr
    ) -> Expr:
        """max(1, total / min(m1.maxSeqR, m2.maxSeqW)) — Section 6.2."""
        m1, m2 = seq
        limits = []
        src = self.hierarchy.node(m1)
        dst = self.hierarchy.node(m2)
        if src.max_seq_read is not None:
            limits.append(src.max_seq_read)
        if dst.max_seq_write is not None:
            limits.append(dst.max_seq_write)
        if not limits:
            return ONE
        return simplify(smax(ONE, total_bytes / min(limits)))

    # ------------------------------------------------------------------
    # Parameters and constraints
    # ------------------------------------------------------------------
    def _block_expr(self, block) -> Expr:
        if isinstance(block, str):
            self._parameter(block)
            return SymVar(block)
        return as_expr(block)

    def _register_block_param(
        self,
        block,
        staging: str,
        elem_bytes: Expr,
        source_node: str,
        copies: int = 1,
    ) -> None:
        """Capacity and maxSeq constraints for one block parameter."""
        if not isinstance(block, str):
            return
        self._parameter(block)
        k = SymVar(block)
        node = self.hierarchy.node(staging)
        self._constraint(
            Constraint(ONE, k, reason=f"{block} ≥ 1")
        )
        self._constraint(
            Constraint(
                simplify(k * elem_bytes * copies),
                as_expr(node.size),
                reason=f"{block} block(s) fit in {staging}",
            )
        )
        self._capacity_term(staging, simplify(k * elem_bytes * copies))
        src = self.hierarchy.node(source_node)
        if src.max_seq_read is not None:
            self._constraint(
                Constraint(
                    simplify(k * elem_bytes),
                    as_expr(src.max_seq_read),
                    reason=f"{block} ≤ maxSeqR of {source_node}",
                )
            )

    def _emit_capacity_constraints(self) -> None:
        """Joint capacity: Σ simultaneously-live blocks/buffers ≤ node size.

        This is the constraint that makes "several nested loops competing
        for space at the same node" (Section 6.2) a genuine optimization
        problem rather than a take-the-maximum heuristic.
        """
        for node_name, terms in self._capacity.items():
            unique: list[Expr] = []
            for term in terms:
                if term not in unique:
                    unique.append(term)
            if len(unique) < 2:
                continue
            total: Expr = ZERO
            for term in unique:
                total = total + term
            self._constraint(
                Constraint(
                    simplify(total),
                    as_expr(self.hierarchy.node(node_name).size),
                    reason=f"blocks and buffers fit in {node_name} together",
                )
            )

    def _require_fits_root(self, elem_bytes: Expr, what: str) -> None:
        self._constraint(
            Constraint(
                elem_bytes,
                as_expr(self.hierarchy.root.size),
                reason=f"{what} fits at the root",
            )
        )

    def _fresh_bout(self, device: str) -> Expr:
        """A synthesized output-buffer parameter, denominated in bytes.

        Names come from a per-estimate counter, so any subtree visit
        that allocates one is excluded from the cross-candidate cache.
        """
        self._bout_counter += 1
        if self._frames:
            self._frames[-1].volatile = True
        name = f"bout{self._bout_counter}"
        self._register_byte_buffer(name)
        return SymVar(name)

    def _register_byte_buffer(self, name: str) -> None:
        self._parameter(name)
        node = self.hierarchy.root
        self._constraint(
            Constraint(ONE, SymVar(name), reason=f"{name} ≥ 1")
        )
        self._constraint(
            Constraint(
                SymVar(name),
                as_expr(node.size),
                reason=f"{name} output buffer fits at the root",
            )
        )
        self._capacity_term(self.root, SymVar(name))

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _parent_toward_root(self, ms: str) -> str:
        parent = self.hierarchy.parent(ms)
        return self.root if parent is None else parent.name

    def _spill_device(self, preferred: str) -> str:
        if preferred != self.root and preferred in self.hierarchy.nodes:
            return preferred
        if self.model.output_location is not None:
            return self.model.output_location
        leaves = self.hierarchy.leaves()
        if not leaves:
            raise EstimatorError("no device to spill to")
        return max(leaves, key=lambda n: n.size).name

    def _fits_root(self, nbytes: Expr) -> bool:
        """Can a value of this size reside at the root?

        Input cardinalities come from ``stats``; unresolved *parameters*
        (block sizes, partition counts) are still free, so we probe both
        extremes — if any choice makes the value fit, the optimizer can
        realize it and we do not spill.
        """
        base = dict(self.model.stats)
        free = [n for n in nbytes.free_vars() if n not in base]
        candidates = [1.0, 2.0**40] if free else [1.0]
        best = math.inf
        for value in candidates:
            env = dict(base)
            for name in free:
                env[name] = value
            try:
                best = min(best, nbytes.evaluate(env))
            except (KeyError, ValueError, ZeroDivisionError):
                return True
        return best <= self.hierarchy.root.size

    def _join_loc(self, a: Location, b: Location) -> Location:
        return a if a == b else self.root

    def _bind_pattern(
        self, pattern: Pattern, value: Located, ctx: dict[str, Located]
    ) -> None:
        if isinstance(pattern, str):
            ctx[pattern] = value
            return
        annot = value.annot
        if not isinstance(annot, TupleAnnot) or len(annot.items) != len(
            pattern
        ):
            raise EstimatorError(
                f"pattern of arity {len(pattern)} cannot bind {annot}"
            )
        locs = (
            value.loc
            if isinstance(value.loc, tuple)
            else tuple(value.loc for _ in pattern)
        )
        for sub, item, loc in zip(pattern, annot.items, locs):
            self._bind_pattern(sub, Located(item, loc), ctx)

    @staticmethod
    def _sizeof_lit(value: object) -> int:
        if isinstance(value, bool):
            return 1
        if isinstance(value, int):
            return 1
        if isinstance(value, str):
            return max(1, len(value))
        return 1

"""Expression compilation: how costing evaluates (DESIGN.md §11).

Synthesis wall time is dominated by *numeric evaluation* of symbolic
cost expressions: the pattern-search tuner evaluates the objective and
every constraint thousands of times per candidate, and the recursive
:meth:`Expr.evaluate` pays isinstance-dispatch, an env copy and a
``Fraction → float`` conversion at every node of every call.

:func:`compile_expr` removes all of that by compiling an expression
**once** into a flat Python function: the tree is lowered to straight-
line code (one temporary per distinct subexpression, SSA style), the
source is ``exec``-compiled, and every later evaluation is a single
call executing local-variable arithmetic.  Constants are converted to
floats at compile time; hash-consed subtrees are evaluated once per
call instead of once per occurrence.

**Exact parity contract**: compiled evaluation performs the *same
floating-point operations in the same order* as the reference recursion
:meth:`Expr.evaluate` (sums start at ``0`` and fold left; products start
at ``1.0``; ``ceil``/``floor`` round through ``round(v, 9)``; division
checks the denominator first; ``log2`` checks positivity) — so compiled
costs are **bit-identical** to the reference's.  The property tests pin
this with exact float equality.

The only permitted divergence is *common-subexpression sharing*: a
hash-consed subtree is evaluated once per (evaluation scope) instead of
once per occurrence.  Re-evaluating an identical subtree under an
identical environment is deterministic, so values (and raised exception
types) are unchanged.
"""

from __future__ import annotations

import math
from typing import Mapping

from .expr import (
    Add,
    Ceil,
    Const,
    Div,
    Expr,
    Floor,
    Log2,
    Max,
    Min,
    Mul,
    Number,
    Pow,
    Sum,
    Var,
    intern_expr,
)

__all__ = [
    "DOMAIN_ERRORS",
    "CompiledExpr",
    "CompiledProblem",
    "compile_expr",
    "compile_problem",
    "clear_compile_cache",
    "compile_cache_size",
]


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class _Emitter:
    """Lowers an expression tree to straight-line Python statements.

    Each distinct (environment, subexpression) pair is assigned one
    temporary; lookups walk a scope stack so temporaries defined inside
    a ``Sum`` loop body or a protected (try/except) region never leak
    into code that runs when the region did not.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 1
        self._counter = 0
        self._scopes: list[dict[tuple[str, int], str]] = [{}]
        #: constants whose float() conversion must happen at evaluation
        #: time (values too large for a float); exposed as ``_consts``.
        self.consts: list = []

    # -- plumbing ------------------------------------------------------
    def temp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def push_scope(self) -> None:
        self._scopes.append({})

    def pop_scope(self) -> None:
        self._scopes.pop()

    # -- expression lowering -------------------------------------------
    def emit(self, expr: Expr, env: str) -> str:
        """Emit code computing *expr* under env dict *env*; return the
        temporary (or literal) holding the result."""
        key = (env, id(expr))
        for scope in reversed(self._scopes):
            cached = scope.get(key)
            if cached is not None:
                return cached
        name = self._lower(expr, env)
        self._scopes[-1][key] = name
        return name

    def _lower(self, expr: Expr, env: str) -> str:
        if isinstance(expr, Const):
            # float(Fraction) at compile time; repr round-trips exactly.
            # Negative literals are parenthesized: ``-4.0 ** 2`` would
            # otherwise parse as ``-(4.0 ** 2)``.
            try:
                value = float(expr.value)
            except OverflowError:
                # Too large for a float: defer the conversion to
                # evaluation time so the OverflowError surfaces per
                # probe (where domain-error guards map it to inf),
                # exactly like the interpreter.
                index = len(self.consts)
                self.consts.append(expr.value)
                out = self.temp()
                self.line(f"{out} = float(_consts[{index}])")
                return out
            return repr(value) if value >= 0 else f"({value!r})"
        if isinstance(expr, Var):
            out = self.temp()
            self.line(f"{out} = float({env}[{expr.name!r}])")
            return out
        if isinstance(expr, Add):
            # sum(...) starts at int 0 and folds left.
            parts = [self.emit(t, env) for t in expr.terms]
            out = self.temp()
            if parts:
                self.line(f"{out} = 0 + " + " + ".join(parts))
            else:
                self.line(f"{out} = 0")
            return out
        if isinstance(expr, Mul):
            # product starts at 1.0 and folds left.
            parts = [self.emit(f, env) for f in expr.factors]
            out = self.temp()
            if parts:
                self.line(f"{out} = 1.0 * " + " * ".join(parts))
            else:
                self.line(f"{out} = 1.0")
            return out
        if isinstance(expr, Div):
            # The interpreter evaluates the denominator first and raises
            # before touching the numerator.
            den = self.emit(expr.denominator, env)
            self.line(f"if {den} == 0:")
            self.line(
                "    raise ZeroDivisionError("
                "'symbolic division by zero at evaluation')"
            )
            num = self.emit(expr.numerator, env)
            out = self.temp()
            self.line(f"{out} = {num} / {den}")
            return out
        if isinstance(expr, Pow):
            base = self.emit(expr.base, env)
            out = self.temp()
            self.line(f"{out} = {base} ** {expr.exponent}")
            return out
        if isinstance(expr, Max):
            parts = [self.emit(op, env) for op in expr.operands]
            if not parts:  # interpreter parity: max over no operands
                self.line(
                    "raise ValueError('max() arg is an empty sequence')"
                )
                return "0.0"  # unreachable
            if len(parts) == 1:  # max of one value is that value
                return parts[0]
            out = self.temp()
            if len(parts) == 2:
                # Inline the builtin: max(a, b) keeps a unless b > a.
                a, b = parts
                self.line(f"{out} = {b} if {b} > {a} else {a}")
            else:
                self.line(f"{out} = max({', '.join(parts)})")
            return out
        if isinstance(expr, Min):
            parts = [self.emit(op, env) for op in expr.operands]
            if not parts:
                self.line(
                    "raise ValueError('min() arg is an empty sequence')"
                )
                return "0.0"  # unreachable
            if len(parts) == 1:
                return parts[0]
            out = self.temp()
            if len(parts) == 2:
                a, b = parts
                self.line(f"{out} = {b} if {b} < {a} else {a}")
            else:
                self.line(f"{out} = min({', '.join(parts)})")
            return out
        if isinstance(expr, Ceil):
            operand = self.emit(expr.operand, env)
            out = self.temp()
            self.line(f"{out} = float(_ceil(round({operand}, 9)))")
            return out
        if isinstance(expr, Floor):
            operand = self.emit(expr.operand, env)
            out = self.temp()
            self.line(f"{out} = float(_floor(round({operand}, 9)))")
            return out
        if isinstance(expr, Log2):
            operand = self.emit(expr.operand, env)
            self.line(f"if {operand} <= 0:")
            self.line(
                f"    raise ValueError("
                f"f'log2 of non-positive value {{{operand}}}')"
            )
            out = self.temp()
            self.line(f"{out} = _log2({operand})")
            return out
        if isinstance(expr, Sum):
            lower = self.emit(expr.lower, env)
            upper = self.emit(expr.upper, env)
            lo, hi = self.temp(), self.temp()
            self.line(f"{lo} = _ceil(round({lower}, 9))")
            self.line(f"{hi} = _floor(round({upper}, 9))")
            acc = self.temp()
            self.line(f"{acc} = 0.0")
            inner = self.temp()
            self.line(f"{inner} = dict({env})")
            j = self.temp()
            self.line(f"for {j} in range({lo}, {hi} + 1):")
            self.indent += 1
            self.line(f"{inner}[{expr.var!r}] = {j}")
            # Loop-local scope: body temporaries are only defined when
            # the range is non-empty, so they must not be reused after
            # the loop.
            self.push_scope()
            body = self.emit(expr.body, inner)
            self.pop_scope()
            self.line(f"{acc} += {body}")
            self.indent -= 1
            return acc
        raise TypeError(f"cannot compile {expr!r}")


#: Domain errors a probe evaluation may legitimately raise; anything
#: else — notably ``KeyError`` from an unbound variable — signals a
#: malformed problem and propagates.  The single source of truth: the
#: optimizer's ``_safe_eval`` (over :meth:`Expr.evaluate`) imports this
#: same tuple, so the generated guards and its own can never drift.
DOMAIN_ERRORS = (ZeroDivisionError, OverflowError, ValueError)

_GLOBALS = {
    "_ceil": math.ceil,
    "_floor": math.floor,
    "_log2": math.log2,
    "_DOMAIN_ERRORS": DOMAIN_ERRORS,
    "_INF": math.inf,
}


def _exec_function(
    name: str, params: str, lines: list[str], consts: list | None = None
) -> object:
    """Compile generated statements into a function object."""
    source = "\n".join([f"def {name}({params}):"] + lines)
    namespace = dict(_GLOBALS)
    if consts:
        namespace["_consts"] = tuple(consts)
    exec(compile(source, f"<repro.symbolic.compile:{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__repro_source__ = source
    return fn


class CompiledExpr:
    """A symbolic expression compiled to a flat evaluator.

    * ``expr`` — the (interned) source expression;
    * ``fn`` — the raw compiled function ``fn(env) -> float`` (the
      hot-path entry point: no wrapper frame, plain ``KeyError`` on an
      unbound variable).

    ``__call__`` mirrors :meth:`Expr.evaluate` including its unbound-
    variable error message.
    """

    __slots__ = ("expr", "fn", "source")

    def __init__(self, expr: Expr) -> None:
        expr = intern_expr(expr)
        emitter = _Emitter()
        result = emitter.emit(expr, "env")
        emitter.line(f"return {result}")
        fn = _exec_function("_compiled", "env", emitter.lines, emitter.consts)
        self.expr = expr
        self.fn = fn
        self.source = fn.__repro_source__

    def __call__(self, env: Mapping[str, Number] | None = None) -> float:
        """Numerically evaluate under *env* (same contract as
        :meth:`Expr.evaluate`, including the ``KeyError`` message)."""
        try:
            return self.fn(env or {})
        except KeyError as error:
            raise KeyError(
                f"unbound symbolic variable {error.args[0]!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledExpr({self.expr!s})"


#: One compiled evaluator per interned expression, process-wide.  Keyed
#: by identity (interning makes structural equality pointer equality),
#: cleared wholesale past the bound — recompilation is cheap relative to
#: unbounded growth across a long synthesize_all batch.
_COMPILE_CACHE: dict[int, CompiledExpr] = {}
_COMPILE_CACHE_MAX = 1 << 16
#: Hard references to the interned keys so ids stay valid.
_COMPILE_CACHE_EXPRS: list[Expr] = []


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile *expr* once; later calls on equal structure hit the cache."""
    interned = intern_expr(expr)
    cached = _COMPILE_CACHE.get(id(interned))
    if cached is not None:
        return cached
    compiled = CompiledExpr(interned)
    if len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        clear_compile_cache()
    _COMPILE_CACHE[id(interned)] = compiled
    _COMPILE_CACHE_EXPRS.append(interned)
    return compiled


def compile_cache_size() -> int:
    """Number of compiled evaluators currently cached."""
    return len(_COMPILE_CACHE)


def clear_compile_cache() -> None:
    """Drop all cached compiled evaluators."""
    _COMPILE_CACHE.clear()
    _COMPILE_CACHE_EXPRS.clear()
    _PROBLEM_CACHE.clear()
    _PROBLEM_CACHE_EXPRS.clear()


# ----------------------------------------------------------------------
# Whole-problem bundles for the penalty optimizer
# ----------------------------------------------------------------------
def _emit_guarded(emitter: _Emitter, expr: Expr, out: str) -> None:
    """Emit ``out = expr`` with domain errors mapped to ``inf``.

    Mirrors the optimizer's ``_safe_eval``: the guarded region is a CSE
    scope of its own, so temporaries defined inside it are never reused
    by code that runs after the region aborted.
    """
    emitter.line("try:")
    emitter.indent += 1
    emitter.push_scope()
    value = emitter.emit(expr, "env")
    emitter.line(f"{out} = {value}")
    emitter.pop_scope()
    emitter.indent -= 1
    emitter.line("except _DOMAIN_ERRORS:")
    emitter.line(f"    {out} = _INF")


def _emit_violation(emitter: _Emitter, pairs) -> str:
    """Emit the scaled constraint-violation sum; returns its temp.

    ``max(1.0, abs(rhs))`` and ``max(0.0, excess)`` are inlined as the
    conditionals the builtin computes (the larger argument wins only on
    a strict ``>``) — two builtin calls saved per constraint per probe.
    """
    total = emitter.temp()
    emitter.line(f"{total} = 0.0")
    for lhs, rhs in pairs:
        lhs_val, rhs_val = emitter.temp(), emitter.temp()
        _emit_guarded(emitter, lhs, lhs_val)
        _emit_guarded(emitter, rhs, rhs_val)
        scale, excess = emitter.temp(), emitter.temp()
        emitter.line(f"{scale} = abs({rhs_val})")
        emitter.line(f"if not {scale} > 1.0:")  # NaN keeps the 1.0 floor
        emitter.line(f"    {scale} = 1.0")
        emitter.line(f"{excess} = ({lhs_val} - {rhs_val}) / {scale}")
        emitter.line(f"if {excess} > 0.0:")
        emitter.line(f"    {total} += {excess}")
    return total


class CompiledProblem:
    """A tuning problem (objective + constraints) compiled whole.

    Two generated entry points replace the optimizer's per-expression
    interpretation so a probe — objective plus every constraint side —
    is scored in **one pass** through one flat function:

    * ``penalized(env, penalty)`` — the penalty-method objective
      ``base + penalty · violation · (1 + |base|)``;
    * ``violation(env)`` — the scaled constraint-violation sum alone
      (feasibility checks, repair loops).

    ``score_points`` evaluates a whole neighborhood of probe points in
    one batch call over a shared statistics environment.
    """

    __slots__ = ("cost", "constraint_pairs", "penalized", "violation")

    def __init__(self, cost: Expr, constraint_pairs) -> None:
        self.cost = intern_expr(cost)
        self.constraint_pairs = tuple(
            (intern_expr(lhs), intern_expr(rhs))
            for lhs, rhs in constraint_pairs
        )

        emitter = _Emitter()
        base = emitter.temp()
        _emit_guarded(emitter, self.cost, base)
        violation = _emit_violation(emitter, self.constraint_pairs)
        emitter.line(
            f"return {base} + penalty * {violation} * (1.0 + abs({base}))"
        )
        self.penalized = _exec_function(
            "_penalized", "env, penalty", emitter.lines, emitter.consts
        )

        emitter = _Emitter()
        violation = _emit_violation(emitter, self.constraint_pairs)
        emitter.line(f"return {violation}")
        self.violation = _exec_function(
            "_violation", "env", emitter.lines, emitter.consts
        )

    def score_points(self, base_env: dict, points, penalty: float) -> list[float]:
        """Score probe *points* over a shared statistics environment.

        Every point binds the same parameter keys, so one working dict
        is reused across the whole neighborhood instead of copying
        ``stats`` per probe.
        """
        fn = self.penalized
        env = dict(base_env)
        scores = []
        for point in points:
            env.update(point)
            scores.append(fn(env, penalty))
        return scores


_PROBLEM_CACHE: dict[tuple, CompiledProblem] = {}
_PROBLEM_CACHE_EXPRS: list[tuple] = []


def compile_problem(cost: Expr, constraint_pairs) -> CompiledProblem:
    """Compile (and cache) the bundle for one tuning problem.

    ``constraint_pairs`` is an iterable of ``(lhs, rhs)`` expression
    pairs; the cache key is interned-expression identity, so problems
    sharing structure across candidates compile once.
    """
    interned = tuple(
        (intern_expr(lhs), intern_expr(rhs)) for lhs, rhs in constraint_pairs
    )
    key = (id(intern_expr(cost)),) + tuple(
        (id(lhs), id(rhs)) for lhs, rhs in interned
    )
    cached = _PROBLEM_CACHE.get(key)
    if cached is not None:
        return cached
    problem = CompiledProblem(cost, interned)
    if len(_PROBLEM_CACHE) >= _COMPILE_CACHE_MAX:
        clear_compile_cache()
    _PROBLEM_CACHE[key] = problem
    _PROBLEM_CACHE_EXPRS.append((intern_expr(cost), interned))
    return problem

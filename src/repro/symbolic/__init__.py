"""Symbolic arithmetic for cost formulas (sizes, block/buffer parameters).

Public surface:

* :class:`~repro.symbolic.expr.Expr` and its node classes;
* constructor helpers (:func:`var`, :func:`const`, :func:`smax`,
  :func:`smin`, :func:`ceil`, :func:`floor`, :func:`log2`,
  :func:`ceil_div`, :func:`ceil_log2`, :func:`summation`);
* :func:`~repro.symbolic.simplify.simplify` with closed-form sums;
* compiled costing (DESIGN.md §11): :func:`intern_expr` hash-consing
  and :mod:`repro.symbolic.compile`'s
  :func:`~repro.symbolic.compile.compile_expr` /
  :func:`~repro.symbolic.compile.compile_problem`.
"""

from .compile import (
    CompiledExpr,
    CompiledProblem,
    compile_expr,
    compile_problem,
)
from .expr import (
    ONE,
    ZERO,
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
    Pow,
    Sum,
    Var,
    as_expr,
    ceil,
    ceil_div,
    ceil_log2,
    clear_expr_intern_pool,
    const,
    expr_intern_pool_size,
    floor,
    intern_expr,
    log2,
    smax,
    smin,
    summation,
    to_str,
    var,
)
from .simplify import expr_key, is_nonneg, simplify

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Max",
    "Min",
    "Ceil",
    "Floor",
    "Log2",
    "Sum",
    "as_expr",
    "const",
    "var",
    "smax",
    "smin",
    "ceil",
    "floor",
    "log2",
    "ceil_div",
    "ceil_log2",
    "summation",
    "simplify",
    "is_nonneg",
    "expr_key",
    "to_str",
    "intern_expr",
    "expr_intern_pool_size",
    "clear_expr_intern_pool",
    "CompiledExpr",
    "CompiledProblem",
    "compile_expr",
    "compile_problem",
    "ZERO",
    "ONE",
]

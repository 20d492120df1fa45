"""Symbolic arithmetic expressions.

OCAS reasons about program costs *without running programs*: result sizes
and transfer-event counts are arithmetic expressions over input
cardinalities (``x``, ``y``), block sizes (``k1``, ``k2``) and buffer sizes
(``bin``, ``bout``).  This module provides the expression language those
formulas are written in, together with numeric evaluation, substitution and
free-variable queries.  Simplification (including the closed forms of sums
needed for the External Merge-Sort derivation in Section 7.2 of the paper)
lives in :mod:`repro.symbolic.simplify`.

All nodes are immutable and hashable, so expressions can be used as
dictionary keys and shared freely.  Python operators are overloaded: if
``x = Var("x")`` then ``x * 2 + 1`` builds the obvious tree.

Two performance refinements mirror :mod:`repro.ocal.ast` (DESIGN.md §11):

* **cached structural hashes and free-variable sets** — the first
  ``hash(expr)`` / ``expr.free_vars()`` walks the tree once and memoizes
  the result on the instance, so memo-table lookups keyed on expressions
  stop re-walking whole trees on every probe;
* **hash-consing** — :func:`intern_expr` returns one canonical instance
  per structure, making structurally equal cost expressions
  pointer-equal (equality short-circuits on identity, and identity can
  key compiled-evaluator caches; see :mod:`repro.symbolic.compile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Mapping, Union

Number = Union[int, float, Fraction]

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
    "intern_expr",
    "expr_intern_pool_size",
    "clear_expr_intern_pool",
    "ZERO",
    "ONE",
]


class Expr:
    """Base class for symbolic arithmetic expressions.

    The two base slots back the lazy per-instance caches (structural
    hash, free-variable set); subclasses add their field slots on top.
    Both are written via ``object.__setattr__`` because every node class
    is frozen.
    """

    __slots__ = ("_hash", "_free")

    # ------------------------------------------------------------------
    # Operator overloading
    # ------------------------------------------------------------------
    def __add__(self, other: "Expr | Number") -> "Expr":
        return Add((self, as_expr(other)))

    def __radd__(self, other: "Expr | Number") -> "Expr":
        return Add((as_expr(other), self))

    def __sub__(self, other: "Expr | Number") -> "Expr":
        return Add((self, Mul((as_expr(-1), as_expr(other)))))

    def __rsub__(self, other: "Expr | Number") -> "Expr":
        return Add((as_expr(other), Mul((as_expr(-1), self))))

    def __mul__(self, other: "Expr | Number") -> "Expr":
        return Mul((self, as_expr(other)))

    def __rmul__(self, other: "Expr | Number") -> "Expr":
        return Mul((as_expr(other), self))

    def __truediv__(self, other: "Expr | Number") -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: "Expr | Number") -> "Expr":
        return Div(as_expr(other), self)

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError("symbolic exponents must be Python ints")
        return Pow(self, exponent)

    def __neg__(self) -> "Expr":
        return Mul((as_expr(-1), self))

    # ------------------------------------------------------------------
    # Generic traversal
    # ------------------------------------------------------------------
    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions, left to right."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def free_vars(self) -> frozenset[str]:
        """Names of all variables occurring in the expression.

        Memoized on the instance: shared (interned) subtrees contribute
        their cached sets, so the first call on a tree is O(nodes) and
        every later call — every memo-key construction, parameter-box
        probe, or fits-in-root check — is O(1).
        """
        try:
            return self._free
        except AttributeError:
            pass
        if isinstance(self, Var):
            names = frozenset((self.name,))
        else:
            collected: set[str] = set()
            for child in self.children():
                collected |= child.free_vars()
            names = frozenset(collected)
        object.__setattr__(self, "_free", names)
        return names

    # ------------------------------------------------------------------
    # Evaluation and substitution
    # ------------------------------------------------------------------
    def evaluate(self, env: Mapping[str, Number] | None = None) -> float:
        """Numerically evaluate the expression.

        Raises ``KeyError`` if a free variable has no binding in *env*.
        """
        return _evaluate(self, dict(env or {}))

    def substitute(self, bindings: Mapping[str, "Expr | Number"]) -> "Expr":
        """Replace variables by expressions, returning a new tree."""
        resolved = {name: as_expr(value) for name, value in bindings.items()}
        return _substitute(self, resolved)

    def simplified(self) -> "Expr":
        """Return an equivalent, simplified expression."""
        from .simplify import simplify

        return simplify(self)

    def __str__(self) -> str:  # pragma: no cover - exercised via repr tests
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """A rational constant.

    Values are normalized to ``int`` when integral so that ``Const(2)`` and
    ``Const(Fraction(4, 2))`` compare equal.
    """

    value: Fraction

    def __init__(self, value: Number) -> None:
        if isinstance(value, float):
            value = Fraction(value).limit_denominator(10**12)
        object.__setattr__(self, "value", Fraction(value))

    def children(self) -> tuple[Expr, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """A named nonnegative quantity (cardinality, block size, buffer size).

    All symbolic variables in OCAS denote sizes or counts, so the
    simplifier is entitled to assume they are nonnegative.
    """

    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Add(Expr):
    """n-ary sum of sub-expressions."""

    terms: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.terms


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    """n-ary product of sub-expressions."""

    factors: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.factors


@dataclass(frozen=True, slots=True)
class Div(Expr):
    """Exact (real-valued) division ``numerator / denominator``."""

    numerator: Expr
    denominator: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.numerator, self.denominator)


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    """Integer power of an expression (exponent may be negative)."""

    base: Expr
    exponent: int

    def children(self) -> tuple[Expr, ...]:
        return (self.base,)


@dataclass(frozen=True, slots=True)
class Max(Expr):
    """n-ary maximum; used by worst-case result-size rules (Fig 5)."""

    operands: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.operands


@dataclass(frozen=True, slots=True)
class Min(Expr):
    """n-ary minimum; used by the seq-ac cost rule (Section 6.2)."""

    operands: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.operands


@dataclass(frozen=True, slots=True)
class Ceil(Expr):
    """Ceiling of a real-valued expression."""

    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class Floor(Expr):
    """Floor of a real-valued expression."""

    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class Log2(Expr):
    """Base-2 logarithm; the merge-sort cost formulas use ``⌈log x⌉``."""

    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    """``sum_{var = lower}^{upper} body`` with an *inclusive* upper bound.

    The insertion-sort cost of Section 7.2 is expressed with such a sum;
    the simplifier knows the Faulhaber closed forms for polynomial bodies.
    """

    var: str
    lower: Expr
    upper: Expr
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.lower, self.upper, self.body)


# ----------------------------------------------------------------------
# Cached structural hashing and hash-consing (mirrors repro.ocal.ast)
# ----------------------------------------------------------------------
_EXPR_CLASSES: tuple[type, ...] = (
    Const, Var, Add, Mul, Div, Pow, Max, Min, Ceil, Floor, Log2, Sum,
)


def _install_hash_cache(cls: type) -> None:
    """Wrap the dataclass-generated ``__hash__`` with a per-instance cache.

    The structural hash of an expression tree is computed once, on first
    use, and stored in the ``_hash`` slot; every later ``hash()`` — every
    memo-table probe, dict lookup, or dedup key — is O(1).
    """
    structural = cls.__hash__

    def __hash__(self, _structural=structural):
        try:
            return self._hash
        except AttributeError:
            value = _structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__


for _cls in _EXPR_CLASSES:
    _install_hash_cache(_cls)
del _cls


#: Bounded like the other costing caches: past the cap the pool is
#: cleared wholesale.  Interning is purely an optimization — a fresh
#: canonical instance after a clear only costs cache misses downstream
#: (callers that kept pre-clear instances still hold valid objects).
_EXPR_INTERN_POOL: dict["Expr", "Expr"] = {}
_EXPR_INTERN_POOL_MAX = 1 << 18


def _with_children(expr: "Expr", rebuild) -> "Expr":
    """Rebuild *expr* with each child passed through *rebuild*."""
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Add):
        return Add(tuple(rebuild(t) for t in expr.terms))
    if isinstance(expr, Mul):
        return Mul(tuple(rebuild(f) for f in expr.factors))
    if isinstance(expr, Div):
        return Div(rebuild(expr.numerator), rebuild(expr.denominator))
    if isinstance(expr, Pow):
        return Pow(rebuild(expr.base), expr.exponent)
    if isinstance(expr, Max):
        return Max(tuple(rebuild(op) for op in expr.operands))
    if isinstance(expr, Min):
        return Min(tuple(rebuild(op) for op in expr.operands))
    if isinstance(expr, Ceil):
        return Ceil(rebuild(expr.operand))
    if isinstance(expr, Floor):
        return Floor(rebuild(expr.operand))
    if isinstance(expr, Log2):
        return Log2(rebuild(expr.operand))
    if isinstance(expr, Sum):
        return Sum(
            expr.var,
            rebuild(expr.lower),
            rebuild(expr.upper),
            rebuild(expr.body),
        )
    raise TypeError(f"cannot rebuild {expr!r}")


def intern_expr(expr: "Expr") -> "Expr":
    """Hash-cons *expr*: return the canonical instance for its structure.

    Children are interned bottom-up, so structurally identical cost
    subexpressions across candidates become the *same* object.  Identity
    then makes hashing (cached once on the shared instance) and equality
    (identity fast path) cheap, and lets the compiled-evaluator cache in
    :mod:`repro.symbolic.compile` key on ``id()``.
    """
    pool = _EXPR_INTERN_POOL
    existing = pool.get(expr)
    if existing is not None:
        return existing
    canonical = _with_children(expr, intern_expr)
    if len(pool) >= _EXPR_INTERN_POOL_MAX:
        pool.clear()
    pool[canonical] = canonical
    return canonical


def expr_intern_pool_size() -> int:
    """Number of distinct expressions currently hash-consed."""
    return len(_EXPR_INTERN_POOL)


def clear_expr_intern_pool() -> None:
    """Drop all interned expressions (tests; long-lived processes)."""
    _EXPR_INTERN_POOL.clear()


ZERO = Const(0)
ONE = Const(1)


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def as_expr(value: Expr | Number) -> Expr:
    """Coerce a Python number (or expression) to an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not symbolic arithmetic values")
    if isinstance(value, (int, Fraction, float, Rational)):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


def const(value: Number) -> Const:
    """Build a constant expression."""
    return Const(value)


def var(name: str) -> Var:
    """Build a variable expression."""
    return Var(name)


def smax(*operands: Expr | Number) -> Expr:
    """Symbolic maximum of one or more operands."""
    if not operands:
        raise ValueError("smax needs at least one operand")
    return Max(tuple(as_expr(op) for op in operands))


def smin(*operands: Expr | Number) -> Expr:
    """Symbolic minimum of one or more operands."""
    if not operands:
        raise ValueError("smin needs at least one operand")
    return Min(tuple(as_expr(op) for op in operands))


def ceil(operand: Expr | Number) -> Expr:
    """Symbolic ceiling."""
    return Ceil(as_expr(operand))


def floor(operand: Expr | Number) -> Expr:
    """Symbolic floor."""
    return Floor(as_expr(operand))


def log2(operand: Expr | Number) -> Expr:
    """Symbolic base-2 logarithm."""
    return Log2(as_expr(operand))


def ceil_div(numerator: Expr | Number, denominator: Expr | Number) -> Expr:
    """``⌈numerator / denominator⌉`` — the number of blocks of a given size."""
    return Ceil(Div(as_expr(numerator), as_expr(denominator)))


def ceil_log2(operand: Expr | Number) -> Expr:
    """``⌈log2 operand⌉`` — merge-tree depth in the sort cost formula."""
    return Ceil(Log2(as_expr(operand)))


def summation(
    var_name: str,
    lower: Expr | Number,
    upper: Expr | Number,
    body: Expr | Number,
) -> Expr:
    """Symbolic sum with inclusive bounds."""
    return Sum(var_name, as_expr(lower), as_expr(upper), as_expr(body))


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _evaluate(expr: Expr, env: dict[str, Number]) -> float:
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        if expr.name not in env:
            raise KeyError(f"unbound symbolic variable {expr.name!r}")
        return float(env[expr.name])
    if isinstance(expr, Add):
        return sum(_evaluate(t, env) for t in expr.terms)
    if isinstance(expr, Mul):
        product = 1.0
        for factor in expr.factors:
            product *= _evaluate(factor, env)
        return product
    if isinstance(expr, Div):
        denominator = _evaluate(expr.denominator, env)
        if denominator == 0:
            raise ZeroDivisionError("symbolic division by zero at evaluation")
        return _evaluate(expr.numerator, env) / denominator
    if isinstance(expr, Pow):
        return _evaluate(expr.base, env) ** expr.exponent
    if isinstance(expr, Max):
        return max(_evaluate(op, env) for op in expr.operands)
    if isinstance(expr, Min):
        return min(_evaluate(op, env) for op in expr.operands)
    if isinstance(expr, Ceil):
        return float(math.ceil(round(_evaluate(expr.operand, env), 9)))
    if isinstance(expr, Floor):
        return float(math.floor(round(_evaluate(expr.operand, env), 9)))
    if isinstance(expr, Log2):
        value = _evaluate(expr.operand, env)
        if value <= 0:
            raise ValueError(f"log2 of non-positive value {value}")
        return math.log2(value)
    if isinstance(expr, Sum):
        lower = _evaluate(expr.lower, env)
        upper = _evaluate(expr.upper, env)
        lower_i, upper_i = math.ceil(round(lower, 9)), math.floor(round(upper, 9))
        total = 0.0
        inner = dict(env)
        for j in range(lower_i, upper_i + 1):
            inner[expr.var] = j
            total += _evaluate(expr.body, inner)
        return total
    raise TypeError(f"cannot evaluate {expr!r}")


# ----------------------------------------------------------------------
# Substitution
# ----------------------------------------------------------------------
def _substitute(expr: Expr, bindings: dict[str, Expr]) -> Expr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return bindings.get(expr.name, expr)
    if isinstance(expr, Add):
        return Add(tuple(_substitute(t, bindings) for t in expr.terms))
    if isinstance(expr, Mul):
        return Mul(tuple(_substitute(f, bindings) for f in expr.factors))
    if isinstance(expr, Div):
        return Div(
            _substitute(expr.numerator, bindings),
            _substitute(expr.denominator, bindings),
        )
    if isinstance(expr, Pow):
        return Pow(_substitute(expr.base, bindings), expr.exponent)
    if isinstance(expr, Max):
        return Max(tuple(_substitute(op, bindings) for op in expr.operands))
    if isinstance(expr, Min):
        return Min(tuple(_substitute(op, bindings) for op in expr.operands))
    if isinstance(expr, Ceil):
        return Ceil(_substitute(expr.operand, bindings))
    if isinstance(expr, Floor):
        return Floor(_substitute(expr.operand, bindings))
    if isinstance(expr, Log2):
        return Log2(_substitute(expr.operand, bindings))
    if isinstance(expr, Sum):
        # The bound variable shadows any outer binding of the same name.
        inner = {k: v for k, v in bindings.items() if k != expr.var}
        return Sum(
            expr.var,
            _substitute(expr.lower, bindings),
            _substitute(expr.upper, bindings),
            _substitute(expr.body, inner),
        )
    raise TypeError(f"cannot substitute into {expr!r}")


# ----------------------------------------------------------------------
# Pretty printing
# ----------------------------------------------------------------------
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def to_str(expr: Expr) -> str:
    """Render an expression with conventional precedence rules."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Const):
        if expr.value.denominator == 1:
            text = str(expr.value.numerator)
        else:
            text = f"{expr.value.numerator}/{expr.value.denominator}"
        prec = _PREC_ATOM if expr.value >= 0 else _PREC_ADD
    elif isinstance(expr, Var):
        text, prec = expr.name, _PREC_ATOM
    elif isinstance(expr, Add):
        text = " + ".join(_render(t, _PREC_ADD) for t in expr.terms)
        prec = _PREC_ADD
    elif isinstance(expr, Mul):
        text = "*".join(_render(f, _PREC_MUL) for f in expr.factors)
        prec = _PREC_MUL
    elif isinstance(expr, Div):
        text = (
            f"{_render(expr.numerator, _PREC_MUL)}"
            f"/{_render(expr.denominator, _PREC_POW)}"
        )
        prec = _PREC_MUL
    elif isinstance(expr, Pow):
        text = f"{_render(expr.base, _PREC_POW)}^{expr.exponent}"
        prec = _PREC_POW
    elif isinstance(expr, Max):
        text = f"max({', '.join(_render(op, 0) for op in expr.operands)})"
        prec = _PREC_ATOM
    elif isinstance(expr, Min):
        text = f"min({', '.join(_render(op, 0) for op in expr.operands)})"
        prec = _PREC_ATOM
    elif isinstance(expr, Ceil):
        text, prec = f"ceil({_render(expr.operand, 0)})", _PREC_ATOM
    elif isinstance(expr, Floor):
        text, prec = f"floor({_render(expr.operand, 0)})", _PREC_ATOM
    elif isinstance(expr, Log2):
        text, prec = f"log2({_render(expr.operand, 0)})", _PREC_ATOM
    elif isinstance(expr, Sum):
        text = (
            f"sum({expr.var}={_render(expr.lower, 0)}"
            f"..{_render(expr.upper, 0)}, {_render(expr.body, 0)})"
        )
        prec = _PREC_ATOM
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot render {expr!r}")
    if prec < parent_prec:
        return f"({text})"
    return text

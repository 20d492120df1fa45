"""Reference interpreter for OCAL.

Executable semantics for every construct of Section 3 and every Figure-2
definition node.  The interpreter is the ground truth that transformation
rules are tested against: applying a rule must never change the value a
program computes (property tests in ``tests/rules``).

Values are plain Python data — ``int``/``bool``/``str`` atoms, ``tuple``
for ⟨…⟩ and ``list`` for […].  OCAL functions evaluate to Python
callables of one argument.

Block-size parameters must be concrete integers before execution; use
:func:`repro.search.result.bind_parameters` (or ``substitute_blocks``
here) to instantiate tuned parameters first.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from .ast import (
    PARAM_FIELDS,
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
    block_param_order,
    map_children,
    pattern_names,
)

__all__ = [
    "evaluate",
    "run",
    "InterpreterError",
    "stable_hash",
    "substitute_blocks",
    "canonicalize_blocks",
]


class InterpreterError(Exception):
    """Raised on dynamic errors: unbound variables, head of [], etc."""


def evaluate(expr: Node, env: Mapping[str, object] | None = None) -> object:
    """Evaluate an OCAL expression under an environment of input values."""
    return _eval(expr, dict(env or {}))


def run(program: Node, **inputs: object) -> object:
    """Evaluate a program with keyword-named inputs (``run(p, R=[...])``)."""
    return evaluate(program, inputs)


def substitute_blocks(expr: Node, values: Mapping[str, int]) -> Node:
    """Replace named block/bucket parameters by concrete integers."""

    def visit(node: Node) -> Node:
        node = map_children(node, visit)
        if isinstance(node, (For, UnfoldR, FoldL)):
            changes = {}
            if isinstance(node.block_in, str) and node.block_in in values:
                bound = max(1, int(values[node.block_in]))
                if isinstance(node, For):
                    # A structurally *blocked* for must stay in block mode:
                    # block size 1 would re-bind the variable to elements
                    # and break the inner loop that iterates the block.
                    bound = max(2, bound)
                changes["block_in"] = bound
            if isinstance(node.block_out, str) and node.block_out in values:
                changes["block_out"] = max(1, int(values[node.block_out]))
            if changes:
                node = dataclasses.replace(node, **changes)
        elif isinstance(node, HashPartition):
            if isinstance(node.buckets, str) and node.buckets in values:
                node = dataclasses.replace(
                    node, buckets=max(1, int(values[node.buckets]))
                )
        return node

    return visit(expr)


def canonicalize_blocks(expr: Node) -> Node:
    """Rename block/bucket parameters to ``k1, k2, …`` in walk order.

    Two programs that differ only in the fresh names the rewrite engine
    happened to generate become structurally identical, which keeps the
    breadth-first search space an honest *set* of programs.

    Incremental: the first-occurrence order is memoized per node
    (:func:`~repro.ocal.ast.block_param_order`), a program already
    named ``k1…kn`` is returned as is, and otherwise only the nodes
    whose names change — and the spines above them — are rebuilt.
    """
    mapping: dict[str, str] = {}
    for index, name in enumerate(block_param_order(expr), 1):
        if name != f"k{index}":
            mapping[name] = f"k{index}"
    if not mapping:
        return expr

    def visit(node: Node) -> Node:
        if mapping.keys().isdisjoint(block_param_order(node)):
            return node
        changes = {
            name: mapping[value]
            for name in PARAM_FIELDS[type(node)]
            if (value := getattr(node, name)) in mapping
        }
        if changes:
            node = dataclasses.replace(node, **changes)
        return map_children(node, visit)

    return visit(expr)


# ----------------------------------------------------------------------
# Evaluator
# ----------------------------------------------------------------------
def _eval(expr: Node, env: dict[str, object]) -> object:
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise InterpreterError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Lam):
        captured = dict(env)

        def closure(argument: object, _expr=expr, _env=captured) -> object:
            inner = dict(_env)
            _bind_pattern(_expr.pattern, argument, inner)
            return _eval(_expr.body, inner)

        return closure
    if isinstance(expr, App):
        fn = _eval(expr.fn, env)
        arg = _eval(expr.arg, env)
        if not callable(fn):
            raise InterpreterError(f"applying non-function value {fn!r}")
        return fn(arg)
    if isinstance(expr, Tup):
        return tuple(_eval(item, env) for item in expr.items)
    if isinstance(expr, Proj):
        value = _eval(expr.tup, env)
        if not isinstance(value, tuple):
            raise InterpreterError(f"projection from non-tuple {value!r}")
        if expr.index > len(value):
            raise InterpreterError(
                f"projection .{expr.index} out of range for arity {len(value)}"
            )
        return value[expr.index - 1]
    if isinstance(expr, Sing):
        return [_eval(expr.item, env)]
    if isinstance(expr, Empty):
        return []
    if isinstance(expr, Concat):
        left = _eval(expr.left, env)
        right = _eval(expr.right, env)
        if not isinstance(left, list) or not isinstance(right, list):
            raise InterpreterError("⊔ expects two lists")
        return left + right
    if isinstance(expr, If):
        cond = _eval(expr.cond, env)
        if not isinstance(cond, bool):
            raise InterpreterError(f"if condition must be Bool, got {cond!r}")
        return _eval(expr.then if cond else expr.orelse, env)
    if isinstance(expr, Prim):
        args = [_eval(arg, env) for arg in expr.args]
        return _apply_prim(expr.op, args)
    if isinstance(expr, FlatMap):
        fn = _eval(expr.fn, env)

        def flat_map_value(source: object) -> list:
            if not isinstance(source, list):
                raise InterpreterError("flatMap expects a list")
            out: list = []
            for item in source:
                result = fn(item)
                if not isinstance(result, list):
                    raise InterpreterError("flatMap body must return a list")
                out.extend(result)
            return out

        return flat_map_value
    if isinstance(expr, FoldL):
        init = _eval(expr.init, env)
        fn = _eval(expr.fn, env)

        def fold_value(source: object) -> object:
            if not isinstance(source, list):
                raise InterpreterError("foldL expects a list")
            acc = init
            for item in source:
                acc = fn((acc, item))
            return acc

        return fold_value
    if isinstance(expr, For):
        return _eval_for(expr, env)
    if isinstance(expr, TreeFold):
        init = _eval(expr.init, env)
        fn = _eval(expr.fn, env)
        arity = expr.arity

        def tree_fold_value(seed: object) -> object:
            if not isinstance(seed, list):
                raise InterpreterError("treeFold expects a list")
            queue = list(seed)
            if not queue:
                return init
            while len(queue) > 1:
                batch = queue[:arity]
                queue = queue[arity:]
                while len(batch) < arity:
                    batch.append(init)
                queue.append(fn(tuple(batch)))
            return queue[0]

        return tree_fold_value
    if isinstance(expr, UnfoldR):
        return _eval_unfold(expr, env)
    if isinstance(expr, FuncPow):
        return _eval_funcpow(expr, env)
    if isinstance(expr, Builtin):
        return _BUILTINS[expr.name]
    if isinstance(expr, HashPartition):
        return _make_hash_partition(expr)
    if isinstance(expr, SizeAnnot):
        return _eval(expr.expr, env)
    raise InterpreterError(f"cannot evaluate {type(expr).__name__}")


def _bind_pattern(pattern: Pattern, value: object, env: dict[str, object]) -> None:
    if isinstance(pattern, str):
        env[pattern] = value
        return
    if not isinstance(value, tuple) or len(value) != len(pattern):
        raise InterpreterError(
            f"pattern of arity {len(pattern)} cannot bind {value!r}"
        )
    for sub, item in zip(pattern, value):
        _bind_pattern(sub, item, env)


def _eval_for(expr: For, env: dict[str, object]) -> list:
    source = _eval(expr.source, env)
    if not isinstance(source, list):
        raise InterpreterError("for expects a list to iterate over")
    block = expr.block_in
    if isinstance(block, str):
        raise InterpreterError(
            f"block parameter {block!r} must be bound before execution"
        )
    out: list = []
    inner = dict(env)
    if block == 1:
        for item in source:
            inner[expr.var] = item
            result = _eval(expr.body, inner)
            if not isinstance(result, list):
                raise InterpreterError("for body must return a list")
            out.extend(result)
    else:
        for start in range(0, len(source), block):
            inner[expr.var] = source[start : start + block]
            result = _eval(expr.body, inner)
            if not isinstance(result, list):
                raise InterpreterError("for body must return a list")
            out.extend(result)
    return out


def _eval_unfold(expr: UnfoldR, env: dict[str, object]):
    # Efficient plugin implementations, mirroring OCAS's generator plugins:
    # unfoldR(mrg) and unfoldR(funcPow[k](mrg)) are n-way merges, and
    # unfoldR(z) is zip.  Everything else runs the generic step loop.
    if isinstance(expr.fn, Builtin) and expr.fn.name == "mrg":
        return lambda seed: _multiway_merge(seed, 2)
    if (
        isinstance(expr.fn, FuncPow)
        and isinstance(expr.fn.fn, Builtin)
        and expr.fn.fn.name == "mrg"
    ):
        ways = 2 ** expr.fn.power
        return lambda seed: _multiway_merge(seed, ways)
    if isinstance(expr.fn, Builtin) and expr.fn.name == "zip":
        return _zip_lists
    fn = _eval(expr.fn, env)

    def unfold_value(seed: object) -> list:
        if not isinstance(seed, tuple):
            raise InterpreterError("unfoldR expects a tuple of lists")
        state = tuple(list(lst) for lst in seed)
        budget = sum(len(lst) for lst in state) + 1
        out: list = []
        while any(state):
            if budget <= 0:
                raise InterpreterError("unfoldR step function does not make progress")
            chunk, state = fn(state)
            if not isinstance(chunk, list) or not isinstance(state, tuple):
                raise InterpreterError("unfoldR step must return ⟨[τr], state⟩")
            out.extend(chunk)
            budget -= 1
        return out

    return unfold_value


def _multiway_merge(seed: object, ways: int) -> list:
    if not isinstance(seed, tuple):
        raise InterpreterError("merge expects a tuple of lists")
    if len(seed) != ways:
        raise InterpreterError(
            f"{ways}-way merge applied to a tuple of arity {len(seed)}"
        )
    cursors = [0] * len(seed)
    out: list = []
    while True:
        best = None
        best_index = -1
        for i, lst in enumerate(seed):
            if cursors[i] < len(lst):
                candidate = lst[cursors[i]]
                if best is None or candidate < best:
                    best = candidate
                    best_index = i
        if best_index < 0:
            return out
        out.append(best)
        cursors[best_index] += 1


def _zip_lists(seed: object) -> list:
    if not isinstance(seed, tuple):
        raise InterpreterError("zip expects a tuple of lists")
    return [tuple(items) for items in zip(*seed)]


def _eval_funcpow(expr: FuncPow, env: dict[str, object]):
    fn = _eval(expr.fn, env)

    def pow_value(power: int):
        if power == 1:
            return fn

        half = pow_value(power - 1)
        width = 2 ** (power - 1)

        def combined(args: object) -> object:
            if not isinstance(args, tuple) or len(args) != 2 * width:
                raise InterpreterError(
                    f"funcPow[{power}] expects a tuple of arity {2 * width}"
                )
            return fn((half(args[:width]), half(args[width:])))

        return combined

    outer = pow_value(expr.power)
    width = 2 ** (expr.power - 1)

    def entry(args: object) -> object:
        if expr.power == 1:
            return fn(args)
        if not isinstance(args, tuple):
            raise InterpreterError("funcPow expects a tuple argument")
        return outer(args)

    return entry


# ----------------------------------------------------------------------
# Builtins (Figure 2)
# ----------------------------------------------------------------------
def _head(lst: object) -> object:
    if not isinstance(lst, list) or not lst:
        raise InterpreterError("head of an empty or non-list value")
    return lst[0]


def _tail(lst: object) -> object:
    if not isinstance(lst, list) or not lst:
        raise InterpreterError("tail of an empty or non-list value")
    return lst[1:]


def _length(lst: object) -> int:
    if not isinstance(lst, list):
        raise InterpreterError("length of a non-list value")
    return len(lst)


def _avg(lst: object) -> object:
    if not isinstance(lst, list) or not lst:
        raise InterpreterError("avg of an empty or non-list value")
    return sum(lst) // len(lst) if all(isinstance(x, int) for x in lst) else (
        sum(lst) / len(lst)
    )


def _mrg(state: object) -> tuple:
    """One merge step on a pair of sorted lists (Figure 2's ``mrg``)."""
    if not isinstance(state, tuple) or len(state) != 2:
        raise InterpreterError("mrg expects a pair of lists")
    l1, l2 = state
    if not l1 and not l2:
        return ([], ([], []))
    if not l1:
        return ([l2[0]], ([], l2[1:]))
    if not l2:
        return ([l1[0]], (l1[1:], []))
    if l1[0] < l2[0]:
        return ([l1[0]], (l1[1:], l2))
    return ([l2[0]], (l1, l2[1:]))


_BUILTINS: dict[str, Callable[[object], object]] = {
    "head": _head,
    "tail": _tail,
    "length": _length,
    "avg": _avg,
    "mrg": _mrg,
    "zip": _zip_lists,
}


# ----------------------------------------------------------------------
# Hash partitioning
# ----------------------------------------------------------------------
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_hash(value: object) -> int:
    """Deterministic hash, independent of ``PYTHONHASHSEED``."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return (value * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    if isinstance(value, str):
        acc = _FNV_OFFSET
        for ch in value.encode("utf-8"):
            acc ^= ch
            acc = (acc * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        return acc
    if isinstance(value, tuple):
        acc = _FNV_OFFSET
        for item in value:
            acc ^= stable_hash(item)
            acc = (acc * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        return acc
    if isinstance(value, list):
        return stable_hash(tuple(value))
    raise InterpreterError(f"cannot hash {value!r}")


def _make_hash_partition(expr: HashPartition):
    buckets = expr.buckets
    if isinstance(buckets, str):
        raise InterpreterError(
            f"bucket parameter {buckets!r} must be bound before execution"
        )
    if buckets < 1:
        raise InterpreterError("hash partition needs at least one bucket")
    key_index = expr.key_index

    def partition_value(source: object) -> list:
        if not isinstance(source, list):
            raise InterpreterError("partition expects a list")
        out: list[list] = [[] for _ in range(buckets)]
        for item in source:
            key = item if key_index == 0 else item[key_index - 1]
            out[stable_hash(key) % buckets].append(item)
        return out

    return partition_value


def _apply_prim(op: str, args: list[object]) -> object:
    if op == "and":
        return bool(args[0]) and bool(args[1])
    if op == "or":
        return bool(args[0]) or bool(args[1])
    if op == "not":
        return not args[0]
    if op == "==":
        return args[0] == args[1]
    if op == "!=":
        return args[0] != args[1]
    if op == "<=":
        return args[0] <= args[1]
    if op == ">=":
        return args[0] >= args[1]
    if op == "<":
        return args[0] < args[1]
    if op == ">":
        return args[0] > args[1]
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "/":
        if args[1] == 0:
            raise InterpreterError("division by zero")
        if isinstance(args[0], int) and isinstance(args[1], int):
            return args[0] // args[1]
        return args[0] / args[1]
    if op == "mod":
        if args[1] == 0:
            raise InterpreterError("mod by zero")
        return args[0] % args[1]
    if op == "min2":
        return min(args[0], args[1])
    if op == "max2":
        return max(args[0], args[1])
    if op == "hash":
        return stable_hash(args[0])
    raise InterpreterError(f"unknown primitive {op!r}")

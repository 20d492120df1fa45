"""OCAL → flat Python: the compiled execution lane (DESIGN.md §12).

The paper's end game is that a synthesized out-of-core program runs at
the speed of a hand-written one.  :func:`compile_exec` takes a *tuned*
(fully block-bound) OCAL program and lowers it **once** into a flat
Python function — straight-line loop nests with the tuned block sizes
baked in as integer constants — which
:class:`~repro.runtime.compiled_backend.CompiledBackend` then calls per
execution.  The model is :mod:`repro.symbolic.compile` (PR 5's compiled
costing): an emitter producing statements, ``exec``-compiled into a
function, cached per hash-consed program identity.

The generated function has the signature ``_exec(env, rt)`` where
``env`` is the materialized input environment and ``rt`` is a plain
:class:`~repro.runtime.primitives.PrimitiveLibrary`.  Lowering is
*total* — generated code calls nothing but that library:

* loop shapes are **inlined** — ``for`` loop nests (element and blocked
  form, including the seq-ac request widening), λ application with
  tuple-pattern destructuring into locals, non-merge ``foldL``
  accumulation, ``flatMap``, λ-step ``unfoldR``, primitives,
  ``if``/``[e]``/``[]``/``⊔``/tuples/projections;
* the stateful combinators **dispatch statically** onto one primitive
  each, tuned blocks baked in (``rt.merge_sort``, ``rt._merge_streams``,
  ``rt._unfold_zip``, ``rt._fold_merge``, ``rt._treefold_generic``,
  ``rt._funcpow``, ``rt._exec_partition``, ``rt._exec_builtin``);
* a function in value position (λ or a Figure-2 definition) becomes a
  nested ``def`` (:meth:`_Emitter.fn_value`), so applying a computed
  function is a plain call.

**Counter-parity contract**: generated code performs the same filestore
requests in the same order as the ``file`` backend's AST walker (every
read goes through ``iter_blocks`` with the same fetch size; every spill
through the same builders) and bumps ``rt.iterations``/``rt.hashes`` at
the same program points — so measured byte/seek counters and priced
costs are identical, and only the per-element dispatch overhead
disappears.  The differential conformance oracle pins bag-equality
across all backends.
"""

from __future__ import annotations

import re

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
    free_vars,
    intern_node,
)
from ..ocal.interp import InterpreterError, stable_hash
from ..runtime.accounting import ExecutionError
from ..runtime.filestore import FileList, MemList
from ..runtime.primitives import READ_CHUNK, PrimitiveLibrary, _as_list

__all__ = [
    "CompiledExec",
    "compile_exec",
    "clear_exec_cache",
    "exec_cache_size",
]


#: sentinel distinguishing "input absent" from any legitimate value.
class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing input>"


_MISSING = _Missing()

_GLOBALS = {
    "MemList": MemList,
    "FileList": FileList,
    "_as_list": _as_list,
    "ExecutionError": ExecutionError,
    "InterpreterError": InterpreterError,
    "_stable_hash": stable_hash,
    "_MISSING": _MISSING,
}

_IDENT = re.compile(r"[^0-9A-Za-z_]")

#: the Figure-2 definitions: nodes that denote a function without being
#: a λ.  In value position each lowers to a nested ``def``.
_DEFINITIONS = (
    FoldL, FlatMap, TreeFold, UnfoldR, FuncPow, Builtin, HashPartition
)

#: infix primitives lowered to one Python operator application.
_BINOPS = {
    "==": "==", "!=": "!=", "<=": "<=", ">=": ">=", "<": "<", ">": ">",
    "+": "+", "-": "-", "*": "*",
}


def _exec_function(name: str, params: str, lines: list[str], nodes) -> object:
    """Compile generated statements into a function object."""
    source = "\n".join([f"def {name}({params}):"] + lines)
    namespace = dict(_GLOBALS)
    if nodes:
        namespace["_nodes"] = tuple(nodes)
    exec(
        compile(source, f"<repro.codegen.py_codegen:{name}>", "exec"),
        namespace,
    )
    fn = namespace[name]
    fn.__repro_source__ = source
    return fn


class _Emitter:
    """Lowers a tuned OCAL program to straight-line Python statements.

    ``bindings`` is the compile-time scope stack: the ordered (OCAL
    name, Python local) pairs currently live — pushed by loop variables
    and λ patterns, truncated on scope exit.  ``toplevel`` maps the
    program's free variables to lazily-checked locals, preserving the
    interpreter's unbound-variable-only-if-evaluated semantics.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 1
        self._counter = 0
        self.nodes: list[Node] = []
        self.bindings: list[tuple[str, str]] = []
        self.toplevel: dict[str, str] = {}

    # -- plumbing ------------------------------------------------------
    def temp(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def local(self, name: str) -> str:
        self._counter += 1
        return f"_v{self._counter}_{_IDENT.sub('_', name)}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def assign(self, expr: str) -> str:
        out = self.temp()
        self.line(f"{out} = {expr}")
        return out

    def as_temp(self, expr: str) -> str:
        if expr.isidentifier():
            return expr
        return self.assign(expr)

    def node_const(self, node: Node) -> str:
        self.nodes.append(node)
        return f"_nodes[{len(self.nodes) - 1}]"

    def env_expr(self, fn: Node) -> str:
        """The environment slice *fn* reads — the materialized inputs
        plus the live bindings it mentions.  Only the partition-parallel
        hook takes one (it ships λ and slice to worker processes)."""
        free = free_vars(fn)
        pairs = ", ".join(
            f"{name!r}: {loc}"
            for name, loc in self.bindings
            if name in free
        )
        return "{**env, " + pairs + "}" if pairs else "env"

    def emit_raise(self, kind: str, message: str) -> None:
        self.line(f"raise {kind}({message!r})")

    # -- pattern binding -----------------------------------------------
    def bind_pattern(
        self,
        pattern: Pattern,
        value_expr: str | None,
        parts: list[str] | None = None,
    ) -> None:
        """Destructure *value_expr* (or the statically-known component
        exprs *parts*) into fresh locals, with the same arity checks and
        error message as :func:`~repro.runtime.accounting.bind_pattern`."""
        if isinstance(pattern, str):
            loc = self.local(pattern)
            if parts is not None:
                self.line(f"{loc} = ({', '.join(parts)},)")
            else:
                self.line(f"{loc} = {value_expr}")
            self.bindings.append((pattern, loc))
            return
        if parts is not None:
            if len(parts) != len(pattern):
                self.emit_raise(
                    "ExecutionError",
                    f"pattern of arity {len(pattern)} cannot bind this value",
                )
                return
            for sub, part in zip(pattern, parts):
                self.bind_pattern(sub, part)
            return
        # dynamic value: check shape exactly like the runtime binder
        value = self.as_temp(value_expr)
        self.line(
            f"if not isinstance({value}, tuple) "
            f"or len({value}) != {len(pattern)}:"
        )
        self.line(
            f"    raise ExecutionError("
            f"'pattern of arity {len(pattern)} cannot bind this value')"
        )
        for index, sub in enumerate(pattern):
            self.bind_pattern(sub, f"{value}[{index}]")

    # -- value-position lowering ---------------------------------------
    def value(self, expr: Node) -> str:
        if isinstance(expr, Var):
            return self._value_var(expr.name)
        if isinstance(expr, Lit):
            return repr(expr.value)
        if isinstance(expr, Tup):
            items = [self.as_temp(self.value(item)) for item in expr.items]
            return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
        if isinstance(expr, Proj):
            value = self.as_temp(self.value(expr.tup))
            self.line(f"if not isinstance({value}, tuple):")
            self.line(
                "    raise ExecutionError('projection from a non-tuple')"
            )
            self.line(f"if {expr.index} > len({value}):")
            self.line(
                f"    raise ExecutionError('.{expr.index} out of range')"
            )
            return f"{value}[{expr.index - 1}]"
        if isinstance(expr, Prim):
            return self._value_prim(expr)
        if isinstance(expr, If):
            return self._value_if(expr)
        if isinstance(expr, Sing):
            item = self.value(expr.item)
            return self.assign(f"MemList([{item}])")
        if isinstance(expr, Empty):
            return self.assign("MemList([])")
        if isinstance(expr, Concat):
            left = self.as_temp(self.value(expr.left))
            right = self.as_temp(self.value(expr.right))
            return self.assign(f"rt._concat({left}, {right})")
        if isinstance(expr, For):
            sink = self.assign("rt._builder('for')")
            self.for_into(expr, sink)
            return self.assign(f"{sink}.finish()")
        if isinstance(expr, App):
            return self.app(expr, sink=None)
        if isinstance(expr, SizeAnnot):
            return self.value(expr.expr)
        if isinstance(expr, (Lam, *_DEFINITIONS)):
            return self.fn_value(expr)
        self.emit_raise(
            "ExecutionError", f"cannot execute {type(expr).__name__}"
        )
        return "None"

    def _value_var(self, name: str) -> str:
        for bound, loc in reversed(self.bindings):
            if bound == name:
                return loc
        loc = self.toplevel.get(name)
        if loc is not None:
            message = f"unbound variable {name!r}"
            self.line(f"if {loc} is _MISSING:")
            self.line(f"    raise ExecutionError({message!r})")
            return loc
        self.emit_raise("ExecutionError", f"unbound variable {name!r}")
        return "None"

    def _value_prim(self, expr: Prim) -> str:
        args = [self.as_temp(self.value(arg)) for arg in expr.args]
        op = expr.op
        if op in _BINOPS:
            return self.assign(f"{args[0]} {_BINOPS[op]} {args[1]}")
        if op == "and":
            return self.assign(f"bool({args[0]}) and bool({args[1]})")
        if op == "or":
            return self.assign(f"bool({args[0]}) or bool({args[1]})")
        if op == "not":
            return self.assign(f"not {args[0]}")
        if op == "min2":
            return self.assign(f"min({args[0]}, {args[1]})")
        if op == "max2":
            return self.assign(f"max({args[0]}, {args[1]})")
        if op == "/":
            self.line(f"if {args[1]} == 0:")
            self.line("    raise InterpreterError('division by zero')")
            return self.assign(
                f"({args[0]} // {args[1]}) "
                f"if (isinstance({args[0]}, int) "
                f"and isinstance({args[1]}, int)) "
                f"else ({args[0]} / {args[1]})"
            )
        if op == "mod":
            self.line(f"if {args[1]} == 0:")
            self.line("    raise InterpreterError('mod by zero')")
            return self.assign(f"{args[0]} % {args[1]}")
        if op == "hash":
            self.line("rt.hashes += 1")
            return self.assign(f"_stable_hash({args[0]})")
        self.emit_raise("InterpreterError", f"unknown primitive {op!r}")
        return "None"

    def _value_if(self, expr: If) -> str:
        cond = self.as_temp(self.value(expr.cond))
        self.line(f"if not isinstance({cond}, bool):")
        self.line("    raise ExecutionError('if condition must be Bool')")
        out = self.temp()
        self.line(f"if {cond}:")
        self.indent += 1
        then = self.value(expr.then)
        self.line(f"{out} = {then}")
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        orelse = self.value(expr.orelse)
        self.line(f"{out} = {orelse}")
        self.indent -= 1
        return out

    # -- list-position lowering ----------------------------------------
    def list_into(self, expr: Node, sink: str) -> None:
        if isinstance(expr, For):
            self.for_into(expr, sink)
            return
        if isinstance(expr, If):
            cond = self.as_temp(self.value(expr.cond))
            self.line(f"if not isinstance({cond}, bool):")
            self.line(
                "    raise ExecutionError('if condition must be Bool')"
            )
            self.line(f"if {cond}:")
            self.indent += 1
            self.list_into(expr.then, sink)
            self.indent -= 1
            self.line("else:")
            self.indent += 1
            self.list_into(expr.orelse, sink)
            self.indent -= 1
            return
        if isinstance(expr, Sing):
            item = self.value(expr.item)
            self.line(f"{sink}.append({item})")
            return
        if isinstance(expr, Empty):
            self.line("pass")
            return
        if isinstance(expr, Concat):
            self.list_into(expr.left, sink)
            self.list_into(expr.right, sink)
            return
        if isinstance(expr, App):
            self.app(expr, sink=sink)
            return
        if isinstance(expr, SizeAnnot):
            self.list_into(expr.expr, sink)
            return
        value = self.assign(f"_as_list({self.value(expr)})")
        self.line(f"if not isinstance({value}, (MemList, FileList)):")
        self.line(
            "    raise ExecutionError('expression did not produce a list')"
        )
        self.line(f"{sink}.extend({value})")

    def for_into(self, expr: For, sink: str) -> None:
        """The inlined loop nest of a (possibly blocked) ``for`` — the
        tuned block size is a baked-in constant."""
        source = self.assign(f"_as_list({self.value(expr.source)})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('for iterates over a non-list')")
        block = expr.block_in
        if isinstance(block, str):
            self.emit_raise(
                "ExecutionError",
                f"block parameter {block!r} must be bound before execution",
            )
            return
        mark = len(self.bindings)
        chunk = self.temp()
        if block == 1:
            fetch = self.assign(
                f"rt._fetch_block(1, {expr.seq!r}, {source})"
            )
            element = self.local(expr.var)
            self.line(f"for {chunk} in {source}.iter_blocks({fetch}):")
            self.indent += 1
            self.line(f"for {element} in {chunk}:")
            self.indent += 1
            self.line("rt.iterations += 1")
            self.bindings.append((expr.var, element))
            self.list_into(expr.body, sink)
            self.indent -= 2
        else:
            # The request may be widened under seq-ac, but the *logical*
            # block the body sees keeps its tuned size.
            fetch = self.assign(
                f"rt._fetch_block({block}, {expr.seq!r}, {source})"
            )
            self.line(f"{fetch} = max({block}, ({fetch} // {block}) * {block})")
            base = self.temp()
            blockvar = self.local(expr.var)
            self.line(f"for {chunk} in {source}.iter_blocks({fetch}):")
            self.indent += 1
            self.line(
                f"for {base} in range(0, len({chunk}), {block}):"
            )
            self.indent += 1
            self.line(
                f"{blockvar} = MemList({chunk}[{base} : {base} + {block}], "
                f"sorted={source}.sorted)"
            )
            self.line("rt.iterations += 1")
            self.bindings.append((expr.var, blockvar))
            self.list_into(expr.body, sink)
            self.indent -= 2
        del self.bindings[mark:]

    # -- function values ------------------------------------------------
    def fn_value(self, fn: Node) -> str:
        """Lower a function-valued node to a nested ``def f(arg,
        sink=None)`` and return its name.

        The live bindings *fn* mentions become default arguments: they
        are snapshotted when the ``def`` executes, like the walker's
        closures copy their environment, so a function that outlives a
        loop iteration keeps that iteration's values.  ``flatMap`` and
        ``unfoldR`` stream into the caller's sink when handed one and
        then return ``None``; every other function returns its value.
        """
        name, arg, sink = self.temp(), self.temp(), self.temp()
        free = free_vars(fn)
        captured = {
            bound: loc for bound, loc in self.bindings if bound in free
        }
        params = "".join(f", {loc}={loc}" for loc in captured.values())
        self.line(f"def {name}({arg}, {sink}=None{params}):")
        outer, self.bindings = self.bindings, list(captured.items())
        self.indent += 1
        if isinstance(fn, (FlatMap, UnfoldR)):
            self.line(f"if {sink} is not None:")
            self.indent += 1
            self.apply(fn, arg, sink)
            self.line("return None")
            self.indent -= 1
        self.line(f"return {self.apply(fn, arg, None)}")
        self.indent -= 1
        self.bindings = outer
        return name

    # -- application ---------------------------------------------------
    def app(self, expr: App, sink: str | None) -> str | None:
        """Lower an application.  With *sink*, stream the result into it
        and return ``None``; otherwise return the value expression."""
        fn = expr.fn
        if isinstance(fn, (Lam, *_DEFINITIONS)):
            return self.apply(fn, self.as_temp(self.value(expr.arg)), sink)
        # Computed function value: a plain call of the lowered ``def``.
        fnv = self.as_temp(self.value(fn))
        arg = self.as_temp(self.value(expr.arg))
        self.line(f"if not callable({fnv}):")
        self.indent += 1
        self.emit_raise(
            "ExecutionError",
            f"cannot execute application of {type(fn).__name__}",
        )
        self.indent -= 1
        if sink is None:
            return self.assign(f"{fnv}({arg})")
        result = self.assign(f"{fnv}({arg}, {sink})")
        self.line(f"if {result} is not None:")
        self.line(f"    {sink}.extend(_as_list({result}))")
        return None

    def apply(self, fn: Node, arg: str, sink: str | None) -> str | None:
        """Apply the syntactic function *fn* to the evaluated *arg*."""
        if isinstance(fn, Lam):
            mark = len(self.bindings)
            self.bind_pattern(fn.pattern, arg)
            if sink is not None:
                self.list_into(fn.body, sink)
                del self.bindings[mark:]
                return None
            out = self.as_temp(self.value(fn.body))
            del self.bindings[mark:]
            return out
        if isinstance(fn, FlatMap):
            return self._app_flatmap(fn, arg, sink)
        if isinstance(fn, UnfoldR):
            return self._app_unfold(fn, arg, sink)
        if isinstance(fn, FoldL):
            result = self._app_fold(fn, arg)
        elif isinstance(fn, TreeFold):
            result = self._app_treefold(fn, arg)
        elif isinstance(fn, Builtin):
            result = self.assign(f"rt._exec_builtin({fn.name!r}, {arg})")
        elif isinstance(fn, HashPartition):
            result = self.assign(
                f"rt._exec_partition({arg}, {fn.buckets!r}, {fn.key_index})"
            )
        else:
            result = self.assign(f"{self._funcpow(fn)}({arg})")
        return self._sink_value(result, sink)

    def _sink_value(self, result: str, sink: str | None) -> str | None:
        """Route a value-producing application per the walker's
        ``eval_list``: in list position, extend the sink with it."""
        if sink is None:
            return result
        self.line(f"{sink}.extend(_as_list({result}))")
        return None

    def _app_flatmap(
        self, fn: FlatMap, arg: str, sink: str | None
    ) -> str | None:
        source = self.assign(f"_as_list({arg})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('flatMap consumes a non-list')")
        inner = fn.fn
        inlined = isinstance(inner, Lam)
        if inlined:
            # Partition-parallel gate: same runtime hook as the walker,
            # so compiled and interpreted runs dispatch identically; the
            # inlined loop below is the serial (and NOT_PARALLEL) path.
            par = self.assign(
                f"rt.maybe_parallel_flatmap({self.node_const(fn)}, "
                f"{source}, {self.env_expr(inner)}, "
                f"{sink if sink is not None else 'None'})"
            )
            self.line(f"if {par} is rt.NOT_PARALLEL:")
            self.indent += 1
        own = sink if sink is not None else self.assign(
            "rt._builder('flatmap')"
        )
        if not inlined:
            # Computed element function: loop over the callable.
            step = self.as_temp(self.value(inner))
        chunk, element = self.temp(), self.temp()
        self.line(f"for {chunk} in {source}.iter_blocks({READ_CHUNK}):")
        self.indent += 1
        self.line(f"for {element} in {chunk}:")
        self.indent += 1
        self.line("rt.iterations += 1")
        if inlined:
            mark = len(self.bindings)
            self.bind_pattern(inner.pattern, element)
            self.list_into(inner.body, own)
            del self.bindings[mark:]
        else:
            self.line(f"{own}.extend(_as_list({step}({element})))")
        self.indent -= 2
        if not inlined:
            return None if sink is not None else self.assign(f"{own}.finish()")
        if sink is None:
            self.line(f"{par} = {own}.finish()")
        self.indent -= 1
        return None if sink is not None else par

    def _app_fold(self, fn: FoldL, arg: str) -> str:
        source = self.assign(f"_as_list({arg})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('foldL consumes a non-list')")
        block = fn.block_in
        if isinstance(block, str):
            self.emit_raise(
                "ExecutionError", f"unbound block parameter {block!r}"
            )
            return "None"
        if PrimitiveLibrary._is_merge_fn(fn.fn):
            return self.assign(
                f"rt._fold_merge({source}, {max(1, block)})"
            )
        acc = self.assign(self.value(fn.init))
        step = fn.fn
        if not isinstance(step, Lam):
            self.emit_raise(
                "ExecutionError",
                f"cannot execute foldL step {type(step).__name__}",
            )
            return "None"
        fetch = self.assign(
            f"rt._fetch_block({max(1, block)}, {fn.seq!r}, {source})"
        )
        chunk, element = self.temp(), self.temp()
        self.line(f"for {chunk} in {source}.iter_blocks({fetch}):")
        self.indent += 1
        self.line(f"for {element} in {chunk}:")
        self.indent += 1
        self.line("rt.iterations += 1")
        mark = len(self.bindings)
        self.bind_pattern(step.pattern, None, parts=[acc, element])
        body = self.value(step.body)
        self.line(f"{acc} = {body}")
        del self.bindings[mark:]
        self.indent -= 2
        return acc

    def _app_unfold(
        self, fn: UnfoldR, arg: str, sink: str | None
    ) -> str | None:
        """``unfoldR`` dispatches statically on its step: zip and merge
        run the shared stream primitives, a λ step is inlined (the body
        compiles once and runs per emitted chunk).  Fetch requests and
        error text are the walker's, so measured counters stay equal."""
        lists, fetch = self.temp(), self.temp()
        self.line(
            f"{lists}, {fetch} = "
            f"rt._unfold_streams({arg}, {fn.block_in!r}, {fn.seq!r})"
        )
        own = sink if sink is not None else self.assign(
            "rt._builder('unfold')"
        )
        step = fn.fn
        zipped = isinstance(step, Builtin) and step.name == "zip"
        if zipped:
            self.line(f"rt._unfold_zip({lists}, {fetch}, {own})")
        elif PrimitiveLibrary._is_merge_step(step):
            self.line(f"rt._merge_streams({lists}, {fetch}, {own})")
        elif isinstance(step, Lam):
            self._unfold_loop(step, lists, fetch, own)
        else:
            self.emit_raise(
                "ExecutionError",
                f"cannot execute unfoldR step {type(step).__name__}",
            )
        if sink is not None:
            return None
        return self.assign(f"{own}.finish(sorted={not zipped})")

    def _unfold_loop(self, step: Lam, lists: str, fetch: str, own: str) -> None:
        state = self.assign(
            f"tuple(_l.with_readahead({fetch}) for _l in {lists})"
        )
        budget = self.assign(f"sum(len(_l) for _l in {state}) + 1")
        self.line(f"while any(len(_l) for _l in {state}):")
        self.indent += 1
        self.line(f"if {budget} <= 0:")
        self.line(
            "    raise ExecutionError("
            "'unfoldR step function does not make progress')"
        )
        self.line("rt.iterations += 1")
        mark = len(self.bindings)
        self.bind_pattern(step.pattern, state)
        result = self.as_temp(self.value(step.body))
        del self.bindings[mark:]
        self.line(
            f"if not isinstance({result}, tuple) or len({result}) != 2:"
        )
        self.line(
            "    raise ExecutionError("
            "'unfoldR step must return ⟨[τr], state⟩')"
        )
        chunk = self.assign(f"_as_list({result}[0])")
        self.line(f"if not isinstance({chunk}, (MemList, FileList)):")
        self.line(
            "    raise ExecutionError("
            "'unfoldR step must return ⟨[τr], state⟩')"
        )
        self.line(f"{own}.extend({chunk})")
        self.line(f"{state} = {result}[1]")
        self.line(f"{budget} -= 1")
        self.indent -= 1

    def _app_treefold(self, fn: TreeFold, arg: str) -> str:
        """``treeFold`` over a merge step is the external merge sort
        with its tuned blocks baked in; any other step runs the
        Figure-2 queue over the step's callable."""
        source = self.assign(f"_as_list({arg})")
        self.line(f"if not isinstance({source}, (MemList, FileList)):")
        self.line("    raise ExecutionError('treeFold consumes a list')")
        step = fn.fn
        if isinstance(step, UnfoldR) and PrimitiveLibrary._is_merge_fn(step):
            block_in, block_out = step.block_in, step.block_out
            if isinstance(block_in, str) or isinstance(block_out, str):
                self.emit_raise(
                    "ExecutionError", "unbound treeFold block parameters"
                )
                return "None"
            return self.assign(
                f"rt.merge_sort({source}, {max(1, block_in)}, "
                f"{max(1, block_out)}, {max(2, fn.arity)})"
            )
        if isinstance(step, FuncPow):
            call = self._funcpow(step)
        elif isinstance(step, _DEFINITIONS):
            self.emit_raise(
                "ExecutionError",
                f"cannot execute treeFold step {type(step).__name__}",
            )
            return "None"
        else:
            call = self.as_temp(self.value(step))
        init = self.as_temp(self.value(fn.init))
        return self.assign(
            f"rt._treefold_generic({source}, {call}, {init}, {fn.arity})"
        )

    def _funcpow(self, expr: FuncPow) -> str:
        """The 2^k-ary callable of ``funcPow[k](f)``."""
        if isinstance(expr.fn, _DEFINITIONS):
            self.emit_raise(
                "ExecutionError",
                f"cannot execute funcPow over {type(expr.fn).__name__}",
            )
            return "None"
        fn = self.as_temp(self.value(expr.fn))
        return self.assign(f"rt._funcpow({fn}, {expr.power})")


class CompiledExec:
    """A tuned OCAL program compiled to a flat executor.

    * ``program`` — the (interned) source program;
    * ``fn`` — the generated function ``fn(env, rt)`` returning the
      program's result value (the backend normalizes builders/lists);
    * ``source`` — the generated Python text (inspectable, testable).
    """

    __slots__ = ("program", "fn", "source")

    def __init__(self, program: Node) -> None:
        program = intern_node(program)
        emitter = _Emitter()
        for name in sorted(free_vars(program)):
            loc = emitter.local(name)
            emitter.line(f"{loc} = env.get({name!r}, _MISSING)")
            emitter.toplevel[name] = loc
        result = emitter.value(program)
        emitter.line(f"return {result}")
        fn = _exec_function("_exec", "env, rt", emitter.lines, emitter.nodes)
        self.program = program
        self.fn = fn
        self.source = fn.__repro_source__


_EXEC_CACHE: dict[int, CompiledExec] = {}
_EXEC_CACHE_MAX = 1 << 14
#: hard references keeping cached programs alive so ``id`` keys stay
#: unambiguous (mirrors the costing lane's cache).
_EXEC_CACHE_PROGRAMS: list[Node] = []


def compile_exec(program: Node) -> CompiledExec:
    """Compile (with per-interned-program caching) to a flat executor."""
    interned = intern_node(program)
    cached = _EXEC_CACHE.get(id(interned))
    if cached is not None:
        return cached
    compiled = CompiledExec(interned)
    if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
        clear_exec_cache()
    _EXEC_CACHE[id(interned)] = compiled
    _EXEC_CACHE_PROGRAMS.append(interned)
    return compiled


def exec_cache_size() -> int:
    """Number of compiled programs currently cached."""
    return len(_EXEC_CACHE)


def clear_exec_cache() -> None:
    """Drop all cached compiled programs (tests, memory pressure)."""
    _EXEC_CACHE.clear()
    _EXEC_CACHE_PROGRAMS.clear()

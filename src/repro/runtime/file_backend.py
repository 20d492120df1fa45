"""Real execution of tuned programs against actual temp files.

Where the analytic simulator *models* I/O, :class:`FileBackend` performs
it: every hierarchy node below the root becomes a temp directory, inputs
are materialized as fixed-width binary files, loops read them in
block-sized requests, intermediates that outgrow the modeled root spill
to real files, and external merge-sort levels stream run files through
bounded buffers.  The result reports

* **measured** wall clock, syscall time, and per-device byte/request/
  seek counters (real numbers from real files), and
* a **priced** cost — the measured operation counts multiplied by the
  hierarchy's edge costs — which is the number comparable with the
  estimator's prediction and the simulator's ``elapsed`` (the
  reproduction's Figure-8 axis; local page caches make raw wall clock
  incommensurable with a 2013 disk testbed).

The out-of-core *primitives* (builders, external merge sort, partition
buckets, stream merges) live in :mod:`repro.runtime.primitives`; this
module adds the AST-walking dispatch on top.  The compiled backend
(:mod:`repro.runtime.compiled_backend`) drives a plain primitive library
from generated flat code, which is what guarantees its byte and seek
counters match this interpreter's exactly — the walker is the reference
the parity suite and the conformance oracle compare the lowering to.

The evaluator assumes *linear* use of accumulated lists (a fold's
accumulator is never observed after the step that extends it), which is
the same assumption the paper's compiler makes when emitting destructive
appends in C; every synthesized program satisfies it.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time

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
    Prim,
    Proj,
    Sing,
    SizeAnnot,
    TreeFold,
    Tup,
    UnfoldR,
    Var,
)
from ..ocal.interp import _apply_prim, stable_hash
from .accounting import (
    ExecutionConfig,
    ExecutionError,
    ExecutionResult,
    InputSpec,
    cumulative_edge_costs,
)
from .backend import register_backend
from .faults import FaultPlan
from .filestore import (
    DeviceStore,
    FileList,
    MemList,
    Rec,
    RecordSink,
    flat_width,
    shape_of,
)
from .primitives import (
    READ_CHUNK as _READ_CHUNK,
    PrimitiveLibrary,
    _as_list,
)
from .stats import ExecutionStats

__all__ = ["FileBackend", "materialize_value"]


def materialize_value(value):
    """Pull an evaluator result back into plain Python data.

    ``MemList``/``FileList`` become lists, ``Rec`` records become the
    tuples of their fields, and nesting (partition buckets, runs) is
    materialized recursively — the form the conformance oracle compares
    against the reference interpreter's output.
    """
    value = _as_list(value)
    if isinstance(value, (MemList, FileList)):
        return [materialize_value(item) for item in value.materialize()]
    if isinstance(value, Rec):
        return tuple(value)
    if isinstance(value, tuple):
        return tuple(materialize_value(item) for item in value)
    if isinstance(value, list):
        return [materialize_value(item) for item in value]
    return value


class _Evaluator(PrimitiveLibrary):
    """Concrete out-of-core semantics for tuned OCAL programs.

    The AST-walking dispatch over the shared primitive library — the
    ``file`` lane's runtime.  Generated code reaches the same primitives
    through a plain :class:`PrimitiveLibrary`, never through this class.
    """

    # ------------------------------------------------------------------
    # Value-position evaluation
    # ------------------------------------------------------------------
    def eval(self, expr: Node, env: dict):
        if isinstance(expr, Var):
            if expr.name not in env:
                raise ExecutionError(f"unbound variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, (Sing, Empty, Concat, For, If)) or isinstance(
            expr, App
        ):
            return self._eval_compound(expr, env)
        if isinstance(expr, Tup):
            return tuple(self.eval(item, env) for item in expr.items)
        if isinstance(expr, Proj):
            value = self.eval(expr.tup, env)
            if isinstance(value, tuple):
                if expr.index > len(value):
                    raise ExecutionError(f".{expr.index} out of range")
                return value[expr.index - 1]
            raise ExecutionError("projection from a non-tuple")
        if isinstance(expr, Prim):
            args = [self.eval(arg, env) for arg in expr.args]
            if expr.op == "hash":
                self.hashes += 1
                return stable_hash(args[0])
            return _apply_prim(expr.op, args)
        if isinstance(expr, Lam):
            captured = dict(env)

            def closure(argument, _expr=expr, _env=captured):
                inner = dict(_env)
                self._bind(_expr.pattern, argument, inner)
                return self.eval(_expr.body, inner)

            return closure
        if isinstance(expr, SizeAnnot):
            return self.eval(expr.expr, env)
        if isinstance(
            expr,
            (FoldL, FlatMap, TreeFold, UnfoldR, FuncPow, Builtin,
             HashPartition),
        ):
            # Function values: applied through _apply_node.
            return expr
        raise ExecutionError(f"cannot execute {type(expr).__name__}")

    def _eval_compound(self, expr: Node, env: dict):
        if isinstance(expr, If):
            cond = self.eval(expr.cond, env)
            if not isinstance(cond, bool):
                raise ExecutionError("if condition must be Bool")
            return self.eval(expr.then if cond else expr.orelse, env)
        if isinstance(expr, Sing):
            return MemList([self.eval(expr.item, env)])
        if isinstance(expr, Empty):
            return MemList([])
        if isinstance(expr, Concat):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            return self._concat(left, right)
        if isinstance(expr, For):
            sink = self._builder("for")
            self.eval_list(expr, env, sink)
            return sink.finish()
        if isinstance(expr, App):
            return self._eval_app(expr, env, sink=None)
        raise ExecutionError(f"cannot execute {type(expr).__name__}")

    # ------------------------------------------------------------------
    # List-position evaluation: stream results into one sink
    # ------------------------------------------------------------------
    def eval_list(self, expr: Node, env: dict, sink) -> None:
        if isinstance(expr, For):
            self._exec_for(expr, env, sink)
            return
        if isinstance(expr, If):
            cond = self.eval(expr.cond, env)
            if not isinstance(cond, bool):
                raise ExecutionError("if condition must be Bool")
            self.eval_list(expr.then if cond else expr.orelse, env, sink)
            return
        if isinstance(expr, Sing):
            sink.append(self.eval(expr.item, env))
            return
        if isinstance(expr, Empty):
            return
        if isinstance(expr, Concat):
            self.eval_list(expr.left, env, sink)
            self.eval_list(expr.right, env, sink)
            return
        if isinstance(expr, App):
            result = self._eval_app(expr, env, sink=sink)
            if result is not None:
                sink.extend(_as_list(result))
            return
        if isinstance(expr, SizeAnnot):
            self.eval_list(expr.expr, env, sink)
            return
        value = _as_list(self.eval(expr, env))
        if isinstance(value, (MemList, FileList)):
            sink.extend(value)
            return
        raise ExecutionError("expression did not produce a list")

    # ------------------------------------------------------------------
    def _exec_for(self, expr: For, env: dict, sink) -> None:
        source = _as_list(self.eval(expr.source, env))
        if not isinstance(source, (MemList, FileList)):
            raise ExecutionError("for iterates over a non-list")
        block = expr.block_in
        if isinstance(block, str):
            raise ExecutionError(
                f"block parameter {block!r} must be bound before execution"
            )
        inner = dict(env)
        if block == 1:
            fetch = self._fetch_block(1, expr.seq, source)
            for chunk in source.iter_blocks(fetch):
                for element in chunk:
                    inner[expr.var] = element
                    self.iterations += 1
                    self.eval_list(expr.body, inner, sink)
        else:
            # The request may be widened under seq-ac, but the *logical*
            # block the body sees keeps its tuned size.
            fetch = self._fetch_block(block, expr.seq, source)
            fetch = max(block, (fetch // block) * block)
            for chunk in source.iter_blocks(fetch):
                for base in range(0, len(chunk), block):
                    inner[expr.var] = MemList(
                        chunk[base : base + block], sorted=source.sorted
                    )
                    self.iterations += 1
                    self.eval_list(expr.body, inner, sink)

    # ------------------------------------------------------------------
    # Applications of definition nodes
    # ------------------------------------------------------------------
    def _eval_app(self, expr: App, env: dict, sink):
        fn = expr.fn
        if isinstance(fn, Lam):
            arg = self.eval(expr.arg, env)
            inner = dict(env)
            self._bind(fn.pattern, arg, inner)
            if sink is not None:
                self.eval_list(fn.body, inner, sink)
                return None
            return self.eval(fn.body, inner)
        if isinstance(fn, (FlatMap, FoldL, UnfoldR, TreeFold, Builtin,
                           HashPartition, FuncPow)):
            arg = self.eval(expr.arg, env)
            return self._apply_node(fn, arg, env, sink)
        # General application: evaluate the function value.
        fnv = self.eval(fn, env)
        arg = self.eval(expr.arg, env)
        if callable(fnv):
            return fnv(arg)
        if isinstance(fnv, Node):
            return self._apply_node(fnv, arg, env, sink)
        raise ExecutionError(
            f"cannot execute application of {type(fn).__name__}"
        )

    def _apply_node(self, fn: Node, arg, env: dict, sink=None):
        if isinstance(fn, FlatMap):
            return self._exec_flatmap(fn, arg, env, sink)
        if isinstance(fn, FoldL):
            return self._exec_fold(fn, arg, env)
        if isinstance(fn, UnfoldR):
            return self._exec_unfold(fn, arg, env, sink)
        if isinstance(fn, TreeFold):
            return self._exec_treefold(fn, arg, env)
        if isinstance(fn, Builtin):
            return self._exec_builtin(fn.name, arg)
        if isinstance(fn, HashPartition):
            return self._exec_partition(arg, fn.buckets, fn.key_index)
        if isinstance(fn, FuncPow):
            return self._funcpow_callable(fn, env)(arg)
        raise ExecutionError(
            f"cannot execute application of {type(fn).__name__}"
        )

    # ------------------------------------------------------------------
    def _exec_flatmap(self, fn: FlatMap, arg, env: dict, sink):
        source = _as_list(arg)
        if not isinstance(source, (MemList, FileList)):
            raise ExecutionError("flatMap consumes a non-list")
        par = self.maybe_parallel_flatmap(fn, source, env, sink)
        if par is not self.NOT_PARALLEL:
            return None if sink is not None else par
        own_sink = sink if sink is not None else self._builder("flatmap")
        inner_fn = fn.fn
        if isinstance(inner_fn, Lam):
            inner = dict(env)
            for chunk in source.iter_blocks(_READ_CHUNK):
                for element in chunk:
                    self.iterations += 1
                    self._bind(inner_fn.pattern, element, inner)
                    self.eval_list(inner_fn.body, inner, own_sink)
        else:
            fnv = self.eval(inner_fn, env)
            for chunk in source.iter_blocks(_READ_CHUNK):
                for element in chunk:
                    self.iterations += 1
                    own_sink.extend(_as_list(fnv(element)))
        if sink is not None:
            return None
        return own_sink.finish()

    # ------------------------------------------------------------------
    def _exec_fold(self, fn: FoldL, arg, env: dict):
        source = _as_list(arg)
        if not isinstance(source, (MemList, FileList)):
            raise ExecutionError("foldL consumes a non-list")
        block = fn.block_in
        if isinstance(block, str):
            raise ExecutionError(f"unbound block parameter {block!r}")
        if self._is_merge_fn(fn.fn):
            return self._fold_merge(source, max(1, block))
        init = self.eval(fn.init, env)
        step = fn.fn
        if not isinstance(step, Lam):
            raise ExecutionError(
                f"cannot execute foldL step {type(step).__name__}"
            )
        captured = dict(env)
        acc = init
        fetch = self._fetch_block(max(1, block), fn.seq, source)
        for chunk in source.iter_blocks(fetch):
            for element in chunk:
                self.iterations += 1
                inner = dict(captured)
                self._bind(step.pattern, (acc, element), inner)
                acc = self.eval(step.body, inner)
        return acc

    # ------------------------------------------------------------------
    def _exec_unfold(self, fn: UnfoldR, arg, env: dict, sink):
        lists, fetch = self._unfold_streams(arg, fn.block_in, fn.seq)
        own_sink = sink if sink is not None else self._builder("unfold")
        inner = fn.fn
        if isinstance(inner, Builtin) and inner.name == "zip":
            self._unfold_zip(lists, fetch, own_sink)
        elif self._is_merge_step(inner):
            self._merge_streams(lists, fetch, own_sink)
        else:
            self._unfold_generic(inner, lists, fetch, env, own_sink)
        if sink is not None:
            return None
        return own_sink.finish(sorted=not (
            isinstance(inner, Builtin) and inner.name == "zip"
        ))

    def _unfold_generic(
        self, step: Node, lists, block: int, env: dict, sink
    ) -> None:
        if not isinstance(step, Lam):
            raise ExecutionError(
                f"cannot execute unfoldR step {type(step).__name__}"
            )
        state = tuple(lst.with_readahead(block) for lst in lists)
        captured = dict(env)
        budget = sum(len(lst) for lst in state) + 1
        while any(len(lst) for lst in state):
            if budget <= 0:
                raise ExecutionError(
                    "unfoldR step function does not make progress"
                )
            self.iterations += 1
            inner = dict(captured)
            self._bind(step.pattern, state, inner)
            result = self.eval(step.body, inner)
            if not isinstance(result, tuple) or len(result) != 2:
                raise ExecutionError("unfoldR step must return ⟨[τr], state⟩")
            chunk, state = result
            chunk = _as_list(chunk)
            if not isinstance(chunk, (MemList, FileList)):
                raise ExecutionError("unfoldR step must return ⟨[τr], state⟩")
            sink.extend(chunk)
            budget -= 1

    # ------------------------------------------------------------------
    # treeFold: a real external merge sort
    # ------------------------------------------------------------------
    def _exec_treefold(self, fn: TreeFold, arg, env: dict):
        source = _as_list(arg)
        if not isinstance(source, (MemList, FileList)):
            raise ExecutionError("treeFold consumes a list")
        if not (isinstance(fn.fn, UnfoldR) and self._is_merge_fn(fn.fn)):
            # Non-merge (associative) step: the Figure-2 queue over the
            # step's callable.
            step = self.eval(fn.fn, env)
            if isinstance(step, FuncPow):
                step = self._funcpow_callable(step, env)
            if isinstance(step, Node):
                raise ExecutionError(
                    f"cannot execute treeFold step {type(fn.fn).__name__}"
                )
            init = self.eval(fn.init, env)
            return self._treefold_generic(source, step, init, fn.arity)
        block_in = fn.fn.block_in
        block_out = fn.fn.block_out
        if isinstance(block_in, str) or isinstance(block_out, str):
            raise ExecutionError("unbound treeFold block parameters")
        return self.merge_sort(
            source, max(1, block_in), max(1, block_out), max(2, fn.arity)
        )

    def _funcpow_callable(self, expr: FuncPow, env: dict):
        fn = self.eval(expr.fn, env)
        if isinstance(fn, Node):
            raise ExecutionError(
                f"cannot execute funcPow over {type(expr.fn).__name__}"
            )
        return self._funcpow(fn, expr.power)


class FileBackend:
    """Executes tuned programs on real temp files and reports both the
    measured counters and the priced cost of what actually happened."""

    name = "file"
    #: the runtime object a run drives: the walker here, a plain
    #: primitive library under generated code.
    runtime_class: type[PrimitiveLibrary] = _Evaluator

    def __init__(
        self,
        workdir: str | None = None,
        seed: int = 0,
        keep_files: bool = False,
        data: dict[str, list] | None = None,
        capture_output: bool = False,
        workers: int = 1,
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.workdir = workdir
        self.seed = seed
        self.keep_files = keep_files
        #: fault injection (DESIGN.md §16): an explicit
        #: :class:`~repro.runtime.faults.FaultPlan`, or ``None`` to read
        #: ``REPRO_FAULTS`` per run (unset = no injection).
        self.faults = faults
        #: partition-parallel execution (DESIGN.md §13): ``0`` = one
        #: worker per CPU, ``1`` = serial.  Counters, priced cost and
        #: output bags are identical to serial by the replay contract.
        self.workers = workers
        #: concrete per-input values overriding seeded generation — the
        #: conformance oracle injects the exact lists the reference
        #: interpreter ran on, so outputs are comparable element-wise.
        self.data = data
        #: when set, ``run`` materializes the program's output value into
        #: ``last_output`` (plain Python data) before any write-out.
        self.capture_output = capture_output
        self.last_output = None

    # ------------------------------------------------------------------
    def run(
        self,
        program: Node,
        inputs: dict[str, InputSpec],
        config: ExecutionConfig,
    ) -> ExecutionResult:
        root = config.hierarchy.root.name
        base = self.workdir or tempfile.mkdtemp(prefix="repro-file-")
        owns_dir = self.workdir is None
        os.makedirs(base, exist_ok=True)
        stores = {
            name: DeviceStore(name, os.path.join(base, name))
            for name in config.hierarchy.nodes
            if name != root
        }
        fault_plan = (
            self.faults if self.faults is not None else FaultPlan.from_env()
        )
        if fault_plan is not None:
            for store in stores.values():
                store.faults = fault_plan
                store.retry = fault_plan.retry
        evaluator = None
        try:
            evaluator = self.runtime_class(config, stores)
            evaluator.fault_plan = fault_plan
            from ..parallel import resolve_workers

            evaluator.workers = resolve_workers(self.workers)
            env = self._materialize_inputs(inputs, config, stores, evaluator)
            for store in stores.values():
                store.reset_counters()
            wall_start = time.perf_counter()
            result = _as_list(self._evaluate(evaluator, program, env))
            if self.capture_output:
                self.last_output = materialize_value(result)
            output_card, output_bytes = self._measure(result)
            out = config.output_location
            if out is not None and not (
                isinstance(result, FileList) and result.store.name == out
            ):
                self._write_out(result, stores[out], evaluator)
            wall = time.perf_counter() - wall_start
            return self._price(
                config, stores, evaluator, output_card, output_bytes, wall
            )
        finally:
            if evaluator is not None:
                evaluator.close_pool()
            for store in stores.values():
                store.close()
            if owns_dir and not self.keep_files:
                shutil.rmtree(base, ignore_errors=True)

    def _evaluate(self, evaluator: _Evaluator, program: Node, env: dict):
        """Produce the program's result value — the hook the compiled
        backend overrides with generated code."""
        return evaluator.eval(program, env)

    # ------------------------------------------------------------------
    def _materialize_inputs(
        self,
        inputs: dict[str, InputSpec],
        config: ExecutionConfig,
        stores: dict[str, DeviceStore],
        evaluator: PrimitiveLibrary,
    ) -> dict:
        import random

        root = config.hierarchy.root.name
        env: dict = {}
        for index, (name, spec) in enumerate(sorted(inputs.items())):
            injected = self.data is not None and name in self.data
            if injected:
                values = list(self.data[name])
                shape = shape_of(values[0]) if values else 8
            else:
                rng = random.Random((self.seed, index, name).__repr__())
                values, shape = self._generate(spec, rng)
            location = config.input_locations.get(name, root)
            if location == root or (injected and not values):
                env[name] = MemList(values, sorted=spec.sorted, owned=False)
                continue
            store = stores[location]
            env[name] = evaluator._write_records(
                values, shape, store, f"input-{name}", sorted=spec.sorted
            )
        return env

    @staticmethod
    def _generate(spec: InputSpec, rng) -> tuple[list, object]:
        from ..workloads.relations import (
            make_singleton_runs,
            make_sorted_multiset,
            make_sorted_unique,
            make_tuples,
        )

        card = int(spec.card)
        width = int(spec.elem_bytes)
        if spec.nested_runs:
            domain = spec.key_domain or max(4 * card, 4)
            return make_singleton_runs(card, domain, rng=rng), ("run", width)
        if width <= 8:
            domain = spec.key_domain or max(4 * card, 4)
            if spec.sorted:
                values = (
                    make_sorted_unique(card, domain, rng=rng)
                    if card <= domain
                    else make_sorted_multiset(card, domain, rng=rng)
                )
            else:
                values = [rng.randrange(domain) for _ in range(card)]
            return values, 8
        domain = spec.key_domain or max(card, 1)
        shape = (8, width - 8)
        values = [
            Rec(fields, shape)
            for fields in make_tuples(card, domain, rng=rng)
        ]
        if spec.sorted:
            values.sort()
        return values, shape

    # ------------------------------------------------------------------
    @staticmethod
    def _measure(result) -> tuple[float, float]:
        if isinstance(result, (MemList, FileList)):
            card = float(len(result))
            if isinstance(result, FileList):
                return card, card * result.elem_bytes
            if card:
                return card, card * flat_width(shape_of(result.head()))
            return 0.0, 0.0
        if isinstance(result, tuple):
            cards = nbytes = 0.0
            for item in result:
                c, b = FileBackend._measure(_as_list(item))
                cards += c
                nbytes += b
            return cards, nbytes
        # Scalar results (aggregation).
        return 1.0, 8.0

    def _write_out(
        self, result, store: DeviceStore, evaluator: PrimitiveLibrary
    ) -> None:
        if not isinstance(result, (MemList, FileList)) or not len(result):
            return
        first = result.head()
        writer = RecordSink(
            store,
            store.new_file("output"),
            shape_of(first),
            max(1, int(evaluator.budget) // 4),
        )
        for chunk in result.iter_blocks(_READ_CHUNK):
            writer.extend(chunk)
        writer.flush()

    # ------------------------------------------------------------------
    def _price(
        self,
        config: ExecutionConfig,
        stores: dict[str, DeviceStore],
        evaluator: PrimitiveLibrary,
        output_card: float,
        output_bytes: float,
        wall: float,
    ) -> ExecutionResult:
        hierarchy = config.hierarchy
        stats = ExecutionStats()
        io = 0.0
        measured_io = 0.0
        requests = 0
        for name, store in stores.items():
            requests += store.stats.reads + store.stats.writes
            costs = cumulative_edge_costs(hierarchy, name)
            node = hierarchy.node(name)
            device = stats.device(name)
            device.merge(store.stats)
            measured_io += store.io_time
            io += costs.read_unit * store.stats.bytes_read
            io += costs.write_unit * store.stats.bytes_written
            io += costs.read_init * store.read_seeks
            if node.max_seq_write is not None:
                erases = (
                    math.ceil(store.stats.bytes_written / node.max_seq_write)
                    if store.stats.bytes_written
                    else 0
                )
                device.erases = erases
                io += costs.write_init * erases
            else:
                io += costs.write_init * store.write_seeks
        cpu = (
            evaluator.iterations * config.cpu_per_iteration
            + evaluator.hashes * config.cpu_per_hash
            + output_bytes * config.cpu_per_output_byte
            + requests * config.cpu_per_request
        )
        stats.tuples_processed = evaluator.iterations
        stats.output_tuples = output_card
        return ExecutionResult(
            elapsed=io + cpu,
            io_seconds=io,
            cpu_seconds=cpu,
            stats=stats,
            output_card=output_card,
            output_bytes=output_bytes,
            backend=self.name,
            wall_seconds=wall,
            measured_io_seconds=measured_io,
        )


register_backend("file", FileBackend)

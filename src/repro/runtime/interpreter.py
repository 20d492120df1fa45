"""The AST-walking interpreter core of the analytic substrate.

The interpreter walks a tuned program and computes *value flow* — actual
cardinalities, element widths, residence — while delegating every
cost-bearing event (scans, spills, write-out, CPU charges) to the
:class:`~repro.runtime.accounting.ChargeModel`.  It is agnostic to the
shape of the memory hierarchy: devices come from the charge model's
``build_devices`` over an arbitrary :class:`MemoryHierarchy` tree, and
nothing below assumes the classic RAM+disk pair.

Three modeling choices, inherited verbatim from the seed executor (see
DESIGN.md §5):

* **actual cardinalities** — joins produce ``x·y·selectivity`` tuples,
  not the worst case, which is how the paper's overestimation-by-worst-
  case analysis (§7.3) becomes observable;
* **CPU charges** — every loop iteration, merge step, hash, and output
  byte costs simulated CPU time the *estimator deliberately ignores*,
  reproducing the growing underestimation for CPU-heavy tasks (Fig. 8);
* **analytic loop charging** — the body of a loop is walked once and its
  clock/counter deltas scaled by the iteration count, which is what
  makes simulating gigabyte workloads feasible in Python.
"""

from __future__ import annotations

import math

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
from .accounting import (
    ChargeModel,
    ExecutionConfig,
    ExecutionError,
    ExecutionResult,
    InputSpec,
    bind_pattern,
    merge_levels,
)
from .devices import SimDevice
from .values import RtList, RtScalar, RtValue

__all__ = ["AnalyticInterpreter"]


class AnalyticInterpreter:
    """Walks a tuned program, advancing the simulated clock."""

    def __init__(self, config: ExecutionConfig) -> None:
        self.config = config
        self.hierarchy = config.hierarchy
        self.root = config.hierarchy.root.name
        self.charges = ChargeModel(config)

    # Accounting state is owned by the charge model; these views keep
    # the seed executor's public attribute surface intact.
    @property
    def clock(self):
        return self.charges.clock

    @property
    def devices(self):
        return self.charges.devices

    @property
    def stats(self):
        return self.charges.stats

    # ------------------------------------------------------------------
    def run(
        self, program: Node, inputs: dict[str, InputSpec]
    ) -> ExecutionResult:
        """Execute a program whose parameters are already bound."""
        self.clock.reset()
        env: dict[str, RtValue] = {}
        for name, spec in inputs.items():
            location = self.config.input_locations.get(name, self.root)
            device = (
                None if location == self.root else self.devices[location]
            )
            extent = (
                device.allocate(spec.card * spec.elem_bytes)
                if device is not None
                else None
            )
            env[name] = RtList(
                card=float(spec.card),
                elem_bytes=float(spec.elem_bytes),
                device=device,
                addr=extent.start if extent else 0,
                sorted=spec.sorted,
            )
        result = self._exec(program, env)
        output_card, output_bytes = self._measure(result)
        if self.config.output_card_override is not None:
            scale = (
                output_bytes / output_card if output_card > 0 else 1.0
            )
            output_card = self.config.output_card_override
            output_bytes = output_card * max(1.0, scale)
        out = self.config.output_location
        if out is not None and not self._resident_on(result, out):
            self.charges.write_out(output_bytes, self.devices[out])
        self.charges.collect_device_stats()
        if self.config.cache is not None:
            self.stats.cache_accesses = self.config.cache.accesses
            self.stats.cache_misses = self.config.cache.misses
        return ExecutionResult(
            elapsed=self.clock.now,
            io_seconds=self.clock.io_seconds,
            cpu_seconds=self.clock.cpu_seconds,
            stats=self.stats,
            output_card=output_card,
            output_bytes=output_bytes,
        )

    # ------------------------------------------------------------------
    # Expression dispatch
    # ------------------------------------------------------------------
    def _exec(self, expr: Node, env: dict[str, RtValue]) -> RtValue:
        if isinstance(expr, Var):
            if expr.name not in env:
                raise ExecutionError(f"unbound variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, Lit):
            return RtScalar(1.0)
        if isinstance(expr, Sing):
            item = self._exec(expr.item, env)
            return RtList(
                card=1.0,
                elem_bytes=self._bytes_of(item),
                device=None,
                elem=item,
            )
        if isinstance(expr, Empty):
            return RtList(card=0.0, elem_bytes=0.0, device=None)
        if isinstance(expr, Tup):
            return tuple(self._exec(item, env) for item in expr.items)
        if isinstance(expr, Proj):
            value = self._exec(expr.tup, env)
            if isinstance(value, tuple):
                if expr.index > len(value):
                    raise ExecutionError(f".{expr.index} out of range")
                return value[expr.index - 1]
            return value
        if isinstance(expr, Concat):
            left = self._exec(expr.left, env)
            right = self._exec(expr.right, env)
            return self._concat(left, right)
        if isinstance(expr, If):
            return self._exec_if(expr, env)
        if isinstance(expr, Prim):
            for arg in expr.args:
                self._exec(arg, env)
            if expr.op == "hash":
                self.clock.advance_cpu(self.config.cpu_per_hash)
            return RtScalar(1.0)
        if isinstance(expr, For):
            return self._exec_for(expr, env)
        if isinstance(expr, SizeAnnot):
            return self._exec(expr.expr, env)
        if isinstance(expr, App):
            return self._exec_app(expr, env)
        if isinstance(
            expr,
            (Lam, FoldL, FlatMap, TreeFold, UnfoldR, FuncPow, Builtin,
             HashPartition),
        ):
            return RtScalar(0.0)
        raise ExecutionError(f"cannot execute {type(expr).__name__}")

    # ------------------------------------------------------------------
    # if-then-else with actual branch probabilities
    # ------------------------------------------------------------------
    def _exec_if(self, expr: If, env: dict[str, RtValue]) -> RtValue:
        self._exec(expr.cond, env)
        then = self._exec(expr.then, env)
        orelse = self._exec(expr.orelse, env)
        if self._is_order_inputs(expr):
            # length(a) ≤ length(b) — resolved exactly, not probabilistically.
            a = env[expr.cond.args[0].arg.name]
            b = env[expr.cond.args[1].arg.name]
            return (a, b) if a.card <= b.card else (b, a)
        if isinstance(then, RtList) and isinstance(orelse, RtList):
            p = self.config.cond_probability
            card = p * then.card + (1 - p) * orelse.card
            elem_bytes = max(then.elem_bytes, orelse.elem_bytes)
            return RtList(
                card=card,
                elem_bytes=elem_bytes,
                device=None,
                elem=then.elem or orelse.elem,
            )
        return then

    @staticmethod
    def _is_order_inputs(expr: If) -> bool:
        cond = expr.cond
        return (
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
            and isinstance(expr.then, Tup)
            and isinstance(expr.orelse, Tup)
        )

    # ------------------------------------------------------------------
    # for loops — analytic scaling of one representative iteration
    # ------------------------------------------------------------------
    def _exec_for(self, expr: For, env: dict[str, RtValue]) -> RtValue:
        source = self._exec(expr.source, env)
        if not isinstance(source, RtList):
            raise ExecutionError("for iterates over a non-list")
        block = expr.block_in
        if isinstance(block, str):
            raise ExecutionError(
                f"block parameter {block!r} must be bound before execution"
            )
        card = source.card
        if block == 1:
            bound = self._element_of(source)
            iterations = card
            per_request = source.elem_bytes
        else:
            bound = RtList(
                card=float(min(block, card) if card else 0),
                elem_bytes=source.elem_bytes,
                device=None,
                elem=source.elem,
            )
            iterations = math.ceil(card / block) if card else 0
            per_request = min(block, card) * source.elem_bytes if card else 0
        inner_env = dict(env)
        inner_env[expr.var] = bound

        io_before = self.clock.io_seconds
        cpu_before = self.clock.cpu_seconds
        stats_before = self.charges.snapshot_device_stats()
        body = self._exec(expr.body, inner_env)
        body_io = self.clock.io_seconds - io_before
        body_cpu = self.clock.cpu_seconds - cpu_before
        if not isinstance(body, RtList):
            raise ExecutionError("for body must produce a list")

        # Scale the remaining iterations analytically: the body ran once;
        # clock and per-device counters are multiplied for the rest.
        if iterations > 1:
            self.clock.advance_io(body_io * (iterations - 1))
            self.clock.advance_cpu(body_cpu * (iterations - 1))
            self.charges.scale_device_deltas(stats_before, iterations - 1)
        self.clock.advance_cpu(self.config.cpu_per_iteration * iterations)
        self.stats.tuples_processed += iterations

        # Source fetch: one request per iteration; requests are
        # sequential when the body did no I/O of its own.
        if source.device is not None and iterations:
            self.charges.charge_scan(
                source,
                requests=iterations,
                request_bytes=per_request,
                body_did_io=body_io > 0,
            )
        # Cache modeling: element-granular access of root-resident data.
        if (
            source.device is None
            and self.config.cache is not None
            and block == 1
            and card
        ):
            self._charge_cache_scan(source)

        return RtList(
            card=body.card * iterations,
            elem_bytes=body.elem_bytes,
            device=None,
            elem=body.elem,
            sorted=body.sorted and iterations <= 1,
        )

    def _charge_cache_scan(self, source: RtList) -> None:
        cache = self.config.cache
        base = source.addr
        elem = max(1, int(source.elem_bytes))
        count = int(source.card)
        # Touch each element once, line by line.
        for index in range(count):
            cache.access(base + index * elem, elem)
        self.clock.advance_cpu(cache.miss_penalty * 0)  # stall added at end

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------
    def _exec_app(self, expr: App, env: dict[str, RtValue]) -> RtValue:
        fn = expr.fn
        if isinstance(fn, Lam):
            arg = self._exec(expr.arg, env)
            arg = self._maybe_spill(arg)
            inner = dict(env)
            self._bind(fn.pattern, arg, inner)
            return self._exec(fn.body, inner)
        if isinstance(fn, FlatMap):
            loop = For("_fm", expr.arg, App(fn.fn, Var("_fm")), 1)
            return self._exec_for(loop, env)
        if isinstance(fn, FoldL):
            return self._exec_fold(fn, expr.arg, env)
        if isinstance(fn, UnfoldR):
            return self._exec_unfold(fn, expr.arg, env)
        if isinstance(fn, TreeFold):
            return self._exec_treefold(fn, expr.arg, env)
        if isinstance(fn, Builtin):
            return self._exec_builtin(fn.name, expr.arg, env)
        if isinstance(fn, HashPartition):
            return self._exec_partition(fn, expr.arg, env)
        if isinstance(fn, FuncPow):
            return self._exec(expr.arg, env)
        raise ExecutionError(
            f"cannot execute application of {type(fn).__name__}"
        )

    # ------------------------------------------------------------------
    def _exec_fold(
        self, fn: FoldL, arg: Node, env: dict[str, RtValue]
    ) -> RtValue:
        source = self._exec(arg, env)
        if not isinstance(source, RtList):
            raise ExecutionError("foldL consumes a non-list")
        block = fn.block_in
        if isinstance(block, str):
            raise ExecutionError(f"unbound block parameter {block!r}")
        card = source.card
        init = self._exec(fn.init, env)
        if not isinstance(fn.fn, Lam):
            return self._exec_fold_opaque(fn, source, init, env)
        inner = dict(env)
        self._bind(
            fn.fn.pattern, (init, self._element_of(source)), inner
        )
        step = self._exec(fn.fn.body, inner)
        self.clock.advance_cpu(self.config.cpu_per_iteration * card)
        self.stats.tuples_processed += card
        if source.device is not None and card:
            requests = card if block == 1 else math.ceil(card / block)
            self.charges.charge_scan(
                source,
                requests=requests,
                request_bytes=source.elem_bytes * min(block, card),
                body_did_io=False,
            )
        # Growth of the accumulator: linear interpolation init → step.
        if isinstance(init, RtList) and isinstance(step, RtList):
            delta = max(0.0, step.card - init.card)
            final = RtList(
                card=init.card + delta * card * self.config.cond_probability
                if delta < 1.0
                else init.card + delta * card,
                elem_bytes=max(init.elem_bytes, step.elem_bytes),
                device=None,
                elem=step.elem or init.elem,
            )
            return self._maybe_spill(final)
        if isinstance(init, tuple) and isinstance(step, tuple):
            return tuple(
                self._fold_component(i, s, card)
                for i, s in zip(init, step)
            )
        return step

    def _fold_component(
        self, init: RtValue, step: RtValue, card: float
    ) -> RtValue:
        if isinstance(init, RtList) and isinstance(step, RtList):
            delta = max(0.0, step.card - init.card)
            grown = RtList(
                card=init.card + delta * card,
                elem_bytes=max(init.elem_bytes, step.elem_bytes),
                device=None,
                elem=step.elem or init.elem,
            )
            return self._maybe_spill(grown)
        return step

    def _exec_fold_opaque(
        self, fn: FoldL, source: RtList, init: RtValue, env: dict
    ) -> RtValue:
        """foldL whose step is a function value (e.g. unfoldR(mrg)).

        The insertion-sort pattern: the accumulator is re-merged with one
        element per iteration, costing Θ(card²) transfers when spilled.
        """
        card = source.card
        if isinstance(source.elem, RtList):
            elem_card = source.elem.card
            rec_bytes = source.elem.elem_bytes
        else:
            elem_card = 1.0
            rec_bytes = source.elem_bytes
        total_elems = card * elem_card
        acc_bytes_final = total_elems * rec_bytes
        self.clock.advance_cpu(self.config.cpu_per_iteration * total_elems)
        spills = acc_bytes_final > self.hierarchy.root.size
        if source.device is not None and card:
            self.charges.charge_scan(
                source,
                requests=card,
                request_bytes=source.elem_bytes,
                body_did_io=spills,
            )
        if spills:
            device = source.device or self.charges.spill_device()
            # Quadratic re-read and write-back of the growing accumulator.
            total_traffic = rec_bytes * total_elems * (total_elems + 1) / 2
            write_evictions = total_traffic / rec_bytes  # element-wise
            device.clock.advance_io(
                total_traffic * (device.read_unit + device.write_unit)
            )
            device.stats.bytes_read += total_traffic
            device.stats.bytes_written += total_traffic
            device.clock.advance_io(device.write_init * write_evictions)
            device.stats.seeks += int(write_evictions)
            device.clock.advance_io(device.read_init * card)
            self.clock.advance_cpu(
                self.config.cpu_per_iteration * total_elems * total_elems / 2
            )
            return RtList(
                card=total_elems,
                elem_bytes=rec_bytes,
                device=device,
                sorted=True,
            )
        self.clock.advance_cpu(
            self.config.cpu_per_iteration * total_elems * max(
                1.0, math.log2(max(2.0, total_elems))
            )
        )
        return RtList(
            card=total_elems, elem_bytes=rec_bytes, device=None, sorted=True
        )

    # ------------------------------------------------------------------
    def _exec_unfold(
        self, fn: UnfoldR, arg: Node, env: dict[str, RtValue]
    ) -> RtValue:
        source = self._exec(arg, env)
        if not isinstance(source, tuple):
            raise ExecutionError("unfoldR consumes a tuple of lists")
        lists = [v for v in source if isinstance(v, RtList)]
        block = fn.block_in
        if isinstance(block, str):
            raise ExecutionError(f"unbound block parameter {block!r}")
        total = 0.0
        for item in lists:
            total += item.card
            if item.device is not None and item.card:
                requests = (
                    item.card if block == 1 else math.ceil(item.card / block)
                )
                # Consuming several streams interleaves their requests on
                # the device, so each block fetch repositions the head.
                self.charges.charge_scan(
                    item,
                    requests=requests,
                    request_bytes=item.elem_bytes * min(block, item.card),
                    body_did_io=len(lists) > 1,
                )
        inner = fn.fn
        self.clock.advance_cpu(self.config.cpu_per_iteration * total)
        self.stats.tuples_processed += total
        if isinstance(inner, Builtin) and inner.name == "zip":
            min_card = min((l.card for l in lists), default=0.0)
            return RtList(
                card=min_card,
                elem_bytes=sum(l.elem_bytes for l in lists),
                device=None,
                elem=tuple(self._element_of(l) for l in lists),
            )
        elem_bytes = max((l.elem_bytes for l in lists), default=1.0)
        # Custom step functions produce data-dependent output sizes; the
        # cond_probability knob scales from the sum-of-inputs worst case.
        out_card = total * self.config.cond_probability
        return RtList(
            card=out_card, elem_bytes=elem_bytes, device=None, sorted=True
        )

    # ------------------------------------------------------------------
    def _exec_treefold(
        self, fn: TreeFold, arg: Node, env: dict[str, RtValue]
    ) -> RtValue:
        source = self._exec(arg, env)
        if not isinstance(source, RtList):
            raise ExecutionError("treeFold consumes a list")
        runs = source.card
        elem_card = (
            source.elem.card if isinstance(source.elem, RtList) else 1.0
        )
        elem_bytes = (
            source.elem.elem_bytes
            if isinstance(source.elem, RtList)
            else source.elem_bytes
        )
        total_elems = runs * elem_card
        total_bytes = total_elems * elem_bytes
        device = source.device or self.charges.spill_device()
        levels = max(1, merge_levels(runs, fn.arity))
        block_in = 1
        block_out = 1
        if isinstance(fn.fn, UnfoldR):
            if isinstance(fn.fn.block_in, str) or isinstance(
                fn.fn.block_out, str
            ):
                raise ExecutionError("unbound treeFold block parameters")
            block_in = fn.fn.block_in
            block_out = fn.fn.block_out
        for _ in range(levels):
            reads = math.ceil(total_elems / block_in)
            writes = math.ceil(total_bytes / max(1, block_out))
            device.clock.advance_io(device.read_init * reads)
            device.stats.seeks += reads
            device.clock.advance_io(total_bytes * device.read_unit)
            device.stats.bytes_read += total_bytes
            device.clock.advance_io(device.write_init * writes)
            device.stats.seeks += writes
            device.clock.advance_io(total_bytes * device.write_unit)
            device.stats.bytes_written += total_bytes
            self.clock.advance_cpu(
                self.config.cpu_per_iteration * total_elems
                * math.log2(max(2, fn.arity))
            )
        self.stats.tuples_processed += total_elems * levels
        return RtList(
            card=total_elems,
            elem_bytes=elem_bytes,
            device=device,
            sorted=True,
        )

    # ------------------------------------------------------------------
    def _exec_builtin(
        self, name: str, arg: Node, env: dict[str, RtValue]
    ) -> RtValue:
        value = self._exec(arg, env)
        if name == "length":
            return RtScalar(1.0)
        if name == "avg":
            if isinstance(value, RtList) and value.device is not None:
                self.charges.charge_scan(
                    value, value.card, value.elem_bytes, body_did_io=False
                )
            return RtScalar(1.0)
        if name == "head":
            if not isinstance(value, RtList):
                raise ExecutionError("head of a non-list")
            if value.device is not None:
                value.device.read(value.addr, value.elem_bytes)
            return self._element_of(value)
        if name == "tail":
            if not isinstance(value, RtList):
                raise ExecutionError("tail of a non-list")
            return RtList(
                card=max(0.0, value.card - 1),
                elem_bytes=value.elem_bytes,
                device=value.device,
                addr=value.addr,
                sorted=value.sorted,
                elem=value.elem,
            )
        if name == "zip":
            if not isinstance(value, tuple):
                raise ExecutionError("zip consumes a tuple of lists")
            lists = [v for v in value if isinstance(v, RtList)]
            min_card = min((l.card for l in lists), default=0.0)
            # Elements of the zip are tuples of the inputs' *elements*
            # (bucket pairs for zipped partitions), not the inputs.
            return RtList(
                card=min_card,
                elem_bytes=sum(l.elem_bytes for l in lists),
                device=None,
                elem=tuple(self._element_of(l) for l in lists),
            )
        if name == "mrg":
            return (RtList(1.0, 1.0, None), value)
        raise ExecutionError(f"cannot execute builtin {name!r}")

    def _exec_partition(
        self, fn: HashPartition, arg: Node, env: dict[str, RtValue]
    ) -> RtValue:
        source = self._exec(arg, env)
        if not isinstance(source, RtList):
            raise ExecutionError("partition consumes a non-list")
        buckets = fn.buckets
        if isinstance(buckets, str):
            raise ExecutionError(f"unbound bucket parameter {buckets!r}")
        total_bytes = source.card * source.elem_bytes
        if source.device is not None and source.card:
            source.device.read(source.addr, total_bytes)
        self.clock.advance_cpu(self.config.cpu_per_hash * source.card)
        bucket = RtList(
            card=source.card / max(1, buckets),
            elem_bytes=source.elem_bytes,
            device=None,
            elem=source.elem,
        )
        partitions = RtList(
            card=float(buckets),
            elem_bytes=bucket.card * bucket.elem_bytes,
            device=None,
            elem=bucket,
        )
        return self._maybe_spill(partitions)

    # ------------------------------------------------------------------
    # Placement and output
    # ------------------------------------------------------------------
    def _maybe_spill(self, value: RtValue) -> RtValue:
        if not isinstance(value, RtList):
            return value
        if value.device is not None:
            return value
        total = value.card * value.elem_bytes
        if total <= self.hierarchy.root.size:
            return value
        device = self.charges.spill_device()
        extent = device.allocate(total)
        device.write(extent.start, total)
        elem = value.elem
        if isinstance(elem, RtList):
            # Nested contents (partition buckets) live on the device too.
            elem = RtList(
                card=elem.card,
                elem_bytes=elem.elem_bytes,
                device=device,
                addr=extent.start,
                sorted=elem.sorted,
                elem=elem.elem,
            )
        return RtList(
            card=value.card,
            elem_bytes=value.elem_bytes,
            device=device,
            addr=extent.start,
            sorted=value.sorted,
            elem=elem,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _element_of(self, source: RtList) -> RtValue:
        if source.elem is not None:
            return source.elem
        return RtScalar(source.elem_bytes)

    def _bytes_of(self, value: RtValue) -> float:
        if isinstance(value, RtScalar):
            return value.nbytes
        if isinstance(value, RtList):
            return value.card * value.elem_bytes
        if isinstance(value, tuple):
            return sum(self._bytes_of(v) for v in value)
        return 1.0

    def _concat(self, left: RtValue, right: RtValue) -> RtValue:
        if isinstance(left, RtList) and isinstance(right, RtList):
            card = left.card + right.card
            elem_bytes = max(left.elem_bytes, right.elem_bytes)
            return RtList(
                card=card,
                elem_bytes=elem_bytes,
                device=None,
                elem=left.elem or right.elem,
            )
        raise ExecutionError("⊔ of non-lists")

    def _bind(
        self, pattern: Pattern, value: RtValue, env: dict[str, RtValue]
    ) -> None:
        bind_pattern(pattern, value, env)

    def _measure(self, value: RtValue) -> tuple[float, float]:
        if isinstance(value, RtList):
            return value.card, value.card * value.elem_bytes
        if isinstance(value, RtScalar):
            return 1.0, value.nbytes
        if isinstance(value, tuple):
            cards = bytes_total = 0.0
            for item in value:
                c, b = self._measure(item)
                cards += c
                bytes_total += b
            return cards, bytes_total
        return 0.0, 0.0

    def _resident_on(self, value: RtValue, node: str) -> bool:
        return (
            isinstance(value, RtList)
            and value.device is not None
            and value.device.name == node
        )

    def _spill_device(self) -> SimDevice:
        return self.charges.spill_device()

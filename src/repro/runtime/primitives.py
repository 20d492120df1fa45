"""The out-of-core primitive library shared by interpreter and codegen.

:class:`PrimitiveLibrary` holds every *non-dispatch* piece of the
real-file execution semantics: spill-aware list builders, block-size
request widening under ``seq-ac``, the insertion-sort fold-of-merge, the
external merge sort and the Figure-2 queue behind ``treeFold``, the
``funcPow`` combinator, multi-stream zip/merge, the Figure-2 builtins,
hash partitioning, destructive concatenation, and record writing — plus the ``iterations``/``hashes`` counters that feed
CPU pricing.

Two callers share it, which is the whole point:

* :class:`~repro.runtime.file_backend._Evaluator` (the ``file`` lane)
  subclasses it and adds the AST-walking dispatch;
* code generated by :mod:`repro.codegen.py_codegen` (the ``compiled``
  lane) receives a plain instance as its ``rt`` argument and calls
  these methods directly from flat loop nests.

Because both paths drive the identical :mod:`repro.runtime.filestore`
machinery with identical request sizes, the measured byte/seek counters
of interpreted and compiled execution agree exactly.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from operator import lt

from ..ocal.ast import Builtin, FuncPow, Node, Pattern, UnfoldR
from ..ocal.interp import stable_hash
from .accounting import (
    ExecutionConfig,
    ExecutionError,
    bind_pattern,
    merge_levels,
)
from .filestore import (
    DeviceStore,
    FileList,
    ListBuilder,
    MemList,
    RecordSink,
    flat_width,
    shape_of,
)

__all__ = ["PrimitiveLibrary", "_as_list", "READ_CHUNK"]

#: records per request for untuned bulk scans.
READ_CHUNK = 8192


def _as_list(value):
    """Normalize a list-like evaluator value for reading."""
    if isinstance(value, ListBuilder):
        return value.finish()
    return value


def _plain(chunk: list) -> list:
    """A block's merge values: a singleton run ``[x]`` merges as ``x``."""
    if list in map(type, chunk):
        return [item[0] if isinstance(item, list) else item for item in chunk]
    return chunk


def _ascending(chunk: list) -> bool:
    return not any(map(lt, itertools.islice(chunk, 1, None), chunk))


def _remaining(chunk: list, cursor: int, blocks):
    """A stream's elements from ``chunk[cursor]`` on; each later block is
    read when the one before it has been emitted to its last element."""
    yield from itertools.islice(chunk, cursor, None)
    for later in blocks:
        yield from _plain(later)


class PrimitiveLibrary:
    """Concrete out-of-core primitives over the block filestore."""

    #: sentinel returned by :meth:`maybe_parallel_flatmap` when the loop
    #: must run serially; generated code tests ``par is rt.NOT_PARALLEL``.
    NOT_PARALLEL = object()

    def __init__(
        self,
        config: ExecutionConfig,
        stores: dict[str, DeviceStore],
    ) -> None:
        self.config = config
        self.hierarchy = config.hierarchy
        self.root = config.hierarchy.root.name
        self.stores = stores
        self.budget = float(config.hierarchy.root.size)
        self.iterations = 0.0
        self.hashes = 0.0
        #: resolved partition-parallel worker count (1 = serial); the
        #: backend sets it per run from its ``workers=`` option.
        self.workers = 1
        #: the run's fault-injection plan (DESIGN.md §16); the backend
        #: sets it per run, worker dispatch derives child plans from it.
        self.fault_plan = None
        self._pool = None

    # ------------------------------------------------------------------
    def worker_pool(self):
        """The lazily created per-run worker pool (``None`` = serial).

        One pool serves every parallel dispatch of a run — a multi-level
        external sort would otherwise pay pool construction per level.
        Construction failure permanently degrades the run to serial.
        """
        if self.workers <= 1:
            return None
        if self._pool is None:
            from ..parallel import WorkerPool

            try:
                self._pool = WorkerPool(self.workers)
            except Exception:  # lint: allow-broad-except
                self.workers = 1
                return None
        return self._pool

    def close_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "PrimitiveLibrary":
        return self

    def __exit__(self, *exc) -> None:
        # Backends close in their own ``finally``; the context-manager
        # form exists for direct library users, and the pool registry in
        # :mod:`repro.parallel` catches whatever both paths miss at
        # interpreter exit.
        self.close_pool()

    # ------------------------------------------------------------------
    def maybe_parallel_flatmap(self, fn, source, env: dict, sink):
        """Run a flatMap's element loop on worker processes if eligible.

        Returns the sink (or its finished list when ``sink`` is None)
        after an event-log replay that leaves every counter identical
        to the serial loop, or :data:`NOT_PARALLEL` — in which case the
        caller MUST run the serial loop (the sink is untouched).
        """
        if self.workers <= 1 or not self.stores:
            return self.NOT_PARALLEL
        from .parallel_exec import parallel_flatmap

        own_sink = sink if sink is not None else self._builder("flatmap")
        result = parallel_flatmap(self, fn, source, env, own_sink)
        if result is self.NOT_PARALLEL:
            return self.NOT_PARALLEL
        if sink is not None:
            return sink
        return own_sink.finish()

    # ------------------------------------------------------------------
    def spill_store(self) -> DeviceStore:
        out = self.config.output_location
        if out is not None:
            return self.stores[out]
        if not self.stores:
            raise ExecutionError("no device to spill to")
        return max(
            self.stores.values(),
            key=lambda s: self.hierarchy.node(s.name).size,
        )

    def _builder(self, tag: str) -> ListBuilder:
        store = self.spill_store() if self.stores else None
        return ListBuilder(
            self.budget,
            store,
            write_block=max(1, int(self.budget) // 4),
            tag=tag,
        )

    def _fetch_block(self, block: int, seq, source, streams: int = 1) -> int:
        """Request size for reading ``source``: the tuned block, widened
        to streaming granularity under a ``seq-ac`` annotation.

        The annotation asserts the pass is sequential, which makes the
        estimator initiation-count-indifferent to the block size; the
        generated code correspondingly streams through a buffer-pool-
        sized window rather than issuing one request per logical block.
        """
        if seq is None or not isinstance(source, FileList):
            return block
        window = int(self.budget) // max(1, streams * source.elem_bytes)
        return max(block, window, 1)

    # ------------------------------------------------------------------
    # Merge-based folds and sorts
    # ------------------------------------------------------------------
    @staticmethod
    def _is_merge_step(step: Node) -> bool:
        """Is this an ``mrg`` (or ``funcPow[k](mrg)``) merge step?"""
        if isinstance(step, Builtin) and step.name == "mrg":
            return True
        return (
            isinstance(step, FuncPow)
            and isinstance(step.fn, Builtin)
            and step.fn.name == "mrg"
        )

    @classmethod
    def _is_merge_fn(cls, fn: Node) -> bool:
        if isinstance(fn, Builtin) and fn.name == "mrg":
            return True
        return isinstance(fn, UnfoldR) and cls._is_merge_step(fn.fn)

    def _fold_merge(self, source, block: int):
        """Insertion sort: fold of merge over singleton runs — for real.

        The accumulator is kept sorted in memory while it fits the
        modeled root; once it outgrows it, every further insertion
        re-streams the accumulator file, reproducing the Θ(n²) traffic
        the estimator predicts for the naive sort.
        """
        acc: list | None = []
        spilled: FileList | None = None
        elem_shape = None
        for chunk in source.iter_blocks(block):
            for element in chunk:
                value = element[0] if isinstance(element, list) else element
                if elem_shape is None:
                    elem_shape = shape_of(value)
                    width = flat_width(elem_shape)
                self.iterations += 1
                if spilled is None:
                    bisect.insort(acc, value)
                    if len(acc) * width > self.budget and self.stores:
                        spilled = self._write_records(
                            acc, elem_shape, self.spill_store(), "sortacc",
                            sorted=True,
                        )
                        acc = None
                else:
                    spilled = self._merge_into_file(spilled, value)
        if spilled is not None:
            return spilled
        return MemList(acc, sorted=True)

    def _merge_into_file(self, acc: FileList, value) -> FileList:
        store = acc.store
        handle = store.new_file("sortacc")
        writer = RecordSink(
            store, handle, acc.shape, max(1, int(self.budget) // 4)
        )
        placed = False
        for chunk in acc.iter_blocks(READ_CHUNK):
            if not placed:
                # The accumulator is sorted: ``value`` goes before the
                # first item above it.
                cut = bisect.bisect_right(chunk, value)
                if cut < len(chunk):
                    chunk.insert(cut, value)
                    placed = True
            writer.extend(chunk)
        if not placed:
            writer.append(value)
        result = writer.finish(sorted=True)
        # The superseded accumulator copy is exclusively ours: release
        # its fd and disk space, or a long fold leaks one file per step.
        store.release(acc.handle)
        return result

    def merge_sort(self, source, block_in: int, block_out: int, arity: int):
        """A real external merge sort — the ``treeFold(unfoldR(mrg))``
        plugin semantics shared by the interpreter and generated code."""
        if isinstance(source, MemList):
            values = [
                item[0] if isinstance(item, list) else item
                for item in source.materialize()
            ]
            self.iterations += len(values) * max(
                1, merge_levels(len(values), arity)
            )
            return MemList(sorted(values), sorted=True)

        # Flatten the run view: a file of singleton runs has the same
        # layout as a file of its elements.
        shape = source.shape
        if isinstance(shape, tuple) and shape and shape[0] == "run":
            shape = shape[1]
        data = FileList(
            source.store, source.handle,
            source.base + source.start * source.elem_bytes, len(source),
            shape,
        )
        store = self.spill_store()
        # The current level's file and its runs' lengths, in file order;
        # level 0 is ``data`` as singleton runs.
        level, runs = data, [1] * len(data)
        while len(runs) > 1:
            handle = store.new_file("sortlevel")
            writer = RecordSink(store, handle, shape, block_out)
            starts = list(itertools.accumulate(runs, initial=0))
            groups = [
                range(base, min(base + arity, len(runs)))
                for base in range(0, len(runs), arity)
            ]
            counts = self.NOT_PARALLEL
            if self.workers > 1 and len(groups) > 1:
                # Run production in parallel: each group's merge is
                # independent; the replay appends every merged value to
                # this level's real writer in group order, so flush
                # offsets and seek interleavings stay serial-identical.
                from .parallel_exec import parallel_merge_level

                counts = parallel_merge_level(
                    self,
                    [
                        [(level, starts[run], runs[run]) for run in group]
                        for group in groups
                    ],
                    block_in,
                    writer,
                )
            if counts is self.NOT_PARALLEL:
                counts = []
                for group in groups:
                    if level is data:
                        # Singleton runs: one one-record read per run,
                        # then the group is its own sorted emit.
                        batch: list = []
                        for run in group:
                            batch += data._read_records(run, 1)
                        batch.sort()
                        writer.extend(batch)
                        self.iterations += len(batch)
                    else:
                        width = level.elem_bytes
                        self._block_merge(
                            [
                                FileList(
                                    level.store, level.handle,
                                    level.base + starts[run] * width,
                                    runs[run], shape,
                                )
                                for run in group
                            ],
                            block_in,
                            writer.extend,
                        )
                    counts.append(starts[group.stop] - starts[group.start])
            level = writer.finish(sorted=True)
            runs = counts
        if not runs:
            return MemList([], sorted=True)
        return FileList(
            level.store, level.handle, level.base, runs[0], level.shape,
            sorted=True,
        )

    def _treefold_generic(self, source, step, init, arity: int):
        """Figure-2 queue semantics for non-merge (associative) steps.

        The ``fldL-to-trfld`` rule converts associative-commutative folds
        into treeFolds whose step is a plain lambda (found by the
        conformance fuzzer); those reduce scalar-sized state, so running
        the queue in memory is faithful as long as the working set fits
        the modeled root.  *step* is a Python callable over one
        *arity*-tuple.
        """
        if (
            isinstance(source, FileList)
            and len(source) * source.elem_bytes > self.budget
        ):
            raise ExecutionError(
                "non-merge treeFold working set exceeds the root"
            )
        queue: list = []
        for chunk in source.iter_blocks(READ_CHUNK):
            queue.extend(chunk)
        if not queue:
            return init
        while len(queue) > 1:
            batch = queue[:arity]
            queue = queue[arity:]
            while len(batch) < arity:
                batch.append(init)
            self.iterations += 1
            queue.append(step(tuple(batch)))
        return queue[0]

    @staticmethod
    def _funcpow(fn, power: int):
        """The 2^k-ary callable of ``funcPow[k](f)`` (Figure 2) over the
        binary Python callable *fn*.

        ``inc-branching`` raises treeFold arity by wrapping lambda steps
        in ``funcPow`` — found unexecutable by the conformance fuzzer.
        """

        def pow_value(level: int):
            if level == 1:
                return fn
            half = pow_value(level - 1)
            width = 2 ** (level - 1)

            def combined(args):
                if not isinstance(args, tuple) or len(args) != 2 * width:
                    raise ExecutionError(
                        f"funcPow[{level}] expects a tuple of arity "
                        f"{2 * width}"
                    )
                return fn((half(args[:width]), half(args[width:])))

            return combined

        if power == 1:
            return fn
        outer = pow_value(power)

        def entry(args):
            if not isinstance(args, tuple):
                raise ExecutionError("funcPow expects a tuple argument")
            return outer(args)

        return entry

    # ------------------------------------------------------------------
    # Multi-stream consumption
    # ------------------------------------------------------------------
    def _unfold_streams(self, arg, block, seq) -> tuple[list, int]:
        """The stream lists of an ``unfoldR`` argument and the request
        size they share (the tuned block, widened per stream)."""
        if not isinstance(arg, tuple):
            raise ExecutionError("unfoldR consumes a tuple of lists")
        lists = [_as_list(item) for item in arg]
        if isinstance(block, str):
            raise ExecutionError(f"unbound block parameter {block!r}")
        block = max(1, block)
        streams = max(1, len(lists))
        fetches = [
            self._fetch_block(block, seq, lst, streams=streams)
            for lst in lists
        ]
        return lists, min(fetches) if fetches else block

    def _unfold_zip(self, lists, block: int, sink: ListBuilder) -> None:
        iterators = [lst.iter_blocks(block) for lst in lists]
        while iterators:
            chunks = []
            for iterator in iterators:
                chunks.append(next(iterator, None))
            if any(chunk is None for chunk in chunks):
                break
            rows = list(zip(*chunks))
            sink.extend(rows)
            self.iterations += len(rows)

    def _merge_streams(self, lists, block: int, sink: ListBuilder) -> None:
        self._block_merge(lists, block, sink.extend)

    def _block_merge(self, lists, block: int, emit) -> None:
        """Stable k-way merge of sorted lists, a block at a time.

        Emits (through ``emit``, a flush-exact ``extend``) exactly the
        sequence ``heapq.merge`` over the lists' elements yields, with
        every block read at the point that merge would read it
        (DESIGN.md §8.2, the merge kernel): all streams are primed in
        order; each step takes the stream whose block ends first by
        (last value, stream order), emits everything that precedes that
        last element in every current block as one stable sort, then
        reads that stream's next block.  A block that is not ascending
        (from the stream's previous element on) ends the block steps:
        the rest merges element by element through ``heapq.merge``.
        """
        chunks: list[list] = []
        cursors: list[int] = []
        unread: list[int] = []
        streams = []
        ordered = True
        for lst in lists:
            if not len(lst):
                continue
            blocks = lst.iter_blocks(block)
            chunk = _plain(next(blocks))
            ordered = ordered and _ascending(chunk)
            chunks.append(chunk)
            cursors.append(0)
            unread.append(len(lst) - len(chunk))
            streams.append(blocks)
        while ordered and chunks:
            if not any(unread):
                # Every stream is on its final block: one sorted emit.
                batch = []
                for chunk, cursor in zip(chunks, cursors):
                    batch += chunk[cursor:]
                if len(chunks) > 1:
                    batch.sort()
                emit(batch)
                self.iterations += len(batch)
                return
            first, last = 0, chunks[0][-1]
            for index in range(1, len(chunks)):
                if chunks[index][-1] < last:
                    first, last = index, chunks[index][-1]
            batch = []
            parts = 0
            for index, chunk in enumerate(chunks):
                cursor = cursors[index]
                if index == first:
                    cut = len(chunk)
                elif index < first:
                    cut = bisect.bisect_right(chunk, last, cursor)
                else:
                    cut = bisect.bisect_left(chunk, last, cursor)
                if cut > cursor:
                    batch += chunk[cursor:cut]
                    cursors[index] = cut
                    parts += 1
            if parts > 1:
                batch.sort()
            emit(batch)
            self.iterations += len(batch)
            if unread[first]:
                chunk = _plain(next(streams[first]))
                ordered = not chunk[0] < last and _ascending(chunk)
                chunks[first] = chunk
                cursors[first] = 0
                unread[first] -= len(chunk)
            else:
                del chunks[first], cursors[first], unread[first]
                del streams[first]
        if chunks:
            for value in heapq.merge(
                *map(_remaining, chunks, cursors, streams)
            ):
                emit([value])
                self.iterations += 1

    def _elements(self, lst, block: int):
        for chunk in lst.iter_blocks(block):
            for element in chunk:
                yield element[0] if isinstance(element, list) else element

    # ------------------------------------------------------------------
    # Builtins and partitioning
    # ------------------------------------------------------------------
    def _exec_builtin(self, name: str, arg):
        if name == "length":
            value = _as_list(arg)
            if not isinstance(value, (MemList, FileList)):
                raise ExecutionError("length of a non-list")
            return len(value)
        if name == "head":
            value = _as_list(arg)
            if not isinstance(value, (MemList, FileList)) or not len(value):
                raise ExecutionError("head of an empty or non-list value")
            return value.head()
        if name == "tail":
            value = _as_list(arg)
            if not isinstance(value, (MemList, FileList)) or not len(value):
                raise ExecutionError("tail of an empty or non-list value")
            return value.tail()
        if name == "avg":
            value = _as_list(arg)
            if not isinstance(value, (MemList, FileList)) or not len(value):
                raise ExecutionError("avg of an empty or non-list value")
            total = 0
            count = 0
            for element in self._elements(value, READ_CHUNK):
                total += element
                count += 1
                self.iterations += 1
            return total // count
        if name == "zip":
            if not isinstance(arg, tuple):
                raise ExecutionError("zip consumes a tuple of lists")
            lists = [_as_list(item) for item in arg]
            sink = self._builder("zip")
            self._unfold_zip(lists, READ_CHUNK, sink)
            return sink.finish()
        raise ExecutionError(f"cannot execute builtin {name!r}")

    def _exec_partition(self, arg, buckets, key_index: int):
        source = _as_list(arg)
        if not isinstance(source, (MemList, FileList)):
            raise ExecutionError("partition consumes a non-list")
        if isinstance(buckets, str):
            raise ExecutionError(f"unbound bucket parameter {buckets!r}")
        buckets = max(1, buckets)
        store = self.spill_store() if self.stores else None
        share = max(4096, int(self.budget) // (buckets + 1))
        builders = [
            ListBuilder(share, store, write_block=share, tag=f"bucket{i}")
            for i in range(buckets)
        ]
        for chunk in source.iter_blocks(READ_CHUNK):
            for element in chunk:
                key = element if key_index == 0 else element[key_index - 1]
                self.hashes += 1
                self.iterations += 1
                builders[stable_hash(key) % buckets].append(element)
        return MemList([builder.finish() for builder in builders])

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _concat(self, left, right):
        """Destructive append: accumulated lists are used linearly."""
        if isinstance(left, ListBuilder):
            left.extend(_as_list(right))
            return left
        if isinstance(left, FileList):
            # Found by the conformance fuzzer: ⊔ of two device-resident
            # inputs in value position reached the non-list error path.
            builder = self._builder("concat")
            builder.extend(left)
            right = _as_list(right)
            if not isinstance(right, (MemList, FileList)):
                raise ExecutionError("⊔ of non-lists")
            builder.extend(right)
            return builder
        if isinstance(left, MemList):
            if not isinstance(right, (MemList, FileList, ListBuilder)):
                raise ExecutionError("⊔ of non-lists")
            right = _as_list(right)
            width = (
                flat_width(shape_of(left.items[0])) if left.items else 8
            )
            if (len(left) + len(right)) * width > self.budget and self.stores:
                builder = self._builder("concat")
                builder.extend(left)
                builder.extend(right)
                return builder
            items = left.materialize()
            if not left.owned and not left.start:
                # `materialize` on an unshifted view aliases the backing
                # list; shared (input) lists must not be extended in place.
                items = list(items)
            if isinstance(right, MemList):
                items.extend(right.materialize())
            else:
                for chunk in right.iter_blocks(READ_CHUNK):
                    items.extend(chunk)
            return MemList(items)
        raise ExecutionError("⊔ of non-lists")

    def _write_records(
        self, values, shape, store: DeviceStore, tag: str, sorted=False
    ) -> FileList:
        writer = RecordSink(
            store, store.new_file(tag), shape, max(1, int(self.budget) // 4)
        )
        writer.extend(values)
        return writer.finish(sorted=sorted)

    def _bind(self, pattern: Pattern, value, env: dict) -> None:
        bind_pattern(pattern, value, env)


"""File-backed storage for the real-execution backend.

The file backend executes tuned programs against *actual* temp files.
This module provides its storage layer:

* a fixed-width **record codec** — every stored element occupies exactly
  the byte width the cost model attributes to it (a 512-byte join tuple
  really is 512 bytes on disk), so measured byte counters line up with
  the estimator's units.  The recursive :func:`encode_value` /
  :func:`decode_record` walk defines the format; :func:`codec_for`
  compiles it per shape into whole-block kernels (DESIGN.md §8.2);
* :class:`DeviceStore` — one temp directory per hierarchy node, with
  per-request byte/seek counters and syscall timing.  A request that
  does not continue where the previous request on the device left off
  counts as a repositioning, which is how read/write interference on a
  shared disk shows up in the *measured* numbers exactly as it does in
  the simulated ones;
* :class:`FileList` / :class:`MemList` — the two list representations
  the out-of-core evaluator computes with, behind one small interface
  (length, blocked iteration, O(1) ``tail`` views with shared read-ahead
  windows);
* :class:`RecordSink` — the buffered record writer (one request per
  write block), and :class:`ListBuilder` — an output collector with
  bounded in-memory buffering: results larger than the modeled root
  stay on disk, written through a sink.
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
import struct
import sys
import time

from .faults import (
    DEFAULT_RETRY,
    ExecutionFault,
    InjectedFault,
    backoff_delays,
    sleep_for_retry,
)
from .stats import DeviceStats

__all__ = [
    "Rec",
    "shape_of",
    "flat_width",
    "encode_value",
    "decode_record",
    "RecordCodec",
    "codec_for",
    "DeviceStore",
    "FileList",
    "MemList",
    "RecordSink",
    "ListBuilder",
]

_INT = struct.Struct("<q")


class Rec(tuple):
    """A fixed-width record: a tuple of int fields with per-field widths.

    Compares, hashes, and projects exactly like the tuple of its fields;
    the widths only matter when the record is encoded back to bytes.
    """

    def __new__(cls, fields, widths):
        self = tuple.__new__(cls, fields)
        self.widths = tuple(widths)
        return self

    def __getnewargs__(self):
        # Records cross process boundaries in the partition-parallel
        # execution lanes; the custom __new__ needs both arguments.
        return (tuple(self), self.widths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rec{tuple(self)!r}"


# ----------------------------------------------------------------------
# Shapes: int width | tuple of shapes | ("run", shape)
# ----------------------------------------------------------------------
def shape_of(value) -> object:
    """Infer the storage shape of a concrete value."""
    if isinstance(value, Rec):
        return value.widths
    if isinstance(value, bool) or isinstance(value, int):
        return 8
    if isinstance(value, tuple):
        return tuple(shape_of(item) for item in value)
    if isinstance(value, list):
        if len(value) != 1:
            raise ValueError(
                "only singleton runs can be stored as list elements"
            )
        return ("run", shape_of(value[0]))
    raise ValueError(f"cannot store value of type {type(value).__name__}")


def flat_width(shape) -> int:
    """Total byte width of one record of this shape."""
    return codec_for(shape).width


def encode_value(value, shape, out: bytearray) -> None:
    """Append the fixed-width encoding of ``value`` to ``out``."""
    if isinstance(shape, int):
        field = int(value[0]) if isinstance(value, Rec) else int(value)
        out += _INT.pack(field)
        if shape > 8:
            out += bytes(shape - 8)
        return
    if shape and shape[0] == "run":
        encode_value(value[0], shape[1], out)
        return
    if isinstance(value, Rec) and all(
        isinstance(w, int) for w in shape
    ) and len(value) == len(shape):
        for field, width in zip(value, shape):
            out += _INT.pack(int(field))
            if width > 8:
                out += bytes(width - 8)
        return
    if isinstance(value, tuple) and len(value) == len(shape):
        for item, sub in zip(value, shape):
            encode_value(item, sub, out)
        return
    raise ValueError(f"value {value!r} does not match shape {shape!r}")


def decode_record(buf: memoryview, offset: int, shape):
    """Decode one record at ``offset``; returns ``(value, next_offset)``."""
    if isinstance(shape, int):
        (field,) = _INT.unpack_from(buf, offset)
        return field, offset + shape
    if shape and shape[0] == "run":
        value, offset = decode_record(buf, offset, shape[1])
        return [value], offset
    if all(isinstance(w, int) for w in shape):
        fields = []
        for width in shape:
            (field,) = _INT.unpack_from(buf, offset)
            fields.append(field)
            offset += width
        return Rec(fields, shape), offset
    items = []
    for sub in shape:
        value, offset = decode_record(buf, offset, sub)
        items.append(value)
    return tuple(items), offset


# ----------------------------------------------------------------------
# The compiled codec: the reference walk above, specialized per shape
# ----------------------------------------------------------------------
class RecordCodec:
    """Whole-block encode/decode for one shape, compiled once.

    One ``struct.Struct`` carries the layout, padding included
    (``<q504xq504x`` for two 512-byte fields).  A generated function
    destructures each value to its int leaves, with the container-type
    and arity checks of :func:`encode_value`, and packs them; its twin
    rebuilds values from ``iter_unpack`` rows.  A block the generated
    encoder rejects (a float or a ``Rec`` at an int leaf, a wrong arity)
    goes through the reference walk, which coerces or raises.
    """

    __slots__ = ("shape", "width", "_struct", "_pack_all", "_rebuild_all")

    def __init__(self, shape) -> None:
        self.shape = shape
        checks: list[str] = []
        leaves: list[str] = []
        widths: list[int] = []
        consts: dict = {"Rec": Rec}

        def walk(sub, var: str) -> str:
            """Emit the destructuring of ``var``; return its rebuild."""
            if isinstance(sub, int):
                if sub < 8:
                    raise ValueError(
                        f"field width {sub} below 8 in shape {shape!r}"
                    )
                leaves.append(var)
                widths.append(sub)
                return var
            if not isinstance(sub, tuple):
                raise ValueError(f"bad shape {sub!r} in {shape!r}")
            if sub and sub[0] == "run":
                checks.append(f"if type({var}) is not list: raise ValueError")
                checks.append(f"[{var}_0] = {var}")
                return f"[{walk(sub[1], var + '_0')}]"
            names = [f"{var}_{index}" for index in range(len(sub))]
            checks.append(
                f"if type({var}) is not Rec and type({var}) is not tuple:"
                " raise ValueError"
            )
            checks.append(f"[{', '.join(names)}] = {var}")
            parts = "".join(
                walk(item, name) + ", " for item, name in zip(sub, names)
            )
            if all(isinstance(item, int) for item in sub):
                consts[f"{var}_w"] = sub
                return f"Rec(({parts}), {var}_w)"
            return f"({parts})"

        rebuild = walk(shape, "v")
        self.width = sum(widths)
        self._struct = struct.Struct(
            "<" + "".join(f"q{w - 8}x" if w > 8 else "q" for w in widths)
        )
        consts["pack"] = self._struct.pack
        body = "\n        ".join(checks)
        source = (
            "def pack_all(values):\n"
            "    out = []\n"
            "    append = out.append\n"
            "    for v in values:\n"
            f"        {body}\n"
            f"        append(pack({', '.join(leaves)}))\n"
            "    return b''.join(out)\n"
            "def rebuild_all(rows):\n"
            f"    return [{rebuild} for [{', '.join(leaves)}] in rows]\n"
        )
        exec(compile(source, f"<record codec {shape!r}>", "exec"), consts)
        self._pack_all = consts["pack_all"]
        self._rebuild_all = consts["rebuild_all"]

    def encode(self, values) -> bytes:
        """The concatenated fixed-width encodings of ``values``."""
        try:
            return self._pack_all(values)
        except (ValueError, struct.error):
            out = bytearray()
            for value in values:
                encode_value(value, self.shape, out)
            return bytes(out)

    def decode(self, data, count: int) -> list:
        """The ``count`` records held in ``data`` (``count * width`` bytes)."""
        if not self.width:
            return self._rebuild_all(itertools.repeat((), count))
        return self._rebuild_all(self._struct.iter_unpack(data))


@functools.lru_cache(maxsize=1024)
def codec_for(shape) -> RecordCodec:
    """The shape's compiled codec (cached: shapes are hashable values)."""
    return RecordCodec(shape)


# ----------------------------------------------------------------------
# Device-backed temp files
# ----------------------------------------------------------------------
class DeviceStore:
    """Temp-file namespace for one hierarchy node, with I/O accounting.

    Counters live in a :class:`DeviceStats`; repositionings are tracked
    per direction (``read_seeks`` / ``write_seeks``) because the two
    directions of a hierarchy edge carry different initiation costs.

    Requests run under the store's fault discipline (DESIGN.md §16):
    when a :class:`~repro.runtime.faults.FaultPlan` is attached via
    ``faults``, each logical read/write consults it first; transient
    errors — injected or real ``OSError`` — are retried under ``retry``
    with the full block re-issued at the same offset (idempotent), and
    permanent ones surface as a typed
    :class:`~repro.runtime.faults.ExecutionFault`.  Counters advance
    only once per *successful* logical request, so a recovered run is
    counter-identical to a fault-free one.
    """

    def __init__(self, name: str, directory: str) -> None:
        self.name = name
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stats = DeviceStats()
        self.read_seeks = 0
        self.write_seeks = 0
        self.io_time = 0.0
        self.faults = None
        self.retry = DEFAULT_RETRY
        self.retries = 0
        self.faults_seen = 0
        self._head: tuple[int, int] | None = None
        self._serial = 0
        self._handles: list = []

    @staticmethod
    def _key(handle):
        """Stable head identity for a file: its path when it has one.

        Path-based keys survive the process boundary, which lets the
        partition-parallel replay (:mod:`repro.runtime.parallel_exec`)
        account a worker's request stream against the parent's head
        position exactly as if the parent had issued it.
        """
        return getattr(handle, "name", None) or id(handle)

    def new_file(self, tag: str):
        """Open a fresh read/write binary file under this device."""
        self._serial += 1
        path = os.path.join(self.directory, f"{tag}-{self._serial}.bin")
        try:
            handle = open(path, "w+b")
        except OSError as error:
            raise ExecutionFault(
                self.name, "open", 0, str(error)
            ) from error
        self._handles.append(handle)
        return handle

    # ------------------------------------------------------------------
    # Fault discipline: one attempt performs the (possibly injected)
    # raw I/O; the retry loop below re-issues transient failures under
    # the bounded backoff policy and types permanent ones.
    # ------------------------------------------------------------------
    def _perform_read(self, handle, offset: int, nbytes: int) -> bytes:
        if self.faults is not None:
            self.faults.on_read(self.name, offset, nbytes)
        handle.seek(offset)
        return handle.read(nbytes)

    def _perform_write(self, handle, offset: int, data: bytes) -> None:
        if self.faults is not None:
            torn = self.faults.on_write(self.name, offset, len(data))
            if torn is not None:
                # Land a short prefix, then fail: the retry overwrites
                # the full block at the same offset, so recovery leaves
                # no trace of the tear.
                handle.seek(offset)
                handle.write(data[:torn])
                raise InjectedFault(self.name, "write", offset, "torn-write")
        handle.seek(offset)
        handle.write(data)

    def _io_with_retry(
        self, op: str, handle, offset: int, payload, error=None
    ):
        """Run one logical request to completion or a typed fault.

        ``error`` is the ``OSError`` of an attempt the caller already
        made inline; it counts as the first failure.
        """
        perform = self._perform_read if op == "read" else self._perform_write
        delays = backoff_delays(self.retry)
        failures = 0
        while True:
            if error is None:
                try:
                    return perform(handle, offset, payload)
                except OSError as caught:
                    error = caught
            failures += 1
            self.faults_seen += 1
            real_full = (
                getattr(error, "errno", None) == errno.ENOSPC
                and not isinstance(error, InjectedFault)
            )
            if real_full:
                raise ExecutionFault(
                    self.name, op, offset, f"device full: {error}"
                ) from error
            if failures >= self.retry.attempts:
                raise ExecutionFault(
                    self.name, op, offset,
                    f"gave up after {failures} attempts: {error}",
                ) from error
            self.retries += 1
            sleep_for_retry(next(delays, 0.0))
            error = None

    # Without a fault plan the request is attempted inline; only an
    # ``OSError`` or an attached plan enters the retry loop above.
    def read(self, handle, offset: int, nbytes: int) -> bytes:
        key = self._key(handle)
        repositioned = self._head != (key, offset)
        start = time.perf_counter()
        if self.faults is None:
            try:
                handle.seek(offset)
                data = handle.read(nbytes)
            except OSError as error:
                data = self._io_with_retry(
                    "read", handle, offset, nbytes, error
                )
        else:
            data = self._io_with_retry("read", handle, offset, nbytes)
        self.io_time += time.perf_counter() - start
        if self.faults is not None:
            self.io_time += self.faults.latency_penalty(self.name)
        if repositioned:
            self.stats.seeks += 1
            self.read_seeks += 1
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        self._head = (key, offset + len(data))
        return data

    def write(self, handle, offset: int, data: bytes) -> None:
        key = self._key(handle)
        repositioned = self._head != (key, offset)
        start = time.perf_counter()
        if self.faults is None:
            try:
                handle.seek(offset)
                handle.write(data)
            except OSError as error:
                self._io_with_retry("write", handle, offset, data, error)
        else:
            self._io_with_retry("write", handle, offset, data)
        self.io_time += time.perf_counter() - start
        if self.faults is not None:
            self.io_time += self.faults.latency_penalty(self.name)
        if repositioned:
            self.stats.seeks += 1
            self.write_seeks += 1
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self._head = (key, offset + len(data))

    # ------------------------------------------------------------------
    # Phantom requests: counter-identical accounting for I/O a worker
    # process performed on this device's behalf.  The replay walks the
    # worker's chronological request log through these, so seeks, byte
    # counts and request counts land exactly where serial execution
    # would have put them; no bytes move here (they already did, in the
    # worker).
    # ------------------------------------------------------------------
    def phantom_read(self, path, offset: int, nbytes: int) -> None:
        key = (path, offset)
        if self._head != key:
            self.stats.seeks += 1
            self.read_seeks += 1
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self._head = (path, offset + nbytes)

    def phantom_write(self, path, offset: int, nbytes: int) -> None:
        key = (path, offset)
        if self._head != key:
            self.stats.seeks += 1
            self.write_seeks += 1
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self._head = (path, offset + nbytes)

    def phantom_release(self, path) -> None:
        if self._head is not None and self._head[0] == path:
            self._head = None

    def flush_all(self) -> None:
        """Flush every open handle's userspace buffer to the OS.

        Worker processes read the device's files by path; anything still
        sitting in a parent ``w+b`` buffer would be invisible to them.
        """
        for handle in self._handles:
            try:
                handle.flush()
            except (OSError, ValueError):  # pragma: no cover - best effort
                pass

    def release(self, handle) -> None:
        """Close and delete a superseded scratch file.

        Long accumulator rewrites (the spilled insertion sort) would
        otherwise hold one open fd and one full copy per step.
        """
        try:
            self._handles.remove(handle)
        except ValueError:
            pass
        path = getattr(handle, "name", None)
        try:
            handle.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if path:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best effort
                pass
        if self._head is not None and self._head[0] == self._key(handle):
            self._head = None

    def reset_counters(self) -> None:
        """Forget setup-time traffic (input generation is not measured)."""
        self.stats = DeviceStats()
        self.read_seeks = 0
        self.write_seeks = 0
        self.io_time = 0.0
        self.retries = 0
        self.faults_seen = 0
        self._head = None

    def close(self) -> None:
        for handle in self._handles:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best effort
                pass
        self._handles.clear()


# ----------------------------------------------------------------------
# List values
# ----------------------------------------------------------------------
class MemList:
    """An in-memory list value with an O(1) ``tail`` view.

    ``owned`` marks lists whose backing storage belongs exclusively to
    the evaluator (fresh results, accumulators): only those may be
    extended destructively by ⊔.  Environment-bound *inputs* are shared
    — the conformance fuzzer caught ``R ⊔ [x]`` appending into the input
    relation itself — and must be copied instead.
    """

    __slots__ = ("items", "start", "sorted", "owned")

    def __init__(
        self,
        items: list,
        start: int = 0,
        sorted: bool = False,
        owned: bool = True,
    ):
        self.items = items
        self.start = start
        self.sorted = sorted
        self.owned = owned

    def __len__(self) -> int:
        return len(self.items) - self.start

    def head(self):
        return self.items[self.start]

    def tail(self) -> "MemList":
        return MemList(self.items, self.start + 1, self.sorted, self.owned)

    def iter_blocks(self, block: int):
        items = self.items
        for base in range(self.start, len(items), block):
            yield items[base : base + block]

    def materialize(self) -> list:
        return self.items[self.start :] if self.start else self.items

    def with_readahead(self, block: int) -> "MemList":
        return self


class FileList:
    """A read-only list stored as fixed-width records in a device file.

    ``tail`` returns an O(1) view sharing the underlying file and a
    read-ahead window, so head/tail streaming (the generic ``unfoldR``
    loop) issues one real read per window, not per element.
    """

    __slots__ = (
        "store", "handle", "base", "length", "shape", "codec", "elem_bytes",
        "start", "sorted", "_window",
    )

    def __init__(
        self,
        store: DeviceStore,
        handle,
        base: int,
        length: int,
        shape,
        sorted: bool = False,
        start: int = 0,
        window=None,
    ) -> None:
        self.store = store
        self.handle = handle
        self.base = base
        self.length = length
        self.shape = shape
        self.codec = codec_for(shape)
        self.elem_bytes = self.codec.width
        self.start = start
        self.sorted = sorted
        # [window_base_index, decoded_values, readahead]
        self._window = window if window is not None else [0, [], 1]

    def __len__(self) -> int:
        return self.length - self.start

    def with_readahead(self, block: int) -> "FileList":
        self._window[2] = max(1, int(block))
        return self

    def head(self):
        return self._record_at(self.start)

    def tail(self) -> "FileList":
        return FileList(
            self.store, self.handle, self.base, self.length, self.shape,
            self.sorted, self.start + 1, self._window,
        )

    def _record_at(self, index: int):
        base, values, readahead = self._window
        if not values or not (base <= index < base + len(values)):
            count = min(readahead, self.length - index)
            values = self._read_records(index, count)
            self._window[0] = base = index
            self._window[1] = values
        return values[index - base]

    def _read_records(self, index: int, count: int) -> list:
        nbytes = count * self.elem_bytes
        offset = self.base + index * self.elem_bytes
        data = self.store.read(self.handle, offset, nbytes)
        if len(data) != nbytes:
            raise ExecutionFault(
                self.store.name, "read", offset,
                f"short read: got {len(data)} of {nbytes} bytes",
            )
        return self.codec.decode(data, count)

    def iter_blocks(self, block: int):
        block = max(1, int(block))
        index = self.start
        while index < self.length:
            count = min(block, self.length - index)
            yield self._read_records(index, count)
            index += count

    def materialize(self) -> list:
        out: list = []
        for chunk in self.iter_blocks(8192):
            out.extend(chunk)
        return out


class RecordSink:
    """Buffered fixed-width record writer: one request per write block.

    Appended values are held as values and encoded a whole block at a
    time, on the append whose bytes bring the block to ``write_block`` —
    the append a byte buffer would have flushed on, so request sizes,
    offsets and the read/write interleaving do not depend on *when*
    records are encoded.
    """

    __slots__ = (
        "store", "handle", "codec", "per_flush", "pending", "offset", "count",
    )

    def __init__(self, store, handle, shape, write_block: int) -> None:
        self.store = store
        self.handle = handle
        self.codec = codec_for(shape)
        width = self.codec.width
        self.per_flush = (
            -(-max(1, int(write_block)) // width) if width else sys.maxsize
        )
        self.pending: list = []
        self.offset = 0
        self.count = 0

    def append(self, value) -> None:
        self.count += 1
        self.pending.append(value)
        if len(self.pending) >= self.per_flush:
            self.flush()

    def extend(self, values: list) -> None:
        """Append a list, flushing on the same records ``append`` would."""
        self.count += len(values)
        step = self.per_flush
        base = step - len(self.pending)
        self.pending += values[:base]
        while len(self.pending) >= step:
            self.flush()
            self.pending = values[base : base + step]
            base += step

    def flush(self) -> None:
        data = self.codec.encode(self.pending)
        self.pending = []
        if data:
            self.store.write(self.handle, self.offset, data)
            self.offset += len(data)

    def finish(self, sorted: bool = False) -> FileList:
        self.flush()
        return FileList(
            self.store, self.handle, 0, self.count, self.codec.shape,
            sorted=sorted,
        )


class ListBuilder:
    """Collects list results; spills to a device once they outgrow RAM.

    The in-memory bound is the modeled root size: intermediates that
    would not fit the experiment's buffer pool go to a real spill file,
    appended through ``write_block``-byte flushes (the role the tuned
    output-block parameters play in the generated programs).
    """

    def __init__(
        self,
        budget_bytes: float,
        spill_store: DeviceStore | None,
        write_block: int = 1 << 20,
        tag: str = "spill",
    ) -> None:
        self.budget = budget_bytes
        self.spill_store = spill_store
        self.write_block = write_block
        self.tag = tag
        self.items: list = []
        self.nbytes = 0.0
        self.shape = None
        self.sink: RecordSink | None = None
        self.storable = True

    # ------------------------------------------------------------------
    def append(self, value) -> None:
        if self.sink is not None:
            self.sink.append(value)
            return
        if self.shape is None and self.storable:
            try:
                self.shape = shape_of(value)
            except ValueError:
                # Values holding file handles (e.g. zipped partition
                # buckets) are bookkeeping, not data: keep them in memory.
                self.storable = False
                self.elem_bytes = 0.0
            else:
                self.elem_bytes = flat_width(self.shape)
        self.items.append(value)
        self.nbytes += self.elem_bytes
        if (
            self.storable
            and self.nbytes > self.budget
            and self.spill_store is not None
        ):
            self._spill()

    def extend(self, values) -> None:
        """Append every value.  A list (or a ``MemList``'s items) goes
        in whole: a spill it causes happens within this call, and the
        sink flushes on counts of values alone, so the requests are
        those of one ``append`` per value."""
        if isinstance(values, MemList):
            values = values.materialize()
        elif isinstance(values, FileList):
            for chunk in values.iter_blocks(8192):
                self.extend(chunk)
            return
        elif type(values) is not list:
            for value in values:
                self.append(value)
            return
        if self.sink is not None:
            self.sink.extend(values)
            return
        if not values:
            return
        if self.shape is None and self.storable:
            # The first value fixes the shape (or marks the builder
            # unstorable), exactly as its ``append`` does.
            self.append(values[0])
            self.extend(values[1:])
            return
        self.nbytes += len(values) * self.elem_bytes
        self.items += values
        if (
            self.storable
            and self.nbytes > self.budget
            and self.spill_store is not None
        ):
            self._spill()

    # ------------------------------------------------------------------
    def _spill(self) -> None:
        self.sink = RecordSink(
            self.spill_store, self.spill_store.new_file(self.tag),
            self.shape, self.write_block,
        )
        self.sink.extend(self.items)
        self.items = []

    # ------------------------------------------------------------------
    def finish(self, sorted: bool = False):
        if self.sink is None:
            return MemList(self.items, sorted=sorted)
        return self.sink.finish(sorted=sorted)

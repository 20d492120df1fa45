"""Partition-parallel out-of-core execution — lever (b) of the
parallelism PR.

The synthesized winners are built from independent units: the GRACE
join's hash-partition buckets are disjoint pipelines, and each group of
an external merge-sort level merges its own runs.  This module executes
those units on worker processes while keeping the backend's *observable
accounting* — per-device read/write/byte/seek/erase counters, iteration
and hash counts, spill points and therefore the priced cost — exactly
identical to serial execution.  The trick is an **event-log replay**:

* a worker gets a self-contained, picklable payload (the loop body as a
  plan document, its chunk of the source, the free-variable slice of
  the environment, file descriptors for device-resident lists) and
  executes the real semantics against real files — parent files opened
  read-only by path, scratch files in a private temp directory;
* every I/O request the worker issues and every value it emits is
  logged into ONE chronological event stream
  (``("r"|"w", device, path, offset, nbytes)``, ``("x", device, path)``
  releases, and coalesced ``("a", count)`` appends);
* the parent replays the streams in canonical chunk order: ``r``/``w``
  events become *phantom* counter updates on the real device stores
  (:meth:`~repro.runtime.filestore.DeviceStore.phantom_read` — heads
  are path-keyed, so seek accounting is process-transparent), while
  ``a`` events append the worker's values to the **real** sink — so the
  sink spills at the same cumulative byte, flushing at the same offsets,
  interleaved with the same source reads, as the serial loop.

Anything a worker cannot faithfully reproduce — closures in the
environment, values that cannot cross the process boundary, device
lists in the output (worker scratch files die with the worker), any
worker-side error — makes the dispatch **bail**: the caller falls back
to the serial loop, which is always semantically identical (and
re-raises real execution errors with their original messages).  Workers
are processes, so a bailed dispatch has mutated nothing in the parent.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import shutil
import tempfile

from ..ocal.ast import Lam, Node, free_vars
from ..ocal.serialize import node_from_json, node_to_json
from ..parallel import chunk_slices
from .filestore import DeviceStore, FileList, MemList, Rec
# Chunk boundaries are aligned to the serial loops' READ_CHUNK so worker
# read requests equal serial read requests.
from .primitives import READ_CHUNK as _READ_CHUNK, PrimitiveLibrary

__all__ = [
    "Unencodable",
    "encode_rt",
    "decode_rt",
    "parallel_flatmap",
    "parallel_merge_level",
]

class Unencodable(Exception):
    """A runtime value that cannot cross the process boundary."""


# ----------------------------------------------------------------------
# Runtime-value codec.  Explicit and closed: anything outside the listed
# forms raises Unencodable, which the dispatcher turns into a serial
# fallback — never into a wrong answer.
# ----------------------------------------------------------------------
def encode_rt(value, allow_files: bool = True):
    """Encode an evaluator value into a picklable document."""
    if isinstance(value, Rec):
        return ("rec", tuple(value), value.widths)
    if value is None or isinstance(value, (bool, int, float, str)):
        return ("s", value)
    if isinstance(value, tuple):
        return ("t", [encode_rt(item, allow_files) for item in value])
    if isinstance(value, list):
        return ("l", [encode_rt(item, allow_files) for item in value])
    if isinstance(value, MemList):
        return (
            "m",
            [encode_rt(item, allow_files) for item in value.materialize()],
            value.sorted,
            value.owned,
        )
    if isinstance(value, FileList):
        if not allow_files:
            raise Unencodable("device-resident value in a worker output")
        path = getattr(value.handle, "name", None)
        if not isinstance(path, str):
            raise Unencodable("file-backed list without a path")
        return (
            "f",
            value.store.name,
            path,
            value.base,
            value.length,
            value.shape,
            value.sorted,
            value.start,
        )
    if isinstance(value, Node):
        return ("n", node_to_json(value))
    raise Unencodable(f"cannot ship {type(value).__name__} to a worker")


def decode_rt(doc, stores=None, shared: bool = False):
    """Decode a document produced by :func:`encode_rt`.

    ``stores`` maps device names to the decoding process's
    :class:`DeviceStore` objects (workers pass their ``_WorkerStore``
    set; the parent decodes outputs, which never contain files).
    ``shared`` marks environment values: decoded ``MemList``s become
    unowned so a worker cannot destructively extend what is, in the
    parent, a value shared across all chunks.
    """
    tag = doc[0]
    if tag == "s":
        return doc[1]
    if tag == "rec":
        return Rec(doc[1], doc[2])
    if tag == "t":
        return tuple(decode_rt(item, stores, shared) for item in doc[1])
    if tag == "l":
        return [decode_rt(item, stores, shared) for item in doc[1]]
    if tag == "m":
        return MemList(
            [decode_rt(item, stores, shared) for item in doc[1]],
            sorted=doc[2],
            owned=False if shared else doc[3],
        )
    if tag == "f":
        _, device, path, base, length, shape, is_sorted, start = doc
        store = stores[device]
        return FileList(
            store, store.open_source(path), base, length, _shape(shape),
            sorted=is_sorted, start=start,
        )
    if tag == "n":
        from ..ocal.ast import intern_node

        return intern_node(node_from_json(doc[1]))
    raise Unencodable(f"unknown document tag {tag!r}")


def _shape(shape):
    """Shapes are tuples; JSON/pickle round-trips may yield lists."""
    if isinstance(shape, list):
        return tuple(_shape(item) for item in shape)
    return shape


# ----------------------------------------------------------------------
# Worker-side storage and sink
# ----------------------------------------------------------------------
class _WorkerStore(DeviceStore):
    """A device store that logs every request into a shared event list.

    Scratch files (``new_file``) live in a worker-private directory so
    concurrent workers never collide; parent files are opened read-only
    by path (``open_source``).  Requests perform real I/O — the worker
    computes real data — and additionally append chronological events
    the parent replays for accounting.
    """

    def __init__(self, name: str, scratch_dir: str, events: list) -> None:
        super().__init__(name, scratch_dir)
        self.events = events
        self._sources: dict[str, object] = {}

    def open_source(self, path: str):
        handle = self._sources.get(path)
        if handle is None:
            handle = open(path, "rb")
            self._sources[path] = handle
            self._handles.append(handle)
        return handle

    def read(self, handle, offset: int, nbytes: int) -> bytes:
        data = super().read(handle, offset, nbytes)
        self.events.append(("r", self.name, handle.name, offset, len(data)))
        return data

    def write(self, handle, offset: int, data: bytes) -> None:
        super().write(handle, offset, data)
        self.events.append(("w", self.name, handle.name, offset, len(data)))

    def release(self, handle) -> None:
        self.events.append(("x", self.name, getattr(handle, "name", None)))
        super().release(handle)


class _RecordingSink:
    """Captures sink appends as values plus coalesced ``("a", n)`` events.

    Stands in for the serial loop's :class:`ListBuilder`: the worker
    only records *what* was appended and *when* relative to its I/O;
    buffering, spilling and output encoding happen in the parent during
    replay, against the real sink, at the same cumulative positions.
    """

    def __init__(self, events: list) -> None:
        self.events = events
        self.values: list = []

    def append(self, value) -> None:
        self.values.append(value)
        events = self.events
        if events and events[-1][0] == "a":
            events[-1][1] += 1
        else:
            events.append(["a", 1])

    def extend(self, values) -> None:
        if isinstance(values, (MemList, FileList)):
            for chunk in values.iter_blocks(_READ_CHUNK):
                for value in chunk:
                    self.append(value)
            return
        for value in values:
            self.append(value)


def _worker_context(payload):
    """(config, stores, events, scratch) for one worker task."""
    config = payload["config"]
    events: list = []
    scratch = tempfile.mkdtemp(prefix="repro-worker-")
    stores = {
        name: _WorkerStore(name, os.path.join(scratch, name), events)
        for name in payload["devices"]
    }
    faults_doc = payload.get("faults")
    if faults_doc is not None:
        # Workers fault independently on derived seeds; a permanent
        # worker fault becomes a bail, and the parent's serial rerun
        # decides the run's fate under the parent plan.
        from .faults import FaultPlan

        plan = FaultPlan.from_doc(faults_doc)
        for store in stores.values():
            store.faults = plan
            store.retry = plan.retry
    return config, stores, events, scratch


def _close_context(stores, scratch) -> None:
    for store in stores.values():
        store.close()
    shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# Worker entry points.  Any exception is converted into a bail marker —
# the parent then reruns serially and real errors resurface verbatim.
# ----------------------------------------------------------------------
def _run_flatmap_chunk(payload):
    config, stores, events, scratch = _worker_context(payload)
    try:
        from .file_backend import _Evaluator

        evaluator = _Evaluator(config, stores)
        fn = decode_rt(payload["fn"])
        env = {
            name: decode_rt(doc, stores, shared=True)
            for name, doc in payload["env"].items()
        }
        sink = _RecordingSink(events)
        inner = dict(env)
        if payload["source"] is not None:
            doc = payload["source"]
            view = decode_rt(doc, stores)
            lo, hi = payload["range"]
            view = FileList(
                view.store, view.handle, view.base, view.start + hi,
                view.shape, view.sorted, view.start + lo,
            )
            chunks = view.iter_blocks(_READ_CHUNK)
        else:
            elements = [
                decode_rt(doc, stores) for doc in payload["elements"]
            ]
            chunks = (
                elements[base : base + _READ_CHUNK]
                for base in range(0, len(elements), _READ_CHUNK)
            )
        for chunk in chunks:
            for element in chunk:
                evaluator.iterations += 1
                evaluator._bind(fn.pattern, element, inner)
                evaluator.eval_list(fn.body, inner, sink)
        values = [encode_rt(value, allow_files=False) for value in sink.values]
        return {
            "values": values,
            "events": events,
            "iterations": evaluator.iterations,
            "hashes": evaluator.hashes,
            "io_time": {
                name: store.io_time for name, store in stores.items()
            },
        }
    except Exception as exc:  # lint: allow-broad-except
        return {"bail": f"{type(exc).__name__}: {exc}"}
    finally:
        _close_context(stores, scratch)


def _run_merge_groups(payload):
    config, stores, events, scratch = _worker_context(payload)
    try:
        rt = PrimitiveLibrary(config, stores)
        block_in = payload["block_in"]
        groups = []
        for group in payload["groups"]:
            streams = []
            for doc, start, length in group:
                level = decode_rt(doc, stores)
                segment = FileList(
                    level.store, level.handle,
                    level.base + start * level.elem_bytes, length,
                    level.shape,
                )
                streams.append(rt._elements(segment, block_in))
            sink = _RecordingSink(events)
            marker = len(events)
            for value in heapq.merge(*streams):
                rt.iterations += 1
                sink.append(value)
            groups.append(
                [encode_rt(value, allow_files=False) for value in sink.values]
            )
            events.append(("g", marker))
        return {
            "groups": groups,
            "events": events,
            "iterations": rt.iterations,
            "io_time": {
                name: store.io_time for name, store in stores.items()
            },
        }
    except Exception as exc:  # lint: allow-broad-except
        return {"bail": f"{type(exc).__name__}: {exc}"}
    finally:
        _close_context(stores, scratch)


# ----------------------------------------------------------------------
# Parent-side dispatch and replay
# ----------------------------------------------------------------------
def _shippable_config(config):
    """The picklable projection of an execution config."""
    if config.cache is None:
        return config
    return dataclasses.replace(config, cache=None)


def _dispatch(rt, fn, payloads):
    """Fan payloads over the run's persistent pool; ``None`` on failure."""
    pool = rt.worker_pool()
    if pool is None:
        return None
    # Flush device buffers so workers see every written byte.
    for store in rt.stores.values():
        store.flush_all()
    try:
        return pool.map_ordered(fn, payloads)
    except Exception:  # lint: allow-broad-except
        return None


def _replay_events(rt, events, values, sink):
    """Walk one worker's chronological log against the parent's state."""
    index = 0
    for event in events:
        kind = event[0]
        if kind == "a":
            count = event[1]
            for value in values[index : index + count]:
                sink.append(value)
            index += count
        elif kind == "r":
            _, device, path, offset, nbytes = event
            rt.stores[device].phantom_read(path, offset, nbytes)
        elif kind == "w":
            _, device, path, offset, nbytes = event
            rt.stores[device].phantom_write(path, offset, nbytes)
        elif kind == "x":
            _, device, path = event
            rt.stores[device].phantom_release(path)


def _absorb_counters(rt, result) -> None:
    rt.iterations += result.get("iterations", 0.0)
    rt.hashes += result.get("hashes", 0.0)
    for name, seconds in result.get("io_time", {}).items():
        store = rt.stores.get(name)
        if store is not None:
            store.io_time += seconds


def parallel_flatmap(rt, fn, source, env: dict, sink):
    """Fan a flatMap's element loop over worker processes.

    Returns the list of chunk results replayed into ``sink`` (the real
    builder), or ``rt.NOT_PARALLEL`` when the loop is ineligible or any
    worker bailed — the caller then runs the serial loop.  ``sink`` must
    be untouched-so-far for the fallback to be exact, which holds
    because replay starts only after every chunk returned successfully.
    """
    inner_fn = fn.fn
    if not isinstance(inner_fn, Lam):
        return rt.NOT_PARALLEL
    try:
        fn_doc = encode_rt(inner_fn)
        env_doc = {}
        for name in sorted(free_vars(inner_fn)):
            if name in env:
                env_doc[name] = encode_rt(env[name])
        plan = getattr(rt, "fault_plan", None)
        base = {
            "config": _shippable_config(rt.config),
            "devices": sorted(rt.stores),
            "fn": fn_doc,
            "env": env_doc,
        }
        payloads = []
        if isinstance(source, FileList):
            # Chunk at READ_CHUNK boundaries so every worker request has
            # the size and offset the serial loop's requests would have.
            blocks = (len(source) + _READ_CHUNK - 1) // _READ_CHUNK
            if blocks < 2:
                return rt.NOT_PARALLEL
            source_doc = encode_rt(source)
            for lo, hi in chunk_slices(blocks, rt.workers):
                payloads.append(
                    dict(
                        base,
                        source=source_doc,
                        range=(
                            lo * _READ_CHUNK,
                            min(hi * _READ_CHUNK, len(source)),
                        ),
                        elements=None,
                        faults=(
                            None if plan is None
                            else plan.child_doc(len(payloads))
                        ),
                    )
                )
        else:
            if len(source) < 2:
                return rt.NOT_PARALLEL
            elements = [
                encode_rt(element) for element in source.materialize()
            ]
            for lo, hi in chunk_slices(len(elements), rt.workers):
                payloads.append(
                    dict(
                        base, source=None, range=None,
                        elements=elements[lo:hi],
                        faults=(
                            None if plan is None
                            else plan.child_doc(len(payloads))
                        ),
                    )
                )
    except Unencodable:
        return rt.NOT_PARALLEL
    results = _dispatch(rt, _run_flatmap_chunk, payloads)
    if results is None:
        return rt.NOT_PARALLEL
    if any("bail" in result for result in results):
        return rt.NOT_PARALLEL
    try:
        decoded = [
            [decode_rt(doc) for doc in result["values"]]
            for result in results
        ]
    except Exception:  # lint: allow-broad-except
        return rt.NOT_PARALLEL
    for result, values in zip(results, decoded):
        _replay_events(rt, result["events"], values, sink)
        _absorb_counters(rt, result)
    return sink


def parallel_merge_level(rt, groups, block_in: int, writer):
    """Merge one external-sort level's run groups on worker processes.

    ``groups`` is the level's list of segment groups (each a list of
    ``(FileList, start, length)``).  Returns the per-group value counts
    after replaying every merged value into the real level ``writer``,
    or ``rt.NOT_PARALLEL`` to fall back to the serial merge.
    """
    try:
        encoded_groups = [
            [
                (encode_rt(lst), start, length)
                for lst, start, length in group
            ]
            for group in groups
        ]
    except Unencodable:
        return rt.NOT_PARALLEL
    plan = getattr(rt, "fault_plan", None)
    base = {
        "config": _shippable_config(rt.config),
        "devices": sorted(rt.stores),
        "block_in": block_in,
    }
    payloads = [
        dict(
            base,
            groups=encoded_groups[lo:hi],
            faults=None if plan is None else plan.child_doc(index),
        )
        for index, (lo, hi) in enumerate(
            chunk_slices(len(encoded_groups), rt.workers)
        )
    ]
    results = _dispatch(rt, _run_merge_groups, payloads)
    if results is None:
        return rt.NOT_PARALLEL
    if any("bail" in result for result in results):
        return rt.NOT_PARALLEL
    try:
        decoded = [
            [[decode_rt(doc) for doc in group] for group in result["groups"]]
            for result in results
        ]
    except Exception:  # lint: allow-broad-except
        return rt.NOT_PARALLEL
    counts: list[int] = []
    for result, chunk_groups in zip(results, decoded):
        # Group markers split the chunk's chronological log back into
        # per-group segments; each segment replays its reads (phantom)
        # and its merged values (real writer appends) in order.
        events = result["events"]
        cursor = 0
        group_index = 0
        for position, event in enumerate(events):
            if event[0] != "g":
                continue
            values = chunk_groups[group_index]
            segment = [
                ev for ev in events[cursor:position] if ev[0] != "g"
            ]
            _replay_merge_segment(rt, segment, values, writer)
            counts.append(len(values))
            cursor = position + 1
            group_index += 1
        _absorb_counters(rt, result)
    return counts


def _replay_merge_segment(rt, events, values, writer) -> None:
    index = 0
    for event in events:
        kind = event[0]
        if kind == "a":
            count = event[1]
            for value in values[index : index + count]:
                writer.append(value)
            index += count
        elif kind == "r":
            _, device, path, offset, nbytes = event
            rt.stores[device].phantom_read(path, offset, nbytes)
        elif kind == "w":  # pragma: no cover - merges only read
            _, device, path, offset, nbytes = event
            rt.stores[device].phantom_write(path, offset, nbytes)
        elif kind == "x":  # pragma: no cover - merges only read
            _, device, path = event
            rt.stores[device].phantom_release(path)

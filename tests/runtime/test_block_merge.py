"""The block-merge kernel against the element-wise merge it replaces.

``PrimitiveLibrary._block_merge`` (DESIGN.md §8.2, the merge kernel)
must be observationally ``heapq.merge`` over element streams feeding a
sink one ``append`` at a time: the same values in the same order, the
same iteration count, and the same ``(op, file, offset, nbytes)``
request log — every block read right after the last element before it
was emitted, every flush where the element-wise sink flushed.  The
reference lane below is a library whose merge, sort, zip and spilled
insertion step are the element-wise loops the kernel replaced.
"""

import heapq
import math
import os
import random
import sys

import pytest
from test_record_codec import LoggingStore, typed

from repro.codegen.py_codegen import compile_exec
from repro.hierarchy import MB, hdd_ram_hierarchy
from repro.ocal.builders import (
    app,
    empty,
    func_pow,
    mrg,
    tree_fold,
    tup,
    unfold_r,
    v,
    zip_,
)
from repro.ocal.interp import evaluate
from repro.runtime import AnalyticInterpreter, ExecutionConfig, InputSpec
from repro.runtime.accounting import merge_levels
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.runtime.filestore import (
    FileList,
    ListBuilder,
    MemList,
    Rec,
    RecordSink,
)
from repro.runtime.primitives import READ_CHUNK, PrimitiveLibrary


# ----------------------------------------------------------------------
# The reference lane: the element-wise loops
# ----------------------------------------------------------------------
def elements(lst, block):
    for chunk in lst.iter_blocks(block):
        for element in chunk:
            yield element[0] if isinstance(element, list) else element


class ElementWise(PrimitiveLibrary):
    """The library with every merge-shaped loop one element at a time."""

    def _merge_streams(self, lists, block, sink):
        for value in heapq.merge(*(elements(lst, block) for lst in lists)):
            self.iterations += 1
            sink.append(value)

    def _unfold_zip(self, lists, block, sink):
        iterators = [lst.iter_blocks(block) for lst in lists]
        while True:
            chunks = [next(iterator, None) for iterator in iterators]
            if any(chunk is None for chunk in chunks):
                break
            for row in zip(*chunks):
                self.iterations += 1
                sink.append(tuple(row))

    def _merge_into_file(self, acc, value):
        store = acc.store
        writer = RecordSink(
            store, store.new_file("sortacc"), acc.shape,
            max(1, int(self.budget) // 4),
        )
        placed = False
        for chunk in acc.iter_blocks(READ_CHUNK):
            for item in chunk:
                if not placed and value < item:
                    writer.append(value)
                    placed = True
                writer.append(item)
        if not placed:
            writer.append(value)
        result = writer.finish(sorted=True)
        store.release(acc.handle)
        return result

    def merge_sort(self, source, block_in, block_out, arity):
        if isinstance(source, MemList):
            return super().merge_sort(source, block_in, block_out, arity)
        shape = source.shape
        if isinstance(shape, tuple) and shape and shape[0] == "run":
            shape = shape[1]
        data = FileList(
            source.store, source.handle, source.base, source.length, shape
        )
        store = self.spill_store()
        segments = [(data, index, 1) for index in range(len(data))]
        while len(segments) > 1:
            writer = RecordSink(
                store, store.new_file("sortlevel"), shape, block_out
            )
            merged, written = [], 0
            for base in range(0, len(segments), arity):
                streams = [
                    elements(
                        FileList(
                            lst.store, lst.handle,
                            lst.base + start * lst.elem_bytes, length,
                            lst.shape,
                        ),
                        block_in,
                    )
                    for lst, start, length in segments[base : base + arity]
                ]
                count = 0
                for value in heapq.merge(*streams):
                    writer.append(value)
                    count += 1
                    self.iterations += 1
                merged.append((written, count))
                written += count
            level = writer.finish(sorted=True)
            segments = [(level, start, count) for start, count in merged]
        if not segments:
            return MemList([], sorted=True)
        lst, start, length = segments[0]
        return FileList(
            lst.store, lst.handle, lst.base + start * lst.elem_bytes,
            length, lst.shape, sorted=True,
        )


class RequestLog(LoggingStore):
    """``LoggingStore`` whose entries also name the file."""

    def read(self, handle, offset, nbytes):
        data = super().read(handle, offset, nbytes)
        self._name_last(handle)
        return data

    def write(self, handle, offset, data):
        super().write(handle, offset, data)
        self._name_last(handle)

    def _name_last(self, handle):
        op, offset, nbytes = self.log[-1]
        self.log[-1] = (op, os.path.basename(handle.name), offset, nbytes)


def lanes(tmp_path, budget, stage, run, faults=None):
    """Run ``run(rt, inputs)`` on the kernel and on the element-wise
    library, each over its own identically staged store; return both
    observations: result, iterations, request log, device counters."""
    observed = []
    for name, cls in (
        ("kernel", PrimitiveLibrary), ("reference", ElementWise)
    ):
        store = RequestLog("HDD", str(tmp_path / name))
        inputs = stage(store)
        store.reset_counters()
        store.log.clear()
        if faults is not None:
            store.faults = faults()
            store.retry = store.faults.retry
        config = ExecutionConfig(
            hierarchy=hdd_ram_hierarchy(budget), input_locations={}
        )
        rt = cls(config, {"HDD": store})
        result = run(rt, inputs)
        stats = store.stats
        observed.append({
            "result": result,
            "iterations": rt.iterations,
            "log": list(store.log),
            "counters": (
                stats.reads, stats.writes, stats.bytes_read,
                stats.bytes_written, stats.seeks, store.read_seeks,
                store.write_seeks,
            ),
            "retries": store.retries,
        })
        store.close()
    return observed


def agreed(observed):
    kernel, reference = observed
    assert kernel["log"] == reference["log"]
    assert kernel["counters"] == reference["counters"]
    assert kernel["iterations"] == reference["iterations"]
    assert kernel["result"] == reference["result"]
    return kernel


def values_of(value):
    value = value.finish() if isinstance(value, ListBuilder) else value
    return [typed(item) for item in value.materialize()]


# ----------------------------------------------------------------------
# Seeded stream generators
# ----------------------------------------------------------------------
KINDS = ("int", "record", "run")


def random_stream(rng, kind, length, domain, ordered=True):
    if kind == "record":
        # Records next to equal plain tuples: they compare (and tie) equal.
        items = [
            (rng.randrange(domain), rng.randrange(3)) for _ in range(length)
        ]
        items = [Rec(item, (8, 8)) if rng.random() < 0.5 else item
                 for item in items]
    else:
        items = [rng.randrange(domain) for _ in range(length)]
    if ordered:
        items.sort()
    if kind == "run":
        return [[item] for item in items]
    return items


def stage_streams(streams, on_file):
    """A staging function: each stream as a ``MemList`` or a file."""

    def stage(store):
        lists = []
        for index, (items, filed) in enumerate(zip(streams, on_file)):
            if not filed:
                lists.append(MemList(list(items), sorted=True))
                continue
            shape = (
                ("run", 8) if items and isinstance(items[0], list)
                else (8, 8) if items and isinstance(items[0], tuple)
                else 8
            )
            sink = RecordSink(store, store.new_file(f"in{index}"), shape, 64)
            sink.extend(list(items))
            lists.append(sink.finish(sorted=True))
        return lists

    return stage


def merge_case(seed, ordered=True):
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    count = rng.choice([0, 1, 1, 2, 3, 4, 5])
    domain = rng.choice([3, 10, 1000])
    streams = [
        random_stream(
            rng, kind, rng.choice([0, 1, 5, 17, 40]), domain, ordered
        )
        for _ in range(count)
    ]
    on_file = [rng.random() < 0.5 for _ in streams]
    block = rng.choice([1, 2, 3, 7, 16, 64])
    budget = rng.choice([48, 160, 1 << 20])
    return streams, on_file, block, budget


def merged_into_builder(block):
    def run(rt, lists):
        sink = rt._builder("unfold")
        rt._merge_streams(lists, block, sink)
        return values_of(sink)

    return run


# ----------------------------------------------------------------------
# The kernel ≡ heapq.merge feeding append
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(60))
def test_merge_streams_matches_element_wise_merge(tmp_path, seed):
    streams, on_file, block, budget = merge_case(seed)
    agreed(lanes(
        tmp_path, budget, stage_streams(streams, on_file),
        merged_into_builder(block),
    ))


@pytest.mark.parametrize("seed", range(30))
def test_unsorted_streams_fall_back_to_heapq_continuation(tmp_path, seed):
    streams, on_file, block, budget = merge_case(seed, ordered=False)
    agreed(lanes(
        tmp_path, budget, stage_streams(streams, on_file),
        merged_into_builder(block),
    ))


def test_a_late_unsorted_block_continues_element_wise(tmp_path):
    # Ascending within every block of 3, descending across the second
    # boundary of the first stream: the kernel merges block-wise up to
    # there and element-wise after.
    streams = [[1, 4, 9, 10, 11, 12, 2, 3, 5], [0, 2, 4, 6, 8, 10, 12, 14]]
    for on_file in ([True, True], [False, True], [False, False]):
        agreed(lanes(
            tmp_path / str(on_file), 48, stage_streams(streams, on_file),
            merged_into_builder(3),
        ))


def test_ties_emit_in_stream_order_with_their_own_objects():
    # Equal keys across streams come out lower stream first, and a Rec
    # stays a Rec next to the plain tuple it equals.
    streams = [
        [(1, 1), Rec((2, 2), (8, 8)), (2, 2)],
        [Rec((1, 1), (8, 8)), (2, 2), Rec((2, 2), (8, 8))],
        [(1, 1), (1, 1)],
    ]
    out = []
    rt = PrimitiveLibrary(
        ExecutionConfig(hierarchy=hdd_ram_hierarchy(MB), input_locations={}),
        {},
    )
    for block in (1, 2, 5):
        emitted = []
        rt._block_merge(
            [MemList(list(items)) for items in streams], block, emitted.extend
        )
        want = list(heapq.merge(*streams))
        assert [typed(x) for x in emitted] == [typed(x) for x in want]
        out.append(emitted)
    assert [type(x) for x in out[0][:4]] == [tuple, Rec, tuple, tuple]


def test_builder_spill_lands_mid_batch(tmp_path):
    # 40 + 40 ints into a 100-byte builder: it spills on its 13th value,
    # inside the first 16-block batch.
    streams = [list(range(0, 80, 2)), list(range(1, 80, 2))]
    kernel = agreed(lanes(
        tmp_path, 100, stage_streams(streams, [True, False]),
        merged_into_builder(16),
    ))
    assert kernel["result"] == [typed(x) for x in range(80)]
    assert any(op == "w" for op, *_ in kernel["log"])


# ----------------------------------------------------------------------
# merge_sort, zip, and the spilled insertion step
# ----------------------------------------------------------------------
def stage_runs(values, runs):
    def stage(store):
        shape = ("run", 8) if runs else 8
        sink = RecordSink(store, store.new_file("Rs"), shape, 4096)
        sink.extend([[x] for x in values] if runs else list(values))
        return sink.finish()

    return stage


@pytest.mark.parametrize(
    "length, arity, block_in, block_out",
    [
        (0, 2, 1, 8), (1, 3, 4, 8), (2, 2, 1, 8), (5, 2, 1, 16),
        (17, 3, 2, 24), (63, 4, 5, 40), (100, 5, 7, 8), (100, 8, 64, 800),
        (125, 5, 3, 64), (257, 2, 1, 8),
    ],
)
@pytest.mark.parametrize("runs", [True, False])
def test_merge_sort_matches_the_element_wise_levels(
    tmp_path, length, arity, block_in, block_out, runs
):
    rng = random.Random(length * 31 + arity)
    values = [rng.randrange(max(1, length // 3)) for _ in range(length)]

    def run(rt, source):
        return values_of(rt.merge_sort(source, block_in, block_out, arity))

    kernel = agreed(lanes(tmp_path, MB, stage_runs(values, runs), run))
    assert kernel["result"] == [typed(x) for x in sorted(values)]


def test_merge_sort_of_a_tail_view_drops_the_head(tmp_path):
    store = RequestLog("HDD", str(tmp_path))
    source = stage_runs([5, 1, 3, 2, 4], True)(store)
    rt = PrimitiveLibrary(
        ExecutionConfig(hierarchy=hdd_ram_hierarchy(MB), input_locations={}),
        {"HDD": store},
    )
    out = rt.merge_sort(source.tail().tail(), 2, 64, 2)
    assert out.materialize() == [2, 3, 4]
    store.close()


def test_merge_sort_recovers_counter_identically_from_transient_faults(
    tmp_path,
):
    rng = random.Random(5)
    values = [rng.randrange(50) for _ in range(300)]

    def run(rt, source):
        return values_of(rt.merge_sort(source, 6, 64, 3))

    def plan():
        return FaultPlan(
            seed=11,
            rates={
                "read_error": 0.2, "write_error": 0.2, "torn_write": 0.1,
                "enospc": 0.0, "latency": 0.1,
            },
            retry=RetryPolicy(attempts=12, base_delay=0.0),
        )

    stage = stage_runs(values, True)
    faulted = agreed(lanes(tmp_path / "faulted", MB, stage, run, plan))
    clean = agreed(lanes(tmp_path / "clean", MB, stage, run))
    assert faulted["retries"] > 0
    assert faulted["log"] == clean["log"]
    assert faulted["counters"] == clean["counters"]
    assert faulted["result"] == clean["result"]


@pytest.mark.parametrize("lengths", [(0, 3), (5, 5), (9, 4, 7), (40, 40, 40)])
@pytest.mark.parametrize("block", [1, 3, 16])
def test_zip_matches_the_element_wise_rows(tmp_path, lengths, block):
    streams = [
        list(range(index, index + n)) for index, n in enumerate(lengths)
    ]

    def run(rt, lists):
        sink = rt._builder("zip")
        rt._unfold_zip(lists, block, sink)
        return values_of(sink)

    on_file = [True, False, True][: len(streams)]
    agreed(lanes(tmp_path, 96, stage_streams(streams, on_file), run))


def test_zip_of_no_lists_is_empty():
    # The element-wise loop never ended here; the interpreter says [].
    program = app(zip_(), tup())
    rt = PrimitiveLibrary(
        ExecutionConfig(hierarchy=hdd_ram_hierarchy(MB), input_locations={}),
        {},
    )
    assert compile_exec(program).fn({}, rt).materialize() == []
    assert evaluate(program, {}) == []


@pytest.mark.parametrize("seed", range(6))
def test_spilled_insertion_sort_matches_the_element_wise_step(tmp_path, seed):
    rng = random.Random(seed)
    values = [rng.randrange(20) for _ in range(rng.choice([30, 70]))]

    def run(rt, source):
        return values_of(rt._fold_merge(source, rng_block))

    rng_block = rng.choice([1, 4, 9])
    # 64 bytes of root: the accumulator spills after eight values and
    # every later insertion re-streams it through the step.
    agreed(lanes(tmp_path, 64, stage_runs(values, True), run))


# ----------------------------------------------------------------------
# ListBuilder.extend is flush- and spill-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [0, 24, 100, 7 * 24, 1 << 20])
@pytest.mark.parametrize("slices", [1, 2, 5, 23])
def test_builder_extend_spills_on_the_value_append_spills_on(
    tmp_path, budget, slices
):
    values = [Rec((i, i * i), (8, 16)) for i in range(23)]
    logs = []
    for mode in ("append", "extend"):
        store = RequestLog("HDD", str(tmp_path / mode))
        builder = ListBuilder(budget, store, write_block=100, tag="out")
        if mode == "append":
            for value in values:
                builder.append(value)
        else:
            for base in range(0, len(values), slices):
                builder.extend(values[base : base + slices])
        result = builder.finish()
        logs.append((store.log, store.stats, values_of(result)))
        store.close()
    assert logs[0] == logs[1]


def test_builder_extend_of_lists_goes_through_in_blocks(tmp_path):
    store = RequestLog("HDD", str(tmp_path))
    sink = RecordSink(store, store.new_file("src"), 8, 64)
    sink.extend(list(range(20000)))
    source = sink.finish()
    store.log.clear()
    builder = ListBuilder(1 << 20, store)
    builder.extend(source)
    builder.extend(MemList(list(range(5))).tail())
    assert [op for op, *_ in store.log] == ["r", "r", "r"]
    assert builder.finish().materialize() == (
        list(range(20000)) + list(range(1, 5))
    )
    store.close()


@pytest.mark.parametrize("budget", [24, 40, 1 << 20])
def test_builder_extend_of_its_own_items(tmp_path, budget):
    # ``x ⊔ x`` on a builder: the list it extends with is its own.
    observed = []
    for mode in ("append", "extend"):
        store = RequestLog("HDD", str(tmp_path / mode))
        builder = ListBuilder(budget, store, write_block=16)
        builder.extend([1, 2])
        if mode == "append":
            for value in [1, 2]:
                builder.append(value)
        else:
            builder.extend(builder.finish())
        observed.append((values_of(builder), store.log))
        store.close()
    assert observed[0] == observed[1]
    assert observed[1][0] == [typed(x) for x in (1, 2, 1, 2)]


# ----------------------------------------------------------------------
# Merge level counts
# ----------------------------------------------------------------------
def brute_levels(runs, arity):
    levels = 0
    while arity**levels < runs:
        levels += 1
    return levels


@pytest.mark.parametrize(
    "runs, arity, levels",
    [(2**29, 2, 29), (2**21, 8, 7), (125, 5, 3), (216, 6, 3)],
)
def test_merge_levels_at_exact_powers(runs, arity, levels):
    # The float logarithm overshoots at each of these.
    assert math.ceil(math.log(runs, arity)) == levels + 1
    assert merge_levels(runs, arity) == levels
    assert merge_levels(float(runs), arity) == levels


def test_merge_levels_sweep():
    for arity in range(2, 11):
        for runs in range(0, 3000):
            assert merge_levels(runs, arity) == brute_levels(runs, arity)
        for power in range(1, 40):
            for runs in (arity**power - 1, arity**power, arity**power + 1):
                assert merge_levels(runs, arity) == brute_levels(runs, arity)
    with pytest.raises(ValueError):
        merge_levels(10, 1)


def test_sim_treefold_charges_exact_levels():
    sort = app(
        tree_fold(8, empty(), unfold_r(func_pow(3, mrg()),
                                       block_in=2**12, block_out=2**15)),
        v("Rs"),
    )
    config = ExecutionConfig(
        hierarchy=hdd_ram_hierarchy(32 * MB),
        input_locations={"Rs": "HDD"},
        output_location="HDD",
    )
    result = AnalyticInterpreter(config).run(sort, {"Rs": InputSpec(2**21, 8)})
    assert result.stats.tuples_processed == 2**21 * 7


def test_in_memory_merge_sort_counts_exact_levels():
    rt = PrimitiveLibrary(
        ExecutionConfig(hierarchy=hdd_ram_hierarchy(MB), input_locations={}),
        {},
    )
    values = list(range(125, 0, -1))
    out = rt.merge_sort(MemList(values), 1, 1, 5)
    assert out.materialize() == sorted(values)
    assert rt.iterations == 125 * 3


# ----------------------------------------------------------------------
# The benchmark's merge programs: the full device counters, read side
# included, as the element-wise primitives produced them
# ----------------------------------------------------------------------
ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: (reads, writes, bytes_read, bytes_written, seeks, erases) on HDD and
#: the iteration count of each ``exec-merge`` program at seed 1.
EXEC_MERGE_COUNTERS = {
    "external-sort": ((22328, 6041, 917504.0, 917504.0, 5096, 0), 114688.0),
    "multiset-union": ((364, 512, 1048576.0, 1048576.0, 623, 0), 131072.0),
    "column-store-5": ((805, 631, 1310720.0, 1310720.0, 965, 0), 32768.0),
}


def test_exec_merge_programs_keep_their_device_counters():
    sys.path.insert(0, ROOT)
    try:
        from perf.inputs import generate_inputs
        from perf.workloads import ExecMerge, _scaled
    finally:
        sys.path.remove(ROOT)
    from repro.api import Session
    from repro.runtime.compiled_backend import CompiledBackend

    session = Session()
    seen = {}
    for name, rows in ExecMerge.programs:
        experiment = _scaled(name, rows)
        job = session.synthesize(experiment)
        result = CompiledBackend(
            data=generate_inputs(experiment, 1)
        ).run(job.program, job.inputs, job.config)
        (device, stats), = result.stats.devices.items()
        assert device == "HDD"
        seen[name] = (
            (
                stats.reads, stats.writes, stats.bytes_read,
                stats.bytes_written, stats.seeks, stats.erases,
            ),
            result.stats.tuples_processed,
        )
    assert seen == EXEC_MERGE_COUNTERS

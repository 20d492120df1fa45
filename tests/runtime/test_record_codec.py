"""The compiled record codec against the reference walk (DESIGN.md §8.2).

``codec_for(shape)`` must be observationally the recursive
``encode_value`` / ``decode_record`` pair: the same bytes, the same
decoded values (``Rec`` type and ``.widths`` included), the same error
for a value that does not fit its shape.  And deferring the encoding to
the flush must not move a flush: the request logs below are the ones the
byte-buffering writers of the parent commit produced.
"""

import random

import pytest

from repro.runtime.filestore import (
    DeviceStore,
    ListBuilder,
    Rec,
    RecordSink,
    codec_for,
    decode_record,
    encode_value,
    flat_width,
    shape_of,
)


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
def random_shape(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        return rng.choice([8, 8, 16, 24, 512])
    if roll < 0.45:
        return ("run", random_shape(rng, depth + 1))
    if roll < 0.75:
        # Flat record: what joins and generated relations store.
        return tuple(
            rng.choice([8, 8, 504]) for _ in range(rng.randint(0, 4))
        )
    return tuple(
        random_shape(rng, depth + 1) for _ in range(rng.randint(1, 3))
    )


def random_value(rng, shape, odd=0.0):
    """A value of ``shape``; with probability ``odd`` per node, one the
    fast path does not cover (coerced, re-wrapped, or plain wrong)."""
    strange = rng.random() < odd
    if isinstance(shape, int):
        number = rng.randint(-(2**63), 2**63 - 1)
        if not strange:
            return number
        return rng.choice(
            [True, float(number % 1000) + 0.5, Rec((number, 5), (8, 8)),
             str(number), 2**63, (number,)]
        )
    if shape and shape[0] == "run":
        inner = random_value(rng, shape[1], odd)
        return (inner,) if strange else [inner]
    items = [random_value(rng, sub, odd) for sub in shape]
    if strange:
        return rng.choice(
            [tuple(items[:-1]), tuple(items + [0]), list(items)]
        )
    if all(isinstance(sub, int) for sub in shape) and rng.random() < 0.7:
        return Rec(items, shape)
    return tuple(items)


def reference_encode(values, shape) -> bytes:
    out = bytearray()
    for value in values:
        encode_value(value, shape, out)
    return bytes(out)


def reference_decode(data, count, shape) -> list:
    view = memoryview(data)
    values, offset = [], 0
    for _ in range(count):
        value, offset = decode_record(view, offset, shape)
        values.append(value)
    assert offset == len(data)
    return values


def typed(value):
    """The value with every container's type (and a Rec's widths)."""
    if isinstance(value, Rec):
        return ("Rec", value.widths, tuple(typed(item) for item in value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(typed(item) for item in value))
    return (type(value).__name__, value)


def outcome(call):
    try:
        return ("ok", call())
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return (type(error).__name__, str(error))


# ----------------------------------------------------------------------
# Codec == reference walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_codec_matches_reference_walk_on_random_shapes(seed):
    rng = random.Random(f"codec-{seed}")
    for _ in range(60):
        shape = random_shape(rng)
        codec = codec_for(shape)
        values = [random_value(rng, shape) for _ in range(rng.randint(0, 9))]
        want = reference_encode(values, shape)
        data = codec.encode(values)
        assert data == want, shape
        assert len(data) == len(values) * codec.width
        decoded = codec.decode(data, len(values))
        assert [typed(v) for v in decoded] == [
            typed(v) for v in reference_decode(want, len(values), shape)
        ], shape


@pytest.mark.parametrize("seed", range(8))
def test_uncovered_values_take_the_reference_path(seed):
    """Bools, floats, a Rec at an int leaf, wrong arity, wrong container:
    same bytes where the walk coerces, same error where it refuses."""
    rng = random.Random(f"odd-{seed}")
    errors = 0
    for _ in range(120):
        shape = random_shape(rng)
        values = [
            random_value(rng, shape, odd=0.15)
            for _ in range(rng.randint(1, 6))
        ]
        want = outcome(lambda: reference_encode(values, shape))
        got = outcome(lambda: codec_for(shape).encode(values))
        assert got == want, (shape, values)
        errors += want[0] != "ok"
    assert errors  # the batch really exercised the error path


@pytest.mark.parametrize(
    "shape, value",
    [
        ((8, 8), Rec((1, 2, 3), (8, 8, 8))),
        ((8, 8), (1,)),
        (((8, 504), (8, 504)), (Rec((1, 2), (8, 504)),)),
        (((8, 8), (8, 8)), ((1, 2, 3), (4,))),
        ((8, (8, 8)), [1, (2, 3)]),
    ],
)
def test_arity_and_container_mismatch_raise_the_reference_error(shape, value):
    with pytest.raises(ValueError) as want:
        reference_encode([value], shape)
    with pytest.raises(ValueError) as got:
        codec_for(shape).encode([value])
    assert str(got.value) == str(want.value)
    assert "does not match shape" in str(got.value)


def test_coercions_match_the_walk():
    pair = ((8, 504), (8, 504))
    left, right = Rec((7, 1), (8, 504)), Rec((9, 2), (8, 504))
    assert codec_for(pair).encode([(left, right)]) == reference_encode(
        [(left, right)], pair
    )
    # bool / float fields and a Rec standing at an int leaf.
    assert codec_for((8, 16)).encode([(True, 2.9)]) == reference_encode(
        [(1, 2)], (8, 16)
    )
    assert codec_for(8).encode([left]) == reference_encode([7], 8)
    assert codec_for(("run", 8)).encode([[5]]) == reference_encode([5], 8)


def test_struct_format_carries_the_padding():
    codec = codec_for((512, 512))  # "<q504xq504x"
    assert codec.width == 1024 == flat_width((512, 512))
    data = codec.encode([Rec((-1, -1), (512, 512))])
    assert data == (b"\xff" * 8 + bytes(504)) * 2
    assert codec_for((512, 512)) is codec  # cached by shape


def test_zero_width_records_round_trip():
    codec = codec_for(())
    assert codec.width == 0 and codec.encode([(), ()]) == b""
    assert [typed(v) for v in codec.decode(b"", 2)] == [
        typed(v) for v in reference_decode(b"", 2, ())
    ]


# ----------------------------------------------------------------------
# Widths below one int field
# ----------------------------------------------------------------------
class TestNarrowWidthsAreRejected:
    """``encode_value`` writes 8 bytes per field whatever the width, so
    a width below 8 would shift every later offset."""

    @pytest.mark.parametrize(
        "shape", [(4, 8), 4, ("run", 7), ((8, 8), (8, 0)), (8, True)]
    )
    def test_codec_build_names_the_shape(self, shape):
        with pytest.raises(ValueError, match="below 8") as error:
            codec_for(shape)
        assert repr(shape) in str(error.value)

    def test_flat_width_and_writers_reject_too(self, tmp_path):
        bad = Rec((1, 2), (4, 8))
        with pytest.raises(ValueError, match="below 8"):
            flat_width(shape_of(bad))
        store = DeviceStore("HDD", str(tmp_path))
        try:
            with pytest.raises(ValueError, match="below 8"):
                RecordSink(store, store.new_file("out"), shape_of(bad), 64)
            with pytest.raises(ValueError, match="below 8"):
                ListBuilder(0, store).append(bad)
        finally:
            store.close()

    def test_bad_shapes_still_raise(self):
        with pytest.raises(ValueError, match="bad shape"):
            flat_width("8")


# ----------------------------------------------------------------------
# Flush points
# ----------------------------------------------------------------------
SHAPE = (8, 16)  # 24-byte records against a 100-byte write block


def records(count):
    return [Rec((index, index * index), SHAPE) for index in range(count)]


class LoggingStore(DeviceStore):
    def __init__(self, name, directory):
        super().__init__(name, directory)
        self.log = []

    def read(self, handle, offset, nbytes):
        data = super().read(handle, offset, nbytes)
        self.log.append(("r", offset, len(data)))
        return data

    def write(self, handle, offset, data):
        super().write(handle, offset, data)
        self.log.append(("w", offset, len(data)))


@pytest.fixture
def store(tmp_path):
    store = LoggingStore("HDD", str(tmp_path))
    yield store
    store.close()


def staged_source(store):
    source = RecordSink(store, store.new_file("in"), SHAPE, 1 << 20)
    source.extend(records(23))
    source = source.finish()
    store.reset_counters()
    store.log.clear()
    return source


# The parent commit's byte-buffering writers, same scenario: 23 records
# read three at a time from the same device, written through a 100-byte
# block (five records reach it), the builder spilling on its eighth.
PARENT_SINK_LOG = [
    ("r", 0, 72), ("r", 72, 72), ("w", 0, 120),
    ("r", 144, 72), ("r", 216, 72), ("w", 120, 120),
    ("r", 288, 72), ("w", 240, 120),
    ("r", 360, 72), ("r", 432, 72), ("w", 360, 120),
    ("r", 504, 48), ("w", 480, 72),
]
PARENT_BUILDER_LOG = [
    ("r", 0, 72), ("r", 72, 72), ("r", 144, 72), ("w", 0, 120),
    ("r", 216, 72), ("w", 120, 120),
    ("r", 288, 72), ("w", 240, 120),
    ("r", 360, 72), ("r", 432, 72), ("w", 360, 120),
    ("r", 504, 48), ("w", 480, 72),
]
#: writes, bytes_written, seeks, read_seeks, write_seeks — both writers.
PARENT_COUNTERS = (5, 552, 10, 5, 5)


@pytest.mark.parametrize(
    "writer, want_log",
    [("sink", PARENT_SINK_LOG), ("builder", PARENT_BUILDER_LOG)],
)
def test_flush_points_match_the_byte_buffered_writers(store, writer, want_log):
    source = staged_source(store)
    if writer == "sink":
        out = RecordSink(store, store.new_file("out"), SHAPE, 100)
    else:
        out = ListBuilder(7 * 24, store, write_block=100, tag="out")
    for chunk in source.iter_blocks(3):
        for value in chunk:
            out.append(value)
    result = out.finish()
    assert store.log == want_log
    stats = store.stats
    assert (
        stats.writes, stats.bytes_written, stats.seeks,
        store.read_seeks, store.write_seeks,
    ) == PARENT_COUNTERS
    assert [typed(v) for v in result.materialize()] == [
        typed(v) for v in records(23)
    ]


@pytest.mark.parametrize("chunk", [1, 2, 5, 7, 23])
def test_extend_flushes_where_append_would(store, chunk):
    values = records(23)
    out = RecordSink(store, store.new_file("out"), SHAPE, 100)
    out.append(values[0])
    for base in range(1, len(values), chunk):
        out.extend(values[base : base + chunk])
    result = out.finish()
    assert store.log == [
        ("w", 0, 120), ("w", 120, 120), ("w", 240, 120), ("w", 360, 120),
        ("w", 480, 72),
    ]
    assert len(result) == 23 and result.materialize() == values

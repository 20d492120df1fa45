"""The fault-injection substrate (``repro.runtime.faults``, DESIGN.md §16).

Pins the three contracts the chaos lane builds on:

* **determinism** — one ``FaultPlan`` (seed, rates, triggers) yields one
  fault schedule; specs, docs and env round-trip exactly;
* **counter-identical recovery** — a run that absorbs only transient
  faults finishes with the same output *and* the same per-device
  read/write/seek counters as the fault-free run, because injection
  happens before side effects and accounting;
* **typed permanent failure** — retries exhausted, injected ENOSPC, or
  a deterministic trigger surface as a positioned
  :class:`ExecutionFault` (device, op, offset), never a raw traceback.
"""

import errno

import pytest

from repro.hierarchy import KB, hdd_ram_hierarchy
from repro.ocal.builders import (
    app,
    empty,
    func_pow,
    mrg,
    tree_fold,
    unfold_r,
    v,
)
from repro.runtime import ExecutionConfig, FileBackend, InputSpec
from repro.runtime.filestore import DeviceStore, FileList, Rec, RecordSink
from repro.runtime.faults import (
    CHAOS_RATES,
    DEFAULT_RATES,
    DEFAULT_RETRY,
    FAULTS_ENV,
    RATE_KEYS,
    ExecutionFault,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    backoff_delays,
)

#: rates that inject nothing — the explicit "off" plan.
ZERO = {key: 0.0 for key in RATE_KEYS}

#: heavy but purely transient rates: every fault is recoverable.
TRANSIENT = {
    "read_error": 0.2,
    "write_error": 0.2,
    "torn_write": 0.1,
    "enospc": 0.0,
    "latency": 0.1,
}


def transient_plan(seed):
    """Heavy transient faults with a retry budget deep enough that the
    chance of exhausting it (0.2 ** 12 per request) is negligible —
    these plans exercise *recovery*, never permanent failure."""
    return FaultPlan(
        seed=seed,
        rates=TRANSIENT,
        retry=RetryPolicy(attempts=12, base_delay=0.0),
    )


def sort_program():
    return app(
        tree_fold(
            2,
            empty(),
            unfold_r(func_pow(1, mrg()), block_in=2**6, block_out=2**10),
        ),
        v("Rs"),
    )


def run_sort(tmp_path, name, faults, cards=400):
    """One external sort on a tiny (8 KB) root, forcing real HDD I/O."""
    backend = FileBackend(
        workdir=str(tmp_path / name),
        seed=5,
        capture_output=True,
        faults=faults,
    )
    result = backend.run(
        sort_program(),
        {"Rs": InputSpec(cards, 8, nested_runs=True)},
        ExecutionConfig(
            hierarchy=hdd_ram_hierarchy(8 * KB),
            input_locations={"Rs": "HDD"},
            output_location="HDD",
        ),
    )
    return backend, result


class TestSpecParsing:
    def test_bare_seed(self):
        plan = FaultPlan.from_spec("7")
        assert plan.seed == 7
        assert plan.rates == DEFAULT_RATES

    def test_empty_spec_means_disabled(self):
        assert FaultPlan.from_spec("") is None
        assert FaultPlan.from_spec("   ") is None

    def test_key_value_spec(self):
        plan = FaultPlan.from_spec(
            "seed=3,read_error=0.5,latency_seconds=0,attempts=6"
        )
        assert plan.seed == 3
        assert plan.rates["read_error"] == 0.5
        assert plan.rates["write_error"] == DEFAULT_RATES["write_error"]
        assert plan.latency_seconds == 0.0
        assert plan.retry.attempts == 6

    def test_per_device_override_and_allow_list(self):
        plan = FaultPlan.from_spec(
            "seed=1,devices=HDD|SSD,HDD.read_error=0.25"
        )
        assert plan.devices == frozenset({"HDD", "SSD"})
        assert plan._rate("HDD", "read_error") == 0.25
        assert plan._rate("SSD", "read_error") == DEFAULT_RATES["read_error"]

    def test_deterministic_trigger_spec(self):
        plan = FaultPlan.from_spec("seed=0,HDD.fail_read_at=3")
        assert plan.fail_at == {("HDD", "read"): 3}

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("read_error")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("warp_drive=0.5")
        with pytest.raises(ValueError):
            FaultPlan(rates={"warp_drive": 0.5})

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "9")
        assert FaultPlan.from_env().seed == 9

    def test_doc_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=4,devices=HDD,HDD.write_error=0.3,HDD.fail_write_at=2"
        )
        clone = FaultPlan.from_doc(plan.to_doc())
        assert clone.to_doc() == plan.to_doc()
        assert clone.retry == plan.retry


class TestDeterminism:
    def test_same_seed_same_schedule(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            plan = transient_plan(11)
            run_sort(tmp_path, name, plan)
            logs.append(plan.log)
        assert logs[0] == logs[1]
        assert logs[0]  # heavy rates on a forced-out-of-core sort inject

    def test_child_plans_are_reproducible_and_distinct(self):
        parent = FaultPlan(seed=11, rates=TRANSIENT)
        assert parent.child_doc(0) == parent.child_doc(0)
        assert parent.child(0).seed != parent.child(1).seed
        assert parent.child(0).fail_at == {}  # triggers stay parent-only


class TestRecovery:
    def test_recovered_run_is_counter_identical(self, tmp_path):
        _, clean = run_sort(
            tmp_path, "clean", FaultPlan(seed=0, rates=ZERO)
        )
        faulty_plan = transient_plan(11)
        backend, faulty = run_sort(tmp_path, "faulty", faulty_plan)
        assert faulty_plan.injected > 0
        assert faulty.output_card == clean.output_card
        for device in ("HDD", "RAM"):
            want = clean.stats.device(device)
            got = faulty.stats.device(device)
            assert (got.reads, got.writes, got.seeks) == (
                want.reads,
                want.writes,
                want.seeks,
            )
            assert (got.bytes_read, got.bytes_written) == (
                want.bytes_read,
                want.bytes_written,
            )

    def test_no_plan_matches_zero_plan(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        _, off = run_sort(tmp_path, "off", None)
        _, zero = run_sort(tmp_path, "zero", FaultPlan(seed=0, rates=ZERO))
        hdd_off = off.stats.device("HDD")
        hdd_zero = zero.stats.device("HDD")
        assert (hdd_off.reads, hdd_off.writes, hdd_off.bytes_read) == (
            hdd_zero.reads,
            hdd_zero.writes,
            hdd_zero.bytes_read,
        )


class TestPermanentFaults:
    def test_trigger_surfaces_positioned_fault(self, tmp_path):
        plan = FaultPlan(
            seed=0, rates=ZERO, fail_at={("HDD", "read"): 1}
        )
        with pytest.raises(ExecutionFault) as excinfo:
            run_sort(tmp_path, "trigger", plan)
        fault = excinfo.value
        assert fault.device == "HDD"
        assert fault.op == "read"
        assert fault.offset >= 0
        assert "injected trigger fault" in str(fault)

    def test_injected_enospc_is_permanent(self, tmp_path):
        plan = FaultPlan(
            seed=0, rates=dict(ZERO, enospc=1.0), latency_seconds=0.0
        )
        with pytest.raises(ExecutionFault, match="device full"):
            run_sort(tmp_path, "full", plan)

    def test_retries_exhaust_into_execution_fault(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            rates=dict(ZERO, write_error=1.0),
            retry=RetryPolicy(attempts=2, base_delay=0.0),
        )
        with pytest.raises(ExecutionFault, match="gave up after"):
            run_sort(tmp_path, "hopeless", plan)

    def test_injected_fault_is_a_real_oserror(self):
        fault = InjectedFault("HDD", "read", 128, "read-error")
        assert isinstance(fault, OSError)
        assert fault.errno is not None
        assert fault.device == "HDD" and fault.offset == 128


class TestShortRead:
    """A file shorter than its list claims is a positioned fault, not a
    raw ``struct.error`` out of the decoder."""

    SHAPE = (8, 16)

    def stored(self, tmp_path, count=5):
        store = DeviceStore("HDD", str(tmp_path))
        sink = RecordSink(store, store.new_file("rel"), self.SHAPE, 1 << 20)
        sink.extend([Rec((i, -i), self.SHAPE) for i in range(count)])
        return store, sink.finish()

    def test_truncated_file(self, tmp_path):
        store, records = self.stored(tmp_path)
        records.handle.truncate(3 * 24 + 7)
        with pytest.raises(ExecutionFault) as excinfo:
            records.materialize()
        fault = excinfo.value
        assert (fault.device, fault.op, fault.offset) == ("HDD", "read", 0)
        assert fault.reason == "short read: got 79 of 120 bytes"
        store.close()

    def test_length_beyond_the_file(self, tmp_path):
        store, records = self.stored(tmp_path)
        longer = FileList(store, records.handle, 0, 7, self.SHAPE)
        assert len(next(longer.iter_blocks(5))) == 5
        with pytest.raises(ExecutionFault, match="got 0 of 48") as excinfo:
            list(longer.iter_blocks(5))
        assert excinfo.value.offset == 120
        store.close()


class _FlakyHandle:
    """A file whose first ``failures`` reads/writes raise a real EIO."""

    def __init__(self, handle, failures, code=errno.EIO):
        self.handle = handle
        self.name = handle.name
        self.failures = failures
        self.code = code

    def seek(self, offset):
        return self.handle.seek(offset)

    def _maybe_fail(self):
        if self.failures:
            self.failures -= 1
            raise OSError(self.code, "flaky device")

    def read(self, nbytes):
        self._maybe_fail()
        return self.handle.read(nbytes)

    def write(self, data):
        self._maybe_fail()
        return self.handle.write(data)


class TestRealErrorsWithoutAPlan:
    """With no fault plan attached the request is attempted inline; a
    real ``OSError`` must still go through the bounded retry, counted as
    the first failure, and counters advance once per logical request."""

    def test_transient_error_is_retried_once(self, tmp_path):
        store = DeviceStore("HDD", str(tmp_path))
        handle = _FlakyHandle(store.new_file("f"), failures=1)
        store.write(handle, 0, b"x" * 32)
        assert (store.retries, store.faults_seen) == (1, 1)
        handle.failures = 2
        assert store.read(handle, 0, 32) == b"x" * 32
        assert (store.retries, store.faults_seen) == (3, 3)
        stats = store.stats
        assert (stats.reads, stats.writes) == (1, 1)
        assert (stats.bytes_read, stats.bytes_written) == (32, 32)
        assert stats.seeks == 2  # one per request, none per retry
        store.close()

    def test_attempt_budget_counts_the_inline_attempt(self, tmp_path):
        store = DeviceStore("HDD", str(tmp_path))
        store.retry = RetryPolicy(attempts=2, base_delay=0.0)
        handle = _FlakyHandle(store.new_file("f"), failures=2)
        with pytest.raises(ExecutionFault, match="gave up after 2 attempts"):
            store.read(handle, 8, 16)
        assert handle.failures == 0 and store.stats.reads == 0
        store.close()

    def test_real_enospc_is_permanent(self, tmp_path):
        store = DeviceStore("HDD", str(tmp_path))
        handle = _FlakyHandle(store.new_file("f"), 5, code=errno.ENOSPC)
        with pytest.raises(ExecutionFault, match="device full") as excinfo:
            store.write(handle, 64, b"y")
        assert (excinfo.value.op, excinfo.value.offset) == ("write", 64)
        assert handle.failures == 4 and store.retries == 0
        store.close()


class TestBackoff:
    def test_exact_schedule_without_jitter(self):
        policy = RetryPolicy(
            attempts=4, base_delay=0.01, factor=2.0, max_delay=0.03
        )
        assert list(backoff_delays(policy)) == [0.01, 0.02, 0.03]

    def test_jitter_stays_within_band(self):
        import random

        policy = RetryPolicy(attempts=5, base_delay=0.01, max_delay=1.0)
        exact = list(backoff_delays(policy))
        jittered = list(
            backoff_delays(policy, jitter=random.Random("pin"))
        )
        for base, got in zip(exact, jittered):
            assert 0.5 * base <= got < 1.5 * base

    def test_single_attempt_means_no_delays(self):
        assert list(backoff_delays(RetryPolicy(attempts=1))) == []

    def test_default_retry_sleeps_nothing(self):
        assert all(d == 0.0 for d in backoff_delays(DEFAULT_RETRY))


class TestChaosRates:
    def test_rate_tables_cover_all_keys(self):
        assert set(DEFAULT_RATES) == set(RATE_KEYS)
        assert set(CHAOS_RATES) == set(RATE_KEYS)

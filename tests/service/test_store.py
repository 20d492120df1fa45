"""The disk-backed plan store: round trips, corruption, format gates."""

import json
import os

import pytest

from repro.api.job import PLAN_FORMAT
from repro.service.store import STORE_FORMAT, PlanStore

DIGEST = "ab" * 32
PLAN = {"format": PLAN_FORMAT, "workload": "aggregation"}
SEARCH = {"steps": 2, "costed": 9}


def put_one(store, digest=DIGEST):
    return store.put(
        digest,
        request={"workload": "aggregation"},
        plan=dict(PLAN),
        search=dict(SEARCH),
        synth_seconds=0.25,
    )


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = PlanStore(str(tmp_path))
        put_one(store)
        record = store.get(DIGEST)
        assert record["plan"] == PLAN
        assert record["search"] == SEARCH
        assert record["digest"] == DIGEST
        assert record["format"] == STORE_FORMAT

    def test_survives_reopen(self, tmp_path):
        put_one(PlanStore(str(tmp_path)))
        assert PlanStore(str(tmp_path)).get(DIGEST)["plan"] == PLAN

    def test_miss_is_none(self, tmp_path):
        assert PlanStore(str(tmp_path)).get("cd" * 32) is None

    def test_len_contains_digests(self, tmp_path):
        store = PlanStore(str(tmp_path))
        assert len(store) == 0 and DIGEST not in store
        put_one(store)
        assert len(store) == 1 and DIGEST in store
        assert store.digests() == [DIGEST]

    def test_overwrite_replaces(self, tmp_path):
        store = PlanStore(str(tmp_path))
        put_one(store)
        store.put(DIGEST, request={}, plan=dict(PLAN), search={"steps": 7},
                  synth_seconds=1.0)
        assert store.get(DIGEST)["search"] == {"steps": 7}
        assert len(store) == 1


class TestCorruptionAndFormats:
    def test_malformed_digest_rejected(self, tmp_path):
        store = PlanStore(str(tmp_path))
        for bad in ("", "../escape", "ABCD", "xy" * 32):
            with pytest.raises(ValueError):
                store.path_for(bad)

    def test_garbage_bytes_read_as_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        with open(store.path_for(DIGEST), "wb") as handle:
            handle.write(b"\x00\xff not json")
        assert store.get(DIGEST) is None

    def test_non_object_record_is_a_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        with open(store.path_for(DIGEST), "w") as handle:
            json.dump(["not", "a", "record"], handle)
        assert store.get(DIGEST) is None

    def test_stale_store_format_is_a_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        record = put_one(store)
        record["format"] = "repro-plan-store/0"
        with open(store.path_for(DIGEST), "w") as handle:
            json.dump(record, handle)
        assert store.get(DIGEST) is None

    def test_stale_plan_format_is_a_miss(self, tmp_path):
        # The record wraps a versioned plan document; a stale *inner*
        # tag must read as a miss too (exec would refuse to run it).
        store = PlanStore(str(tmp_path))
        record = put_one(store)
        record["plan"]["format"] = "repro-plan/0"
        with open(store.path_for(DIGEST), "w") as handle:
            json.dump(record, handle)
        assert store.get(DIGEST) is None

    def test_miss_is_overwritten_by_next_put(self, tmp_path):
        store = PlanStore(str(tmp_path))
        with open(store.path_for(DIGEST), "w") as handle:
            handle.write("garbage")
        put_one(store)
        assert store.get(DIGEST)["plan"] == PLAN

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = PlanStore(str(tmp_path))
        put_one(store)
        leftovers = [
            name for name in os.listdir(store.plans_dir)
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestCrashRecovery:
    """The crash-only startup sweep (DESIGN.md §16): orphaned ``.tmp``
    files and torn records left by a killed writer are deleted and
    counted; healthy records are untouched."""

    def simulate_crash(self, root):
        # A store as a crashed server leaves it: one healthy record,
        # one orphaned temp file in each directory (killed between
        # mkstemp and rename), one torn record (truncated JSON).
        store = PlanStore(str(root))
        put_one(store)
        for directory in (store.plans_dir, store.memo_dir):
            with open(os.path.join(directory, "orphanX.tmp"), "w") as fh:
                fh.write('{"half": ')
        with open(os.path.join(store.plans_dir, "cd" * 32 + ".json"),
                  "w") as fh:
            fh.write('{"format": "repro-plan-store/1", "pl')
        return store

    def test_sweep_removes_and_counts(self, tmp_path):
        self.simulate_crash(tmp_path)
        store = PlanStore(str(tmp_path))  # the "restarted" process
        removed = store.recover()
        assert removed == {"tmp_files": 2, "torn_records": 1}
        # The healthy record survived and still serves.
        assert store.get(DIGEST)["plan"] == PLAN
        assert len(store) == 1
        leftovers = [
            name
            for directory in (store.plans_dir, store.memo_dir)
            for name in os.listdir(directory)
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_sweep_is_idempotent(self, tmp_path):
        self.simulate_crash(tmp_path)
        store = PlanStore(str(tmp_path))
        store.recover()
        assert store.recover() == {"tmp_files": 0, "torn_records": 0}

    def test_clean_store_sweeps_nothing(self, tmp_path):
        store = PlanStore(str(tmp_path))
        put_one(store)
        assert store.recover() == {"tmp_files": 0, "torn_records": 0}
        assert store.get(DIGEST)["plan"] == PLAN


class TestSpillLogRecovery:
    """``recover()`` and the append-only memo log (DESIGN.md §14.3): a
    torn tail is cut back to the last complete line, everything before
    it survives, and spills this version cannot read are removed."""

    def full_log(self, store):
        from repro.api import Session
        from repro.service.memo_disk import dump_memo, spill_path

        session = Session()
        experiment = session.experiment("bnl-join", "validation")
        session.synthesize(experiment, scale="validation")
        memo = session.synthesizer(experiment).memo_for_inputs(
            experiment.input_annots,
            experiment.input_locations,
            experiment.stats,
            experiment.output_location,
        )
        path = spill_path(store.memo_dir, "ab" * 32)
        assert dump_memo(memo, path) == sum(memo.sizes()[:2])
        return memo, path

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torn_tail_is_truncated_and_the_log_lives_on(self, tmp_path, seed):
        import random

        from repro.cost import CostMemo
        from repro.service.memo_disk import dump_memo, load_memo

        store = PlanStore(str(tmp_path))
        memo, path = self.full_log(store)
        with open(path, "rb") as handle:
            whole = handle.read()
        lines = whole.splitlines(keepends=True)
        # Chop strictly inside an entry line (never on a boundary).
        rng = random.Random(seed)
        victim = rng.randrange(1, len(lines))
        cut = sum(map(len, lines[:victim])) + rng.randrange(
            1, len(lines[victim])
        )
        with open(path, "wb") as handle:
            handle.write(whole[:cut])

        assert store.recover() == {"tmp_files": 0, "torn_records": 1}
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(lines[:victim])
        assert store.recover() == {"tmp_files": 0, "torn_records": 0}

        survivor = CostMemo()
        assert load_memo(survivor, path) == victim - 1
        # The restarted worker recomputes what the crash lost (here:
        # handed over in the original order) and appends only that.
        for program, estimate in memo.estimates_after():
            survivor.seed_estimate(program, estimate)
        for key, result in memo.tunings_after():
            survivor.seed_tuning(key, result)
        assert dump_memo(survivor, path) == len(lines) - 1
        with open(path, "rb") as handle:
            assert len(handle.read().splitlines()) == len(lines)
        rebuilt = CostMemo()
        assert load_memo(rebuilt, path) == len(lines) - 1
        assert rebuilt.sizes()[:2] == memo.sizes()[:2]

    def test_unreadable_spills_are_removed_and_healthy_ones_kept(
        self, tmp_path
    ):
        store = PlanStore(str(tmp_path))
        _, path = self.full_log(store)
        with open(path, "rb") as handle:
            healthy = handle.read()
        litter = {
            "cd" * 32 + ".json": b'{"format": "repro-memo/1", "estimates": {}}',
            "ef" * 32 + ".jsonl": b'{"format": "repro-memo/1"}\n{"e": 1}\n',
            "01" * 32 + ".jsonl": b'{"form',
            "orphan.tmp": b"{",
        }
        for name, content in litter.items():
            with open(os.path.join(store.memo_dir, name), "wb") as handle:
                handle.write(content)
        assert store.recover() == {"tmp_files": 1, "torn_records": 3}
        assert os.listdir(store.memo_dir) == [os.path.basename(path)]
        with open(path, "rb") as handle:
            assert handle.read() == healthy

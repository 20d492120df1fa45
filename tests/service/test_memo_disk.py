"""The persistent cost-memo spill: a restarted server keeps amortization.

The spill is an append-only log (DESIGN.md §14.3): ``dump_memo`` appends
what a memo gained since its last spill, ``load_memo`` catches a memo up
with what others appended.  Besides the round trip and the robustness
cases, the differential classes below pin that a memo rebuilt from an
incrementally appended log is the memo the searches ended with.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.api import Session, default_registry
from repro.cost import CostEstimator, CostMemo, CostModel
from repro.hierarchy import MB, hdd_ram_hierarchy
from repro.service import memo_disk
from repro.service.memo_disk import (
    MEMO_FORMAT,
    ResidentMemos,
    dump_memo,
    load_memo,
    memo_fingerprint,
    recover_spills,
    spill_path,
)
from repro.symbolic import var
from repro.cost import atom, list_annot, tuple_annot
from repro.workloads import naive_join_spec

ANNOTS = {
    "R": list_annot(tuple_annot(atom(1), atom(1)), var("x")),
    "S": list_annot(tuple_annot(atom(1), atom(1)), var("y")),
}
STATS = {"x": 2.0**20, "y": 2.0**16}
LOCATIONS = {"R": "HDD", "S": "HDD"}


def model():
    return CostModel(
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots=ANNOTS,
        input_locations=LOCATIONS,
        stats=STATS,
    )


def warm_memo():
    """A memo holding one real estimate and one real tuning."""
    memo = CostMemo()
    program = naive_join_spec()
    estimate = memo.estimate(
        program, lambda: CostEstimator(model(), memo=memo).estimate(program)
    )
    memo.tune(estimate, STATS)
    return memo, program, estimate


class TestRoundTrip:
    def test_dump_then_load_restores_both_tables(self, tmp_path):
        memo, program, estimate = warm_memo()
        path = str(tmp_path / "spill.jsonl")
        stored = dump_memo(memo, path)
        assert stored == 2  # one estimate + one tuning

        fresh = CostMemo()
        assert load_memo(fresh, path) == 2
        est_sizes, tune_sizes, _ = fresh.sizes()
        assert est_sizes == 1 and tune_sizes == 1

    def test_loaded_estimate_short_circuits_recomputation(self, tmp_path):
        memo, program, _ = warm_memo()
        path = str(tmp_path / "spill.jsonl")
        dump_memo(memo, path)

        fresh = CostMemo()
        load_memo(fresh, path)
        calls = []

        def compute():  # pragma: no cover - must not run
            calls.append(1)
            raise AssertionError("estimate should come from the spill")

        loaded = fresh.estimate(program, compute)
        assert calls == []
        original = memo.estimate(program, compute)
        assert loaded.total == original.total
        assert loaded.constraints == original.constraints
        assert loaded.parameters == original.parameters
        assert loaded.events.init == original.events.init
        assert loaded.events.unit == original.events.unit

    def test_loaded_tuning_short_circuits_the_optimizer(self, tmp_path):
        memo, _, estimate = warm_memo()
        path = str(tmp_path / "spill.jsonl")
        dump_memo(memo, path)

        fresh = CostMemo()
        load_memo(fresh, path)
        before = fresh.stats.tune_misses
        tuned = fresh.tune(estimate, STATS)
        assert fresh.stats.tune_misses == before  # a hit, not a re-run
        assert tuned.values == memo.tune(estimate, STATS).values
        assert tuned.cost == memo.tune(estimate, STATS).cost

    def test_seeding_does_not_move_counters(self, tmp_path):
        memo, _, _ = warm_memo()
        path = str(tmp_path / "spill.jsonl")
        dump_memo(memo, path)
        fresh = CostMemo()
        load_memo(fresh, path)
        assert fresh.stats.estimate_hits == 0
        assert fresh.stats.estimate_misses == 0
        assert fresh.stats.tune_hits == 0
        assert fresh.stats.tune_misses == 0

    def test_memoized_failures_round_trip(self, tmp_path):
        from repro.cost import EstimatorError
        import pytest

        memo = CostMemo()
        program = naive_join_spec()

        def fail():
            raise EstimatorError("uncostable")

        with pytest.raises(EstimatorError):
            memo.estimate(program, fail)
        path = str(tmp_path / "spill.jsonl")
        dump_memo(memo, path)

        fresh = CostMemo()
        load_memo(fresh, path)
        with pytest.raises(EstimatorError):
            fresh.estimate(program, fail)


class TestRobustness:
    def test_missing_spill_loads_nothing(self, tmp_path):
        assert load_memo(CostMemo(), str(tmp_path / "nope.jsonl")) == 0

    def test_corrupt_spill_loads_nothing(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        path.write_bytes(b"\xde\xad not json")
        assert load_memo(CostMemo(), str(path)) == 0

    def test_stale_format_loads_nothing(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        path.write_text(json.dumps({"format": "repro-memo/0"}) + "\n")
        assert load_memo(CostMemo(), str(path)) == 0
        # A spill never cuts a file back (another appender could be in
        # it): nothing is written until the startup sweep removed it ...
        stale = path.read_bytes()
        memo, _, _ = warm_memo()
        assert dump_memo(memo, str(path)) == 0
        assert path.read_bytes() == stale
        assert recover_spills(str(tmp_path)) == 1
        # ... and then the log starts over in this format.
        assert dump_memo(memo, str(path)) == 2
        assert json.loads(path.read_text().splitlines()[0]) == {
            "format": MEMO_FORMAT
        }
        assert load_memo(CostMemo(), str(path)) == 2

    def test_undecodable_line_costs_only_itself(self, tmp_path):
        memo, _, _ = warm_memo()
        path = tmp_path / "spill.jsonl"
        dump_memo(memo, str(path))
        header, estimate, tuning = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(
            header + b'{"e": {"nonsense": 1}, "v": null}\n' + b"\xde\xad\n"
            + estimate + b"[]\n" + tuning
        )
        fresh = CostMemo()
        assert load_memo(fresh, str(path)) == 2
        assert fresh.sizes()[:2] == (1, 1)

    def test_append_after_a_torn_tail_seals_it(self, tmp_path):
        # A writer died mid-line and nothing swept the log since: the
        # next appender must not glue its first entry onto the fragment.
        memo, _, _ = warm_memo()
        path = tmp_path / "spill.jsonl"
        dump_memo(memo, str(path))
        whole = path.read_bytes()
        path.write_bytes(whole[:-20])  # the tuning line lost its tail
        survivor = CostMemo()
        assert load_memo(survivor, str(path)) == 1
        load_memo(memo, str(path))  # notices the log shrank under it
        assert dump_memo(memo, str(path)) == 2
        fresh = CostMemo()
        assert load_memo(fresh, str(path)) == 2
        assert fresh.sizes()[:2] == (1, 1)
        # The reader that stopped before the fragment catches up too.
        assert load_memo(survivor, str(path)) == 2

    def test_dump_merges_with_existing_spill(self, tmp_path):
        memo, _, _ = warm_memo()
        path = str(tmp_path / "spill.jsonl")
        assert dump_memo(memo, path) == 2
        # A second dump of the same memo adds nothing new — and does
        # not touch the file: same inode, same bytes, same mtime.
        before = os.stat(path)
        with open(path, "rb") as handle:
            content = handle.read()
        assert dump_memo(memo, path) == 2
        after = os.stat(path)
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns,
        )
        with open(path, "rb") as handle:
            assert handle.read() == content
        # Neither does a catch-up that finds nothing appended.
        assert load_memo(memo, path) == 2
        assert os.stat(path).st_mtime_ns == before.st_mtime_ns


class TestFingerprint:
    def _experiment(self, name="aggregation"):
        from repro.api import default_registry

        return default_registry().get(name).experiment("validation")

    def test_stable_for_equal_models(self):
        assert memo_fingerprint(self._experiment()) == memo_fingerprint(
            self._experiment()
        )

    def test_distinct_across_workloads(self):
        assert memo_fingerprint(self._experiment()) != memo_fingerprint(
            self._experiment("grace-join")
        )

    def test_hierarchy_changes_the_fingerprint(self):
        from repro.hierarchy import hierarchy_preset

        a = self._experiment()
        b = self._experiment()
        b.hierarchy = hierarchy_preset("ram-ssd-hdd", None)
        assert memo_fingerprint(a) != memo_fingerprint(b)

    def test_caps_do_not_change_the_fingerprint(self):
        # The memo caches pure functions of (model, program); runs with
        # different search caps share the spill.
        a = self._experiment()
        b = self._experiment()
        b.max_depth = 9
        b.max_programs = 7
        assert memo_fingerprint(a) == memo_fingerprint(b)

    def test_spill_path_is_per_fingerprint(self, tmp_path):
        fp = memo_fingerprint(self._experiment())
        assert spill_path(str(tmp_path), fp).endswith(f"{fp}.jsonl")


# ----------------------------------------------------------------------
# Differential: the log against the memo the searches ended with
# ----------------------------------------------------------------------
VALIDATION = tuple(default_registry().names("validation"))
SRC = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))


def search_on(memo, name, max_programs=None):
    """One validation-scale best-first search of *name* through *memo*."""
    experiment = default_registry().experiment(name, "validation")
    if max_programs is not None:
        experiment = dataclasses.replace(experiment, max_programs=max_programs)
    session = Session()
    session.synthesizer(experiment).memo_for_inputs(
        experiment.input_annots,
        experiment.input_locations,
        experiment.stats,
        experiment.output_location,
        adopt=memo,
    )
    return session.synthesize(experiment, scale="validation")


def contents(memo):
    """(estimate keys, {tuning key: exact result}) of *memo*."""
    return (
        {program for program, _ in memo.estimates_after()},
        {
            key: (
                float.hex(result.cost),
                result.feasible,
                sorted(result.values.items()),
            )
            for key, result in memo.tunings_after()
        },
    )


class TestIncrementalLog:
    @pytest.mark.parametrize("name", VALIDATION)
    def test_appended_log_rebuilds_the_memo(self, tmp_path, name):
        path = str(tmp_path / "spill.jsonl")
        memo = CostMemo()
        sizes = []
        # A cold search under a tight cap, then two that reach further:
        # each append holds only what that search added.
        for cap in (6, 40, None):
            search_on(memo, name, cap)
            known = dump_memo(memo, path)
            sizes.append((known, os.path.getsize(path)))
            assert known == sum(memo.sizes()[:2])
        assert sizes == sorted(sizes)
        with open(path, "rb") as handle:
            assert len(handle.read().splitlines()) == 1 + sizes[-1][0]

        rebuilt = CostMemo()
        assert load_memo(rebuilt, path) == sizes[-1][0]
        assert contents(rebuilt) == contents(memo)
        # Warm from the log, the same search computes nothing and adds
        # nothing: the file is left alone.
        stamp = os.stat(path).st_mtime_ns
        job = search_on(rebuilt, name)
        assert job.search.cache_misses == 0
        assert dump_memo(rebuilt, path) == sizes[-1][0]
        assert os.stat(path).st_mtime_ns == stamp

    def test_catch_up_parses_only_what_others_appended(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        ours, theirs = CostMemo(), CostMemo()
        search_on(ours, "grace-join", 6)
        first = dump_memo(ours, path)
        assert load_memo(theirs, path) == first
        search_on(theirs, "grace-join")
        total = dump_memo(theirs, path)
        assert total > first
        # Our cursor sits where our own append ended.
        cursor = memo_disk._CURSORS[ours]
        assert cursor.entries == first and 0 < cursor.offset
        assert load_memo(ours, path) == total
        assert cursor.offset == os.path.getsize(path)
        assert contents(ours) == contents(theirs)
        # All of it came from the log: nothing left to append.
        stamp = os.stat(path).st_mtime_ns
        assert dump_memo(ours, path) == total
        assert os.stat(path).st_mtime_ns == stamp

    def test_a_starved_memo_counts_only_what_it_holds(self, tmp_path):
        # maxsize 4 sheds the last-spilled keys between two spills: the
        # whole table is appended again, but counted once.
        path = str(tmp_path / "spill.jsonl")
        memo = CostMemo(maxsize=4)
        for cap in (6, 40):
            search_on(memo, "grace-join", cap)
            assert dump_memo(memo, path) == sum(memo.sizes()[:2]) <= 8
        assert load_memo(memo, path) == sum(memo.sizes()[:2])
        roomy = CostMemo()
        assert load_memo(roomy, path) > 8
        assert contents(memo)[0] <= contents(roomy)[0]
        assert contents(memo)[1].items() <= contents(roomy)[1].items()

    def test_a_cleared_memo_reads_the_log_again(self, tmp_path):
        memo, _, _ = warm_memo()
        path = str(tmp_path / "spill.jsonl")
        assert dump_memo(memo, path) == 2
        memo.clear()
        assert load_memo(memo, path) == 2
        assert memo.sizes()[:2] == (1, 1)

    def test_duplicates_load_first_wins(self, tmp_path):
        memo, _, _ = warm_memo()
        path = tmp_path / "spill.jsonl"
        dump_memo(memo, str(path))
        header, estimate, tuning = path.read_bytes().splitlines(keepends=True)
        doc = json.loads(tuning)
        doc["v"]["cost"] = -1.0
        path.write_bytes(
            header + estimate + tuning + estimate
            + json.dumps(doc).encode() + b"\n"
        )
        fresh = CostMemo()
        assert load_memo(fresh, str(path)) == 2
        ((_, result),) = fresh.tunings_after()
        ((_, original),) = memo.tunings_after()
        assert result.cost == original.cost

    def test_two_processes_append_to_one_log(self, tmp_path):
        """Two processes search overlapping parts of one model and spill
        to one log at once; the log loads as the union."""
        path = str(tmp_path / "spill.jsonl")
        script = (
            "import dataclasses, sys\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "from repro.api import Session, default_registry\n"
            "from repro.service.memo_disk import dump_memo\n"
            "e = default_registry().experiment('grace-join', 'validation')\n"
            "if int(sys.argv[2]):\n"
            "    e = dataclasses.replace(e, max_programs=int(sys.argv[2]))\n"
            "session = Session()\n"
            "session.synthesize(e, scale='validation')\n"
            "memo = session.synthesizer(e).memo_for_inputs(\n"
            "    e.input_annots, e.input_locations, e.stats,\n"
            "    e.output_location)\n"
            "sys.stdin.readline()\n"
            "print(dump_memo(memo, sys.argv[1]))\n"
        )
        children = [
            subprocess.Popen(
                [sys.executable, "-c", script, path, str(cap), SRC],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cap in (6, 0)
        ]
        try:
            # Both have searched by the time they read the go-ahead, so
            # the two appends race as closely as a test can make them.
            outputs = [child.communicate("go\n", timeout=120)[0]
                       for child in children]
        finally:
            for child in children:
                child.kill()
        assert all(child.returncode == 0 for child in children)

        small, large = CostMemo(), CostMemo()
        search_on(small, "grace-join", 6)
        search_on(large, "grace-join")
        assert sorted(int(out) for out in outputs) == sorted(
            sum(memo.sizes()[:2]) for memo in (small, large)
        )
        estimates = contents(small)[0] | contents(large)[0]
        tunings = {**contents(small)[1], **contents(large)[1]}
        loaded = CostMemo()
        assert load_memo(loaded, path) == len(estimates) + len(tunings)
        assert contents(loaded) == (estimates, tunings)


class TestResidentMemos:
    def test_checkout_removes_and_checkin_is_lru(self, monkeypatch):
        monkeypatch.setattr(memo_disk, "_RESIDENT_CAP", 2)
        resident = ResidentMemos()
        first = resident.checkout("a")
        assert resident.checkout("a") is not first  # nothing resident yet
        resident.checkin("a", first)
        assert resident.checkout("a") is first
        assert resident.checkout("a") is not first  # checked out: gone
        resident.checkin("a", first)
        resident.checkin("b", CostMemo())
        assert resident.checkout("a") is first
        resident.checkin("a", first)  # now the most recent
        resident.checkin("c", CostMemo())  # evicts "b", the oldest
        assert len(resident) == 2
        assert resident.checkout("a") is first

    def test_no_two_threads_ever_hold_one_memo(self, monkeypatch):
        """More threads than cores hammer three paths; a memo handed to
        two holders at once would trip the in-use flag."""
        monkeypatch.setattr(memo_disk, "_RESIDENT_CAP", 2)
        resident = ResidentMemos()
        in_use, clashes, errors = set(), [], []
        guard = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def worker(seed):
            try:
                for step in range(2000):
                    path = "abc"[(seed + step) % 3]
                    memo = resident.checkout(path)
                    with guard:
                        if id(memo) in in_use:
                            clashes.append(path)
                        in_use.add(id(memo))
                    with guard:
                        in_use.discard(id(memo))
                    resident.checkin(path, memo)
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range((os.cpu_count() or 1) * 4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and clashes == []
        assert len(resident) <= 2

"""The HTTP job server: routes, dedup, admission, and the store-hit bar.

The server runs in a background thread (daemon event loop) and the
tests speak real HTTP over ``urllib`` — no test client shims, the same
bytes a curl would send.  Fast paths use an injected fake synthesizer;
one end-to-end class pays for real synthesis to pin the acceptance
contract: a repeated identical request is served from the persistent
store with all-zero search counters, surviving a server restart.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.api.job import PLAN_FORMAT
from repro.service import PlanService, PlanStore

AGG = {"workload": "aggregation", "scale": "validation"}


def fake_payload():
    return {
        "plan": {"format": PLAN_FORMAT, "workload": "aggregation"},
        "search": {"steps": 3, "costed": 11},
        "synth_seconds": 0.01,
        "memo_loaded": 0,
        "memo_spilled": 0,
    }


def fake_synth(task):
    return fake_payload()


class Client:
    def __init__(self, service):
        self.base = f"http://127.0.0.1:{service.port}"

    def _open(self, request):
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.load(error)

    def get(self, path):
        return self._open(urllib.request.Request(self.base + path))

    def post(self, doc, wait=True, raw=None):
        data = raw if raw is not None else json.dumps(doc).encode()
        return self._open(urllib.request.Request(
            self.base + "/jobs" + ("?wait=1" if wait else ""),
            data=data,
            method="POST",
            headers={"Content-Type": "application/json"},
        ))

    def post_path(self, path, doc):
        return self._open(urllib.request.Request(
            self.base + path,
            data=json.dumps(doc).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        ))


@pytest.fixture
def service(tmp_path):
    running = PlanService(
        str(tmp_path / "store"), workers=1, queue_cap=4, synth=fake_synth
    ).start_background()
    yield running
    running.stop()


class TestRoutes:
    def test_healthz(self, service):
        status, doc = Client(service).get("/healthz")
        assert status == 200 and doc["ok"] is True

    def test_unknown_route_404(self, service):
        status, doc = Client(service).get("/nope")
        assert status == 404

    def test_unknown_job_404(self, service):
        status, doc = Client(service).get("/jobs/job-999")
        assert status == 404

    def test_unknown_plan_404(self, service):
        status, doc = Client(service).get("/plans/" + "ab" * 32)
        assert status == 404

    def test_malformed_plan_digest_404_not_500(self, service):
        status, doc = Client(service).get("/plans/../escape")
        assert status == 404

    def test_method_not_allowed(self, service):
        client = Client(service)
        status, doc = client._open(urllib.request.Request(
            client.base + "/jobs", method="DELETE"
        ))
        assert status == 405

    def test_bad_json_body_400(self, service):
        status, doc = Client(service).post(None, raw=b"not json {")
        assert status == 400
        assert "JSON" in doc["error"]

    def test_unresolvable_request_400(self, service):
        status, doc = Client(service).post({"workload": "tape-robot"})
        assert status == 400
        assert "unknown workload" in doc["error"]

    def test_unknown_field_400(self, service):
        status, doc = Client(service).post(dict(AGG, max_dept=3))
        assert status == 400
        assert "max_dept" in doc["error"]

    def test_stats_shape(self, service):
        status, doc = Client(service).get("/stats")
        assert status == 200
        for key in (
            "requests", "hits", "misses", "rejected", "deduped",
            "store_plans", "queued", "running", "latency_seconds",
            "jobs_tracked",
        ):
            assert key in doc


class TestMissHitFlow:
    def test_miss_searches_then_hit_serves_from_store(self, service):
        client = Client(service)
        status, miss = client.post(AGG)
        assert status == 200
        assert miss["state"] == "done" and miss["source"] == "search"
        assert miss["search"]["steps"] == 3

        status, hit = client.post(AGG)
        assert status == 200
        assert hit["state"] == "done" and hit["source"] == "store"
        # The store-hit bar: nothing searched, every counter zero.
        assert all(
            value == 0
            for value in hit["search"].values()
            if isinstance(value, int)
        )
        # The original run's statistics ride along as provenance.
        assert hit["stored_search"]["steps"] == 3

        _, stats = client.get("/stats")
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["store_plans"] == 1
        assert stats["latency_seconds"]["hit"]["count"] == 1

    def test_plan_record_retrievable_by_digest(self, service):
        client = Client(service)
        _, miss = client.post(AGG)
        status, record = client.get(f"/plans/{miss['digest']}")
        assert status == 200
        assert record["plan"]["format"] == PLAN_FORMAT
        assert record["request"]["workload"] == "aggregation"

    def test_job_resource_poll(self, service):
        client = Client(service)
        status, doc = client.post(AGG, wait=False)
        assert status in (200, 202)
        job_id = doc["id"]
        for _ in range(200):
            status, doc = client.get(f"/jobs/{job_id}")
            if doc["state"] in ("done", "failed"):
                break
        assert doc["state"] == "done"
        assert doc["source"] == "search"

    def test_distinct_requests_get_distinct_digests(self, service):
        client = Client(service)
        _, a = client.post(AGG)
        _, b = client.post(dict(AGG, max_programs=7))
        assert a["digest"] != b["digest"]
        _, stats = client.get("/stats")
        assert stats["misses"] == 2


class TestFailure:
    def test_failed_search_reports_failed_state(self, tmp_path):
        def explode(task):
            raise RuntimeError("search fell over")

        service = PlanService(
            str(tmp_path / "store"), workers=1, synth=explode
        ).start_background()
        try:
            client = Client(service)
            status, doc = client.post(AGG)
            assert doc["state"] == "failed"
            assert "search fell over" in doc["error"]
            _, stats = client.get("/stats")
            assert stats["failed"] == 1
            assert stats["store_plans"] == 0  # nothing stored on failure
        finally:
            service.stop()


class TestResilience:
    """Fault tolerance at the service layer (DESIGN.md §16): crash-only
    startup recovery, per-job wall-clock budgets, and bounded retry —
    all visible through ``/stats`` and ``/healthz``."""

    def test_healthy_service_reports_not_degraded(self, service):
        status, doc = Client(service).get("/healthz")
        assert status == 200
        assert doc["degraded"] is False and doc["reasons"] == []
        assert doc["recovered_records"] == 0

    def test_startup_recovery_sweeps_crash_litter(self, tmp_path):
        import os

        from repro.service.store import PlanStore

        # Simulate a server killed mid-write: orphaned temp files in
        # both store directories plus one torn (truncated) record.
        crashed = PlanStore(str(tmp_path / "store"))
        for directory in (crashed.plans_dir, crashed.memo_dir):
            with open(os.path.join(directory, "orphan.tmp"), "w") as fh:
                fh.write('{"half": ')
        with open(
            os.path.join(crashed.plans_dir, "cd" * 32 + ".json"), "w"
        ) as fh:
            fh.write('{"torn":')

        service = PlanService(
            str(tmp_path / "store"), workers=1, synth=fake_synth
        ).start_background()
        try:
            client = Client(service)
            _, stats = client.get("/stats")
            assert stats["recovered_tmp"] == 2
            assert stats["recovered_torn"] == 1
            assert stats["store_plans"] == 0
            _, health = client.get("/healthz")
            assert health["recovered_records"] == 3
            # Swept clean: the restarted server still serves searches.
            status, doc = client.post(AGG)
            assert status == 200 and doc["state"] == "done"
        finally:
            service.stop()

    def test_job_timeout_retries_then_fails(self, tmp_path):
        import time as _time

        def stuck_synth(task):
            _time.sleep(1.0)
            return fake_payload()

        service = PlanService(
            str(tmp_path / "store"),
            workers=1,
            synth=stuck_synth,
            job_timeout=0.1,
            job_retries=1,
            retry_base=0.0,
        ).start_background()
        try:
            client = Client(service)
            status, doc = client.post(AGG)
            assert doc["state"] == "failed"
            assert "timed out after 0.1s" in doc["error"]
            _, stats = client.get("/stats")
            assert stats["timeouts"] == 2  # first try + one retry
            assert stats["retries"] == 1
            assert stats["failed"] == 1
            assert stats["degraded_jobs"] == 1
            _, health = client.get("/healthz")
            assert health["degraded"] is True
            assert any("timeout" in r for r in health["reasons"])
        finally:
            service.stop()

    def test_flaky_synth_recovers_on_retry(self, tmp_path):
        calls = []

        def flaky_synth(task):
            calls.append(task)
            if len(calls) == 1:
                raise RuntimeError("transient search crash")
            return fake_payload()

        service = PlanService(
            str(tmp_path / "store"),
            workers=1,
            synth=flaky_synth,
            job_retries=1,
            retry_base=0.0,
        ).start_background()
        try:
            client = Client(service)
            status, doc = client.post(AGG)
            assert status == 200
            assert doc["state"] == "done" and doc["source"] == "search"
            assert len(calls) == 2
            _, stats = client.get("/stats")
            assert stats["failures"] == 1
            assert stats["retries"] == 1
            assert stats["completed"] == 1
            assert stats["failed"] == 0
            # The job recovered but needed a retry: that is recorded.
            assert stats["degraded_jobs"] == 1
        finally:
            service.stop()

    def test_resilience_counters_in_stats_shape(self, service):
        _, doc = Client(service).get("/stats")
        for key in (
            "failures", "retries", "timeouts", "degraded_jobs",
            "recovered_tmp", "recovered_torn",
        ):
            assert key in doc


class TestDedupAndAdmission:
    def test_concurrent_identical_requests_share_one_search(self, tmp_path):
        release = threading.Event()
        calls = []

        def slow_synth(task):
            calls.append(task)
            release.wait(timeout=60)
            return fake_payload()

        service = PlanService(
            str(tmp_path / "store"), workers=1, queue_cap=4, synth=slow_synth
        ).start_background()
        try:
            client = Client(service)
            status1, first = client.post(AGG, wait=False)
            assert status1 == 202 and first["state"] in ("queued", "running")
            status2, second = client.post(AGG, wait=False)
            assert status2 == 202
            assert second["id"] == first["id"]  # joined, not re-queued
            release.set()
            for _ in range(400):
                _, doc = client.get(f"/jobs/{first['id']}")
                if doc["state"] == "done":
                    break
            assert doc["state"] == "done"
            assert len(calls) == 1  # one search served both callers
            _, stats = client.get("/stats")
            assert stats["deduped"] == 1 and stats["misses"] == 1
        finally:
            release.set()
            service.stop()

    def test_full_queue_rejects_with_429(self, tmp_path):
        release = threading.Event()

        def slow_synth(task):
            release.wait(timeout=60)
            return fake_payload()

        # One worker, one queue slot: the first request runs, the
        # second queues, the third must be rejected.
        service = PlanService(
            str(tmp_path / "store"), workers=1, queue_cap=1, synth=slow_synth
        ).start_background()
        try:
            client = Client(service)
            status1, _ = client.post(AGG, wait=False)
            assert status1 == 202
            status2, _ = client.post(dict(AGG, max_programs=7), wait=False)
            assert status2 == 202
            status3, doc = client.post(dict(AGG, max_programs=8), wait=False)
            assert status3 == 429
            assert "queue full" in doc["error"]
            _, stats = client.get("/stats")
            assert stats["rejected"] == 1
        finally:
            release.set()
            service.stop()


class TestJobTableBound:
    """Finished jobs are evicted oldest-first beyond a fixed cap; jobs
    in flight — hence any job somebody is parked on — never are."""

    def test_table_plateaus_at_the_cap(self, service):
        from repro.service.server import _JOB_TABLE_CAP

        client = Client(service)
        tracked = []
        for index in range(3 * _JOB_TABLE_CAP):
            status, doc = client.post(dict(AGG, max_programs=100 + index))
            assert status == 200 and doc["state"] == "done"
            assert doc["id"] == f"job-{index + 1}"  # ids keep counting
            if (index + 1) % _JOB_TABLE_CAP == 0:
                tracked.append(client.get("/stats")[1]["jobs_tracked"])
        assert tracked == [_JOB_TABLE_CAP] * 3
        # The oldest are gone for good, the newest still answer, and an
        # evicted job's plan is still a store hit.
        assert client.get("/jobs/job-1") == (404, {"error": "no such job"})
        status, doc = client.get(f"/jobs/job-{3 * _JOB_TABLE_CAP}")
        assert status == 200 and doc["state"] == "done"
        status, doc = client.post(dict(AGG, max_programs=100))
        assert status == 200 and doc["source"] == "store"
        assert len(service._events) == len(service._jobs) == _JOB_TABLE_CAP

    def test_unfinished_and_waited_on_jobs_are_never_evicted(
        self, tmp_path, monkeypatch
    ):
        from repro.service import server

        monkeypatch.setattr(server, "_JOB_TABLE_CAP", 2)
        release = threading.Event()

        def synth(task):
            if task[0].get("max_programs") == 7:
                release.wait(timeout=60)
            return fake_payload()

        service = PlanService(
            str(tmp_path / "store"), workers=1, queue_cap=8, synth=synth
        ).start_background()
        try:
            client = Client(service)
            # job-1 runs (held open) with one caller parked on it;
            # job-2..5 queue behind it.
            parked = []
            waiter = threading.Thread(
                target=lambda: parked.append(
                    client.post(dict(AGG, max_programs=7))
                )
            )
            waiter.start()
            for _ in range(400):
                if service.stats()["running"] == 1:
                    break
                threading.Event().wait(0.01)
            for cap in (8, 9, 10, 11):
                status, _ = client.post(dict(AGG, max_programs=cap), wait=False)
                assert status == 202
            _, stats = client.get("/stats")
            assert stats["jobs_tracked"] == 5  # over the cap, none finished
            release.set()
            waiter.join(timeout=60)
            assert not waiter.is_alive()
            assert parked[0][0] == 200 and parked[0][1]["id"] == "job-1"
            for _ in range(400):
                if service.stats()["completed"] == 5:
                    break
                threading.Event().wait(0.01)
            # The next miss evicts down to the cap, oldest first.
            status, doc = client.post(dict(AGG, max_programs=12))
            assert status == 200 and doc["id"] == "job-6"
            assert sorted(service._jobs) == ["job-5", "job-6"]
        finally:
            release.set()
            service.stop()


class TestRealSynthesis:
    """The acceptance bar, with the real synthesizer behind the server."""

    def test_miss_hit_restart_hit(self, tmp_path):
        store_root = str(tmp_path / "store")
        service = PlanService(store_root, queue_cap=2).start_background()
        try:
            client = Client(service)
            status, miss = client.post(AGG)
            assert status == 200 and miss["source"] == "search"
            assert miss["search"]["steps"] > 0
            assert miss["memo_spilled"] > 0  # cost memo hit the disk

            status, hit = client.post(AGG)
            assert status == 200 and hit["source"] == "store"
            assert all(
                value == 0
                for value in hit["search"].values()
                if isinstance(value, int)
            )
        finally:
            service.stop()

        # A restarted server over the same store must keep serving the
        # plan from disk — and never search for it again.
        service = PlanService(store_root, queue_cap=2).start_background()
        try:
            client = Client(service)
            status, hit = client.post(AGG)
            assert status == 200 and hit["source"] == "store"
            assert all(
                value == 0
                for value in hit["search"].values()
                if isinstance(value, int)
            )
            _, stats = client.get("/stats")
            assert stats["misses"] == 0 and stats["hits"] == 1
        finally:
            service.stop()

    def test_stored_plan_is_executable(self, tmp_path):
        from repro.api import Job

        service = PlanService(str(tmp_path / "store")).start_background()
        try:
            _, miss = Client(service).post(AGG)
        finally:
            service.stop()
        result = Job.from_json(miss["plan"]).run(backend="sim")
        assert result.execution.elapsed > 0

    def test_memo_spill_warms_related_searches(self, tmp_path):
        # A different cap is a different digest (plan-store miss) but
        # the same cost model — the second search must warm-start from
        # the first one's memo spill.
        service = PlanService(str(tmp_path / "store")).start_background()
        try:
            client = Client(service)
            _, first = client.post(AGG)
            assert first["memo_loaded"] == 0
            _, second = client.post(dict(AGG, max_programs=39))
            assert second["source"] == "search"
            assert second["memo_loaded"] > 0
        finally:
            service.stop()


class TestVerification:
    """Static verification at the front door: request admission with
    422 + diagnostics, and the ``POST /plans/check`` route."""

    def test_request_failing_verification_rejected(
        self, service, monkeypatch
    ):
        import repro.service.server as server_module
        from repro.analysis import Diagnostic

        monkeypatch.setattr(
            server_module,
            "verify_experiment",
            lambda experiment: [
                Diagnostic(code="PLC001", message="input on unknown device")
            ],
        )
        client = Client(service)
        status, doc = client.post(AGG)
        assert status == 422
        assert doc["error"] == "request fails static verification"
        assert [d["code"] for d in doc["diagnostics"]] == ["PLC001"]
        _, stats = client.get("/stats")
        assert stats["verifier_rejected"] == 1
        # rejected before the queue and the store were ever consulted
        assert stats["misses"] == 0 and stats["hits"] == 0

    @pytest.fixture(scope="class")
    def plan_doc(self):
        from repro.api import Session

        return Session().synthesize("aggregation").to_json()

    def test_plan_check_accepts_own_hierarchy(self, service, plan_doc):
        status, doc = Client(service).post_path(
            "/plans/check", {"plan": plan_doc}
        )
        assert status == 200 and doc["ok"] is True

    def test_plan_check_rejects_tiny_ram_replay(self, service, plan_doc):
        client = Client(service)
        status, doc = client.post_path(
            "/plans/check",
            {"plan": plan_doc, "hierarchy": "hdd-ram", "ram_size": 128},
        )
        assert status == 422 and doc["ok"] is False
        assert "CAP001" in {d["code"] for d in doc["diagnostics"]}
        _, stats = client.get("/stats")
        assert stats["verifier_rejected"] == 1

    def test_plan_check_requires_plan_field(self, service):
        status, doc = Client(service).post_path("/plans/check", {"x": 1})
        assert status == 400

    def test_plan_check_unknown_hierarchy_400(self, service, plan_doc):
        status, doc = Client(service).post_path(
            "/plans/check", {"plan": plan_doc, "hierarchy": "tape"}
        )
        assert status == 400
        assert "unknown hierarchy preset" in doc["error"]

    def test_plan_check_unknown_field_400(self, service, plan_doc):
        status, doc = Client(service).post_path(
            "/plans/check", {"plan": plan_doc, "extra": 1}
        )
        assert status == 400
        assert "unknown field" in doc["error"]

    def test_plan_check_corrupt_plan_400(self, service):
        status, doc = Client(service).post_path(
            "/plans/check", {"plan": {"format": "bogus"}}
        )
        assert status == 400
        assert "cannot load plan" in doc["error"]


# ----------------------------------------------------------------------
# The three ways a miss can start: cold, resident-warm, log-warm
# ----------------------------------------------------------------------
def _validation_names():
    from repro.api import default_registry

    return tuple(default_registry().names("validation"))


def _essence(doc):
    """What a warm start must never change about a served miss."""
    plan = doc["plan"]
    return {
        "winner": plan["winner"],
        "program": plan["program"],
        "derivation": plan["derivation"],
        "opt_cost": float.hex(plan["opt_cost"]),
        "spec_cost": float.hex(plan["spec_cost"]),
        "parameter_values": {
            name: float.hex(float(value))
            for name, value in plan["parameter_values"].items()
        },
        "search": {
            key: doc["search"][key]
            for key in ("space", "steps", "expanded", "pruned", "costed")
        },
    }


@pytest.fixture(scope="module")
def three_starts(tmp_path_factory):
    """Every validation workload served cold, then resident-warm (same
    server process, a cap no request used), then log-warm by a fresh
    process that has only the spill logs."""
    import repro

    root = str(tmp_path_factory.mktemp("three-starts") / "store")
    names = _validation_names()
    service = PlanService(root, workers=1, queue_cap=4).start_background()
    try:
        client = Client(service)
        cold = {
            name: client.post({"workload": name, "scale": "validation"})[1]
            for name in names
        }
        resident = {
            name: client.post(
                {"workload": name, "scale": "validation",
                 "max_programs": 20_000}
            )[1]
            for name in names
        }
    finally:
        service.stop()
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from repro.service.worker import synthesize_request\n"
        "docs = {}\n"
        "for name in sys.argv[3:]:\n"
        "    request = {'workload': name, 'scale': 'validation',\n"
        "               'max_programs': 30000}\n"
        "    docs[name] = synthesize_request((request, sys.argv[2]))\n"
        "json.dump(docs, sys.stdout)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    output = subprocess.run(
        [sys.executable, "-c", script, src, os.path.join(root, "memo"),
         *names],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return {"cold": cold, "resident": resident, "log": json.loads(output)}


class TestWarmStartIdentity:
    @pytest.mark.parametrize("name", _validation_names())
    def test_three_starts_serve_the_same_plan(self, three_starts, name):
        cold = three_starts["cold"][name]
        resident = three_starts["resident"][name]
        log = three_starts["log"][name]
        assert cold["source"] == resident["source"] == "search"
        assert _essence(resident) == _essence(cold)
        assert _essence(log) == _essence(cold)
        # Both warm starts began with everything the cold search left
        # in the log, and computed nothing.
        for warm in (resident, log):
            assert warm["memo_loaded"] >= cold["memo_spilled"] > 0
            assert warm["search"]["cache_misses"] == 0
            assert warm["memo_spilled"] == warm["memo_loaded"]

    def test_same_fingerprint_requests_never_share_a_memo(
        self, tmp_path, monkeypatch
    ):
        """One request is held open — its memo checked out — while a
        second for the same cost model arrives (what the retry of a
        timed-out thread-executor job looks like to the worker)."""
        from repro.service import worker

        memo_dir = str(tmp_path)
        first = worker.synthesize_request((AGG, memo_dir))
        assert first["memo_loaded"] == 0 and first["memo_spilled"] > 0

        real_load = worker.load_memo
        held = threading.Event()
        release = threading.Event()
        seen = []

        def load_and_hold(memo, path):
            loaded = real_load(memo, path)
            seen.append((memo, loaded))
            if len(seen) == 1:
                held.set()
                assert release.wait(timeout=60)
            return loaded

        monkeypatch.setattr(worker, "load_memo", load_and_hold)
        results = {}

        def request(cap):
            results[cap] = worker.synthesize_request(
                (dict(AGG, max_programs=cap), memo_dir)
            )

        slow = threading.Thread(target=request, args=(41,))
        slow.start()
        assert held.wait(timeout=60)
        request(42)  # start to finish while the first is held open
        release.set()
        slow.join(timeout=60)
        assert not slow.is_alive()

        (held_memo, held_loaded), (other_memo, other_loaded) = seen
        assert held_memo is not other_memo
        # The held request had the resident memo; the other built its
        # own from the log and started just as warm.
        assert held_loaded == other_loaded == first["memo_spilled"]
        assert _essence(results[41]) == _essence(results[42])
        assert _essence(results[41]) == _essence(first)

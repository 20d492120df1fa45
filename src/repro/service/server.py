"""The asyncio HTTP job server (``python -m repro serve``).

Stdlib only — :func:`asyncio.start_server` plus a deliberately minimal
HTTP/1.1 parser (one request per connection, ``Connection: close``).
The request lifecycle:

1. **validate** — the body must parse into a :class:`ServiceRequest`;
   anything malformed or unresolvable is a 400 with the reason.  The
   resolved specification then runs through the static verifier
   (DESIGN.md §15); a spec with verification errors is a 422 carrying
   the structured diagnostic list (and bumps the ``verifier_rejected``
   counter) — nothing unsound is searched, stored, or served.
2. **store hit** — the request digest is looked up in the
   :class:`~repro.service.store.PlanStore`; a hit is answered
   immediately with the stored plan and *all-zero* search counters
   (nothing searched), the original statistics riding along as
   ``stored_search`` provenance.
3. **dedup** — a miss whose digest is already in flight joins that
   job instead of queueing a second identical search.
4. **admission** — a genuinely new miss is rejected with 429 when the
   queue already holds ``queue_cap`` waiting jobs.
5. **search** — admitted jobs run queued → running → done/failed,
   fanned out over a :class:`~repro.parallel.WorkerPool` (or the
   default thread executor when the pool resolves to one worker),
   with at most ``workers`` searches running concurrently.

``POST /jobs?wait=1`` long-polls until the job settles — one curl is a
full miss-then-hit round trip.  The job table keeps every queued or
running job and the newest finished ones up to a fixed cap; an older
finished job is evicted (its plan stays in the store) and
``GET /jobs/<id>`` for it is a plain 404.  ``POST /plans/check``
verifies a plan document (optionally against a different hierarchy
preset) without executing anything — 200 when clean, 422 with
diagnostics when a stale or unsound plan is rejected.  ``GET /stats``
exposes hit/miss/reject counters, latency totals, queue depths and the
job-table size.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import threading
import time
from concurrent.futures import BrokenExecutor
from urllib.parse import parse_qs, urlsplit

from ..analysis import errors as _verification_errors
from ..analysis import verify_experiment, verify_job
from ..api.job import Job, SearchStats
from ..parallel import WorkerPool, resolve_workers
from ..runtime.faults import RetryPolicy, backoff_delays
from .request import RequestError, ServiceRequest
from .store import PlanStore
from .worker import synthesize_request

__all__ = ["PlanService"]

_MAX_BODY = 1 << 20  # 1 MiB — requests are a handful of short fields.

#: finished jobs kept for ``GET /jobs/<id>``; older ones are evicted.
_JOB_TABLE_CAP = 256

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class PlanService:
    """The job server: plan store in front, worker pool behind.

    ``synth`` is injectable for tests (defaults to
    :func:`~repro.service.worker.synthesize_request`); it receives the
    worker task tuple ``(request_doc, memo_dir)`` and must return the
    worker payload dict.  ``workers`` follows the repository-wide
    convention (``0`` = auto, env escape hatch wins); ``persist_memo``
    gates the on-disk cost-memo spill.
    """

    def __init__(
        self,
        store: "PlanStore | str",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        queue_cap: int = 8,
        persist_memo: bool = True,
        synth=None,
        job_timeout: float | None = None,
        job_retries: int = 1,
        retry_base: float = 0.05,
    ) -> None:
        self.store = store if isinstance(store, PlanStore) else PlanStore(store)
        self.host = host
        self.port = port
        self.queue_cap = queue_cap
        self.worker_count = resolve_workers(workers)
        self.persist_memo = persist_memo
        self._synth = synth or synthesize_request
        #: per-job wall-clock budget (seconds); ``None`` = unbounded.
        self.job_timeout = job_timeout
        #: extra attempts after a failed or timed-out one.
        self.job_retries = max(0, int(job_retries))
        #: first retry delay; doubles per retry, jittered ±50%.
        self.retry_base = retry_base
        #: degradation reasons reported by ``/healthz`` (deduped).
        self._degraded: list[str] = []
        self._pool: WorkerPool | None = None
        self._jobs: dict[str, dict] = {}
        self._inflight: dict[str, str] = {}
        self._events: dict[str, asyncio.Event] = {}
        self._tasks: set = set()
        self._ids = itertools.count(1)
        self._queued = 0
        self._running = 0
        self._sem: asyncio.Semaphore | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        # Crash-only startup: sweep orphaned tmp files and torn records
        # left by a killed predecessor before serving anything.
        recovered = self.store.recover()
        self.counters = {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "deduped": 0,
            "rejected": 0,
            "invalid": 0,
            "verifier_rejected": 0,
            "completed": 0,
            "failed": 0,
            "failures": 0,
            "retries": 0,
            "timeouts": 0,
            "degraded_jobs": 0,
            "recovered_tmp": recovered["tmp_files"],
            "recovered_torn": recovered["torn_records"],
        }
        self._latency = {
            "hit": [0, 0.0],   # [count, total seconds]
            "miss": [0, 0.0],
        }
        self.synth_seconds_total = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` document."""
        doc = dict(self.counters)
        doc.update(
            store_plans=len(self.store),
            jobs_tracked=len(self._jobs),
            queued=self._queued,
            running=self._running,
            workers=self.worker_count,
            queue_cap=self.queue_cap,
            synth_seconds_total=self.synth_seconds_total,
            latency_seconds={
                kind: {"count": count, "total": total}
                for kind, (count, total) in self._latency.items()
            },
        )
        return doc

    def _job_doc(self, job: dict) -> dict:
        doc = {
            "id": job["id"],
            "digest": job["digest"],
            "state": job["state"],
            "request": job["request"],
        }
        if job["state"] == "done":
            doc.update(job["result"])
        elif job["state"] == "failed":
            doc["error"] = job["error"]
        return doc

    def _hit_doc(self, digest: str, record: dict) -> dict:
        # A store hit never searched: the search counters in the
        # response are all zero by construction (the acceptance bar for
        # "served from the store"); the original run's statistics ride
        # along as provenance.
        return {
            "state": "done",
            "source": "store",
            "digest": digest,
            "plan": record["plan"],
            "search": SearchStats().to_json(),
            "stored_search": record.get("search", {}),
            "synth_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _dispatch_future(self, task: tuple):
        """Run one synthesis off the event loop; returns an awaitable."""
        if self.worker_count > 1:
            if self._pool is None or self._pool.closed:
                self._pool = WorkerPool(self.worker_count)
            return asyncio.wrap_future(self._pool.submit(self._synth, task))
        return asyncio.get_running_loop().run_in_executor(
            None, self._synth, task
        )

    def _note_degraded(self, reason: str) -> None:
        if reason not in self._degraded:
            self._degraded.append(reason)
            del self._degraded[:-16]  # bound the health report

    def _reset_pool(self, reason: str) -> None:
        """Replace wedged/dead pool workers after a timeout or break."""
        self._note_degraded(reason)
        if self._pool is not None and not self._pool.closed:
            self._pool.reset()

    async def _attempt_job(self, job_id: str, task: tuple):
        """One synthesis attempt under the wall-clock budget.

        Returns the worker payload, or ``None`` after recording why the
        attempt failed (timeout or error) — the caller decides whether
        a retry remains.
        """
        job = self._jobs[job_id]
        try:
            return await asyncio.wait_for(
                self._dispatch_future(task), self.job_timeout
            )
        except TimeoutError:
            self.counters["timeouts"] += 1
            job["errors"].append(
                f"timed out after {self.job_timeout:g}s"
            )
            # Kill the stuck worker (thread-executor attempts cannot be
            # interrupted; their budget still bounds the *job*).
            self._reset_pool(f"job timeout ({self.job_timeout:g}s)")
        except Exception as error:  # lint: allow-broad-except
            self.counters["failures"] += 1
            job["errors"].append(f"{type(error).__name__}: {error}")
            if isinstance(error, BrokenExecutor):
                self._reset_pool("worker pool broke")
        return None

    async def _run_job(self, job_id: str) -> None:
        job = self._jobs[job_id]
        digest = job["digest"]
        started = time.perf_counter()
        async with self._sem:
            self._queued -= 1
            self._running += 1
            job["state"] = "running"
            job["errors"] = []
            memo_dir = self.store.memo_dir if self.persist_memo else None
            task = (job["request"], memo_dir)
            attempts = self.job_retries + 1
            delays = backoff_delays(
                RetryPolicy(
                    attempts=attempts,
                    base_delay=self.retry_base,
                    factor=2.0,
                    max_delay=2.0,
                ),
                jitter=random.Random(f"repro-service:{job_id}"),
            )
            try:
                payload = None
                for attempt in range(attempts):
                    if attempt:
                        self.counters["retries"] += 1
                        await asyncio.sleep(next(delays, 0.0))
                    payload = await self._attempt_job(job_id, task)
                    if payload is not None:
                        break
                if job["errors"]:
                    self.counters["degraded_jobs"] += 1
                if payload is None:
                    job["state"] = "failed"
                    job["error"] = "; ".join(job["errors"]) or "failed"
                    self.counters["failed"] += 1
                    return
                try:
                    self.store.put(
                        digest,
                        request=job["request"],
                        plan=payload["plan"],
                        search=payload["search"],
                        synth_seconds=payload["synth_seconds"],
                    )
                except OSError as error:
                    job["state"] = "failed"
                    job["error"] = f"plan store write failed: {error}"
                    self.counters["failed"] += 1
                    self._note_degraded("plan store write failed")
                    return
                job["state"] = "done"
                job["result"] = {
                    "source": "search",
                    "plan": payload["plan"],
                    "search": payload["search"],
                    "synth_seconds": payload["synth_seconds"],
                    "memo_loaded": payload.get("memo_loaded", 0),
                    "memo_spilled": payload.get("memo_spilled", 0),
                }
                self.counters["completed"] += 1
                self.synth_seconds_total += payload["synth_seconds"]
                elapsed = time.perf_counter() - started
                self._latency["miss"][0] += 1
                self._latency["miss"][1] += elapsed
            finally:
                self._running -= 1
                self._inflight.pop(digest, None)
                self._events[job_id].set()

    def _evict_finished(self) -> None:
        """Drop the oldest finished jobs beyond ``_JOB_TABLE_CAP``.

        Queued and running jobs stay — so does, therefore, anything a
        ``?wait=1`` caller is parked on — and admission bounds those.
        """
        excess = max(0, len(self._jobs) - _JOB_TABLE_CAP)
        finished = (
            job_id
            for job_id, job in self._jobs.items()
            if job["state"] in ("done", "failed")
        )
        for job_id in list(itertools.islice(finished, excess)):
            del self._jobs[job_id]
            del self._events[job_id]

    def _enqueue(self, request: ServiceRequest, digest: str) -> str:
        job_id = f"job-{next(self._ids)}"
        self._jobs[job_id] = {
            "id": job_id,
            "digest": digest,
            "state": "queued",
            "request": request.to_json(),
        }
        self._events[job_id] = asyncio.Event()
        self._evict_finished()
        self._inflight[digest] = job_id
        self._queued += 1
        task = asyncio.get_running_loop().create_task(self._run_job(job_id))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job_id

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _post_jobs(self, body: bytes, wait: bool) -> tuple[int, dict]:
        try:
            doc = json.loads(body or b"null")
        except ValueError:
            self.counters["invalid"] += 1
            return 400, {"error": "request body is not valid JSON"}
        try:
            request = ServiceRequest.from_json(doc)
            started = time.perf_counter()
            digest = request.digest()
        except RequestError as error:
            self.counters["invalid"] += 1
            return 400, {"error": str(error)}

        rejected = _verification_errors(verify_experiment(request.resolve()[0]))
        if rejected:
            self.counters["verifier_rejected"] += 1
            return 422, {
                "error": "request fails static verification",
                "diagnostics": [d.to_json() for d in rejected],
            }

        record = self.store.get(digest)
        if record is not None:
            self.counters["hits"] += 1
            self._latency["hit"][0] += 1
            self._latency["hit"][1] += time.perf_counter() - started
            return 200, self._hit_doc(digest, record)

        job_id = self._inflight.get(digest)
        if job_id is not None:
            self.counters["deduped"] += 1
        else:
            if self._queued >= self.queue_cap:
                self.counters["rejected"] += 1
                return 429, {
                    "error": "queue full",
                    "queued": self._queued,
                    "queue_cap": self.queue_cap,
                }
            self.counters["misses"] += 1
            job_id = self._enqueue(request, digest)

        # Held across the wait: once the job settles, a later miss may
        # evict it from the table before this caller resumes.
        job = self._jobs[job_id]
        if wait:
            await self._events[job_id].wait()
        status = 202 if job["state"] in ("queued", "running") else 200
        return status, self._job_doc(job)

    def _post_plan_check(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body or b"null")
        except ValueError:
            self.counters["invalid"] += 1
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(doc, dict) or "plan" not in doc:
            self.counters["invalid"] += 1
            return 400, {
                "error": "body must be a JSON object with a 'plan' field"
            }
        unknown = sorted(set(doc) - {"plan", "hierarchy", "ram_size"})
        if unknown:
            self.counters["invalid"] += 1
            return 400, {
                "error": (
                    f"unknown field(s) {unknown}; expected a subset of "
                    f"['hierarchy', 'plan', 'ram_size']"
                )
            }
        try:
            job = Job.from_json(doc["plan"])
        except Exception as error:  # lint: allow-broad-except
            # Decoding a hostile plan document can raise nearly anything.
            self.counters["invalid"] += 1
            return 400, {"error": f"cannot load plan: {error}"}
        try:
            diagnostics = verify_job(
                job,
                hierarchy=doc.get("hierarchy"),
                ram_size=doc.get("ram_size"),
            )
        except ValueError as error:
            self.counters["invalid"] += 1
            return 400, {"error": str(error)}
        rejected = _verification_errors(diagnostics)
        payload = {
            "ok": not rejected,
            "diagnostics": [d.to_json() for d in diagnostics],
        }
        if rejected:
            self.counters["verifier_rejected"] += 1
            return 422, payload
        return 200, payload

    def _get(self, path: str) -> tuple[int, dict]:
        if path == "/healthz":
            reasons = list(self._degraded)
            if self._pool is not None and self._pool.degraded:
                reasons.append("worker pool degraded to serial")
            return 200, {
                "ok": True,
                "degraded": bool(reasons),
                "reasons": reasons,
                "store_plans": len(self.store),
                "recovered_records": (
                    self.counters["recovered_tmp"]
                    + self.counters["recovered_torn"]
                ),
            }
        if path == "/stats":
            return 200, self.stats()
        if path.startswith("/jobs/"):
            job = self._jobs.get(path[len("/jobs/"):])
            if job is None:
                return 404, {"error": "no such job"}
            return 200, self._job_doc(job)
        if path.startswith("/plans/"):
            digest = path[len("/plans/"):]
            try:
                record = self.store.get(digest)
            except ValueError:
                record = None
            if record is None:
                return 404, {"error": "no stored plan for that digest"}
            return 200, record
        return 404, {"error": f"no route {path!r}"}

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        status, doc = 500, {"error": "internal error"}
        try:
            request_line = (await reader.readline()).decode("latin-1")
            parts = request_line.split()
            if len(parts) < 2:
                return  # connection closed / garbage; nothing to answer
            method, target = parts[0], parts[1]
            length = 0
            while True:
                line = (await reader.readline()).decode("latin-1")
                if line in ("\r\n", "\n", ""):
                    break
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        length = 0
            url = urlsplit(target)
            if length > _MAX_BODY:
                status, doc = 413, {"error": "request body too large"}
            else:
                body = await reader.readexactly(length) if length else b""
                self.counters["requests"] += 1
                if method == "POST" and url.path == "/jobs":
                    wait = parse_qs(url.query).get("wait", ["0"])[0] not in (
                        "0", "", "false",
                    )
                    status, doc = await self._post_jobs(body, wait)
                elif method == "POST" and url.path == "/plans/check":
                    status, doc = self._post_plan_check(body)
                elif method == "GET":
                    status, doc = self._get(url.path)
                else:
                    status, doc = 405, {"error": f"method {method} not allowed"}
        except asyncio.IncompleteReadError:
            return
        except Exception as error:  # never kill the accept loop  (lint: allow-broad-except)
            status, doc = 500, {"error": f"{type(error).__name__}: {error}"}
        finally:
            try:
                payload = json.dumps(doc).encode()
                reason = _REASONS.get(status, "Unknown")
                writer.write(
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n".encode() + payload
                )
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            finally:
                writer.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _main(self, announce=None, ready=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._sem = asyncio.Semaphore(max(1, self.worker_count))
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        if announce is not None:
            announce(
                f"repro service on http://{self.host}:{self.port} "
                f"(store: {self.store.root}, plans: {len(self.store)}, "
                f"workers: {self.worker_count}, "
                f"queue cap: {self.queue_cap})"
            )
        if ready is not None:
            ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            for task in list(self._tasks):
                task.cancel()
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def run(self, announce=None) -> None:
        """Serve until interrupted (the ``repro serve`` entry point)."""
        try:
            asyncio.run(self._main(announce=announce))
        except KeyboardInterrupt:
            pass

    def start_background(self) -> "PlanService":
        """Serve from a daemon thread; returns once the port is bound.

        Test affordance — production uses :meth:`run`.  Pair with
        :meth:`stop`.
        """
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(ready=ready)),
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return self

    def stop(self) -> None:
        """Stop a background server and join its thread (idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None

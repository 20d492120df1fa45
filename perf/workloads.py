"""The six benchmark workloads: request → plan → execute.

Every workload is a closed loop driven by one client: ``setup`` builds
inputs, references and whatever must exist before timing, ``run_pass``
performs the workload's operations once and checks each against an
independent reference, and the runner repeats passes for the requested
seconds.  ``--seed`` fixes the input relations, the request order and
the hit-phase popularity draw; the program under test only ever receives
generated inputs.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.api import Session, default_registry, validation_scale_names
from repro.codegen.py_codegen import compile_exec
from repro.cost.cache import CacheStats
from repro.ocal.printer import pretty
from repro.runtime import CompiledBackend
from repro.symbolic.compile import compile_cache_size

from .inputs import bag, generate_inputs, reference_output
from .tracer import OPERATION

__all__ = ["WORKLOADS", "PassResult", "ROOT"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(
    ROOT, "tests", "bench", "goldens", "table1_winners.json"
)


@dataclass
class PassResult:
    """What one pass measured and whether it was right."""

    #: outside-timed seconds of every operation, in issue order.
    seconds: list[float]
    failed: int
    #: everything that must repeat exactly pass to pass, traced or not.
    signature: tuple
    #: per-layer metric values that do not come from span tables.
    facts: dict[str, float] = field(default_factory=dict)
    #: the operations op_p50/op_p99 describe (default: all of them).
    latencies: list[float] | None = None

    def __post_init__(self) -> None:
        if self.latencies is None:
            self.latencies = self.seconds

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def _timed(tracer, op_id: str, call, span: str = OPERATION):
    """Run ``call()`` as one operation; returns ``(result, seconds)``."""
    if tracer is None:
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start
    with tracer.operation(op_id, span):
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
    return result, seconds


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Base: construction is free; ``setup`` does the work."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False, trace: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.trace = trace
        #: checks that failed during set-up (counted by the runner).
        self.setup_attempted = 0
        self.setup_failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, tracer) -> PassResult:
        raise NotImplementedError

    def probes(self) -> dict[str, float]:
        """Extra untraced measurements taken once after a traced run."""
        return {}

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# search-cold / search-warm
# ----------------------------------------------------------------------
STRATEGIES = ("best-first", "exhaustive-bfs")
#: 3.2 s of a 5.3 s pass on its own (263 candidates costed); with it a
#: run holds two passes and three set-ups of search-warm cost 16 s, so
#: the pass is 31 requests.  The traced run still times it for the
#: parallel probe.
_TOO_LONG = ("bnl-with-cache", "exhaustive-bfs")
#: requests that get their own per-layer row.
_PLAN_ROWS = ("bnl-with-cache", "grace-join", "bnl-join")


class SearchWorkload(Workload):
    """All table1-scale registry workloads under two strategies."""

    warm = False

    def setup(self) -> None:
        registry = default_registry()
        names = ("aggregation",) if self.smoke else registry.names("table1")
        self.requests = [
            (name, strategy)
            for name in names
            for strategy in STRATEGIES
            if (name, strategy) != _TOO_LONG
        ]
        # Registry order on every seed: a search request carries
        # statistics, not data, and which request first pays for a
        # shared sub-expression in the process-wide symbolic caches
        # moves the small requests' latency by several percent.
        with open(GOLDENS) as handle:
            self.goldens = json.load(handle)
        self.registry = registry
        self.session = None
        if self.warm:
            # One shared session; a first sweep fills its memos.
            self.session = Session()
            for name, strategy in self.requests:
                job = self.session.synthesize(
                    name, scale="table1", strategy=strategy
                )
                self.setup_attempted += 1
                self.setup_failed += not self._matches_golden(job, strategy)

    def _matches_golden(self, job, strategy: str) -> bool:
        golden = self.goldens[job.workload][strategy]
        return (
            pretty(job.winner) == golden["program"]
            and list(job.derivation) == golden["derivation"]
        )

    def _memo(self, session, name: str):
        """The cost memo *session* uses for registry workload *name*."""
        experiment = self.registry.experiment(name, "table1")
        return session.synthesizer(experiment).memo_for_inputs(
            experiment.input_annots,
            experiment.input_locations,
            experiment.stats,
            experiment.output_location,
        )

    def run_pass(self, index: int, tracer) -> PassResult:
        ops, winners, costs = [], [], {}
        failed = 0
        totals = dict.fromkeys(
            ("space", "expanded", "costed", "pruned", "opt_cost"), 0.0
        )
        cache = [0] * 6  # CacheStats fields, summed over the pass
        entries = 0
        facts: dict[str, float] = {}
        for name, strategy in self.requests:
            session = self.session or Session()
            # A shared session's memo has history: snapshot it first.  A
            # fresh session's memo is fetched afterwards, so building
            # its synthesizer stays inside the timed call.
            memo = (
                self._memo(session, name)
                if tracer is not None and self.warm
                else None
            )
            before = memo.stats.snapshot() if memo else CacheStats()

            def plan(session=session, name=name, strategy=strategy):
                job = session.synthesize(
                    name, scale="table1", strategy=strategy
                )
                return job, job.to_json()

            op_id = f"{name}/{strategy}"
            (job, document), seconds = _timed(tracer, op_id, plan)
            ops.append(seconds)
            ok = self._matches_golden(job, strategy) and (
                document["derivation"] == list(job.derivation)
            )
            # Best-first prunes with an admissible bound, so it must end
            # at the cost the exhaustive search finds.
            other = costs.setdefault(name, job.opt_cost)
            ok = ok and other == job.opt_cost
            failed += not ok
            winners.append((op_id, tuple(job.derivation), job.opt_cost))
            totals["space"] += job.search.space
            totals["expanded"] += job.search.expanded
            totals["costed"] += job.search.costed
            totals["pruned"] += job.search.pruned
            totals["opt_cost"] += job.opt_cost
            if name in _PLAN_ROWS:
                facts[f"program.{name}.{strategy}.plan_s"] = seconds
            if tracer is not None:
                memo = memo or self._memo(session, name)
                delta = dataclasses.astuple(memo.stats.since(before))
                cache = [a + b for a, b in zip(cache, delta)]
                entries += sum(memo.sizes())
        plan_rows = [
            value for key, value in facts.items() if key.endswith(".plan_s")
        ]
        cache = CacheStats(*cache)
        considered = totals["costed"] + totals["pruned"]
        facts.update(
            {
                "search.space": totals["space"],
                "search.expanded": totals["expanded"],
                "search.costed": totals["costed"],
                "search.pruned": totals["pruned"],
                "search.pruned_share": (
                    totals["pruned"] / considered if considered else 0.0
                ),
                "search.opt_cost_sum": totals["opt_cost"],
                "cost.memo.estimate_hit_rate": _rate(
                    cache.estimate_hits, cache.estimate_misses
                ),
                "cost.memo.tune_hit_rate": _rate(
                    cache.tune_hits, cache.tune_misses
                ),
                "cost.memo.subtree_hit_rate": cache.subtree_hit_rate,
                "cost.memo.entries": float(entries),
                "symbolic.compile_cache_size": float(compile_cache_size()),
                "program.plan_s_geomean": _geomean(plan_rows),
            }
        )
        return PassResult(ops, failed, tuple(winners), facts)

    def probes(self) -> dict[str, float]:
        if self.smoke or (os.cpu_count() or 1) < 2:
            return {}
        walls = {}
        for workers in (1, 2):
            session = Session(workers=workers)
            start = time.perf_counter()
            session.synthesize(
                _TOO_LONG[0], scale="table1", strategy=_TOO_LONG[1]
            )
            walls[workers] = time.perf_counter() - start
        return {"parallel.search_workers2_ratio": walls[2] / walls[1]}


class SearchCold(SearchWorkload):
    name = "search-cold"


class SearchWarm(SearchWorkload):
    name = "search-warm"
    warm = True


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _geomean(values) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


# ----------------------------------------------------------------------
# exec-cpu / exec-writeout / exec-merge
# ----------------------------------------------------------------------
_COUNTERS = ("reads", "writes", "bytes_read", "bytes_written", "seeks", "erases")


def _scaled(name: str, rows: int | None):
    """The registry's validation experiment, optionally resized so its
    largest input has *rows* records (cards, key domains, statistics
    and the output-size override all scale together)."""
    experiment = default_registry().experiment(name, "validation")
    if rows is None:
        return experiment
    ratio = rows / max(spec.card for spec in experiment.inputs.values())
    experiment.inputs = {
        key: dataclasses.replace(
            spec,
            card=int(spec.card * ratio),
            key_domain=int(spec.key_domain * ratio),
        )
        for key, spec in experiment.inputs.items()
    }
    experiment.stats = {
        key: value * ratio for key, value in experiment.stats.items()
    }
    if experiment.output_card_override is not None:
        experiment.output_card_override *= ratio
    return experiment


def _device_counters(result, keys=_COUNTERS) -> tuple:
    return tuple(
        (device, tuple(getattr(stats, key) for key in keys))
        for device, stats in sorted(result.stats.devices.items())
    )


def _anchor(result) -> tuple:
    """What a run shares with the checked set-up run: the output size
    and the write side of every device.  (Capturing the output for the
    bag comparison reads it back inside the counted window, so the
    checked run's read counters are not a plain run's.)"""
    return (
        result.output_card,
        _device_counters(result, ("writes", "bytes_written")),
    )


@dataclass
class _Program:
    name: str
    job: object
    data: dict
    #: :func:`_anchor` of the checked set-up run; every timed run must
    #: reproduce it exactly.
    anchor: tuple
    #: lines of generated Python the plan lowered to.
    lines: int


class ExecWorkload(Workload):
    """Synthesized winners run on the compiled backend over real files."""

    #: (registry workload, rows or None for validation scale)
    programs: tuple = ()
    smoke_program: tuple = ()

    def setup(self) -> None:
        session = Session()
        chosen = (self.smoke_program,) if self.smoke else self.programs
        self.plans: list[_Program] = []
        for name, rows in chosen:
            experiment = _scaled(name, rows)
            # The plan comes from the code under test, so a changed
            # winner shows up as a changed priced cost below.
            job = session.synthesize(experiment)
            data = generate_inputs(experiment, self.seed)
            swap = "order-inputs" in job.derivation
            expected = bag(reference_output(name, data), pair_swap=swap)
            backend = CompiledBackend(data=data, capture_output=True)
            result = backend.run(job.program, job.inputs, job.config)
            self.setup_attempted += 1
            self.setup_failed += (
                bag(backend.last_output, pair_swap=swap) != expected
            )
            lines = compile_exec(job.program).source.count("\n") + 1
            self.plans.append(
                _Program(name, job, data, _anchor(result), lines)
            )
        random.Random(f"{self.seed}:{self.name}").shuffle(self.plans)

    def run_pass(self, index: int, tracer) -> PassResult:
        ops, signature = [], []
        failed = 0
        facts = dict.fromkeys(
            (
                "runtime.eval_wall_s", "runtime.iterations",
                "plan.priced_cost_s",
                "runtime.filestore.read_calls", "runtime.filestore.read_bytes",
                "runtime.filestore.write_calls",
                "runtime.filestore.write_bytes", "runtime.filestore.seeks",
                "codegen.generated_lines",
            ),
            0.0,
        )
        io_seconds = 0.0  # inside the filestore's own read/write timers
        for plan in self.plans:
            job = plan.job

            def execute(plan=plan, job=job):
                return CompiledBackend(data=plan.data).run(
                    job.program, job.inputs, job.config
                )

            result, seconds = _timed(tracer, plan.name, execute)
            ops.append(seconds)
            failed += _anchor(result) != plan.anchor
            # Priced cost and the full counter set must repeat run to
            # run; the runner compares signatures across passes.
            signature.append(
                (plan.name, tuple(job.derivation), result.elapsed,
                 _device_counters(result))
            )
            facts[f"program.{plan.name}.exec_wall_s"] = result.wall_seconds
            facts["runtime.eval_wall_s"] += result.wall_seconds
            facts["runtime.iterations"] += result.stats.tuples_processed
            facts["plan.priced_cost_s"] += result.elapsed
            io_seconds += result.measured_io_seconds
            for stats in result.stats.devices.values():
                facts["runtime.filestore.read_calls"] += stats.reads
                facts["runtime.filestore.read_bytes"] += stats.bytes_read
                facts["runtime.filestore.write_calls"] += stats.writes
                facts["runtime.filestore.write_bytes"] += stats.bytes_written
                facts["runtime.filestore.seeks"] += stats.seeks
            facts["codegen.generated_lines"] += plan.lines
        requests = (
            facts["runtime.filestore.read_calls"]
            + facts["runtime.filestore.write_calls"]
        )
        moved = (
            facts["runtime.filestore.read_bytes"]
            + facts["runtime.filestore.write_bytes"]
        )
        facts["runtime.filestore.bytes_per_request"] = (
            moved / requests if requests else 0.0
        )
        facts["runtime.materialize_s"] = (
            sum(ops) - facts["runtime.eval_wall_s"]
        )
        facts["program.exec_wall_s_geomean"] = _geomean(
            value
            for key, value in facts.items()
            if key.startswith("program.") and key.endswith(".exec_wall_s")
        )
        if tracer is not None:
            in_store = (
                tracer.self_seconds["runtime.filestore.read"]
                + tracer.self_seconds["runtime.filestore.write"]
            )
            facts["runtime.compute_self_s"] = (
                facts["runtime.eval_wall_s"] - in_store
            )
            facts["runtime.filestore.overhead_s"] = in_store - io_seconds
            facts["runtime.filestore.files_created"] = float(
                tracer.calls["runtime.filestore.new_file"]
            )
        return PassResult(ops, failed, tuple(sorted(signature)), facts)


class ExecCpu(ExecWorkload):
    name = "exec-cpu"
    programs = (
        ("bnl-join", None),
        ("grace-join", None),
        ("set-union", None),
        ("dup-removal", 65536),
        ("aggregation", 262144),
    )
    smoke_program = ("set-union", None)

    def probes(self) -> dict[str, float]:
        if self.smoke or (os.cpu_count() or 1) < 2:
            return {}
        plan = next(p for p in self.plans if p.name == "grace-join")
        walls = {}
        for workers in (1, 2):
            result = CompiledBackend(data=plan.data, workers=workers).run(
                plan.job.program, plan.job.inputs, plan.job.config
            )
            walls[workers] = result.wall_seconds
        return {"parallel.exec_workers2_ratio": walls[2] / walls[1]}


class ExecWriteout(ExecWorkload):
    name = "exec-writeout"
    programs = (
        ("product-writeout-hdd", None),
        ("product-writeout-hdd2", None),
        ("product-writeout-flash", None),
    )
    smoke_program = ("product-writeout-flash", 64)


class ExecMerge(ExecWorkload):
    name = "exec-merge"
    programs = (
        ("external-sort", 16384),
        ("multiset-union", 65536),
        ("column-store-5", 32768),
    )
    smoke_program = ("multiset-union", None)


# ----------------------------------------------------------------------
# serve-closed
# ----------------------------------------------------------------------
class ServeClosed(Workload):
    """The HTTP job server under one closed-loop client.

    Set-up boots the server on an empty store and posts the twelve
    validation workloads once, in registry order (cold searches; they
    fill the store and the on-disk memo spill, and workloads that share
    a memo fingerprint warm each other in a fixed order).  Every pass
    is then alike: twelve misses with a search cap no earlier pass used
    (a new digest under the same memo fingerprint, so the search is
    memo-spill-warm), a hit phase drawn with skewed popularity over the
    base and the new digests, and a plan-check phase.
    """

    name = "serve-closed"
    hits_per_pass = 1000
    checks_per_pass = 50
    process = service = None

    def setup(self) -> None:
        self.rng = random.Random(f"{self.seed}:{self.name}")
        self.names = list(validation_scale_names())
        if self.smoke:
            self.names = ["aggregation"]
            self.hits_per_pass, self.checks_per_pass = 20, 5
        self.store_dir = tempfile.mkdtemp(prefix="store-")
        if self.trace:
            # In-process so the wrappers see the server side.  The
            # worker is looked up per call: the tracer replaces it after
            # this service exists.
            from repro.service import PlanService, worker

            self.service = PlanService(
                self.store_dir, workers=1, queue_cap=64,
                synth=lambda task: worker.synthesize_request(task),
            ).start_background()
            self.port = self.service.port
        else:
            env = dict(
                os.environ,
                PYTHONPATH=os.path.join(ROOT, "src"),
                PYTHONUNBUFFERED="1",
                TMPDIR=tempfile.gettempdir(),
            )
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store",
                 self.store_dir, "--port", "0", "--workers", "1",
                 "--queue-cap", "64"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                env=env, text=True,
            )
            announced = self.process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", announced)
            if match is None:
                raise RuntimeError(f"server did not start: {announced!r}")
            self.port = int(match.group(1))
        #: request key -> (digest, winner derivation) once stored.
        self.stored: dict[tuple, tuple] = {}
        self.plans: list[dict] = []
        self.base = [
            {"workload": name, "scale": "validation"} for name in self.names
        ]
        for body in self.base:
            (status, doc), _ = self._post(None, "/jobs?wait=1", body)
            self.setup_attempted += 1
            self.setup_failed += not self._accept_miss(status, doc, body)
            self.plans.append(doc.get("plan"))

    # ------------------------------------------------------------------
    def _post(self, tracer, path: str, body: dict):
        payload = json.dumps(body)

        def call():
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=120
            )
            try:
                connection.request(
                    "POST", path, body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                return response.status, json.loads(response.read())
            finally:
                connection.close()

        # The operation span is the client's view of the request; what
        # no server-side span covers is HTTP plumbing and handler glue.
        return _timed(
            tracer, f"POST {path} {payload}", call, "service.http_self"
        )

    def _get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=120
        )
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    @staticmethod
    def _key(body: dict) -> tuple:
        return body["workload"], body.get("max_programs")

    def _accept_miss(self, status: int, doc: dict, body: dict) -> bool:
        """Check a miss response and remember what later hits must
        return for the same request."""
        ok = (
            status == 200
            and doc.get("state") == "done"
            and doc.get("source") == "search"
        )
        if ok:
            self.stored[self._key(body)] = (
                doc["digest"], tuple(doc["plan"]["derivation"]),
            )
            self.last_job_id = doc["id"]
        return ok

    def run_pass(self, index: int, tracer) -> PassResult:
        before = self._get("/stats")
        ops, failed = [], 0
        phase = dict.fromkeys(("miss", "hit", "check"), 0.0)
        # Misses: a cap no request has used yet -> a new digest.
        fresh = [dict(body, max_programs=10_000 + index) for body in self.base]
        winners = []
        for body in fresh:
            (status, doc), seconds = self._post(tracer, "/jobs?wait=1", body)
            ops.append(seconds)
            phase["miss"] += seconds
            failed += not self._accept_miss(status, doc, body)
            winners.append(
                (body["workload"], tuple(doc.get("plan", {}).get("derivation", ())))
            )
        # Hits: skewed popularity over the base and the new digests.  The
        # ranking is fixed (new digests first, registry order) and only
        # the draw is seeded: plans differ 20x in size, so a seeded
        # ranking would make every seed a different traffic mix.
        candidates = fresh + self.base
        weights = [1.0 / (rank + 1) for rank in range(len(candidates))]
        latencies = []
        for body in self.rng.choices(
            candidates, weights, k=self.hits_per_pass
        ):
            (status, doc), seconds = self._post(tracer, "/jobs", body)
            ops.append(seconds)
            phase["hit"] += seconds
            latencies.append(seconds)
            digest, derivation = self.stored[self._key(body)]
            failed += not (
                status == 200
                and doc.get("source") == "store"
                and doc.get("digest") == digest
                and tuple(doc["plan"]["derivation"]) == derivation
                and not any(doc["search"][key] for key in ("space", "costed"))
            )
        # Checks: stored plans through the static verifier.
        for plan in self.rng.choices(self.plans, k=self.checks_per_pass):
            (status, doc), seconds = self._post(
                tracer, "/plans/check", {"plan": plan}
            )
            ops.append(seconds)
            phase["check"] += seconds
            failed += not (status == 200 and doc.get("ok") is True)
        after = self._get("/stats")
        plan_files = [
            os.path.join(self.store_dir, "plans", name)
            for name in os.listdir(os.path.join(self.store_dir, "plans"))
        ]
        facts = {
            f"service.{key}": float(after[key] - before[key])
            for key in ("hits", "misses", "deduped", "rejected", "failed")
        }
        facts.update(
            {
                "service.miss_wall_s": phase["miss"],
                "service.hit_wall_s": phase["hit"],
                "service.check_wall_s": phase["check"],
                "service.job_table_size": float(
                    self.last_job_id.rpartition("-")[2]
                ),
                "service.store.bytes_per_plan": sum(
                    os.path.getsize(path) for path in plan_files
                ) / len(plan_files),
            }
        )
        expected_counts = (
            len(fresh), self.hits_per_pass, facts["service.hits"],
            facts["service.misses"],
        )
        return PassResult(
            ops, failed, (tuple(sorted(winners)), expected_counts), facts,
            latencies,
        )

    def peak_rss_mb(self) -> float:
        if self.process is None:
            return _self_rss_mb()
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        SearchCold, SearchWarm, ExecCpu, ExecWriteout, ExecMerge, ServeClosed
    )
}

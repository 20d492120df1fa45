"""The one registry of layer boundaries the traced run wraps.

Each row is ``(module, "function" | "Class.method", span name,
options)``.  The span name is also the metric stem: a per-layer metric
``<span>_s`` in ``BENCHMARK.json`` is that span's self time per pass and
``<span>_calls`` its call count, so adding a boundary here and a metric
there is the whole job.  Names follow the modules under ``src/repro/``.
"""

from __future__ import annotations

__all__ = ["TARGETS", "span_metric"]


def _tune_evaluations(counters, args, result) -> None:
    counters["optimizer.evaluations"] += result.evaluations


def _price(counters, args, result) -> None:
    # FileBackend._price(self, config, stores, evaluator, ...): the
    # evaluator's hash count and the stores' retry counts are not part
    # of the ExecutionResult, so they are read where they are priced.
    stores, evaluator = args[2], args[3]
    counters["runtime.hashes"] += evaluator.hashes
    counters["runtime.filestore.retries"] += sum(
        store.retries for store in stores.values()
    )


def _loaded(counters, args, result) -> None:
    counters["service.memo_disk.loaded_entries"] += result


def _spilled(counters, args, result) -> None:
    counters["service.memo_disk.spilled_entries"] += result


TARGETS = (
    # api
    ("repro.api.session", "Session.synthesize", "api.session.synthesize", {}),
    ("repro.api.job", "Job.to_json", "api.job.to_json", {}),
    ("repro.api.job", "Job.from_json", "api.job.from_json", {}),
    # search
    ("repro.search.strategies", "ExhaustiveBFS.search", "search.strategy", {}),
    ("repro.search.strategies", "BeamSearch.search", "search.strategy", {}),
    ("repro.search.strategies", "BestFirst.search", "search.strategy", {}),
    # rules
    ("repro.rules.engine", "iter_rewrites", "rules.iter_rewrites",
     {"yields": "rules.rewrites_yielded"}),
    # ocal
    ("repro.ocal.interp", "canonicalize_blocks", "ocal.canonicalize", {}),
    ("repro.ocal.ast", "intern_node", "ocal.canonicalize", {}),
    ("repro.ocal.serialize", "node_to_json", "ocal.serialize", {}),
    ("repro.ocal.serialize", "node_from_json", "ocal.serialize", {}),
    ("repro.ocal.serialize", "encode_value", "ocal.serialize", {}),
    ("repro.ocal.serialize", "decode_value", "ocal.serialize", {}),
    # cost
    ("repro.cost.estimator", "CostEstimator.estimate", "cost.estimate", {}),
    ("repro.cost.estimator", "optimistic_cost", "cost.optimistic_cost", {}),
    # optimizer
    ("repro.optimizer.penalty", "ParameterOptimizer.run", "optimizer.tune",
     {"observe": _tune_evaluations}),
    # symbolic
    ("repro.symbolic.compile", "compile_problem",
     "symbolic.compile_problem", {}),
    ("repro.symbolic.simplify", "simplify", "symbolic.simplify", {}),
    # codegen
    ("repro.codegen.plan", "compile_candidate",
     "codegen.compile_candidate", {}),
    ("repro.codegen.py_codegen", "compile_exec", "codegen.compile_exec", {}),
    # runtime: CompiledBackend inherits run/_materialize_inputs/_price.
    ("repro.runtime.file_backend", "FileBackend.run", "runtime.run", {}),
    # Input staging happens before the backend resets its counters, so
    # its file traffic stays inside this span instead of the filestore's.
    ("repro.runtime.file_backend", "FileBackend._materialize_inputs",
     "runtime.materialize", {"leaf": True}),
    ("repro.runtime.file_backend", "FileBackend._price", "runtime.price",
     {"observe": _price}),
    ("repro.runtime.primitives", "PrimitiveLibrary.merge_sort",
     "runtime.primitives.merge_sort", {}),
    ("repro.runtime.primitives", "PrimitiveLibrary.maybe_parallel_flatmap",
     "runtime.primitives.parallel_flatmap", {}),
    ("repro.runtime.filestore", "DeviceStore.read",
     "runtime.filestore.read", {}),
    ("repro.runtime.filestore", "DeviceStore.write",
     "runtime.filestore.write", {}),
    ("repro.runtime.filestore", "DeviceStore.new_file",
     "runtime.filestore.new_file", {}),
    # service
    ("repro.service.request", "ServiceRequest.from_json",
     "service.request.digest", {}),
    ("repro.service.request", "ServiceRequest.digest",
     "service.request.digest", {}),
    ("repro.analysis.verifier", "verify_experiment",
     "service.verify_admission", {}),
    ("repro.service.store", "PlanStore.get", "service.store.get", {}),
    ("repro.service.store", "PlanStore.put", "service.store.put", {}),
    ("repro.service.worker", "synthesize_request",
     "service.worker.synthesize", {}),
    ("repro.service.memo_disk", "load_memo", "service.memo_disk.load",
     {"observe": _loaded}),
    ("repro.service.memo_disk", "dump_memo", "service.memo_disk.dump",
     {"observe": _spilled}),
    # analysis
    ("repro.analysis.verifier", "verify_job", "analysis.verify_job", {}),
)

def span_metric(metric: str, tracer) -> float | None:
    """The value *tracer* recorded for *metric* this pass — self time
    for ``<span>_s``, calls for ``<span>_calls``, or an observed
    counter — or ``None`` when it recorded nothing by that name."""
    stem, _, suffix = metric.rpartition("_")
    if suffix == "s" and stem in tracer.self_seconds:
        return tracer.self_seconds[stem]
    if suffix == "calls" and stem in tracer.calls:
        return float(tracer.calls[stem])
    if metric in tracer.counters:
        return float(tracer.counters[metric])
    return None

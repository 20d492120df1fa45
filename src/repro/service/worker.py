"""The synthesis worker: one service request, start to finish.

:func:`synthesize_request` is the function the server fans out over its
:class:`~repro.parallel.WorkerPool` — module-level so it pickles by
reference into forked workers, and taking one ``(request_doc,
memo_dir)`` tuple so nothing non-picklable crosses the pool boundary.
Each call builds a fresh :class:`~repro.api.Session`, checks the
experiment's cost memo out of this process's resident set (a fresh one
when the model is new here), catches it up with the on-disk log, runs
the search on it, appends what the search added to the log, and checks
the memo back in.  It returns a JSON-able payload: the versioned plan
document, the search statistics, and the memo traffic.
"""

from __future__ import annotations

from ..api.session import Session
from .memo_disk import (
    ResidentMemos,
    dump_memo,
    load_memo,
    memo_fingerprint,
    spill_path,
)
from .request import ServiceRequest

__all__ = ["synthesize_request"]

#: this worker process's warm memos, one per spill log.
_RESIDENT = ResidentMemos()


def synthesize_request(task: tuple) -> dict:
    """Synthesize one request; returns ``{plan, search, synth_seconds,
    memo_loaded, memo_spilled}``.

    ``task`` is ``(request_doc, memo_dir)``; ``memo_dir=None`` disables
    the persistent memo spill (tests, ephemeral runs).  ``memo_loaded``
    is the number of log-backed entries the search started warm with
    (decoded for this request or already resident), ``memo_spilled``
    the number this process knows the log holds after the request.
    """
    request_doc, memo_dir = task
    request = ServiceRequest.from_json(request_doc)
    experiment, scale = request.resolve()
    session = Session(strategy=request.strategy)
    if memo_dir is None:
        job = session.synthesize(experiment, scale=scale)
        loaded = spilled = 0
    else:
        path = spill_path(memo_dir, memo_fingerprint(experiment))
        memo = _RESIDENT.checkout(path)
        loaded = load_memo(memo, path)
        session.synthesizer(experiment).memo_for_inputs(
            experiment.input_annots,
            experiment.input_locations,
            experiment.stats,
            experiment.output_location,
            adopt=memo,
        )
        job = session.synthesize(experiment, scale=scale)
        spilled = dump_memo(memo, path)
        # Only now: a request that raised leaves nothing resident, and
        # the next one rebuilds from the log.
        _RESIDENT.checkin(path, memo)
    return {
        "plan": job.to_json(),
        "search": job.search.to_json(),
        "synth_seconds": job.synth_seconds,
        "memo_loaded": loaded,
        "memo_spilled": spilled,
    }

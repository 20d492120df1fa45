"""The persistent cost-memo spill: an append-only log per cost model.

A restarted server that only kept its plan store would still pay full
search for every *new* request; the expensive inner loop — symbolic
estimation and parameter tuning — is memoized in
:class:`~repro.cost.cache.CostMemo` tables that this module keeps on
disk:

* **estimates** — keyed by the hash-consed program; the value is the
  full :class:`~repro.cost.estimator.CostEstimate` (events, located
  result, total, constraints, parameters).  Memoized estimation
  *failures* spill too (uncostable candidates are common in search).
* **tunings** — keyed by the optimization problem (total expression,
  constraints, parameter set, statistics, penalty rounds); the value is
  the :class:`~repro.optimizer.penalty.OptimizationResult`.

Logs live under the plan store's ``memo/`` directory, one
``<fingerprint>.jsonl`` per **model fingerprint** (hierarchy +
annotations + locations + stats + output placement) — the same sharing
rule :class:`CostMemo` itself enforces.  A log is one header line, then
one compact-JSON line per entry (``{"e": program, "v": estimate}`` or
``{"t": problem, "v": tuning}``), and is only ever appended to:

* :func:`dump_memo` encodes the entries the memo gained since its last
  spill (found by walking its insertion-ordered tables back to the last
  spilled key) and appends them with one ``write`` on an ``O_APPEND``
  descriptor — which the kernel places and performs atomically with
  respect to other appenders.  Nothing new means the file is not even
  opened.
* :func:`load_memo` is a *catch-up*: this module keeps a cursor per
  live memo (bytes of the log consumed, entries known log-backed, last
  spilled keys), so only bytes other processes appended since are
  parsed.  Values are deterministic, so a duplicate entry is harmless
  and the first one wins; an undecodable or torn line is skipped,
  never the file.
* :class:`ResidentMemos` keeps the decoded memos of recent fingerprints
  in the worker process, so back-to-back requests against one model pay
  neither decode nor encode for entries they did not compute.

The subtree (incremental re-estimation) and bounds tables are
deliberately not spilled: the first is an order of magnitude larger,
and both are rebuilt as a side effect of using the entries that are.

Exprs are re-interned on load and programs re-hash-consed, so warm
entries hit the same pointer-equality fast paths as freshly computed
ones.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from ..cost.cache import CostMemo
from ..cost.estimator import CostEstimate, Located
from ..cost.events import Constraint, CostEvents
from ..ocal.ast import intern_node
from ..ocal.serialize import (
    decode_value,
    encode_value,
    node_from_json,
    node_to_json,
)
from ..optimizer.penalty import OptimizationResult
from ..symbolic import intern_expr
from .request import canonical_digest

__all__ = [
    "MEMO_FORMAT",
    "ResidentMemos",
    "memo_fingerprint",
    "spill_path",
    "dump_memo",
    "load_memo",
    "recover_spills",
]

#: log format tag; a log whose first line is not this header reads as
#: empty and is left alone until the startup sweep removes it.
MEMO_FORMAT = "repro-memo/2"

_HEADER = json.dumps({"format": MEMO_FORMAT}).encode() + b"\n"


def memo_fingerprint(experiment) -> str:
    """The spill key for one experiment's cost model.

    Everything the estimator's output depends on: the hierarchy (edge
    weights live here — two hierarchies must never share a spill), the
    input annotations, placements, statistics and the output location.
    Search caps and rule sets are deliberately absent: the memo caches
    pure functions of (model, program), so runs with different caps
    still share entries.
    """
    doc = {
        "hierarchy": experiment.hierarchy.to_json(),
        "annots": [
            [name, encode_value(annot)]
            for name, annot in sorted(experiment.input_annots.items())
        ],
        "input_locations": dict(sorted(experiment.input_locations.items())),
        "stats": sorted(
            (name, float(value)) for name, value in experiment.stats.items()
        ),
        "output_location": experiment.output_location,
    }
    return canonical_digest(doc)


def spill_path(memo_dir: str, fingerprint: str) -> str:
    return os.path.join(memo_dir, f"{fingerprint}.jsonl")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode_events(events: CostEvents) -> dict:
    # init/unit are keyed by (src, dst) tuples — JSON objects cannot
    # carry tuple keys, so each table becomes a list of [key, value].
    return {
        "init": [
            [encode_value(edge), encode_value(expr)]
            for edge, expr in events.init.items()
        ],
        "unit": [
            [encode_value(edge), encode_value(expr)]
            for edge, expr in events.unit.items()
        ],
    }


def _decode_events(doc: dict) -> CostEvents:
    return CostEvents(
        init={
            decode_value(edge): intern_expr(decode_value(expr))
            for edge, expr in doc["init"]
        },
        unit={
            decode_value(edge): intern_expr(decode_value(expr))
            for edge, expr in doc["unit"]
        },
    )


def _encode_constraint(constraint: Constraint) -> list:
    return [
        encode_value(constraint.lhs),
        encode_value(constraint.rhs),
        constraint.reason,
    ]


def _decode_constraint(doc: list) -> Constraint:
    lhs, rhs, reason = doc
    return Constraint(
        intern_expr(decode_value(lhs)), intern_expr(decode_value(rhs)), reason
    )


def _encode_estimate(estimate: CostEstimate) -> dict:
    return {
        "events": _encode_events(estimate.events),
        "result": {
            "annot": encode_value(estimate.result.annot),
            "loc": estimate.result.loc,
        },
        "total": encode_value(estimate.total),
        "constraints": [
            _encode_constraint(c) for c in estimate.constraints
        ],
        "parameters": encode_value(estimate.parameters),
    }


def _decode_estimate(doc: dict) -> CostEstimate:
    return CostEstimate(
        events=_decode_events(doc["events"]),
        result=Located(
            annot=decode_value(doc["result"]["annot"]),
            loc=doc["result"]["loc"],
        ),
        total=intern_expr(decode_value(doc["total"])),
        constraints=[_decode_constraint(c) for c in doc["constraints"]],
        parameters=decode_value(doc["parameters"]),
    )


def _encode_tune_key(key: tuple) -> dict:
    total, constraints, parameters, stats, penalty_rounds = key
    return {
        "total": encode_value(total),
        "constraints": [_encode_constraint(c) for c in constraints],
        "parameters": encode_value(parameters),
        "stats": [[name, value] for name, value in stats],
        "penalty_rounds": penalty_rounds,
    }


def _decode_tune_key(doc: dict) -> tuple:
    return (
        intern_expr(decode_value(doc["total"])),
        tuple(_decode_constraint(c) for c in doc["constraints"]),
        decode_value(doc["parameters"]),
        tuple((name, value) for name, value in doc["stats"]),
        doc["penalty_rounds"],
    )


def _encode_tuning(result: OptimizationResult) -> dict:
    return {
        "values": dict(result.values),
        "cost": result.cost,
        "feasible": result.feasible,
        "evaluations": result.evaluations,
    }


def _decode_tuning(doc: dict) -> OptimizationResult:
    return OptimizationResult(
        values=dict(doc["values"]),
        cost=doc["cost"],
        feasible=doc["feasible"],
        evaluations=doc.get("evaluations", 0),
    )


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
@dataclass
class _Cursor:
    """What one memo knows about one log."""

    path: str
    #: bytes of the log this memo has consumed (parsed or written).
    offset: int = 0
    #: entries the memo holds that are known to be in the log.
    entries: int = 0
    #: newest (estimate, tuning) keys known to be in the log; every
    #: entry up to them is too (see :meth:`CostMemo.last_keys`).
    marks: tuple = (None, None)


#: one cursor per live memo; the memo itself carries no spill state.
_CURSORS: "weakref.WeakKeyDictionary[CostMemo, _Cursor]" = (
    weakref.WeakKeyDictionary()
)


def _held(memo: CostMemo) -> int:
    """The entries *memo* holds in its two spilled tables."""
    estimates, tunings, _ = memo.sizes()
    return estimates + tunings


def _cursor(memo: CostMemo, path: str) -> _Cursor:
    cursor = _CURSORS.get(memo)
    if cursor is None or cursor.path != path or not _held(memo):
        # New to this log, or emptied since: it has consumed nothing.
        cursor = _CURSORS[memo] = _Cursor(path)
    return cursor


def _at_marks(memo: CostMemo, cursor: _Cursor) -> bool:
    """Whether *memo* holds nothing newer than *cursor*'s marks."""
    estimate, tuning = memo.last_keys()
    return estimate is cursor.marks[0] and tuning is cursor.marks[1]


def _line(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode() + b"\n"


def _seed_line(memo: CostMemo, line: bytes) -> bool:
    """Decode one log line into *memo*; whether it added an entry."""
    try:
        doc = json.loads(line)
        if "e" in doc:
            return memo.seed_estimate(
                intern_node(node_from_json(doc["e"])),
                None if doc["v"] is None else _decode_estimate(doc["v"]),
            )
        return memo.seed_tuning(
            _decode_tune_key(doc["t"]), _decode_tuning(doc["v"])
        )
    except Exception:  # lint: allow-broad-except
        # A torn, foreign or hostile line costs its own entry only.
        return False


def load_memo(memo: CostMemo, path: str) -> int:
    """Catch *memo* up with the log at *path*.

    Parses only the complete lines appended since this memo last read
    or wrote the log (all of it for a memo new to the log) and returns
    the log-backed entries the memo now holds — decoded just now or
    already resident.  A missing, foreign or stale-format log loads
    nothing; an undecodable line is skipped.
    """
    cursor = _cursor(memo, path)
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < cursor.offset:
                # Replaced or cut back under us: start over.  The marks
                # go too, so the next spill re-appends what it lost.
                cursor = _CURSORS[memo] = _Cursor(path)
            if size == cursor.offset:
                return cursor.entries
            handle.seek(cursor.offset)
            data = handle.read()
    except OSError:
        _CURSORS.pop(memo, None)
        return 0
    # A last line without its newline may still be in flight.
    data = data[: data.rfind(b"\n") + 1]
    if cursor.offset == 0 and not data.startswith(_HEADER):
        return 0
    clean = _at_marks(memo, cursor)
    # The header (and a second one left by a creation race) decodes to
    # no entry, like any other line that is not one.
    seeded = sum(_seed_line(memo, line) for line in data.splitlines())
    cursor.offset += len(data)
    if clean:
        # Everything the memo holds came from the log or went to it.
        cursor.marks = memo.last_keys()
        cursor.entries = _held(memo)
    else:
        cursor.entries += seeded
    return cursor.entries


def dump_memo(memo: CostMemo, path: str) -> int:
    """Append the entries *memo* gained since its last spill to *path*.

    Returns the entries of *memo* this process knows the log holds
    afterwards.  With nothing new the file is not touched; neither is a
    file that does not start with this format's header — cutting it
    back here could discard what a concurrent appender just wrote, so
    nothing spills to it until :func:`recover_spills` has removed it.
    """
    cursor = _cursor(memo, path)
    lines = [
        _line(
            {
                "e": node_to_json(program),
                "v": None if estimate is None else _encode_estimate(estimate),
            }
        )
        for program, estimate in memo.estimates_after(cursor.marks[0])
    ]
    lines += [
        _line({"t": _encode_tune_key(key), "v": _encode_tuning(result)})
        for key, result in memo.tunings_after(cursor.marks[1])
    ]
    if not lines:
        return cursor.entries
    data = b"".join(lines)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size == 0:
            data = _HEADER + data
        elif os.pread(fd, len(_HEADER), 0) != _HEADER:
            # Stale format or foreign bytes: the startup sweep's to remove.
            return cursor.entries
        elif os.pread(fd, 1, size - 1) != b"\n":
            # A writer died mid-line: seal its torn tail so that our
            # first entry does not become part of an undecodable line.
            data = b"\n" + data
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        end = os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)
    if end - len(data) == cursor.offset:
        # Nobody else appended in between; otherwise the next catch-up
        # re-reads our own lines too, which seed nothing.
        cursor.offset = end
    # Whatever preceded the marks was in the log already, the rest went
    # just now (all of it, when a mark had been shed from its table).
    cursor.marks = memo.last_keys()
    cursor.entries = _held(memo)
    return cursor.entries


def _has_header(path: str) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(len(_HEADER)) == _HEADER
    except OSError:
        return False


def recover_spills(memo_dir: str) -> int:
    """Crash-only startup sweep of the spill directory.

    A log whose last line has no newline (a writer died mid-append) is
    cut back to its last complete line — earlier lines survive; a log
    without this format's header, and every ``repro-memo/1`` ``*.json``
    spill, is removed.  An intact log costs a look at its first and
    last bytes, whatever its size.  Returns the files repaired or removed.
    """
    swept = 0
    try:
        names = sorted(os.listdir(memo_dir))
    except OSError:
        return swept
    for name in names:
        path = os.path.join(memo_dir, name)
        try:
            if name.endswith(".json") or (
                name.endswith(".jsonl") and not _has_header(path)
            ):
                os.unlink(path)
                swept += 1
            elif name.endswith(".jsonl"):
                with open(path, "rb+") as handle:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.seek(0)
                        handle.truncate(handle.read().rfind(b"\n") + 1)
                        swept += 1
        except OSError:  # pragma: no cover - racing cleanup
            pass
    return swept


# ----------------------------------------------------------------------
# Resident memos
# ----------------------------------------------------------------------
#: memos a worker process keeps resident.  A resident memo also keeps
#: its (much larger, unspilled) subtree table alive, so this bounds the
#: worker's RSS; the value is not measured beyond the benchmark's 12
#: fingerprints, which never reach it.
_RESIDENT_CAP = 16


class ResidentMemos:
    """A small LRU of decoded memos, keyed by log path.

    A request *checks a memo out* for its duration and back in once its
    spill succeeded, so no two searches ever share a ``CostMemo``: a
    concurrent request for the same log (the retry of a timed-out
    thread-executor job, say) finds nothing resident and builds its own
    from the log.  A memo that is never checked back in — its request
    failed — is simply dropped; the log is the truth.
    """

    def __init__(self) -> None:
        self._memos: "OrderedDict[str, CostMemo]" = OrderedDict()
        self._lock = threading.Lock()

    def checkout(self, path: str) -> CostMemo:
        """The resident memo for *path* (removed while in use), or a
        fresh one."""
        with self._lock:
            memo = self._memos.pop(path, None)
        return CostMemo() if memo is None else memo

    def checkin(self, path: str, memo: CostMemo) -> None:
        """Make *memo* the resident memo for *path* (most recent)."""
        with self._lock:
            self._memos[path] = memo
            self._memos.move_to_end(path)
            while len(self._memos) > _RESIDENT_CAP:
                self._memos.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memos)

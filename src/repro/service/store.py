"""The disk-backed, content-addressed plan store.

One JSON file per request digest under ``<root>/plans/``, each holding
the canonical request, the versioned plan document
(:meth:`repro.api.Job.to_json`), the original search statistics, and
provenance metadata.  Writes are atomic (temp file + rename), so a
crashed server never leaves a half-written record a restarted one
would trust.  Records whose store or plan format tag is stale read as
misses — the next search simply overwrites them.

``<root>/memo/`` holds the cost-memo spill logs (see
:mod:`repro.service.memo_disk`); the store hands out the directory and
runs that module's sweep at startup.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from ..api.job import PLAN_FORMAT
from ..version import __version__
from .memo_disk import recover_spills

__all__ = ["STORE_FORMAT", "PlanStore"]

#: store-record format tag; bumped on incompatible record layouts.
STORE_FORMAT = "repro-plan-store/1"

_DIGEST_CHARS = frozenset("0123456789abcdef")


def _atomic_write_json(path: str, document: dict) -> None:
    """Write *document* to *path* with no torn-file window."""
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:  # lint: allow-broad-except
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class PlanStore:
    """Content-addressed plan documents on disk, keyed by digest."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.plans_dir = os.path.join(self.root, "plans")
        self.memo_dir = os.path.join(self.root, "memo")
        os.makedirs(self.plans_dir, exist_ok=True)
        os.makedirs(self.memo_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Crash-only startup sweep; returns what was cleaned up.

        A server killed between :func:`_atomic_write_json`'s write and
        rename leaves an orphaned ``*.tmp``; a torn or truncated plan
        record (crash mid-``os.replace`` on exotic filesystems, manual
        corruption) parses as garbage.  Both are deleted — ``get``
        already treats them as misses, so removal never loses a
        servable plan.  Memo logs are append-only, so a torn one is cut
        back to its last complete line instead
        (:func:`~repro.service.memo_disk.recover_spills`, which also
        removes spills this version cannot read).  Counted for
        ``/stats``: ``{"tmp_files": N, "torn_records": M}``, a repaired
        or removed spill being one torn record.
        """
        removed = {"tmp_files": 0, "torn_records": 0}
        for directory in (self.plans_dir, self.memo_dir):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in sorted(names):
                path = os.path.join(directory, name)
                try:
                    if name.endswith(".tmp"):
                        os.unlink(path)
                        removed["tmp_files"] += 1
                    elif directory is self.plans_dir and name.endswith(".json"):
                        try:
                            with open(path) as handle:
                                json.load(handle)
                        except ValueError:
                            os.unlink(path)
                            removed["torn_records"] += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        removed["torn_records"] += recover_spills(self.memo_dir)
        return removed

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> str:
        if not digest or set(digest) - _DIGEST_CHARS:
            raise ValueError(f"malformed digest {digest!r}")
        return os.path.join(self.plans_dir, f"{digest}.json")

    def get(self, digest: str) -> dict | None:
        """The stored record for *digest*, or ``None`` on miss.

        Unreadable, corrupt, or format-incompatible records are misses
        (the caller re-synthesizes and overwrites) — the store must
        never turn a stale byte layout into a served plan.
        """
        try:
            with open(self.path_for(digest)) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        if record.get("format") != STORE_FORMAT:
            return None
        plan = record.get("plan")
        if not isinstance(plan, dict) or plan.get("format") != PLAN_FORMAT:
            return None
        return record

    def put(
        self,
        digest: str,
        request: dict,
        plan: dict,
        search: dict,
        synth_seconds: float,
    ) -> dict:
        """Persist one synthesized plan; returns the stored record."""
        record = {
            "format": STORE_FORMAT,
            "repro_version": __version__,
            "digest": digest,
            "created": time.time(),
            "request": request,
            "plan": plan,
            "search": dict(search),
            "synth_seconds": synth_seconds,
        }
        _atomic_write_json(self.path_for(digest), record)
        return record

    # ------------------------------------------------------------------
    def digests(self) -> list[str]:
        """Every digest with a record on disk (sorted)."""
        try:
            names = os.listdir(self.plans_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self.digests())

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None

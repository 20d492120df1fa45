"""A wrapper tracer: spans recorded from outside the program.

The benchmark may not edit ``src/``, so layer boundaries are observed by
replacing public entry points with timing wrappers for the length of a
traced run (:meth:`Tracer.install` / :meth:`Tracer.uninstall`).  Each
call becomes one span — name, start, end, the span that caused it, and
the identifier of the benchmark operation it belongs to — kept in memory
and written out by the caller when the run ends.

Self time is maintained as spans close: a span's duration is added to
its parent's child total, and ``duration - child total`` to the
per-name ``self_seconds`` table, so the tables of one pass sum to the
time covered by that pass's operation spans.

Spans on other threads (the in-process plan service's event loop and
its search executor) have no local parent; they attach to the open
operation span, which is the request that is blocked on them — the
benchmark is a closed loop with one request in flight.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "OPERATION"]

#: default name of an operation span; its self time is benchmark glue
#: between layer calls, i.e. wall no layer accounts for.
OPERATION = "bench.op"

# Frame layout (a list, mutated as children close).
_NAME, _ID, _PARENT, _START, _CHILD, _LEAF = range(6)


class Tracer:
    """In-memory span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._operation: list | None = None
        self._request_id: str | None = None
        self.reset()

    def reset(self) -> None:
        """Start a fresh pass: drop spans and per-name tables."""
        self.spans: list[tuple] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: free-form counts observed at span boundaries (bytes, entries).
        self.counters: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str, leaf: bool = False) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._operation
        frame = [name, next(self._ids), parent, 0.0, 0.0, leaf]
        stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame[_START]
        name = frame[_NAME]
        self.self_seconds[name] += duration - frame[_CHILD]
        self.calls[name] += 1
        parent = frame[_PARENT]
        if parent is not None:
            parent[_CHILD] += duration
        self.spans.append(
            (
                frame[_ID],
                parent[_ID] if parent is not None else 0,
                self._request_id,
                name,
                frame[_START],
                end,
            )
        )

    @contextmanager
    def operation(self, request_id: str, name: str = OPERATION):
        """The span of one benchmark operation (one request or run).

        Spans opened on threads with an empty stack while it is open
        become its children and carry ``request_id``.
        """
        self._request_id = request_id
        frame = self._open(name)
        self._operation = frame
        try:
            yield
        finally:
            self._operation = None
            self._close(frame)
            self._request_id = None

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, leaf: bool = False, observe=None):
        """``fn`` timed as a span called ``name``.

        Directly recursive calls (``intern_node``, ``node_to_json``)
        stay inside the outermost span.  ``leaf`` suppresses spans
        nested under this one, so its self time is its whole duration.
        ``observe(counters, args, result)`` runs after a successful
        call, outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and (stack[-1][_LEAF] or stack[-1][_NAME] == name):
                return fn(*args, **kwargs)
            frame = tracer._open(name, leaf)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, yielded: str):
        """A generator function timed per ``next()``: one span for each
        resumption, so time the consumer spends between items (costing
        the rewrite it was just handed) is not charged to the producer.
        ``counters[yielded]`` counts the items."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame)
                tracer.counters[yielded] += 1
                yield item

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        """Replace each target with its traced wrapper.

        A target is ``(module, path, span name, options)``; ``path`` is
        ``"function"`` or ``"Class.method"``.  Module-level functions
        are replaced in every loaded ``repro`` module that holds a
        reference, because callers bind them with ``from x import f``.
        Everything is resolved from strings, so nothing here imports
        the entry points ``ruff.toml`` fences off.
        """
        for module_name, path, name, options in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            make = (
                functools.partial(
                    self.wrap_generator, yielded=options["yields"]
                )
                if "yields" in options
                else functools.partial(
                    self.wrap,
                    leaf=options.get("leaf", False),
                    observe=options.get("observe"),
                )
            )
            if owner_name:
                owner = getattr(module, owner_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(make(raw.__func__, name))
                else:
                    replacement = make(raw, name)
                self._patch(owner, attr, raw, replacement)
                continue
            original = getattr(module, attr)
            replacement = make(original, name)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                    loaded_name == "repro" or loaded_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, original, replacement)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the current pass's spans as JSON lines."""
        with open(path, "w") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )

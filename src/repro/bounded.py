"""Bounded eviction for the insertion-ordered memo tables.

The cost memo (``repro.cost.cache``) and the rewrite engine's firing
table (``repro.rules.engine``) both cap their dicts the same way; this
module holds that one helper so neither package imports the other.
"""

from __future__ import annotations

from itertools import islice

__all__ = ["trim_oldest_half"]


def trim_oldest_half(table: dict) -> None:
    """Drop the oldest half of *table* (dict order = insertion order).

    Bounded eviction that keeps the still-hot recent half alive; the
    old behaviour (``table.clear()``) threw away a full table of
    amortization in one insert.
    """
    for key in list(islice(iter(table), max(1, len(table) // 2))):
        del table[key]

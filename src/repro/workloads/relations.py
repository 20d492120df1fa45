"""Synthetic relation generators and workload statistics.

Two layers:

* **Concrete generators** — small Python lists for semantic tests and
  examples (random tuples, sorted lists, multisets, column files);
* **Scale descriptors** — :class:`RelationProfile` objects carrying the
  cardinality/width/selectivity statistics the estimator and the bulk
  executor consume for gigabyte-scale runs.

Determinism: every generator takes an explicit ``rng`` (a
``random.Random``) and falls back to a local ``Random(seed)`` with a
fixed default seed, so real-backend runs and tests reproduce the same
relations across processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..runtime.accounting import InputSpec

__all__ = [
    "RelationProfile",
    "join_selectivity",
    "make_tuples",
    "make_sorted_unique",
    "make_sorted_multiset",
    "make_value_multiplicity",
    "make_columns",
    "make_singleton_runs",
]


@dataclass(frozen=True)
class RelationProfile:
    """Statistics describing a stored relation at benchmark scale."""

    card: int
    elem_bytes: int
    key_domain: int = 0  # 0 = keys unique per tuple
    sorted: bool = False

    @property
    def total_bytes(self) -> int:
        return self.card * self.elem_bytes

    def input_spec(self) -> InputSpec:
        """The executor-facing view of this relation."""
        return InputSpec(
            card=self.card, elem_bytes=self.elem_bytes, sorted=self.sorted
        )


def join_selectivity(r: RelationProfile, s: RelationProfile) -> float:
    """P(joinCond) for an equi-join under containment of key domains.

    With keys uniform over a domain of size D, each of the ``x·y`` pairs
    matches with probability 1/D.  ``key_domain == 0`` (unique keys)
    degenerates to 1/max(card) — a foreign-key join.
    """
    domain = max(r.key_domain, s.key_domain)
    if domain <= 0:
        domain = max(r.card, s.card, 1)
    return 1.0 / domain


def make_tuples(
    card: int,
    key_domain: int,
    payload: int = 0,
    seed: int = 0,
    rng: random.Random | None = None,
) -> list[tuple]:
    """Random ⟨key, payload…⟩ tuples with keys uniform over a domain."""
    rng = rng if rng is not None else random.Random(seed)
    out = []
    for i in range(card):
        row = (rng.randrange(key_domain),) + tuple(
            rng.randrange(1000) for _ in range(payload)
        )
        out.append(row if payload else (row[0], i))
    return out


def make_sorted_unique(
    card: int, domain: int, seed: int = 0,
    rng: random.Random | None = None,
) -> list[int]:
    """A sorted list of distinct values — a set representation."""
    rng = rng if rng is not None else random.Random(seed)
    if card > domain:
        raise ValueError("cannot draw more unique values than the domain")
    return sorted(rng.sample(range(domain), card))


def make_sorted_multiset(
    card: int, domain: int, seed: int = 0,
    rng: random.Random | None = None,
) -> list[int]:
    """A sorted list with duplicates — a multiset representation."""
    rng = rng if rng is not None else random.Random(seed)
    return sorted(rng.randrange(domain) for _ in range(card))


def make_value_multiplicity(
    values: int,
    domain: int,
    max_mult: int = 5,
    seed: int = 0,
    rng: random.Random | None = None,
) -> list[tuple[int, int]]:
    """Sorted ⟨value, multiplicity⟩ pairs with unique values."""
    rng = rng if rng is not None else random.Random(seed)
    chosen = sorted(rng.sample(range(domain), values))
    return [(value, rng.randrange(1, max_mult + 1)) for value in chosen]


def make_columns(
    rows: int, columns: int, seed: int = 0,
    rng: random.Random | None = None,
) -> dict[str, list[int]]:
    """Column-store files C1 … Cn of equal length."""
    rng = rng if rng is not None else random.Random(seed)
    return {
        f"C{i + 1}": [rng.randrange(10**6) for _ in range(rows)]
        for i in range(columns)
    }


def make_singleton_runs(
    card: int, domain: int, seed: int = 0,
    rng: random.Random | None = None,
) -> list[list[int]]:
    """The sort spec's input: a list of singleton lists."""
    rng = rng if rng is not None else random.Random(seed)
    return [[rng.randrange(domain)] for _ in range(card)]

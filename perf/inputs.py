"""Seeded inputs and independent reference outputs for the exec workloads.

Inputs come from ``repro.workloads.relations`` driven by a
``random.Random`` derived from ``--seed`` and are handed to the backend
through ``data=``; the program never sees the seed.  Expected outputs
are computed here in plain Python — a hash join, a cross product, a
sort — and never by a File/CompiledBackend, so an execution bug cannot
certify itself.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.runtime.filestore import Rec
from repro.workloads.relations import (
    make_singleton_runs,
    make_sorted_multiset,
    make_sorted_unique,
    make_tuples,
)

__all__ = ["generate_inputs", "reference_output", "bag"]


def _generate(spec, rng: random.Random) -> list:
    """One relation matching an ``InputSpec`` (card, width, sortedness)."""
    card, width = int(spec.card), int(spec.elem_bytes)
    if spec.nested_runs:
        return make_singleton_runs(card, spec.key_domain or 4 * card, rng=rng)
    if width <= 8:
        domain = spec.key_domain or 4 * card
        if not spec.sorted:
            return [rng.randrange(domain) for _ in range(card)]
        if card <= domain:
            return make_sorted_unique(card, domain, rng=rng)
        return make_sorted_multiset(card, domain, rng=rng)
    # Wide records: an 8-byte key plus a payload column padded on disk.
    shape = (8, width - 8)
    rows = make_tuples(card, spec.key_domain or card, rng=rng)
    if spec.sorted:
        rows.sort()
    return [Rec(row, shape) for row in rows]


def generate_inputs(experiment, seed: int) -> dict[str, list]:
    """Every input relation of *experiment*, reproducible from *seed*."""
    rng = random.Random(f"{seed}:{experiment.name}")
    return {
        name: _generate(spec, rng)
        for name, spec in sorted(experiment.inputs.items())
    }


# ----------------------------------------------------------------------
# References: one short function per specification family.
# ----------------------------------------------------------------------
def _join(data):
    by_key: dict = {}
    for y in data["S"]:
        by_key.setdefault(y[0], []).append(tuple(y))
    return [
        (tuple(x), y) for x in data["R"] for y in by_key.get(x[0], ())
    ]


def _product(data):
    right = [tuple(y) for y in data["S"]]
    return [(tuple(x), y) for x in data["R"] for y in right]


def _sort(data):
    return sorted(run[0] for run in data["Rs"])


def _set_union(data):
    return sorted(set(data["A"]) | set(data["B"]))


def _multiset_union(data):
    return sorted(data["A"] + data["B"])


def _dedup(data):
    return sorted(set(data["A"]))


def _sum(data):
    return sum(data["A"])


def _zip_columns(data):
    columns = [data[name] for name in sorted(data, key=lambda n: int(n[1:]))]
    return list(zip(*columns))


_REFERENCES = {
    "bnl-join": _join,
    "grace-join": _join,
    "product-writeout-hdd": _product,
    "product-writeout-hdd2": _product,
    "product-writeout-flash": _product,
    "external-sort": _sort,
    "set-union": _set_union,
    "multiset-union": _multiset_union,
    "dup-removal": _dedup,
    "aggregation": _sum,
    "column-store-5": _zip_columns,
}


def reference_output(program: str, data: dict[str, list]):
    """The expected output of registry workload *program* on *data*."""
    return _REFERENCES[program](data)


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def bag(value, pair_swap: bool = False):
    """Comparable form of an output: lists as multisets, scalars as-is.

    ``pair_swap`` identifies 2-tuples up to component order, which is
    the equivalence the ``order-inputs`` rule is specified up to.
    """
    if not isinstance(value, list):
        return value
    if not pair_swap:
        try:
            # Rows are ints or (nested) tuples already; 64 Ki of them
            # per write-out program make the generic walk below show up
            # in set-up time.
            return Counter(value)
        except TypeError:
            pass
    items = (_freeze(item) for item in value)
    if pair_swap:
        items = (
            tuple(sorted(item, key=repr))
            if isinstance(item, tuple) and len(item) == 2
            else item
            for item in items
        )
    return Counter(items)

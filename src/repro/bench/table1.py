"""The sixteen experiments of Table 1, rescaled to simulator size.

Every factory returns a ready-to-run :class:`~repro.bench.harness.Experiment`
with the paper's reference numbers attached.  Inputs are smaller than the
paper's (Python synthesis + simulation vs a Scala tool + real disks) but
stay in the same *regime*: relations exceed the buffer pool, outputs of
the write-out experiments dominate the inputs, and so on.

Tuple widths are realistic (512-byte join tuples, 8-byte scan elements):
with 1-byte elements a nested-loop join is pure CPU, which matches
neither the paper's I/O-bound measurements nor any practical workload.
"""

from __future__ import annotations

from ..cost.annotated import atom, list_annot, tuple_annot
from ..hierarchy import (
    KB,
    MB,
    hdd_flash_hierarchy,
    hdd_ram_cache_hierarchy,
    hdd_ram_hierarchy,
    two_hdd_hierarchy,
)
from ..runtime.accounting import InputSpec
from ..symbolic import var
from ..workloads.specs import (
    aggregation_spec,
    column_store_read_spec,
    duplicate_removal_spec,
    insertion_sort_spec,
    multiset_diff_multiplicity_spec,
    multiset_diff_sorted_spec,
    multiset_union_multiplicity_spec,
    multiset_union_sorted_spec,
    naive_join_spec,
    naive_product_spec,
    set_union_spec,
)
from .harness import Experiment

__all__ = [
    "bnl_no_writeout",
    "bnl_with_cache",
    "grace_hash_join",
    "bnl_writeout_same_hdd",
    "bnl_writeout_other_hdd",
    "bnl_writeout_flash",
    "external_sorting",
    "set_union",
    "multiset_union_sorted",
    "multiset_union_multiplicity",
    "multiset_diff_sorted",
    "multiset_diff_multiplicity",
    "column_store_read_5",
    "column_store_read_10",
    "duplicate_removal",
    "aggregation",
    "ALL_EXPERIMENTS",
]

#: join tuples: ⟨key, payload⟩ of 512 bytes
JOIN_TUPLE = 512
#: scan/sort/set elements: 8 bytes
SCAN_ELEM = 8


def _join_annots(elem: int = JOIN_TUPLE):
    return {
        "R": list_annot(tuple_annot(atom(8), atom(elem - 8)), var("x")),
        "S": list_annot(tuple_annot(atom(8), atom(elem - 8)), var("y")),
    }


def bnl_no_writeout() -> Experiment:
    """Row 1: the running example — R=1 GiB, S=32 MiB, 8 MiB of buffers."""
    x = (1024 * MB) // JOIN_TUPLE      # 2^21 tuples
    y = (32 * MB) // JOIN_TUPLE        # 2^16 tuples
    sel = 1.0 / max(x, y)
    return Experiment(
        name="BNL - No writeout",
        spec=naive_join_spec(),
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots=_join_annots(),
        input_locations={"R": "HDD", "S": "HDD"},
        stats={"x": float(x), "y": float(y)},
        inputs={
            "R": InputSpec(x, JOIN_TUPLE),
            "S": InputSpec(y, JOIN_TUPLE),
        },
        cond_probability=sel,
        output_card_override=x * y * sel,
        max_depth=5,
        max_programs=600,
        exclude_rules=("hash-part",),  # row 3 showcases the hash join
        paper_spec=4e9, paper_opt=411, paper_act=545,
        paper_steps=6, paper_space=9287,
    )


def bnl_with_cache() -> Experiment:
    """Row 2: the same join costed against a hierarchy with a CPU cache."""
    base = bnl_no_writeout()
    return Experiment(
        name="BNL with cache - No writeout",
        spec=base.spec,
        hierarchy=hdd_ram_cache_hierarchy(8 * MB),
        input_annots=base.input_annots,
        input_locations=base.input_locations,
        stats=base.stats,
        inputs=base.inputs,
        cond_probability=base.cond_probability,
        output_card_override=base.output_card_override,
        max_depth=6,
        max_programs=1500,
        # The cache derivation needs a longer chain (two blocking levels
        # plus tiling); disable the rules that only widen the space.
        exclude_rules=("hash-part", "order-inputs"),
        paper_spec=4e9, paper_opt=445, paper_act=533,
        paper_steps=7, paper_space=54202,
    )


def grace_hash_join() -> Experiment:
    """Row 3: hash-part fires; partitions spill and everything is read twice."""
    base = bnl_no_writeout()
    return Experiment(
        name="(GRACE) hash join - No writeout",
        spec=base.spec,
        hierarchy=base.hierarchy,
        input_annots=base.input_annots,
        input_locations=base.input_locations,
        stats=base.stats,
        inputs=base.inputs,
        cond_probability=base.cond_probability,
        output_card_override=base.output_card_override,
        max_depth=5,
        max_programs=900,
        paper_spec=4e9, paper_opt=356, paper_act=491,
        paper_steps=7, paper_space=28471,
    )


def _writeout_base(name, hierarchy, output, paper):
    """Rows 4–6 share the relational-product workload (selectivity 1)."""
    x = (1 * MB) // JOIN_TUPLE   # 2^11 tuples each
    y = (1 * MB) // JOIN_TUPLE
    return Experiment(
        name=name,
        spec=naive_product_spec(),
        hierarchy=hierarchy,
        input_annots=_join_annots(),
        input_locations={"R": "HDD", "S": "HDD"},
        stats={"x": float(x), "y": float(y)},
        inputs={
            "R": InputSpec(x, JOIN_TUPLE),
            "S": InputSpec(y, JOIN_TUPLE),
        },
        output_location=output,
        cond_probability=1.0,
        output_card_override=float(x) * y,
        max_depth=4,
        max_programs=400,
        paper_spec=paper[0], paper_opt=paper[1], paper_act=paper[2],
        paper_steps=6, paper_space=paper[3],
    )


def bnl_writeout_same_hdd() -> Experiment:
    """Row 4: output interferes with the input disk."""
    return _writeout_base(
        "BNL writing to HDD",
        hdd_ram_hierarchy(4 * MB),
        "HDD",
        (1016144, 5058, 4704, 2566),
    )


def bnl_writeout_other_hdd() -> Experiment:
    """Row 5: a second disk removes the interference."""
    return _writeout_base(
        "BNL wr. to other HDD",
        two_hdd_hierarchy(4 * MB),
        "HDD2",
        (1016144, 1689, 2176, 7443),
    )


def bnl_writeout_flash() -> Experiment:
    """Row 6: flash output — erases instead of seeks, faster streaming."""
    return _writeout_base(
        "BNL writing to flash",
        hdd_flash_hierarchy(4 * MB),
        "SSD",
        (561179, 307, 455, 7443),
    )


def external_sorting() -> Experiment:
    """Row 7: insertion sort → 2^k-way external merge-sort."""
    runs = (512 * MB) // SCAN_ELEM   # 2^26 singleton runs
    return Experiment(
        name="External sorting",
        spec=insertion_sort_spec(),
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots={
            "Rs": list_annot(list_annot(atom(SCAN_ELEM), 1), var("x")),
        },
        input_locations={"Rs": "HDD"},
        stats={"x": float(runs)},
        inputs={"Rs": InputSpec(runs, SCAN_ELEM)},
        output_location="HDD",
        max_depth=6,
        max_programs=300,
        max_treefold_arity=32,
        paper_spec=1e9, paper_opt=157, paper_act=272,
        paper_steps=10, paper_space=130,
    )


def _setop_base(name, spec, cond_probability, output_override, paper,
                pair_elems=False):
    elem = 2 * SCAN_ELEM if pair_elems else SCAN_ELEM
    cards = (256 * MB) // elem
    annot_elem = (
        tuple_annot(atom(SCAN_ELEM), atom(SCAN_ELEM))
        if pair_elems
        else atom(elem)
    )
    return Experiment(
        name=name,
        spec=spec,
        hierarchy=hdd_ram_hierarchy(1 * MB),
        input_annots={
            "A": list_annot(annot_elem, var("x")),
            "B": list_annot(annot_elem, var("y")),
        },
        input_locations={"A": "HDD", "B": "HDD"},
        stats={"x": float(cards), "y": float(cards)},
        inputs={
            "A": InputSpec(cards, elem, sorted=True),
            "B": InputSpec(cards, elem, sorted=True),
        },
        output_location="HDD",
        cond_probability=cond_probability,
        output_card_override=output_override * cards,
        max_depth=3,
        max_programs=60,
        paper_spec=paper[0], paper_opt=paper[1], paper_act=paper[2],
        paper_steps=3, paper_space=21,
    )


def set_union() -> Experiment:
    """Row 8: nearly-disjoint sets — worst case ≈ actual, estimate exact."""
    return _setop_base(
        "Set Union",
        set_union_spec(),
        cond_probability=1.0,
        output_override=2.0,
        paper=(251931, 396, 499),
    )


def multiset_union_sorted() -> Experiment:
    """Row 9: plain merge keeps everything — output exactly x + y."""
    return _setop_base(
        "Multiset Union (sorted list)",
        multiset_union_sorted_spec(),
        cond_probability=1.0,
        output_override=2.0,
        paper=(251931, 396, 479),
    )


def multiset_union_multiplicity() -> Experiment:
    """Row 10: value-multiplicity encoding of the same union."""
    return _setop_base(
        "Multiset Union (value-mult.)",
        multiset_union_multiplicity_spec(),
        cond_probability=1.0,
        output_override=2.0,
        paper=(251931, 396, 487),
        pair_elems=True,
    )


def multiset_diff_sorted() -> Experiment:
    """Row 11: half the elements cancel — the estimate *over*states."""
    return _setop_base(
        "Multiset Diff. (sorted list)",
        multiset_diff_sorted_spec(elem_bytes=SCAN_ELEM),
        cond_probability=0.5,
        output_override=0.5,
        paper=(126033, 266, 137),
    )


def multiset_diff_multiplicity() -> Experiment:
    """Row 12: same overestimate with the pair encoding."""
    return _setop_base(
        "Multiset Diff. (value-mult.)",
        multiset_diff_multiplicity_spec(elem_bytes=2 * SCAN_ELEM),
        cond_probability=0.5,
        output_override=0.5,
        paper=(126033, 266, 153),
        pair_elems=True,
    )


def _columns_base(columns: int, paper) -> Experiment:
    rows = (128 * MB) // SCAN_ELEM
    names = [f"C{i + 1}" for i in range(columns)]
    return Experiment(
        name=f"Column Store Read {columns} cols.",
        spec=column_store_read_spec(columns),
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots={
            name: list_annot(atom(SCAN_ELEM), var("x")) for name in names
        },
        input_locations={name: "HDD" for name in names},
        stats={"x": float(rows)},
        inputs={name: InputSpec(rows, SCAN_ELEM) for name in names},
        max_depth=3,
        max_programs=40,
        paper_spec=paper[0], paper_opt=paper[1], paper_act=paper[2],
        paper_steps=3, paper_space=7,
    )


def column_store_read_5() -> Experiment:
    """Row 13."""
    return _columns_base(5, (125965, 197, 196))


def column_store_read_10() -> Experiment:
    """Row 14."""
    return _columns_base(10, (251931, 395, 382))


def duplicate_removal() -> Experiment:
    """Row 15: dedup of a sorted list (30% duplicates)."""
    rows = (512 * MB) // SCAN_ELEM
    return Experiment(
        name="Dup. Removal from Sorted List",
        spec=duplicate_removal_spec(),
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots={"A": list_annot(atom(SCAN_ELEM), var("x"))},
        input_locations={"A": "HDD"},
        stats={"x": float(rows)},
        inputs={"A": InputSpec(rows, SCAN_ELEM, sorted=True)},
        output_location="HDD",
        cond_probability=0.7,
        output_card_override=rows * 0.7,
        max_depth=3,
        max_programs=40,
        paper_spec=503862, paper_opt=546, paper_act=882,
        paper_steps=3, paper_space=7,
    )


def aggregation() -> Experiment:
    """Row 16: the CPU-light task whose estimate is near-exact."""
    rows = (1024 * MB) // SCAN_ELEM
    return Experiment(
        name="Aggregation",
        spec=aggregation_spec(),
        hierarchy=hdd_ram_hierarchy(8 * MB),
        input_annots={"A": list_annot(atom(SCAN_ELEM), var("x"))},
        input_locations={"A": "HDD"},
        stats={"x": float(rows)},
        inputs={"A": InputSpec(rows, SCAN_ELEM)},
        max_depth=3,
        max_programs=40,
        paper_spec=125965, paper_opt=136, paper_act=168,
        paper_steps=3, paper_space=7,
    )


ALL_EXPERIMENTS = (
    bnl_no_writeout,
    bnl_with_cache,
    grace_hash_join,
    bnl_writeout_same_hdd,
    bnl_writeout_other_hdd,
    bnl_writeout_flash,
    external_sorting,
    set_union,
    multiset_union_sorted,
    multiset_union_multiplicity,
    multiset_diff_sorted,
    multiset_diff_multiplicity,
    column_store_read_5,
    column_store_read_10,
    duplicate_removal,
    aggregation,
)

"""Figure 8: estimated vs measured running time across input sizes.

Three panels — BNL with write-out, external merge-sort, aggregation —
each swept over three (input size, buffer size) points.  The reproduced
claim: the gap between measured and estimated time *grows with input
size* for the CPU-heavy tasks (joins, sorting) and stays small for
aggregation, because the estimator models no computation cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hierarchy import KB, MB, hdd_ram_hierarchy
from ..cost.annotated import atom, list_annot, tuple_annot
from ..runtime.accounting import InputSpec
from ..symbolic import var
from ..workloads.specs import aggregation_spec, insertion_sort_spec
from .harness import Experiment, run_experiment
from .table1 import JOIN_TUPLE, SCAN_ELEM

__all__ = ["Figure8Point", "bnl_writeout_sweep", "merge_sort_sweep",
           "aggregation_sweep"]


@dataclass
class Figure8Point:
    """One bar pair of the figure."""

    label: str
    estimated: float
    measured: float

    @property
    def underestimation(self) -> float:
        return self.measured - self.estimated


def _run(experiment: Experiment, label: str) -> Figure8Point:
    row = run_experiment(experiment)
    return Figure8Point(
        label=label, estimated=row.opt_cost, measured=row.actual
    )


def bnl_writeout_sweep() -> list[Figure8Point]:
    """Left panel: the BNL join at growing input sizes.

    The paper's panel shows the estimate falling increasingly short of
    the measurement as inputs grow, because the estimator models no CPU
    cost and the join's comparison work scales with ``x·y``.  We sweep
    the Table-1 row-1 join (the CPU-heavy task) over three sizes.
    """
    from ..workloads.specs import naive_join_spec

    points = []
    for r_mb, s_mb, buf_mb in ((256, 16, 8), (512, 24, 8), (1024, 32, 8)):
        x = (r_mb * MB) // JOIN_TUPLE
        y = (s_mb * MB) // JOIN_TUPLE
        sel = 1.0 / max(x, y)
        exp = Experiment(
            name=f"BNL {r_mb}M/{s_mb}M/{buf_mb}M",
            spec=naive_join_spec(),
            hierarchy=hdd_ram_hierarchy(buf_mb * MB),
            input_annots={
                "R": list_annot(
                    tuple_annot(atom(8), atom(JOIN_TUPLE - 8)), var("x")
                ),
                "S": list_annot(
                    tuple_annot(atom(8), atom(JOIN_TUPLE - 8)), var("y")
                ),
            },
            input_locations={"R": "HDD", "S": "HDD"},
            stats={"x": float(x), "y": float(y)},
            inputs={
                "R": InputSpec(x, JOIN_TUPLE),
                "S": InputSpec(y, JOIN_TUPLE),
            },
            cond_probability=sel,
            output_card_override=x * y * sel,
            max_depth=4,
            max_programs=300,
            exclude_rules=("hash-part",),
        )
        points.append(_run(exp, f"{r_mb}M/{s_mb}M/{buf_mb}M"))
    return points


def merge_sort_sweep() -> list[Figure8Point]:
    """Middle panel: external merge-sort, growing inputs."""
    points = []
    for data_mb, buf_kb in ((128, 512), (256, 512), (512, 1024)):
        runs = (data_mb * MB) // SCAN_ELEM
        exp = Experiment(
            name=f"Merge-sort {data_mb}M/{buf_kb}K",
            spec=insertion_sort_spec(),
            hierarchy=hdd_ram_hierarchy(buf_kb * KB),
            input_annots={
                "Rs": list_annot(list_annot(atom(SCAN_ELEM), 1), var("x")),
            },
            input_locations={"Rs": "HDD"},
            stats={"x": float(runs)},
            inputs={"Rs": InputSpec(runs, SCAN_ELEM)},
            output_location="HDD",
            max_depth=6,
            max_programs=200,
            max_treefold_arity=32,
        )
        points.append(_run(exp, f"{data_mb}M/{buf_kb}K"))
    return points


def aggregation_sweep() -> list[Figure8Point]:
    """Right panel: aggregation — near-exact estimates at every size."""
    points = []
    for data_mb, buf_kb in ((256, 32), (512, 64), (1024, 128)):
        rows = (data_mb * MB) // SCAN_ELEM
        exp = Experiment(
            name=f"Aggregation {data_mb}M/{buf_kb}K",
            spec=aggregation_spec(),
            hierarchy=hdd_ram_hierarchy(buf_kb * KB),
            input_annots={"A": list_annot(atom(SCAN_ELEM), var("x"))},
            input_locations={"A": "HDD"},
            stats={"x": float(rows)},
            inputs={"A": InputSpec(rows, SCAN_ELEM)},
            max_depth=3,
            max_programs=40,
        )
        points.append(_run(exp, f"{data_mb}M/{buf_kb}K"))
    return points

"""Tests for the simulated executor — the 'Act' column machinery."""

import pytest

from repro.hierarchy import (
    KB,
    MB,
    hdd_flash_hierarchy,
    hdd_ram_hierarchy,
    two_hdd_hierarchy,
)
from repro.ocal.builders import (
    add,
    app,
    empty,
    eq,
    fold_l,
    for_,
    func_pow,
    hash_partition,
    if_,
    lam,
    lit,
    mrg,
    proj,
    sing,
    tree_fold,
    tup,
    unfold_r,
    v,
    zip_,
)
from repro.runtime import (
    AnalyticInterpreter,
    ExecutionConfig,
    ExecutionError,
    InputSpec,
)


def config(hierarchy=None, **kwargs):
    defaults = dict(
        hierarchy=hierarchy or hdd_ram_hierarchy(8 * MB),
        input_locations={"R": "HDD", "S": "HDD", "A": "HDD", "B": "HDD",
                         "Rs": "HDD"},
    )
    defaults.update(kwargs)
    return ExecutionConfig(**defaults)


class TestScans:
    def test_blocked_scan_costs_transfer_plus_block_seeks(self):
        loop = for_(
            "xB", v("A"), for_("x", v("xB"), sing(v("x"))), block_in=2**20
        )
        result = AnalyticInterpreter(config()).run(
            loop, {"A": InputSpec(2**24, 8)}
        )
        nbytes = 2**24 * 8
        transfer = nbytes / (30 * MB)
        seeks = (2**24 / 2**20) * 15e-3
        assert result.io_seconds == pytest.approx(transfer + seeks, rel=0.05)

    def test_unblocked_scan_streams_sequentially(self):
        # Single-element requests with no other device activity coalesce.
        loop = for_("x", v("A"), sing(v("x")))
        result = AnalyticInterpreter(config()).run(loop, {"A": InputSpec(10**6, 8)})
        assert result.stats.device("HDD").seeks == 1

    def test_interleaved_inner_scan_seeks_per_pass(self):
        nested = for_(
            "xB",
            v("R"),
            for_(
                "yB",
                v("S"),
                for_(
                    "x",
                    v("xB"),
                    for_("y", v("yB"), sing(tup(v("x"), v("y")))),
                ),
                block_in=2**15,
            ),
            block_in=2**15,
        )
        result = AnalyticInterpreter(
            config(cond_probability=0.0, output_card_override=0.0)
        ).run(
            nested,
            {"R": InputSpec(2**18, 8), "S": InputSpec(2**18, 8)},
        )
        passes = 2**18 / 2**15
        expected_bytes = 2**18 * 8 * (1 + passes)
        total_read = result.stats.device("HDD").bytes_read
        assert total_read == pytest.approx(expected_bytes, rel=0.05)


class TestFolds:
    def test_aggregation_reads_input_once(self):
        agg = app(
            fold_l(lit(0), lam(("a", "e"), add(v("a"), v("e"))),
                   block_in=2**16),
            v("A"),
        )
        result = AnalyticInterpreter(config()).run(agg, {"A": InputSpec(2**24, 8)})
        assert result.stats.device("HDD").bytes_read == pytest.approx(
            2**24 * 8
        )
        assert result.output_card == 1.0

    def test_spilled_accumulator_is_quadratic(self):
        sort = app(fold_l(empty(), unfold_r(mrg())), v("Rs"))
        tight = config(hierarchy=hdd_ram_hierarchy(1 * MB))
        small = AnalyticInterpreter(tight).run(
            sort, {"Rs": InputSpec(4 * 10**4, 8)}  # fits in 1 MiB of RAM
        )
        big = AnalyticInterpreter(
            config(hierarchy=hdd_ram_hierarchy(1 * MB))
        ).run(
            sort, {"Rs": InputSpec(4 * 10**5, 8)}  # spills to disk
        )
        # 10× input → orders of magnitude more cost once the growing
        # accumulator lives on disk.
        assert big.elapsed / small.elapsed > 100


class TestSort:
    def test_treefold_levels(self):
        sort = app(
            tree_fold(
                4, empty(), unfold_r(func_pow(2, mrg()),
                                     block_in=2**15, block_out=2**18)
            ),
            v("Rs"),
        )
        cfg = config(output_location="HDD")
        result = AnalyticInterpreter(cfg).run(sort, {"Rs": InputSpec(2**20, 8)})
        import math

        levels = math.ceil(math.log(2**20, 4))
        expected = levels * 2**20 * 8
        assert result.stats.device("HDD").bytes_read == pytest.approx(
            expected, rel=0.05
        )
        assert result.stats.device("HDD").bytes_written == pytest.approx(
            expected, rel=0.05
        )

    def test_wider_fan_in_does_less_io(self):
        def run_sort(arity, power):
            sort = app(
                tree_fold(
                    arity,
                    empty(),
                    unfold_r(func_pow(power, mrg()),
                             block_in=2**15, block_out=2**18),
                ),
                v("Rs"),
            )
            return AnalyticInterpreter(config(output_location="HDD")).run(
                sort, {"Rs": InputSpec(2**20, 8)}
            )

        assert (
            run_sort(16, 4).stats.device("HDD").bytes_read
            < run_sort(2, 1).stats.device("HDD").bytes_read
        )


class TestGrace:
    def grace(self):
        return app(
            lam(
                ("Rp", "Sp"),
                app(
                    flat_map_join(),
                    app(
                        zip_(),
                        tup(
                            app(hash_partition(128, 1), v("Rp")),
                            app(hash_partition(128, 1), v("Sp")),
                        ),
                    ),
                ),
            ),
            tup(v("R"), v("S")),
        )

    def test_reads_everything_twice_writes_once(self):
        cfg = config(cond_probability=1e-6, output_card_override=100.0)
        result = AnalyticInterpreter(cfg).run(
            self.grace(),
            {"R": InputSpec(2**21, 512), "S": InputSpec(2**16, 512)},
        )
        total = (2**21 + 2**16) * 512
        hdd = result.stats.device("HDD")
        assert hdd.bytes_read == pytest.approx(2 * total, rel=0.05)
        assert hdd.bytes_written == pytest.approx(total, rel=0.05)


def flat_map_join():
    from repro.ocal.builders import flat_map

    return flat_map(
        lam(
            "p",
            for_(
                "xB",
                proj(v("p"), 1),
                for_(
                    "yB",
                    proj(v("p"), 2),
                    for_(
                        "x",
                        v("xB"),
                        for_(
                            "y",
                            v("yB"),
                            if_(
                                eq(proj(v("x"), 1), proj(v("y"), 1)),
                                sing(tup(v("x"), v("y"))),
                                empty(),
                            ),
                        ),
                    ),
                    block_in=2**12,
                ),
                block_in=2**14,
            ),
        )
    )


class TestWriteOut:
    def scan(self):
        return for_(
            "xB", v("A"), for_("x", v("xB"), sing(v("x"))), block_in=2**16
        )

    def test_same_disk_interference_costs_seeks(self):
        same = AnalyticInterpreter(
            config(output_location="HDD", output_card_override=2.0**24)
        ).run(self.scan(), {"A": InputSpec(2**24, 8)})
        other = AnalyticInterpreter(
            config(
                hierarchy=two_hdd_hierarchy(8 * MB),
                output_location="HDD2",
                output_card_override=2.0**24,
            )
        ).run(self.scan(), {"A": InputSpec(2**24, 8)})
        assert same.elapsed > other.elapsed
        assert same.stats.device("HDD").seeks > other.stats.device(
            "HDD2"
        ).seeks

    def test_flash_output_counts_erases(self):
        result = AnalyticInterpreter(
            config(
                hierarchy=hdd_flash_hierarchy(8 * MB),
                output_location="SSD",
                output_card_override=2.0**24,
            )
        ).run(self.scan(), {"A": InputSpec(2**24, 8)})
        ssd = result.stats.device("SSD")
        assert ssd.erases >= (2**24 * 8) / (256 * KB) * 0.9
        assert ssd.seeks == 0


class TestConfigKnobs:
    def test_selectivity_shapes_output(self):
        join = for_(
            "x",
            v("R"),
            for_(
                "y",
                v("S"),
                if_(
                    eq(proj(v("x"), 1), proj(v("y"), 1)),
                    sing(tup(v("x"), v("y"))),
                    empty(),
                ),
            ),
        )
        dense = AnalyticInterpreter(config(cond_probability=1.0)).run(
            join, {"R": InputSpec(100, 8), "S": InputSpec(100, 8)}
        )
        sparse = AnalyticInterpreter(config(cond_probability=0.01)).run(
            join, {"R": InputSpec(100, 8), "S": InputSpec(100, 8)}
        )
        assert dense.output_card == pytest.approx(10_000)
        assert sparse.output_card == pytest.approx(100)

    def test_override_wins(self):
        scan = for_("x", v("A"), sing(v("x")))
        result = AnalyticInterpreter(
            config(output_card_override=42.0)
        ).run(scan, {"A": InputSpec(1000, 8)})
        assert result.output_card == 42.0

    def test_unbound_parameter_rejected(self):
        loop = for_("xB", v("A"), v("xB"), block_in="k1")
        with pytest.raises(ExecutionError):
            AnalyticInterpreter(config()).run(loop, {"A": InputSpec(10, 8)})

    def test_unbound_variable_rejected(self):
        with pytest.raises(ExecutionError):
            AnalyticInterpreter(config()).run(v("nope"), {})

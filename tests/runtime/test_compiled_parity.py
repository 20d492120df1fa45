"""CompiledBackend ≡ FileBackend on every catalog workload.

The compiled backend's contract (DESIGN.md §12) is *observational
equivalence with better wall clock*: for the same program, data seed,
and hierarchy it must produce a bit-identical output bag, identical
measured per-device byte/seek counters, and therefore an identical
priced cost.  This suite pins that contract on real synthesized
winners, not just generated programs:

* every registry workload at its ``validation`` scale (the set the
  execution bench measures), plus the one validation-only workload —
  all 17 catalog entries are covered;
* every Table-1 workload's synthesized winner (the goldens' programs),
  re-executed with input cardinalities capped so the real-file runs
  stay test-sized — the tuned table1 block sizes remain baked in.

Totality is pinned here too: every compiled run in this module goes
through a backend that refuses a runtime object with an AST walker on
it, and :class:`TestTotalLowering` pushes the persisted conformance
corpus and a pinned-seed generator batch (with its sampled rewrite
closure) through the same backend.
"""

import dataclasses
import os

import pytest

from repro.api import Session
from repro.codegen.py_codegen import compile_exec
from repro.conformance import oracle as oracle_module
from repro.conformance.corpus import corpus_files, load_counterexample
from repro.conformance.oracle import (
    Oracle,
    OracleConfig,
    output_bag,
    run_conformance,
)
from repro.runtime import CompiledBackend, FileBackend
from repro.runtime.primitives import PrimitiveLibrary

COUNTERS = (
    "reads", "writes", "bytes_read", "bytes_written", "seeks", "erases"
)
#: table1 inputs reach 134M tuples and the joins are quadratic; parity
#: runs cap the generated data at validation-scale cardinality (the
#: *programs* keep their table1-tuned block parameters).
TABLE1_CARD_CAP = 256


#: walker entry points generated code must never mention.
WALKER_ENTRY_POINTS = (
    "rt.eval", "rt._eval_app", "rt._apply_node", "rt._exec_flatmap",
    "rt._exec_unfold", "rt._exec_treefold", "rt._exec_fold",
    "rt._funcpow_callable",
)


class NoWalkerBackend(CompiledBackend):
    """CompiledBackend that proves what it hands to generated code: a
    plain primitive library with no ``eval`` to fall back into."""

    def _evaluate(self, rt, program, env):
        assert type(rt) is PrimitiveLibrary
        assert not hasattr(rt, "eval")
        source = compile_exec(program).source
        assert not any(entry in source for entry in WALKER_ENTRY_POINTS)
        return super()._evaluate(rt, program, env)


def _capped(inputs: dict, cap: int | None) -> dict:
    if cap is None:
        return inputs
    return {
        name: dataclasses.replace(spec, card=min(spec.card, cap))
        for name, spec in inputs.items()
    }


def _assert_parity(job, workdir, cap=None):
    """Run the job's plan on both real backends; demand equivalence."""
    inputs = _capped(job.inputs, cap)
    runs = {}
    for cls, tag in ((FileBackend, "file"), (NoWalkerBackend, "compiled")):
        backend = cls(
            workdir=str(workdir / tag), seed=7, capture_output=True
        )
        runs[tag] = (
            backend.run(job.program, inputs, job.config),
            backend.last_output,
        )
    file_result, file_out = runs["file"]
    comp_result, comp_out = runs["compiled"]
    assert output_bag(comp_out) == output_bag(file_out)
    assert comp_result.output_card == file_result.output_card
    devices = set(file_result.stats.devices) | set(comp_result.stats.devices)
    for device in sorted(devices):
        file_dev = file_result.stats.device(device)
        comp_dev = comp_result.stats.device(device)
        for counter in COUNTERS:
            assert getattr(comp_dev, counter) == getattr(file_dev, counter), (
                f"{job.workload}: {device}.{counter} diverged"
            )
    # Identical counters (I/O and CPU) price to the identical cost.
    assert comp_result.elapsed == file_result.elapsed
    return file_result, comp_result


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


def _validation_names():
    from repro.api import default_registry

    return default_registry().names(scale="validation")


def _table1_names():
    from repro.api import default_registry

    return default_registry().names(scale="table1")


def test_catalog_is_fully_covered():
    """The two parametrized sets below span the whole 17-entry catalog."""
    from repro.api import default_registry

    registry = default_registry()
    assert set(_validation_names()) | set(_table1_names()) == set(
        registry.names()
    )
    assert len(list(registry)) == 17


@pytest.mark.parametrize("name", _validation_names())
def test_validation_winner_parity(session, parity_dir, name):
    job = session.synthesize(name, scale="validation")
    _assert_parity(job, parity_dir / f"v-{name}")


@pytest.mark.parametrize("name", _table1_names())
def test_table1_winner_parity(session, parity_dir, name):
    job = session.synthesize(name, scale="table1")
    _assert_parity(job, parity_dir / f"t1-{name}", cap=TABLE1_CARD_CAP)


class TestTotalLowering:
    """No program reaches an AST walker under ``compiled``: the oracle's
    compiled lane (bag- and counter-equal to its FileBackend run, or the
    report fails) rides the walker-refusing backend."""

    CORPUS_DIR = os.path.join(
        os.path.dirname(__file__), "..", "conformance", "corpus"
    )

    @pytest.fixture(autouse=True)
    def no_walker(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "CompiledBackend", NoWalkerBackend)

    def test_conformance_corpus(self):
        paths = corpus_files(self.CORPUS_DIR)
        assert paths
        for path in paths:
            gen, reason = load_counterexample(path)
            report = Oracle(OracleConfig(closure_depth=2)).check(gen)
            assert report.ok, (path, reason, report.failures[0].describe())
            assert report.compiled_runs == report.file_runs > 0

    def test_pinned_seed_batch_with_sampled_closure(self):
        batch = run_conformance(
            seed=0, count=50, oracle_config=OracleConfig(closure_depth=2)
        )
        assert batch.ok, [f.describe() for f in batch.failures]
        assert batch.compiled_runs == batch.file_runs >= 3 * batch.count
        assert batch.closure_total >= 3 * batch.count

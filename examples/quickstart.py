#!/usr/bin/env python3
"""Quickstart: the declarative front door, end to end.

This is Example 1 of the paper through the Session/Job API:

1. pick the naive join workload from the central registry (or bring
   your own spec — see ``adaptive_hierarchy.py``);
2. ``session.synthesize`` searches the rewrite space, costs every
   candidate, and tunes the block sizes — returning a lazy ``Job``;
3. inspect the derivation, run the winner on the simulated machine;
4. save the tuned plan as JSON, reload it, and re-execute — no second
   search — then print the generated code the ``compiled`` backend runs.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro.api import Job, Session
from repro.codegen import compile_exec
from repro.ocal import evaluate, pretty_block


def main() -> None:
    # 1. One front door.  The registry knows the workload's naive spec,
    #    input schema, hierarchy, and scales ("table1" = the paper's
    #    1 GiB ⋈ 32 MiB join under 8 MiB of buffers).
    session = Session()
    workload = session.registry.get("bnl-join")
    print(f"workload: {workload.name} — {workload.description}")
    spec = workload.experiment("table1").spec
    print("specification:")
    print(pretty_block(spec), "\n")

    # 2. Synthesize.  Search + costing + tuning happen here; nothing
    #    executes until job.run().
    job = session.synthesize("bnl-join", scale="table1")
    print(job.explain(), "\n")

    # 3a. Sanity: the winner computes the same join on concrete data.
    R = [(i % 4, i) for i in range(8)]
    S = [(i % 4, -i) for i in range(6)]
    sample = evaluate(job.program, {"R": R, "S": S})
    print(f"sample run on 8x6 tuples: {len(sample)} matches\n")

    # 3b. Simulated "actual" execution at full scale.
    result = job.run()  # the session's default backend: the simulator
    print(f"simulated execution: {result.execution.summary()}")
    print(result.execution.stats.report(), "\n")

    # 4a. Ship the plan: serialize, reload, re-execute — the loaded job
    #     carries zero search statistics because nothing is re-searched.
    with tempfile.TemporaryDirectory() as tmp:
        path = job.save(os.path.join(tmp, "bnl-join.plan.json"))
        loaded = Job.load(path)
        replay = loaded.run()
        print(
            f"replayed from {os.path.basename(path)}: "
            f"elapsed={replay.execution.elapsed:.4g}s "
            f"(search space recorded: {loaded.search.space})\n"
        )

    # 4b. Generated code (the artifact the paper inspects by hand): the
    #     flat Python the ``compiled`` backend executes, with the tuned
    #     block sizes baked in as integer constants.
    code = compile_exec(job.program).source
    print("generated Python (first 30 lines):")
    print("\n".join(code.splitlines()[:30]))


if __name__ == "__main__":
    main()

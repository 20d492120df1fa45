"""The repository's layered benchmark (see ``perf/README.md``).

``python3 perf/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; ``--suite`` runs all six.  Nothing in
here is imported by ``src/repro``: every layer is timed from outside.
"""

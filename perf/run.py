"""Entry point: ``python3 perf/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` (or ``--suite``); see ``perf/README.md``.

The clock starts here, before anything heavy is imported, because
imports are part of what ``setup_s`` measures.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

try:
    import repro  # noqa: E402,F401
except ImportError:
    # A directory holding only the benchmark has no program to measure.
    sys.exit("perf/run.py: cannot import 'repro' from " + os.path.join(ROOT, "src"))

from perf.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(started=STARTED))

"""One set-up sample: a fresh interpreter imports riccigap.cli and builds a
workload's inputs, then prints the seconds that took and the yardstick's
reference time measured in the same process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from run import use_checkout_sources  # noqa: E402

use_checkout_sources()

import riccigap.cli  # noqa: E402,F401
import workloads  # noqa: E402
import yardstick  # noqa: E402

with tempfile.TemporaryDirectory(dir=os.path.join(os.path.dirname(__file__), "out")) as tmp:
    workloads.build(sys.argv[1], int(sys.argv[2]), tmp)
    elapsed = time.perf_counter() - START
print(elapsed, yardstick.reference_seconds())

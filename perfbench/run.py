"""Benchmark of the riccigap library.

    python3 perfbench/run.py --workload bounds --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from its
src/ directory, never from an installed copy, and the run stops with an
error when there is none.  One process runs one workload as a closed loop:
rounds of the workload's jobs, one job after another on one thread (BLAS at
its default thread count), until --seconds have passed.  Each job's outputs
are checked against the paper's invariants after the job's clock stops.

--trace 0 prints the end-to-end metrics; set-up time is the median over
fresh processes that import riccigap.cli and generate the inputs.
--trace 1 alternates untraced and traced rounds of the same inputs, checks
that both give byte-identical outputs, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full report
(provenance, every named metric, per-job times and checks).  See
perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def use_checkout_sources():
    """Put the checkout's src/ first on sys.path; exit if it has no riccigap."""
    if not os.path.isfile(os.path.join(SRC, "riccigap", "__init__.py")):
        sys.exit(f"error: no riccigap sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bounds", "brownian", "drifted", "coupling"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    use_checkout_sources()
    import riccigap

    if os.path.dirname(os.path.abspath(riccigap.__file__)) != os.path.join(SRC, "riccigap"):
        sys.exit(f"error: riccigap was imported from {riccigap.__file__}, not {SRC}")
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())

"""The machine-speed yardstick that timings are calibrated against.

The benchmark's hosts share their cores: the same job can take 40% longer
a few minutes later because neighbours load the machine, and import time
drifts with it.  So every timed job is bracketed by runs of a fixed
reference computation, and each timing is also reported in *calibrated
seconds*: measured seconds x NOMINAL_S / (the reference's time measured
next to it).  The reference mixes what the workloads spend their time on,
interpreter work on dicts, floats and string formatting plus numpy
element-wise and LAPACK calls, and it runs no riccigap code, so no change
to the library can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 0.05   # the reference's time on a quiet 2-core host


def _reference() -> float:
    rows = [{"t": i * 1e-3, "d": math.exp(-i * 1e-4)} for i in range(20_000)]
    text = ",".join(f"{r['t']:.17g},{r['d']:.17g}" for r in rows[::2])
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0) - 0.5
    m = np.random.default_rng(0).standard_normal((120, 120))
    w = np.linalg.eigvalsh(m + m.T)
    return len(text) + float(a[0]) + float(w[0])


def reference_seconds() -> float:
    """Median wall time of three runs of the reference computation."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]

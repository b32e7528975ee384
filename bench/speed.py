"""Host speed reference for the benchmark's timings.

On shared hosts the speed of one core changes by up to 2x, for seconds to
minutes at a time, in wall and CPU time alike. On the 2-core host this
benchmark was tuned on, even the fastest time of each part over a 35 s run
spread by 0.17-0.27 (IQR over median) across ten runs of one workload, and
runs of 55 s did no better.

So every timed part of a pass (one optimizer run, the rest of one
algorithm's experiment, one setup) is bracketed by two runs of a fixed
reference kernel, and reported in reference seconds:
``seconds * REFERENCE_SECONDS / (mean kernel seconds before and after)``,
i.e. the time the part would take on a host that runs the kernel in exactly
REFERENCE_SECONDS. The kernel mixes Python-level arithmetic with small numpy
operations, like the optimizers' per-pair work, so that both slow down
together. The raw seconds are kept in the run's record line.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on the host of record (1.6 ms when that host was
# fast, 3 ms when slow), so reference seconds read close to its seconds.
REFERENCE_SECONDS = 2e-3


def reference_seconds() -> float:
    """Seconds one run of the reference kernel takes now."""
    x = np.arange(20.0) / 7.0
    eye = np.eye(2)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        v = np.array([x[i % 20], x[(i + 1) % 20]], dtype=float)
        g = v * 2.0 + 1.0
        acc += float(np.linalg.eigvalsh(np.outer(g, g) + eye)[0]) + float(v @ g)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return elapsed


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` in reference seconds, given the kernel time measured next to it."""
    return seconds * REFERENCE_SECONDS / reference

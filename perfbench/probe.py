"""A gauge of host speed that shares no code with wavelogic.

On a shared host the interpreter's speed drifts by tens of percent within
minutes (see METRICS.md). The benchmark runs ``probe`` between timed
operations and multiplies their times by ``factor(p)``, where ``p`` is the
probe time averaged over the run, weighted by operation time. A change to
wavelogic cannot change the probe, so it still shows in full. This module
imports nothing but ``time`` so that set-up interpreters can use it without
preloading modules wavelogic needs.
"""

import time

# About the probe time of the 2-core x86 host (Python 3.11) the benchmark was
# built on; it only fixes the scale of the reported times.
REFERENCE_PROBE_S = 0.0025


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work."""
    start = time.perf_counter()
    counts = {}
    for i in range(4000):
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + 1
    words = [str(i) for i in range(400)]
    for _ in range(12):
        words.sort(key=lambda w: (len(w), w[::-1]))
    return time.perf_counter() - start


def factor(probe_seconds: float) -> float:
    """Multiplier that takes a time measured while the probe took
    ``probe_seconds`` to the reference host speed."""
    return REFERENCE_PROBE_S / probe_seconds

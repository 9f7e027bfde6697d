"""Host-speed calibration for the benchmark's time metrics.

The benchmark host is shared.  On identical inputs, plain wall-clock
throughput varied by 20-45% between 8-second runs, and a fixed loop of
Python work slowed down in step with it.  So every timed operation is
bracketed by two runs of such a loop, and its time is rescaled to a host on
which the loop takes ``REF_S``:

    reference time = wall time * REF_S / mean(loop before, loop after)

The loop mixes what predbif's own time is made of: float arithmetic in
the interpreter, small short-lived objects, and numpy calls on 2x2 arrays.
Over five seeds per workload it left a run-to-run spread (interquartile
range over median) of 2-7%, against 9-35% unscaled.  It touches nothing in
predbif, so no change to the program can move it; a faster predbif shows
as a shorter reference time.  Each run also prints its plain wall-clock
figures and ``host_speed``, the loop's median time over ``REF_S``.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds the loop takes on the reference host: one reference second is
#: the time in which the reference host runs the loop 1000 times
REF_S = 1.0e-3

_J = np.array([[0.1, -0.5], [0.02, -0.03]])


def _loop() -> None:
    x, y = 0.5, 0.3
    for _ in range(700):  # explicit Euler steps of the model, plain floats
        p = 2.0 * x * x - 2.82 * x + 1.0
        dx = x * (1.0 - x) - x * x * y / p - 0.19 * x / (0.05 + x)
        dy = y * (0.0178 - 0.1 * y / (0.8 + x))
        x += 1e-3 * dx
        y += 1e-3 * dy
    kept = []
    for i in range(650):  # short-lived dicts and tuples
        d = {"x": i * 0.5, "y": (i, i + 1.0)}
        kept.append((d["x"], d["y"][1]))
        if len(kept) > 50:
            kept.clear()
    for _ in range(13):  # small numpy calls
        np.linalg.eigvals(_J)
        np.trace(_J)
        np.abs(_J).max()


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop.  An untimed run first
    refills the caches the previous operation evicted, so the timed run
    measures the host rather than what the program left behind."""
    _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def to_reference(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` of wall time rescaled to the reference host."""
    return seconds * REF_S / (0.5 * (loop_before + loop_after))

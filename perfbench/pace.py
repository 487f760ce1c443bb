"""A machine-speed reference, for timing on a shared host.

On a shared host the CPU time of a fixed piece of work drifts by a third
or more within minutes, as other tenants load the same cores and caches,
and ``time.process_time`` does not see it.  So a batch also times a fixed
pure-Python kernel (this module's own code; it uses nothing of braidwork)
between its items, at least every ``PACE_S`` CPU seconds, and scales each
measured CPU time by ``REF_S`` over the kernel's time around it.  A scaled
time reads as seconds at reference speed: the CPU time the work takes on
a machine on which the kernel takes ``REF_S``.

A change to braidwork moves the measured time and not the kernel, so
scaled times compare commits; the scaling only cancels the host's drift.
The kernel runs with the garbage collector off, so that the size of the
program's heap does not change its time.
"""

from __future__ import annotations

import gc
import time

# CPU seconds the kernel takes at reference speed (its median on the
# 2-core Xeon virtual machine the benchmark was built on)
REF_S = 0.005
# CPU seconds of work between two timings of the kernel
PACE_S = 0.05

_S, _T = (1, 0, 2), (0, 2, 1)
_BASE = (_S, _T) * 3  # an orbit of 240 tuples


def _mul(p, q):
    return q[p[0]], q[p[1]], q[p[2]]


def _inv(p):
    out = [0, 0, 0]
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _orbit(base: tuple) -> int:
    """Size of the Hurwitz orbit of a tuple of permutations of 3 points."""
    seen = {base}
    queue = [base]
    while queue:
        current = queue.pop()
        for i in range(1, len(current)):
            g, h = current[i - 1], current[i]
            image = current[: i - 1] + (_mul(_mul(g, h), _inv(g)), g) + current[i + 1:]
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen)


def kernel() -> int:
    return _orbit(_BASE) + _orbit(_BASE)


def reference() -> float:
    """CPU seconds of one run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def reference_median(runs: int = 3) -> float:
    """Median CPU seconds of several runs of the kernel."""
    return sorted(reference() for _ in range(runs))[runs // 2]


def scale(before: float, after: float) -> float:
    """Factor from CPU seconds to seconds at reference speed, for work
    done between two timings of the kernel."""
    return REF_S / ((before + after) / 2)

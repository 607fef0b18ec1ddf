"""Host-speed reference for the benchmark's timings.

The benchmark runs on virtual machines whose speed drifts by 20-50% from
one stretch of seconds to the next (same configs, same trace digests, CPU
time equal to wall time), because other tenants share the physical cores.
A fixed kernel that does not touch eqtracer, timed on both sides of every
measured piece of work, sees the same drift; dividing each measured time
by the `slowdown()` seen around it cancels most of the drift, while a
change to eqtracer moves the measurement and leaves the kernel alone.

The kernel mixes what the workloads spend their time on: numpy ufuncs and
reductions on 8x8 arrays under the interpreter's dispatch, one 200x200
pass every tenth step, and plain Python float arithmetic.  The 200x200
pass writes into buffers made once, so that the kernel does not time the
allocator's page faults, whose cost on a virtual machine is noisier than
the drift it measures.  It runs with the cyclic garbage collector off, so
that garbage left by the program does not add a collection to it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

STEPS = 1200  # about 70 ms on a 2-vCPU Intel Xeon VM

# Kernel time on the machine the baseline was recorded on (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4); a scaled time reads as the time the
# work would take on a host where the kernel takes this long.
NOMINAL_S = 0.066

_SMALL = np.linspace(0.5, 1.5, 64).reshape(8, 8)
_LARGE = np.linspace(1.0, 2.0, 40_000).reshape(200, 200)
_BUFFER = np.empty_like(_LARGE)
_COLUMNS = np.empty(200)


def _kernel() -> float:
    x, y, buffer, columns = _SMALL, _LARGE, _BUFFER, _COLUMNS
    total = 0.0
    for step in range(STEPS):
        z = np.exp(-0.5 * np.log(x)) * x.sum(axis=0)
        z = z / z.sum(axis=1, keepdims=True)
        total += float(np.max(np.abs(z - x)))
        for k in range(40):
            total += k * 0.5
        if step % 10 == 0:
            np.power(y, 0.7, out=buffer)
            np.sum(y, axis=0, out=columns)
            np.divide(buffer, columns, out=buffer)
            total += float(buffer.max())
    return total


def seconds() -> float:
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than the nominal host the host ran (1.0 = as fast),
    from the kernel times on either side of one measurement."""
    return (before + after) / (2 * NOMINAL_S)

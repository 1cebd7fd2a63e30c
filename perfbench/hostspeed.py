"""Reference kernels that measure how fast the host is running right now.

On a shared machine the speed of the same deterministic work drifts by a
third or more over tens of seconds, because other tenants share the cores
and the caches. Medians over a longer window do not remove that drift, but
it slows a fixed reference kernel of the same kind of work by about the
same factor. The runner therefore brackets every unit with ``measure()``
and scales the gated timings by ``NOMINAL_S[kind] / measured``: seconds at
the host speed the benchmark was defined at. The kernels share no code
with dmcam, so a change to the program cannot move them.

There is one kernel per kind of work in the program: small Python objects
and calls for the compiler, NumPy elementwise passes for the simulator.
Each tracks its own kind well and the other poorly, so each workload names
the kind it is made of.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Typical measure() times on a 2-vCPU Intel Xeon virtual machine (Python 3.11, NumPy 2.4).
NOMINAL_S = {"python": 0.04, "numpy": 0.03}


def python_kernel() -> int:
    """Inclusion tests between small frozensets, as the CSP's arc checks do."""
    sets = [frozenset(range(i % 7, i % 7 + i % 5)) for i in range(3000)]

    def comparable(a, b):
        return a <= b or b <= a

    return sum(sum(1 for b in sets if comparable(a, b)) for a in sets[:150])


def numpy_kernel() -> float:
    """Masked elementwise divide-and-sum over 2 MB arrays, as row currents are."""
    x = np.arange(250_000, dtype=np.float64)
    a, b = np.sin(x), np.cos(x) + 2.0
    return float(sum(np.where(a > 0, np.minimum(1.0, a / b), 0.0).sum() for _ in range(8)))


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def measure(kind: str, threads: int = 1, repeats: int = 3) -> float:
    """Median wall time, over a few runs, of the kernel for this kind of work
    run on ``threads`` threads at once. A workload that keeps two cores busy
    is slowed by contention on either core, so it is measured the same way."""
    kernel = KERNELS[kind]
    times = []
    if threads == 1:
        # In the calling thread: a pool thread would allocate from its own
        # malloc arena and add to the workload's peak RSS.
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    with ThreadPoolExecutor(threads) as pool:
        for _ in range(repeats):
            t0 = time.perf_counter()
            for future in [pool.submit(kernel) for _ in range(threads)]:
                future.result()
            times.append(time.perf_counter() - t0)
    return statistics.median(times)

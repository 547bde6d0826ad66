"""How fast the shared host runs while the benchmark measures.

On a shared 2-vCPU host the interpreter's speed drifts: a fixed
pure-Python task took anywhere from 18 to 35 ms from one second to the
next, and whole minutes ran 1.5x slower than the minutes around them.
The grid's CPU time and latency per operation move with it almost in
proportion (latency over CPU time per operation held within 2% while
CPU time per operation itself moved by 40% between runs).

:class:`HostSpeed` runs :func:`reference_task` on a thread of the
parent process, which otherwise only waits for its measuring child,
every :data:`PERIOD_S` (about 7% of one CPU), and records the CPU time
each run took.  :meth:`HostSpeed.scale` turns the mean over a measuring
window into a factor that carries the window's timings over to a host
that runs the task in :data:`REFERENCE_S`.  A single timing taken just
before or after a window does not do: it sees one vCPU for a few
milliseconds, while the window's figures average both over seconds.
The task's CPU time, unlike its wall time, does not grow when the
measured grid keeps the CPUs busy (wall time did, by 8-12%), so a
change to the grid's own CPU use does not leak into the factor.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from typing import Optional

#: seconds :func:`reference_task` takes on the host timings are scaled to
REFERENCE_S = 0.003
#: how often the task runs while a measuring process runs
PERIOD_S = 0.04
#: fewest samples a factor is taken over; a shorter interval is widened
MIN_SAMPLES = 3


def reference_task() -> int:
    """A fixed amount of pure-Python work of the grid's own kind: dict
    updates, string formatting and a SHA-256 every eighth step."""
    table: dict[str, int] = {}
    acc = 0
    for i in range(4000):
        key = f"k{i & 127}"
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            acc ^= hashlib.sha256(key.encode()).digest()[0]
        acc += len(str(i)) + i % 13
    return acc


class HostSpeed:
    """Samples the host's speed on a background thread while open."""

    def __init__(self) -> None:
        #: (start on the monotonic clock, CPU seconds the task took)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "HostSpeed":
        self._thread = threading.Thread(target=self._sample, name="host-speed")
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start, cpu = time.perf_counter(), time.thread_time()
            reference_task()
            self.samples.append((start, time.thread_time() - cpu))

    def scale(self, t0: float, t1: float) -> float:
        """:data:`REFERENCE_S` over the task's mean CPU time in ``[t0, t1)``,
        widened by whole periods on both sides until it holds
        :data:`MIN_SAMPLES` samples (or all there are).

        ``t0`` and ``t1`` are ``time.perf_counter`` readings of another
        process: on Linux that is the system-wide monotonic clock.  Times
        measured in the interval are multiplied by the factor and rates
        divided by it; below 1 means the host ran slower than the
        reference.
        """
        pad = 0.0
        while True:
            taken = [d for start, d in self.samples if t0 - pad <= start < t1 + pad]
            if len(taken) >= MIN_SAMPLES or len(taken) == len(self.samples):
                break
            pad += PERIOD_S
        if not taken:
            raise RuntimeError("the host speed was never sampled")
        return REFERENCE_S / statistics.fmean(taken)

"""Host speed monitor: a fixed CPU task timed all through a run.

The shared two-vCPU hosts this benchmark runs on change speed in regimes
lasting minutes: one process mined the same input in 9.9-12.8 s in one
regime and a steady 16.4-17.0 s in another, with CPU time tracking wall
time and steal under 2%.  A :class:`Monitor` process runs a ~4 ms
pure-Python task every :data:`PERIOD_S` and records the task's *thread
CPU time*, which follows the host's speed and leaves out time spent
waiting in the run queue.

A timed value is reported twice: as measured, and multiplied by
:meth:`Monitor.speed` over the interval it was measured in — the value
on a host where the task takes :data:`REFERENCE_S` ("host-normalized").
The monitor shares the two vCPUs with the program, so it can also read
the program's own parallel load: on a slow host, a CPU-burning
process added beside the miner slowed ``mine_s`` by 32% as measured and
left it unchanged host-normalized, while a serial CPU loop added to the
fit moved both alike.  README.md gives the measurements and which values are gated
host-normalized.

Run as a script, this module is the monitor process itself.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: The task's median CPU time on the host the benchmark was defined on,
#: in its fast regime.
REFERENCE_S = 0.004
#: Sampling period of the monitor process.
PERIOD_S = 0.05
#: Samples used when an interval holds fewer.
MIN_SAMPLES = 5


def _task() -> int:
    table: dict = {}
    total = 0
    for i in range(20_000):
        key = i % 1024
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total + len(table)


class Monitor:
    """The monitor process of one run and the samples it wrote."""

    def __init__(self, procs, workdir: str) -> None:
        self.path = os.path.join(workdir, "monitor.txt")
        self.proc = procs.start([os.path.abspath(__file__), self.path],
                                stdout=subprocess.DEVNULL)
        self._samples: List[Tuple[float, float]] = []

    def _read(self) -> List[Tuple[float, float]]:
        try:
            with open(self.path, encoding="ascii") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:  # the monitor has not started yet
            return []
        # The last line may be half written.
        self._samples = [tuple(map(float, line.split()))
                         for line in lines[:-1] if len(line.split()) == 2]
        return self._samples

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` (``time.perf_counter``
        instants): :data:`REFERENCE_S` over the median task CPU time of
        the samples taken in it, or of the nearest ones when it is short.
        Above 1 on a host faster than the reference."""
        samples = self._read()
        if not samples:
            raise RuntimeError("the host speed monitor wrote no samples")
        inside = [cpu for t, cpu in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
            inside = [cpu for _, cpu in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.median(inside)

    def wait_for_samples(self, timeout: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout
        while len(self._read()) < MIN_SAMPLES:
            if self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                raise RuntimeError("the host speed monitor did not start")
            time.sleep(PERIOD_S)


def main(path: str) -> int:
    with open(path, "w", encoding="ascii", buffering=1) as out:
        while True:
            start = time.perf_counter()
            cpu = time.thread_time()
            _task()
            cpu = time.thread_time() - cpu
            out.write(f"{start:.6f} {cpu:.9f}\n")
            time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

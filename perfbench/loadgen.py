"""Open-loop HTTP load from one process over keep-alive connections.

Requests are due on a fixed-interval schedule (request ``i`` at
``start + i / rate``).  Each connection has one worker; a free worker
takes the next request in schedule order, sleeps until it is due and
sends it.  Latency is timed from the due time, not the send time, so a
stall on one request also delays the requests queued behind it.  How
late each request was sent is recorded as generator lateness.
"""

from __future__ import annotations

import http.client
import statistics
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import stats


@dataclass(frozen=True)
class Request:
    """One HTTP request of a workload's mix."""

    kind: str
    method: str
    path: str
    body: Optional[bytes] = None


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    index: int
    request: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: Optional[str] = None
    #: The worker was free before the due time, so any lateness is the
    #: generator's own (a late wake-up), not a busy connection.
    idle: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency_s(self) -> float:
        """Due-to-done latency; a failed request misses every limit."""
        return self.done - self.due if self.ok else float("inf")

    @property
    def lateness_s(self) -> float:
        return max(0.0, self.sent - self.due)


class Connection:
    """A keep-alive connection that reconnects after a failure."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request):
        """Send ``request``; return ``(status, body)``.  Raises on failure
        after dropping the connection, so the next call reconnects."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        headers = {}
        if request.body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(request.method, request.path,
                               body=request.body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def get(self, path: str):
        return self.send(Request("control", "GET", path))

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


#: How long before a due time the generator stops sleeping and spins,
#: so its own wake-up delay stays out of the latencies it records.
SPIN_S = 0.002


def wait_until(due: float) -> None:
    """Sleep until ``SPIN_S`` before ``due``, then spin to it, yielding
    the interpreter lock so the other worker can read its answer."""
    delay = due - time.perf_counter() - SPIN_S
    if delay > 0:
        time.sleep(delay)
    while time.perf_counter() < due:
        time.sleep(0)


def run_schedule(connections: Sequence[Connection],
                 requests: Sequence[Request], rate: float,
                 start: float) -> List[Outcome]:
    """Send ``requests`` at ``rate`` per second from ``start`` (a
    ``time.perf_counter`` instant) over ``connections``, one worker per
    connection, the first on the calling thread.  Returns one
    :class:`Outcome` per request, in schedule order."""
    outcomes = [Outcome(i, r, start + i / rate)
                for i, r in enumerate(requests)]
    lock = threading.Lock()
    cursor = iter(outcomes)

    def worker(conn: Connection) -> None:
        while True:
            with lock:
                outcome = next(cursor, None)
            if outcome is None:
                return
            if outcome.due > time.perf_counter():
                outcome.idle = True
                wait_until(outcome.due)
            outcome.sent = time.perf_counter()
            try:
                outcome.status, outcome.body = conn.send(outcome.request)
            except (OSError, http.client.HTTPException) as exc:
                outcome.error = repr(exc)
            outcome.done = time.perf_counter()

    threads = [threading.Thread(target=worker, args=(conn,), daemon=True)
               for conn in connections[1:]]
    for thread in threads:
        thread.start()
    try:
        worker(connections[0])
    finally:
        for thread in threads:
            thread.join()
    return outcomes


def completed_rate(outcomes: Sequence[Outcome]) -> float:
    """Requests answered 200 per second, from the first due time to the
    last answer.  Run with ``rate=float("inf")``, every request is due
    at once and each worker sends its next request as soon as its last
    answer arrives (a closed loop), so this is the connections' capacity.
    """
    span_s = max(o.done for o in outcomes) - outcomes[0].due
    return sum(1 for o in outcomes if o.ok) / span_s


def ladder_step(outcomes: Sequence[Outcome], rate: float,
                tail_q: float) -> stats.Step:
    """Summarize one rung of the rate ladder."""
    n = len(outcomes)
    third = max(1, n // 3)
    return stats.Step(
        rate=rate,
        achieved=completed_rate(outcomes),
        tail_ms=stats.percentile([o.latency_s for o in outcomes],
                                 tail_q) * 1e3,
        lateness_start_ms=statistics.median(
            [o.lateness_s for o in outcomes[:third]]) * 1e3,
        lateness_end_ms=statistics.median(
            [o.lateness_s for o in outcomes[-third:]]) * 1e3)

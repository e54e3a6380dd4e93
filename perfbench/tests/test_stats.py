"""Unit tests for the benchmark's timing rules.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import http.server
import os
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import loadgen  # noqa: E402
import stats  # noqa: E402


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    """Answers at once, except ``/stall``, which holds its answer."""

    protocol_version = "HTTP/1.1"
    stall_s = 0.3

    def do_GET(self):  # noqa: N802 - http.server naming
        if self.path == "/stall":
            time.sleep(self.stall_s)
        body = b"{}"
        self.send_response(200 if self.path != "/missing" else 404)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                            _StallingHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _get(path):
    return loadgen.Request("get", "GET", path)


def test_stall_delays_later_requests_from_their_due_time(server):
    """One stalled request on the only connection also delays the
    requests due behind it: latency counts from the due time."""
    conn = loadgen.Connection("127.0.0.1", server)
    try:
        requests = [_get("/stall")] + [_get("/fast")] * 4
        outcomes = loadgen.run_schedule([conn], requests, rate=50.0,
                                        start=time.perf_counter() + 0.01)
    finally:
        conn.close()
    assert all(o.ok for o in outcomes)
    # Request i was due 20 ms * i after the first and waited for it.
    for o in outcomes[1:]:
        assert o.latency_s >= _StallingHandler.stall_s - 0.02 * o.index \
            - 0.01
        assert o.lateness_s > 0.1
        assert not o.idle
    # Timed from the send instead, the later requests look fast.
    assert min(o.done - o.sent for o in outcomes[1:]) < 0.05


def test_failures_count_as_misses(server):
    conn = loadgen.Connection("127.0.0.1", server)
    try:
        outcomes = loadgen.run_schedule(
            [conn], [_get("/fast"), _get("/missing")], rate=100.0,
            start=time.perf_counter())
    finally:
        conn.close()
    assert outcomes[0].ok and not outcomes[1].ok
    assert outcomes[1].latency_s == float("inf")
    assert stats.percentile([o.latency_s for o in outcomes], 1.0) \
        == float("inf")


def test_refused_connection_is_a_failed_request():
    conn = loadgen.Connection("127.0.0.1", 1, timeout=1.0)
    outcomes = loadgen.run_schedule([conn], [_get("/x")], rate=10.0,
                                    start=time.perf_counter())
    assert outcomes[0].error is not None
    assert outcomes[0].latency_s == float("inf")


def test_ten_beyond_rule():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(999, 0.99) == 9
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.tail_quantile(1000) == 0.99
    assert stats.tail_quantile(999) == 0.95
    assert stats.tail_quantile(100) == 0.9
    assert stats.tail_quantile(25) == 0.5
    assert stats.tail_quantile(19) is None
    values = [float(i) for i in range(1, 201)]
    assert stats.checked_percentile(values, 0.95) == 190.0
    with pytest.raises(ValueError):
        stats.checked_percentile(values[:199], 0.95)


def test_percentile_is_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert stats.percentile([5.0], 0.99) == 5.0


def _step(rate, tail_ms, late_start=0.1, late_end=0.1):
    return stats.Step(rate=rate, achieved=rate, tail_ms=tail_ms,
                      lateness_start_ms=late_start,
                      lateness_end_ms=late_end)


def test_ladder_stops_at_first_failing_step():
    steps = [_step(20, 60), _step(40, 600), _step(80, 10)]
    assert stats.ladder_max_rate(steps, 250, 25).rate == 20


def test_ladder_stops_when_lateness_grows():
    steps = [_step(20, 60), _step(40, 100, late_start=1, late_end=80)]
    assert stats.ladder_max_rate(steps, 250, 25).rate == 20


def test_ladder_stops_when_the_backlog_built_up_early():
    steps = [_step(20, 60), _step(40, 190, late_start=107, late_end=114)]
    assert stats.ladder_max_rate(steps, 250, 25).rate == 20


def test_ladder_with_failures_misses_the_limit():
    steps = [_step(20, 60), _step(40, float("inf"))]
    assert stats.ladder_max_rate(steps, 250, 25).rate == 20
    assert stats.ladder_max_rate([_step(20, float("inf"))], 250, 25) is None


def test_finite_keeps_json_valid():
    assert stats.finite(1.5) == 1.5
    assert stats.finite(float("inf")) > 1e300

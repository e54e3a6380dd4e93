"""Processes and host conditions around one benchmark run.

* :func:`child_env` — the environment every program process gets: the
  checkout's ``src`` on ``PYTHONPATH`` and no ``REPRO_*`` variable, so
  worker counts and every other knob are library defaults;
* :class:`Processes` — every process the run starts, stopped and waited
  for on exit;
* :class:`Server` — ``python -m repro serve`` in its own process;
* :class:`HostSample` — CPU steal share and load average over the run.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from loadgen import Connection


#: BLAS thread pools pinned to one thread.  On a two-core host shared
#: with the harness, a pool as wide as the host made one process's mines
#: of the same input take 9.9-14.3 s; pinned, 14.7-15.9 s.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def child_env(src: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(SINGLE_THREADED)
    env["PYTHONPATH"] = src
    return env


class Processes:
    """Every child process of a run; :meth:`stop_all` ends them all."""

    def __init__(self, env: Dict[str, str]) -> None:
        self.env = env
        self._procs: List[subprocess.Popen] = []

    def start(self, argv: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable] + argv, env=self.env,
                                **kwargs)
        self._procs.append(proc)
        return proc

    def run(self, argv: List[str], timeout: float) -> str:
        """Run ``argv`` to completion; return its stdout, raise on failure."""
        proc = self.start(argv, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
        return out.decode("utf-8")

    @staticmethod
    def stop(proc: subprocess.Popen, timeout: float = 10.0) -> None:
        """SIGTERM, then SIGKILL after ``timeout``; always waits."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()

    def stop_all(self) -> None:
        while self._procs:
            self.stop(self._procs.pop())


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """``repro serve <model> --port 0`` with the default threaded backend
    and default cache; stderr goes to a file the port is read from."""

    def __init__(self, procs: Processes, model: str, workdir: str,
                 name: str = "serve") -> None:
        self.procs = procs
        self.log = os.path.join(workdir, f"{name}.stderr")
        self.started = time.perf_counter()
        with open(self.log, "wb") as err:
            self.proc = procs.start(["-m", "repro", "serve", model,
                                     "--port", "0"],
                                    stdout=subprocess.DEVNULL, stderr=err)
        self.port = 0

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers 200; return seconds since spawn."""
        deadline = self.started + timeout
        while not self.port:
            with open(self.log, encoding="utf-8", errors="replace") as f:
                match = re.search(r"on http://[\d.]+:(\d+)", f.read())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                raise RuntimeError(f"repro serve did not start; see "
                                   f"{self.log}")
            else:
                time.sleep(0.005)
        conn = self.connect()
        try:
            while True:
                try:
                    status, _ = conn.get("/healthz")
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.005)
        finally:
            conn.close()

    def connect(self) -> Connection:
        return Connection("127.0.0.1", self.port)

    def metrics(self) -> Dict:
        conn = self.connect()
        try:
            status, body = conn.get("/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        self.procs.stop(self.proc)


class HostSample:
    """Steal share and load average between construction and :meth:`end`."""

    def __init__(self) -> None:
        self._start = self._cpu()
        self.load_start = self._load()

    @staticmethod
    def _cpu() -> Optional[List[int]]:
        try:
            with open("/proc/stat", encoding="ascii") as handle:
                return [int(x) for x in handle.readline().split()[1:]]
        except OSError:
            return None

    @staticmethod
    def _load() -> Optional[float]:
        try:
            return os.getloadavg()[0]
        except OSError:
            return None

    def end(self) -> Dict[str, Optional[float]]:
        end = self._cpu()
        steal = None
        if self._start and end and len(end) > 7:
            delta = [b - a for a, b in zip(self._start, end)]
            total = sum(delta[:8])
            steal = delta[7] / total if total else 0.0
        return {"steal_share": steal, "load_start": self.load_start,
                "load_end": self._load(), "cpus": os.cpu_count()}

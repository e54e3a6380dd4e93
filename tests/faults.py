"""Fault-injection harness for the resilience test suite.

Provides a :class:`CrashingCheckpoint` writer that kills a fit after a
chosen checkpoint write (simulating a SIGKILL mid-run with the
checkpoint already on disk), and helpers that damage checkpoint files
the way real crashes and bit rot do.
"""

from __future__ import annotations

from repro.resilience import CheckpointWriter


class FaultInjected(RuntimeError):
    """Raised by :class:`CrashingCheckpoint` to simulate a hard kill."""


class CrashingCheckpoint(CheckpointWriter):
    """A checkpoint writer that raises after its N-th successful save.

    The save completes (the file is on disk, atomically) before the
    crash fires — exactly the state a SIGKILLed process leaves behind —
    so a resumed fit must pick up from the persisted state.
    """

    def __init__(self, *args, crash_after: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crash_after = crash_after
        self.saves = 0

    def save(self, iteration, state) -> None:
        super().save(iteration, state)
        self.saves += 1
        if self.saves >= self.crash_after:
            raise FaultInjected(
                f"injected crash after checkpoint save #{self.saves}")


def truncate_file(path: str, keep_bytes: int) -> None:
    """Cut a file down to its first ``keep_bytes`` bytes (partial write)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:keep_bytes])


def corrupt_file(path: str, offset: int = -1) -> None:
    """Flip every bit of one byte (default: the last) of a file."""
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))

"""repro.resilience — crash-safe persistence and checkpoint/resume.

Two pillars:

* **atomic writes** (:mod:`repro.resilience.atomic`): every on-disk
  artifact (datasets, run reports, checkpoints) is written via temp file
  + ``os.replace`` in the target directory, so an interrupted process
  never leaves a truncated file;
* a **versioned checkpoint protocol**
  (:mod:`repro.resilience.checkpoint`): iterative solvers persist their
  resume state through a :class:`CheckpointWriter` at a configurable
  iteration cadence, and a resumed fit replays the remaining iterations
  bit-for-bit.

Every iterative solver — CATHY EM, CATHYHIN EM, the hierarchy builder,
ToPMine's phrase-constrained Gibbs sampler, the STROD tensor power
method, and TPFG — accepts ``checkpoint=`` / ``resume=`` (or a
``checkpoint_dir``), surfaced on the CLI as ``--checkpoint-dir`` and
``--resume``.

Both pillars are machine-enforced by ``repro lint``: rule RL003 routes
every file write in ``src/repro`` through :mod:`repro.resilience.atomic`,
and rule RL006 requires every checkpoint writer outside this package to
pass a ``config=`` fingerprint so resumes are guarded.
"""

from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .checkpoint import (CHECKPOINT_SCHEMA, CheckpointWriter, checkpoint_in,
                         config_fingerprint, load_checkpoint, load_framed,
                         save_checkpoint, save_framed)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointWriter",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "checkpoint_in",
    "config_fingerprint",
    "load_checkpoint",
    "load_framed",
    "save_checkpoint",
    "save_framed",
]

"""Fast-kernel policy shared by the solver suite.

Every hot path in the library ships as a *kernel pair*: a retained
reference implementation (the ground-truth semantics, kept under
``tests/reference_kernels.py`` and equivalence-tested to 1e-12) and a
fast kernel (sparse/vectorized/blocked) that production code runs by
default.  A fast kernel may be bypassed — the collapsed-Gibbs sampler's
reference sweep, forced through ``REPRO_GIBBS_REFERENCE``, is the one
such path left — in which case the solver runs an equivalent slower path
and counts the event under ``kernel.fallback.<name>``.

CI's perf-smoke job sets ``REPRO_REQUIRE_FAST_KERNELS=1`` to turn that
silent degradation into a hard :class:`~repro.errors.ConfigurationError`:
a build whose hot paths quietly run reference-speed code must fail,
not pass slowly.
"""

from __future__ import annotations

import os

from .errors import ConfigurationError
from .obs import inc

__all__ = ["ENV_REQUIRE", "fast_kernels_required", "kernel_fallback"]

#: Environment switch: when truthy, any fast-kernel fallback raises.
ENV_REQUIRE = "REPRO_REQUIRE_FAST_KERNELS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def fast_kernels_required() -> bool:
    """True when the environment forbids reference-path fallbacks."""
    return os.environ.get(ENV_REQUIRE, "").strip().lower() in _TRUTHY


def kernel_fallback(name: str, reason: str) -> None:
    """Record that the fast kernel ``name`` is being bypassed.

    Increments ``kernel.fallback.<name>`` so run reports surface silent
    degradation, and raises :class:`ConfigurationError` when
    ``REPRO_REQUIRE_FAST_KERNELS`` is set.

    Args:
        name: dotted kernel identifier, e.g. ``"cathy.m_step"``.
        reason: one-line human explanation of why the fast path is
            unavailable.
    """
    inc("kernel.fallback." + name)
    if fast_kernels_required():
        raise ConfigurationError(
            f"fast kernel {name!r} unavailable ({reason}) but "
            f"{ENV_REQUIRE} is set")

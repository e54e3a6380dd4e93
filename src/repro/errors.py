"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid parameter or option combination was supplied."""


class DataError(ReproError):
    """The supplied data is malformed or inconsistent with the schema."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before fitting."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to make progress or produce a result."""

"""Semantic exception hierarchy shared by all modules, and the one rule for integer arguments."""

import numpy as np


class MixrankError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MixrankError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _integers(value, message: str, lo: int, hi: int = np.iinfo(np.intp).max, *, scalar=False):
    """``value`` as ``np.intp``, if all integers (no bools) in ``lo..hi``, and one if ``scalar``."""
    k = np.asarray(value)
    bad = [value] if k.dtype.kind not in "iu" or (scalar and k.ndim) else k[(k < lo) | (k > hi)]
    if len(bad):
        raise DomainError(message.format(bad[0]))
    return np.intp(k) if scalar else k.astype(np.intp, copy=False)


class InsufficientDataError(MixrankError, ValueError):
    """The sample is too short for the requested statistic."""


class DegenerateSampleError(MixrankError, ValueError):
    """The sample carries no usable information (zero variance, all zeros)."""


class TiesUnsupportedError(MixrankError, ValueError):
    """Tied magnitudes or exact zeros where a continuous sample is required."""


class SearchOverflowError(MixrankError, RuntimeError):
    """A sample-size search exceeded its budget.

    ``partial`` holds whatever results were completed before the overflow,
    so callers can report them instead of discarding the run.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []


class DataFileError(MixrankError, ValueError):
    """An input data file is missing, empty, or unparsable."""

"""Exception hierarchy shared across the package.

Every error raised by this package derives from CompoundDeviationsError, so
callers can catch the package's failures without catching unrelated bugs.
Errors are semantic: the class says what went wrong, the message says where.
"""

from __future__ import annotations


class CompoundDeviationsError(Exception):
    """Base class for all errors raised by compound_deviations."""


class DimensionMismatchError(CompoundDeviationsError):
    """Two objects that must share a dimension do not."""


class ValidationError(CompoundDeviationsError):
    """A parameter lies outside its documented domain."""


class UnsupportedModelError(CompoundDeviationsError):
    """The requested operation has no implementation for this model kind."""


class NoRootError(CompoundDeviationsError):
    """An equation has no root in its domain, such as a target beyond a
    tabulated cumulant's range."""


class InconclusiveOptimizationError(CompoundDeviationsError):
    """An ascent neither converged nor was detected as unbounded.

    Carries the best value and point seen so callers can inspect how far
    the search got before giving up.
    """

    def __init__(self, message, best_value=None, best_point=None,
                 gradient_norm=None, iterations=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_point = best_point
        self.gradient_norm = gradient_norm
        self.iterations = iterations


class ZeroRateEventError(CompoundDeviationsError):
    """The target event contains the law-of-large-numbers limit point.

    Such events have probability tending to one; there is no decay rate to
    estimate and no sensible tilt.
    """


class ConfigError(CompoundDeviationsError):
    """One or more problems found while validating an experiment config.

    ``errors`` collects every failure in one pass so a user can fix the
    whole file at once.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config: " + "; ".join(self.errors))

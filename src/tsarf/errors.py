"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: usage errors exit 1, data errors exit 2,
convergence errors exit 3.
"""


class TsarfError(Exception):
    """Base class for all toolkit errors."""


class UsageError(TsarfError):
    """Caller violated an argument contract (bad option, bad dimensions)."""


class DataError(TsarfError):
    """Input data violates a format or domain requirement."""


class RankDeficiencyError(DataError):
    """Normal equations singular to tolerance; the fit is not identifiable.

    ``index`` is the first failing system of a stacked fit, if known.
    """

    index: int | None = None


class InsufficientDataError(DataError):
    """Too few points (or windows) for the requested configuration."""


class DegenerateWindowError(DataError):
    """A window cannot support a line fit, e.g. all timestamps equal."""


class DegenerateDataError(DataError):
    """Data carries no usable signal (no growth, or vanishing intensity)."""


class MetricDomainError(DataError):
    """A metric denominator is zero at some index."""


class ConvergenceError(TsarfError):
    """Every optimizer restart failed to converge."""

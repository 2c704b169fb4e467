"""Exception types shared across the package."""


class ReconcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ReconcError):
    """A vector or matrix has the wrong length/shape for the hierarchy."""


class InvalidAggregation(ReconcError):
    """An aggregation factor does not divide the bottom period count."""


class DuplicateLevel(ReconcError):
    """Two aggregation factors describe the same hierarchy level."""


class InsufficientSamples(ReconcError):
    """Too few samples to fit the requested distribution."""


class MissingForecast(ReconcError):
    """A node required by the reconciliation method has no base forecast."""


class NumericalError(ReconcError):
    """A linear solve failed (singular or badly conditioned system)."""


class SupportTooLarge(ReconcError):
    """Exact enumeration would exceed the configured cell cap."""


class IncompatibleEvidence(ReconcError):
    """An evidence pmf assigns zero mass to every reachable aggregate value."""


class SamplerStuck(ReconcError):
    """A chain never reached a state with positive target probability."""


class UndefinedScale(ReconcError):
    """MASE scale Q is zero or undefined (constant or single-block training level)."""


class InvalidInterval(ReconcError):
    """Interval lower bound exceeds the upper bound."""


class UndefinedSkill(ReconcError):
    """Skill score undefined because both metric values are zero."""


class UndefinedCorrelation(ReconcError):
    """Correlation undefined because a marginal variance is zero."""


class MissingActuals(ReconcError):
    """Actual observations do not cover every node being scored."""


class SeriesTooShort(ReconcError):
    """Series shorter than one block of the coarsest aggregation level."""


class ObservationGap(ReconcError):
    """A series' observation times skip or repeat a period."""


class MissingJoint(ReconcError):
    """A reconciled output record of a coherent method stores no joint."""


class ConvergenceWarning(UserWarning):
    """Split-R-hat above threshold on at least one bottom coordinate."""


class TruncationWarning(UserWarning):
    """An exact joint holds posterior mass at the top cell of a truncated grid."""

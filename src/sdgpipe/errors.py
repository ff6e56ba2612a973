"""Exception types raised across the package.

Everything inherits from PipelineError so callers can catch one base class;
the CLI maps stage failures onto distinct exit codes.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PipelineError):
    """A configuration file or override value is invalid."""


class MalformedHeaderError(PipelineError):
    """Input CSV header does not match the expected column layout."""


class NonNumericScoreError(PipelineError):
    """A score cell could not be parsed as a number."""

    def __init__(self, row: int, column: str, raw: str):
        self.row = row
        self.column = column
        self.raw = raw
        super().__init__(f"row {row}, column {column}: not a number: {raw!r}")


class ScoreRangeError(PipelineError):
    """A score falls outside [0, 100] by more than the parse tolerance."""

    def __init__(self, row: int, column: str, value: float):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"row {row}, column {column}: score {value} outside [0, 100]")


class DuplicateObservationError(PipelineError):
    """The same (country, year) pair appears more than once."""

    def __init__(self, country: str, year: int | None = None):
        self.country = country
        self.year = year
        what = f"({country}, {year})" if year is not None else country
        super().__init__(f"duplicate entry for {what}")


class EmptyResultError(PipelineError):
    """An operation produced no rows (e.g. no country has complete coverage)."""


class ZeroVarianceError(PipelineError):
    """A goal column of the pooled panel is flat, so it cannot be z-scored."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column} has zero variance")


class RankDeficientError(PipelineError):
    """Covariance rank is lower than the number of requested components."""


class CalibrationFailedError(PipelineError):
    """Perplexity calibration could not reach the target within tolerance."""


class ShapeMismatchError(PipelineError):
    """An array's shape disagrees with a companion array, the panel or a fitted model."""


class TooFewObservationsError(PipelineError):
    """Not enough rows to estimate the requested statistic."""


class TooFewMembersError(PipelineError):
    """A cluster has too few members in a given year to fit a distribution."""

    def __init__(self, cluster: int, year: int, count: int):
        self.cluster = cluster
        self.year = year
        self.count = count
        super().__init__(f"cluster {cluster}, year {year}: only {count} member(s)")


class SingularFitError(PipelineError):
    """Least-squares design matrix is rank deficient."""


class MissingArtifactError(PipelineError):
    """A stage needs an artifact that an earlier stage has not produced."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(
            f"missing artifact {name!r}; run the producing stage first"
        )


class StageError(PipelineError):
    """Wraps any failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")

"""Exception types shared across the package."""

from __future__ import annotations


class MultiEndpointError(Exception):
    """Base class for all package-specific errors."""


class SchemaMismatchError(MultiEndpointError):
    """A column named in the mapping is absent from the CSV header, or the
    header names a column twice."""


class CsvParseError(MultiEndpointError):
    """A data row could not be parsed: a required field of it (``column``),
    or its field count (``column`` is None)."""

    def __init__(self, row: int, column: str | None, detail: str = ""):
        self.row = row
        self.column = column
        if column is None:
            msg = f"row {row}: malformed row"
        else:
            msg = f"row {row}, column {column!r}: malformed value"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidDataError(MultiEndpointError, ValueError):
    """A dataset column breaks a rule of ``TrialDataset``, or a data file
    cannot be read as text."""


class EmptyGroupError(MultiEndpointError):
    """A treatment or control group ended up with zero subjects."""


class MissingColumnError(MultiEndpointError):
    """A derivation input (endpoint or covariate) is absent from the dataset."""


class InvalidContrastError(MultiEndpointError):
    """A contrast names an arm that does not exist, or is malformed."""


class EmptyAfterExclusionError(MultiEndpointError):
    """Too few subjects remain, after any complete-case filtering, for the test."""


class ExactTooLargeError(MultiEndpointError):
    """Exact enumeration was requested but C(N, n1) exceeds the cap."""


class InvalidCorrelationError(MultiEndpointError):
    """A correlation matrix is not symmetric/PSD with unit diagonal."""


class ConfigError(MultiEndpointError):
    """A run configuration failed validation; message carries the field path."""

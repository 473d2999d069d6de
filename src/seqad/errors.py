"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError for bad configuration,
DataError and its subclasses for problems with the data itself, and
everything else (including ShapeError escaping from the numeric core) is
treated as an internal invariant violation.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(ToolkitError):
    """Array dimensions do not satisfy an operation's contract."""


class ConfigError(ToolkitError):
    """Invalid configuration value, flag, or profile."""


class DataError(ToolkitError):
    """The input data cannot be processed as requested."""


class CsvParseError(DataError):
    """Malformed CSV input; the message names the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ModelFileError(DataError):
    """Model file is malformed or internally inconsistent."""


class ModelVersionError(ModelFileError):
    """Model file format version is not supported."""

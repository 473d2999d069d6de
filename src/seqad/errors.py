"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError for bad configuration
(exit 2), DataError for a problem with the data itself, a model file's
included (exit 3), and any other ToolkitError, such as a ShapeError
escaping from the numeric core, as an internal invariant violation
(exit 4). A fault in a file names the file, and the line when it is a
text file read line by line: `<path> line N: <message>`.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(ToolkitError):
    """Array dimensions do not satisfy an operation's contract."""


class ConfigError(ToolkitError):
    """Invalid configuration value, flag, or profile."""


class DataError(ToolkitError):
    """The input data cannot be processed as requested."""

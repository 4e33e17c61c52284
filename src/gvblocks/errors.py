"""Exception types shared across the package.

Every error carries a machine-readable ``code`` of the form
``"<module>.<kind>"`` in addition to the human-readable message, so the CLI
can render structured failures and map them to exit codes: validation
problems exit with 2, capacity/unsupported regimes and internal
inconsistencies with 3.
"""

from __future__ import annotations


class GVBlocksError(Exception):
    """Base class for all package errors."""

    exit_code = 2

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


class ValidationError(GVBlocksError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class InvalidQForm(ValidationError):
    """Quadratic form is not well defined on the group.

    ``witness`` is an (unreduced) integer vector on which well-definedness
    fails, i.e. evaluating the form on it disagrees with evaluating on its
    reduction.
    """

    def __init__(self, code: str, message: str, witness=None):
        super().__init__(code, message)
        self.witness = witness


class ConfigError(ValidationError):
    """Bad CLI configuration file; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__("cli.config", f"{path}: {message}")
        self.path = path


class CompositionError(ValidationError):
    """Boundary corollas of two morphisms do not match."""


class MoveNotApplicable(ValidationError):
    """The requested move does not apply to the given edge."""


class CapacityError(GVBlocksError):
    """Input exceeds the size this implementation enumerates."""

    exit_code = 3


class UnsupportedError(GVBlocksError):
    """Mathematically out of the supported regime (not a malformed input)."""

    exit_code = 3


class DegenerateDataError(UnsupportedError):
    """Operation requires non-degenerate data."""


class InternalError(GVBlocksError, RuntimeError):
    """A result failed a consistency check the library runs on itself."""

    exit_code = 3

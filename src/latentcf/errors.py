"""Exception and warning types shared across the package, and the check
that numeric settings are finite."""

import math


class DimensionError(ValueError):
    """Raised when array shapes do not satisfy an operation's contract."""


class ConfigurationError(ValueError):
    """Raised for invalid user-supplied configuration values."""


def require_finite(name, value, positive=False):
    """ConfigurationError naming the setting unless value is a finite number
    that is non-negative, or positive when asked. NaN and infinities fail."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "non-negative"
        raise ConfigurationError(f"{name} must be a finite {sign} number, got {value!r}")


class NumericalError(ArithmeticError):
    """Raised when a non-finite value would escape a public operation."""


class TrainingError(RuntimeError):
    """Raised when a training run diverges or cannot proceed."""


class FormatError(ValueError):
    """Raised for malformed persistence files.

    Carries the byte offset at which parsing failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedVersionError(FormatError):
    """Raised when a file declares a container version this build cannot read."""


class InvariantViolation(RuntimeError):
    """Raised when an internal consistency check fails.

    Distinct from user errors: the CLI maps this class to its own exit code.
    """


class TrainingQualityWarning(UserWarning):
    """Emitted when a trained model misses its configured quality floor."""


class PartialResultWarning(UserWarning):
    """Emitted when an operation completes with fewer results than requested."""

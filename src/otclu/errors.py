"""Exception types shared across the package, and the integer and real setting checks."""

import math
import numbers


class OtcluError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OtcluError):
    """Malformed point-cloud file. Carries the offending line number."""

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}"
            if line is not None:
                where += f":{line}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class ShapeError(OtcluError):
    """Array arguments have inconsistent dimensions."""


class ConfigError(OtcluError, ValueError):
    """Invalid configuration value."""


class NumericalError(OtcluError):
    """A numerical contract was violated (non-finite transport plan or loss, ...)."""


class SizeError(OtcluError):
    """Problem size exceeds what an exact oracle can handle."""


class DivisibilityError(OtcluError):
    """Cluster count does not divide the point count."""


class CheckpointError(OtcluError):
    """Checkpoint file is corrupt or incompatible with the requested use."""


def check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless `value` is an integer, not a bool, and >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf,
               strict: bool = False) -> None:
    """Raise ConfigError unless `value` is a real number, not a bool, that is finite
    and in [low, high], or in (low, high) when `strict`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
            or not (low < value < high if strict else low <= value <= high)):
        left, right = ("(", ")") if strict else ("[", ")" if high == math.inf else "]")
        raise ConfigError(f"{name} must be a finite real number in "
                          f"{left}{low:g}, {high:g}{right}, got {value!r}")

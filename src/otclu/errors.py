"""Exception types shared across the package."""


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


class EmptyCloudError(OtcluError):
    """A point cloud with zero vertices was loaded or constructed."""


class ShapeError(OtcluError):
    """Array arguments have inconsistent dimensions."""


class ConfigError(OtcluError):
    """Invalid configuration value."""


class NumericalError(OtcluError):
    """A numerical contract was violated (non-finite transport plan or loss, ...)."""


class SizeError(OtcluError):
    """Problem size exceeds what an exact oracle can handle."""


class DivisibilityError(OtcluError):
    """Cluster count does not divide the point count."""


class CheckpointError(OtcluError):
    """Checkpoint file is corrupt or incompatible with the requested use."""

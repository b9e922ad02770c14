"""Exception hierarchy and warning categories shared across the package."""


class FewshotTtaError(Exception):
    """Base class for all package-specific errors; exit_code is the CLI's exit status."""

    exit_code = 1


class ConfigError(FewshotTtaError):
    """Invalid or inconsistent configuration (CLI exit code 1)."""


class DataError(FewshotTtaError):
    """Invalid input data or dataset contents (CLI exit code 2)."""

    exit_code = 2


class DataFormatError(DataError):
    """Malformed on-disk dataset or model file."""


class BadMagicError(DataFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(DataFormatError):
    """File ends before the declared payload is complete."""


class VersionMismatchError(DataFormatError):
    """File carries an unsupported format version."""


class NumericError(FewshotTtaError):
    """Numerical failure such as a diverged training loss (CLI exit code 3)."""

    exit_code = 3


class DegenerateSimilarityWarning(RuntimeWarning):
    """Cosine similarity was requested for a zero-norm vector."""

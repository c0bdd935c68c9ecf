"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes (see cli.py): configuration and data
validation problems exit with 1, runtime and numerical problems with 2.
"""


class SeqcalError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SeqcalError):
    """A configuration value violates its documented constraints."""


class ValidationError(SeqcalError):
    """Structured data fails an invariant (duplicate ids, bad shapes, ...)."""


class ParseError(ValidationError):
    """A serialized file could not be parsed.  Carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InputError(SeqcalError):
    """A runtime input (token id, shape) lies outside the valid domain."""


class TrainingError(SeqcalError):
    """Training failed or diverged.  Carries the offending step index."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class NumericalStateError(SeqcalError):
    """A numerical state is invalid (negative variance, failed factorization)."""


class MetricError(SeqcalError):
    """A metric is undefined for the given inputs."""


class UndefinedCorrelationError(MetricError):
    """Rank correlation is undefined because one side has zero rank variance."""

"""Shared exception types."""


class StructuralError(ValueError):
    """Malformed data fed to a kernel: bad indices, shape mismatches, duplicates."""


class ConfigurationError(ValueError):
    """Inconsistent solver, schedule, or experiment configuration."""


class DivergenceError(RuntimeError):
    """A solver produced a non-finite iterate.  ``iteration`` is the
    solver's iteration (or row) that did, when the solver caught it;
    ``epoch`` is the traced epoch whose objective was not finite, when the
    tracer caught it.  The other one is None."""

    def __init__(self, message, iteration=None, epoch=None):
        super().__init__(message)
        self.iteration = iteration
        self.epoch = epoch


class ParseError(ValueError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CertificationError(RuntimeError):
    """A reference solution could not be certified to the requested accuracy."""

"""Exception types shared across the library."""


class SolverFailure(RuntimeError):
    """The MAP solve stopped before reaching its gradient tolerance.

    Carries the final relative gradient norm as ``residual`` so callers can
    decide whether the partial solution is still usable.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidParameterError(ValueError):
    """A parameter field violates a model precondition (e.g. nonpositive wavespeed)."""


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class StabilityError(RuntimeError):
    """Explicit time integration blew up (field norms grew without bound)."""


class MissingArtifactError(RuntimeError):
    """A pipeline stage needs output from an earlier stage that has not run
    (``stage``), or an artifact file it reads is unusable (``message`` names
    the file)."""

    def __init__(self, stage=None, message=None):
        super().__init__(message or f"missing artifacts from stage '{stage}'")
        self.stage = stage

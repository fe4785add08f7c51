"""Error types raised across the package.

All predictable failures derive from MorphkitError so callers (and the CLI)
can distinguish user-correctable problems from genuine bugs.
"""


class MorphkitError(Exception):
    """Base class for all errors raised by morphkit."""


class ShapeError(MorphkitError, ValueError):
    """Dimensions of the operands do not conform."""


class NotFiniteError(MorphkitError, ValueError):
    """A matrix contains NaN or infinite entries."""


class SingularMatrixError(MorphkitError, ValueError):
    """Normal equations could not be factorized; retry with ridge > 0."""


class StandardizationError(MorphkitError, ValueError):
    """Input columns do not satisfy the required normalization."""


class EmptyLayerError(MorphkitError, RuntimeError):
    """No candidate neuron is left: sparsification removed every one, or
    every one is silent on the probe."""


class TrainingDivergedError(MorphkitError, RuntimeError):
    """The training loss became non-finite."""


class ModelFormatError(MorphkitError, ValueError):
    """A model file is malformed or has an unsupported schema version."""


class IdxFormatError(MorphkitError, ValueError):
    """An IDX data file is malformed."""

"""Exception types shared across the package."""


class AnomstreamError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveSampleError(AnomstreamError):
    """A sample contains values <= 0 where strictly positive data is required."""


class DegenerateSampleError(AnomstreamError):
    """Sample too small or (near-)constant; no meaningful fit exists."""


class InvalidPercentileError(AnomstreamError):
    """Percentile outside the open interval (0, 1)."""


class EmptyBufferError(AnomstreamError):
    """A threshold was requested from an empty loss buffer."""


class ShapeMismatchError(AnomstreamError):
    """Array shape incompatible with the model geometry."""


class NonFiniteError(AnomstreamError):
    """A non-finite value appeared where finite numbers are required."""


class EmptyNodeError(AnomstreamError):
    """Impurity requested for a node with zero samples."""


class CorruptCheckpointError(AnomstreamError):
    """A checkpoint file holds a model that cannot be valid."""


class DegenerateTrainingSetError(AnomstreamError):
    """Classifier training set does not contain both classes."""


class NotBootstrappedError(AnomstreamError):
    """Engine used before bootstrap completed."""


class InsufficientDataError(AnomstreamError):
    """Not enough usable data to bootstrap the engine."""


class LengthMismatchError(AnomstreamError):
    """Paired sequences have different lengths or misaligned indices."""


class UndefinedRateError(AnomstreamError):
    """Rate denominator is zero."""


class SingleClassError(AnomstreamError):
    """Operation requires both classes present in the ground truth."""


class MissingFileError(AnomstreamError):
    """Input file does not exist."""


class SchemaMismatchError(AnomstreamError):
    """CSV header does not provide the columns named by the schema."""


class EmptyAfterFilteringError(AnomstreamError):
    """No usable rows remain after parsing and filtering."""


class AllFeaturesConstantError(AnomstreamError):
    """Every feature is constant in the normalization slice."""

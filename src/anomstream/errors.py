"""Exception types, and the config field checks, shared across the package."""

import math
import numbers


class AnomstreamError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSampleError(AnomstreamError):
    """Sample too small, (near-)constant or overflowing; no meaningful fit or finite threshold."""


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


def _is_int(value) -> bool:  # a NumPy integer is one, a bool or a float is not
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _store_ints(config, names: tuple[str, ...]) -> tuple[int, ...]:
    """The ``names`` fields of ``config``, each stored back as an int (JSON writes no NumPy
    integer); the first that ``_is_int`` refuses or that is no int64 raises ``ValueError``."""
    for name in names:
        value = getattr(config, name)
        if not (_is_int(value) and -(2**63) <= value < 2**63):
            raise ValueError(f"{', '.join(names)} must be int64 integers, got {name}={value!r}")
        setattr(config, name, int(value))
    return tuple(getattr(config, name) for name in names)


def _store_floats(config, names: tuple[str, ...]) -> tuple[float, ...]:
    """The ``names`` fields of ``config``, each checked to be a finite real number and no bool,
    and stored back as a float (JSON writes no NumPy float); else ``ValueError``."""
    for name in names:
        value = getattr(config, name)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            finite = real and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        setattr(config, name, float(value))
    return tuple(getattr(config, name) for name in names)

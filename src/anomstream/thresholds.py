"""Loss-distribution fitting and quantile decision thresholds.

Candidate families (lognormal, normal, logistic) are fitted to buffered
scalar losses with closed-form estimators, ranked by a two-sided
Kolmogorov-Smirnov statistic against the sample, and the winning fit is
inverted at a percentile to produce a decision threshold.
"""

from __future__ import annotations

import math
from contextlib import nullcontext, suppress
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from statistics import NormalDist

import numpy as np

from .errors import DegenerateSampleError, EmptyBufferError, InvalidPercentileError

_SQRT2 = math.sqrt(2.0)
_VARIANCE_FLOOR = 1e-12
_STD_NORMAL = NormalDist()


class DistributionFamily(Enum):
    LOGNORMAL = "lognormal"
    NORMAL = "normal"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class DistributionFit:
    """A fitted loss distribution.

    ``location``/``scale`` are (mu, sigma) for normal, (mu, sigma) of the
    log-values for lognormal, and (mu, gamma) for logistic. ``gof`` is the
    two-sided KS statistic of the fit against the sample it was fitted on.
    """

    family: DistributionFamily
    location: float
    scale: float
    gof: float

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.gof <= 1.0:
            raise ValueError(f"gof must lie in [0, 1], got {self.gof}")


@dataclass(frozen=True)
class ThresholdPair:
    """Current decision boundaries and the fits that produced them.

    ``t2`` and ``fit_abnormal`` are absent until the engine has collected
    enough abnormal losses to fit their distribution.
    """

    t1: float
    t2: float | None
    fit_normal: DistributionFit
    fit_abnormal: DistributionFit | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.t1):
            raise ValueError("t1 must be finite")
        if self.t2 is not None and not math.isfinite(self.t2):
            raise ValueError("t2 must be finite when present")


def _mean_and_population_std(x: np.ndarray) -> tuple[float, float]:
    """Mean and divisor-n standard deviation; rejects a near-constant or overflowing sample."""
    mean = float(np.mean(x))
    var = float(np.mean((x - mean) ** 2))
    if not math.isfinite(var):  # also when the mean overflowed
        raise DegenerateSampleError(f"sample moments are not finite (variance {var})")
    if var < _VARIANCE_FLOOR:
        raise DegenerateSampleError(f"sample variance {var:.3e} below {_VARIANCE_FLOOR}")
    return mean, math.sqrt(var)


def _fit(
    family: DistributionFamily, xs: np.ndarray, mean: float, std: float
) -> DistributionFit:
    """The closed-form fit of ``family`` from the sample moments, with its KS against ``xs``.

    ``mean``/``std`` are those of the log-values for the lognormal and of the
    values otherwise; ``xs`` is the sorted sample.
    """
    scale = math.sqrt(3.0) * std / math.pi if family is DistributionFamily.LOGISTIC else std
    fit = DistributionFit(family, mean, scale, 0.0)
    return replace(fit, gof=_ks_sorted(xs, fit))


def std_normal_cdf(z):
    """Standard normal CDF, exact to double precision via erf; an array of ``z``'s shape."""
    arr = np.asarray(z, dtype=float)
    out = np.fromiter((math.erf(v / _SQRT2) for v in arr.ravel()), dtype=float, count=arr.size)
    return (0.5 * (1.0 + out)).reshape(arr.shape)


def cdf(fit: DistributionFit, x):
    """CDF of a fitted distribution, vectorized over ``x``."""
    arr = np.asarray(x, dtype=float)
    if fit.family is DistributionFamily.LOGNORMAL:
        out = np.zeros_like(arr)
        pos = arr > 0.0
        out[pos] = std_normal_cdf((np.log(arr[pos]) - fit.location) / fit.scale)
        return out
    t = (arr - fit.location) / fit.scale
    if fit.family is DistributionFamily.NORMAL:
        return std_normal_cdf(t)
    # logistic: stable sigmoid of the standardized value
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _ks_sorted(xs: np.ndarray, fit: DistributionFit) -> float:
    f = cdf(fit, xs)
    n = xs.size
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))


def fit_distributions(losses) -> list[DistributionFit]:
    """Every applicable family's closed-form fit, smallest KS first (a stable sort, so a KS
    tie keeps the order lognormal, normal, logistic): maximum likelihood for the lognormal
    (of the log-values) and the normal, moments for the logistic (gamma = sqrt(3 * var) / pi).
    No lognormal when a value is <= 0 (it is not clamped), and no family whose moments are
    degenerate or not finite; DegenerateSampleError when none is left or n < 2.
    """
    x = np.asarray(losses, dtype=float).ravel()
    if x.size < 2:
        raise DegenerateSampleError(f"need at least 2 values, got {x.size}")
    xs = np.sort(x)
    lo, hi = float(xs[0]), float(xs[-1])
    fits = []
    if lo > 0.0:  # log-values lie within ±745, so their moments cannot overflow
        with suppress(DegenerateSampleError):
            log_moments = _mean_and_population_std(np.log(x))
            fits.append(_fit(DistributionFamily.LOGNORMAL, xs, *log_moments))
    # NumPy warns when the moments overflow, which needs n * w**2 near the float range; only
    # such a sample enters errstate, which costs more than a small sample's moments
    w = max(-lo, hi, hi - lo)
    quiet = np.errstate(over="ignore", invalid="ignore") if w * w * x.size > 1e300 else nullcontext()
    with suppress(DegenerateSampleError), quiet:
        moments = _mean_and_population_std(x)
        fits.append(_fit(DistributionFamily.NORMAL, xs, *moments))
        fits.append(_fit(DistributionFamily.LOGISTIC, xs, *moments))
    if not fits:
        raise DegenerateSampleError("no candidate family could be fitted")
    return sorted(fits, key=attrgetter("gof"))


def quantile(fit: DistributionFit, p: float) -> float:
    """Inverse CDF of a fitted distribution at percentile ``p``.

    The standard normal quantile is the stdlib ``NormalDist.inv_cdf``, Wichura's
    AS241 (absolute error far below 1e-9 across (0, 1)). A lognormal quantile
    beyond the float range raises ``OverflowError``.
    """
    if not 0.0 < p < 1.0:
        raise InvalidPercentileError(f"percentile must lie in (0, 1), got {p}")
    if fit.family is DistributionFamily.LOGISTIC:
        return fit.location + fit.scale * math.log(p / (1.0 - p))
    z = _STD_NORMAL.inv_cdf(p) * fit.scale + fit.location
    return math.exp(z) if fit.family is DistributionFamily.LOGNORMAL else z


def adaptive_threshold(losses, p: float) -> tuple[float, DistributionFit]:
    """Threshold at percentile ``p`` of the best-fitting loss distribution.

    Raises EmptyBufferError on an empty sample, and DegenerateSampleError when
    no family fits or the threshold is not a finite float, so callers can keep
    their previous threshold.
    """
    if np.size(losses) == 0:
        raise EmptyBufferError("cannot fit a threshold to an empty buffer")
    fit = fit_distributions(losses)[0]
    with suppress(OverflowError):  # a lognormal quantile beyond the float range
        threshold = quantile(fit, p)
        if math.isfinite(threshold):
            return threshold, fit
    raise DegenerateSampleError(f"the {fit.family.value} fit's threshold at {p} is not finite")


def pp_points(losses, fit: DistributionFit) -> np.ndarray:
    """Empirical-vs-theoretical CDF pairs for a probability-probability plot.

    Returns an (n, 2) array of (empirical, theoretical) values over the
    sorted sample, with the midpoint convention (i - 0.5) / n on the
    empirical axis.
    """
    x = np.sort(np.asarray(losses, dtype=float).ravel())
    if x.size == 0:
        raise EmptyBufferError("no values to plot")
    n = x.size
    empirical = (np.arange(1, n + 1, dtype=float) - 0.5) / n
    return np.column_stack([empirical, cdf(fit, x)])

"""Tests for distribution fitting, KS ranking and quantile thresholds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomstream.errors import (
    DegenerateSampleError,
    EmptyBufferError,
    InvalidPercentileError,
)
from anomstream.thresholds import (
    DistributionFamily,
    DistributionFit,
    ThresholdPair,
    _ks_sorted,
    adaptive_threshold,
    cdf,
    fit_distributions,
    pp_points,
    quantile,
)

ALL_FAMILIES = list(DistributionFamily)
LOGNORMAL, NORMAL, LOGISTIC = ALL_FAMILIES


def make_fit(family, location, scale):
    return DistributionFit(family=family, location=location, scale=scale, gof=0.0)


STD_NORMAL = make_fit(NORMAL, 0.0, 1.0)  # its quantile is z * 1 + 0, the standard normal's bits


def family_fit(losses, family):
    """The one entry of ``family`` in ``fit_distributions(losses)``."""
    (fit,) = [f for f in fit_distributions(losses) if f.family is family]
    return fit


class TestClosedFormFits:
    def test_lognormal_two_point(self):
        fit = family_fit([math.e**0, math.e**2], LOGNORMAL)
        assert fit.location == pytest.approx(1.0, abs=1e-12)
        assert fit.scale == pytest.approx(1.0, abs=1e-12)

    def test_lognormal_identical_values_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            family_fit([math.e, math.e, math.e], LOGNORMAL)

    def test_lognormal_rejects_nonpositive(self):
        # a value <= 0 leaves no lognormal entry; the other families still fit
        assert {f.family for f in fit_distributions([1.0, 0.0, 2.0])} == {NORMAL, LOGISTIC}

    def test_lognormal_seeded_sampling(self):
        rng = np.random.default_rng(2024)
        x = rng.lognormal(0.5, 0.3, size=1000)
        fit = family_fit(x, LOGNORMAL)
        assert fit.location == pytest.approx(0.5, abs=0.03)
        assert fit.scale == pytest.approx(0.3, abs=0.03)

    def test_normal_three_point(self):
        fit = family_fit([1.0, 2.0, 3.0], NORMAL)
        assert fit.location == pytest.approx(2.0, abs=1e-12)
        assert fit.scale == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_normal_constant_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            family_fit([4.2, 4.2], NORMAL)

    def test_normal_seeded_sampling(self):
        rng = np.random.default_rng(99)
        x = rng.normal(5.0, 2.0, size=1000)
        fit = family_fit(x, NORMAL)
        # within 3 standard errors of each parameter
        assert abs(fit.location - 5.0) < 3 * 2.0 / math.sqrt(1000)
        assert abs(fit.scale - 2.0) < 3 * 2.0 / math.sqrt(2 * 1000)

    def test_logistic_two_point(self):
        fit = family_fit([1.0, 3.0], LOGISTIC)
        assert fit.location == pytest.approx(2.0, abs=1e-12)
        assert fit.scale == pytest.approx(math.sqrt(3.0) / math.pi, abs=1e-12)

    def test_logistic_constant_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            family_fit([0.0, 0.0, 0.0], LOGISTIC)

    def test_logistic_seeded_sampling(self):
        rng = np.random.default_rng(7)
        x = rng.logistic(0.0, 1.0, size=1000)
        fit = family_fit(x, LOGISTIC)
        assert abs(fit.location) < 0.05 * math.pi / math.sqrt(3)
        assert fit.scale == pytest.approx(1.0, rel=0.05)

    def test_too_small_sample(self):
        for family in ALL_FAMILIES:
            with pytest.raises(DegenerateSampleError):
                family_fit([1.0], family)

    def test_lognormal_equals_normal_of_logs_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.lognormal(0.2, 0.7, size=400)
        a = family_fit(x, LOGNORMAL)
        b = family_fit(np.log(x), NORMAL)
        assert a.location == b.location
        assert a.scale == b.scale


class TestMleOptimality:
    """Perturbing the closed-form fit never increases the log-likelihood."""

    @staticmethod
    def _loglik_normal(x, mu, sigma):
        return float(
            -0.5 * len(x) * math.log(2 * math.pi * sigma**2)
            - np.sum((x - mu) ** 2) / (2 * sigma**2)
        )

    def test_perturbation_never_improves(self):
        root = np.random.SeedSequence(31337)
        for ss in root.spawn(100):
            rng = np.random.default_rng(ss)
            if rng.random() < 0.5:
                x = rng.lognormal(rng.normal(), 0.2 + rng.random(), size=200)
                fit = family_fit(x, LOGNORMAL)
                data = np.log(x)
            else:
                x = rng.normal(rng.normal(), 0.2 + rng.random(), size=200)
                fit = family_fit(x, NORMAL)
                data = x
            base = self._loglik_normal(data, fit.location, fit.scale)
            for dl in (-1e-3, 0.0, 1e-3):
                for ds in (-1e-3, 0.0, 1e-3):
                    if dl == ds == 0.0:
                        continue
                    perturbed = self._loglik_normal(
                        data, fit.location + dl, fit.scale + ds
                    )
                    assert perturbed <= base + 1e-12


class TestKsStatistic:
    def test_single_point(self):
        fit = make_fit(DistributionFamily.NORMAL, 0.0, 1.0)
        assert _ks_sorted(np.array([0.0]), fit) == pytest.approx(0.5, abs=1e-12)

    def test_exact_quantile_grid(self):
        fit = make_fit(DistributionFamily.NORMAL, 3.0, 2.0)
        n = 10
        sample = [quantile(fit, (i - 0.5) / n) for i in range(1, n + 1)]
        assert _ks_sorted(np.array(sample), fit) == pytest.approx(0.05, abs=1e-9)

    def test_own_fit_is_close(self):
        rng = np.random.default_rng(12)
        x = rng.lognormal(0.0, 1.0, size=500)
        fit = family_fit(x, LOGNORMAL)
        # 0.08 is roughly the 99th percentile of the KS null at n=500
        assert fit.gof < 0.08

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reorder_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(1.0, 2.0, size=64)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        # the moments may differ in the last bit with the summation order
        assert family_fit(shuffled, NORMAL).gof == pytest.approx(
            family_fit(x, NORMAL).gof, rel=1e-12
        )


class TestBestDistribution:
    def test_recovers_lognormal(self):
        rng = np.random.default_rng(21)
        x = rng.lognormal(0.0, 0.8, size=2000)
        assert fit_distributions(x)[0].family is LOGNORMAL

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_best_is_min_ks_fit(self, seed, positive):
        # the list holds exactly the applicable families, sorted by KS with
        # ties in family order; a mixed-sign sample has no lognormal candidate
        rng = np.random.default_rng(seed)
        if positive:
            x = rng.lognormal(rng.normal(), 0.1 + rng.random(), size=300)
        else:
            x = rng.normal(rng.normal(), 0.5 + rng.random(), size=300)
            x[0], x[1] = -abs(x[0]) - 0.1, abs(x[1]) + 0.1
        families = [LOGNORMAL, NORMAL, LOGISTIC] if positive else [NORMAL, LOGISTIC]
        fits = fit_distributions(x)
        assert {f.family for f in fits} == set(families) and len(fits) == len(families)
        assert fits == sorted(fits, key=lambda f: (f.gof, families.index(f.family)))

    def test_nonpositive_excludes_lognormal(self):
        best = fit_distributions([-1.0, 0.0, 1.0, 2.0])[0]
        assert best.family in (NORMAL, LOGISTIC)

    def test_all_constant_raises(self):
        with pytest.raises(DegenerateSampleError):
            fit_distributions([2.0, 2.0, 2.0])


class TestStdNormalQuantile:
    @staticmethod
    def _erf_series(z: float) -> float:
        # Taylor series; accurate to well below 1e-12 for |z| <= 2.8,
        # which covers quantiles for p in [1e-4, 1 - 1e-4]
        s, term, n = 0.0, z, 0
        while abs(term) > 1e-18 * max(1.0, abs(s)):
            s += term / (2 * n + 1)
            n += 1
            term *= -z * z / n
            if n > 200:
                break
        return 2.0 / math.sqrt(math.pi) * s

    def _quantile_bisect(self, p: float) -> float:
        lo, hi = -6.0, 6.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 0.5 * (1.0 + self._erf_series(mid / math.sqrt(2.0))) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_against_bisection_oracle(self):
        grid = np.concatenate(
            [[1e-4, 5e-4], np.linspace(0.001, 0.999, 199), [1 - 5e-4, 1 - 1e-4]]
        )
        for p in grid:
            assert abs(quantile(STD_NORMAL, float(p)) - self._quantile_bisect(float(p))) <= 1e-9

    def test_symmetry_and_median(self):
        assert quantile(STD_NORMAL, 0.5) == pytest.approx(0.0, abs=1e-15)
        for p in (0.01, 0.1, 0.3):
            assert quantile(STD_NORMAL, p) == pytest.approx(
                -quantile(STD_NORMAL, 1 - p), abs=1e-12
            )

    def test_rejects_bad_percentile(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidPercentileError):
                quantile(STD_NORMAL, p)


class TestQuantile:
    def test_lognormal_median(self):
        fit = make_fit(DistributionFamily.LOGNORMAL, 2.0, 1.0)
        assert quantile(fit, 0.5) == pytest.approx(math.e**2, rel=1e-12)

    def test_normal_median(self):
        fit = make_fit(DistributionFamily.NORMAL, 7.0, 3.0)
        assert quantile(fit, 0.5) == pytest.approx(7.0, abs=1e-12)

    def test_logistic_ninety(self):
        fit = make_fit(DistributionFamily.LOGISTIC, 0.0, 1.0)
        assert quantile(fit, 0.9) == pytest.approx(math.log(9.0), rel=1e-12)

    def test_rejects_bad_percentile(self):
        fit = make_fit(DistributionFamily.NORMAL, 0.0, 1.0)
        with pytest.raises(InvalidPercentileError):
            quantile(fit, 1.2)

    @given(
        st.sampled_from(ALL_FAMILIES),
        st.floats(-3.0, 3.0),
        st.floats(0.05, 4.0),
        st.floats(0.01, 0.98),
        st.floats(1e-4, 0.01),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, family, location, scale, p, dp):
        fit = make_fit(family, location, scale)
        assert quantile(fit, p) < quantile(fit, p + dp)

    def test_cdf_quantile_roundtrip(self):
        for family in ALL_FAMILIES:
            fit = make_fit(family, 0.7, 1.3)
            for p in np.arange(0.01, 1.0, 0.01):
                assert abs(cdf(fit, quantile(fit, float(p))) - p) <= 1e-7


class TestAdaptiveThreshold:
    def test_lognormal_matches_empirical(self):
        rng = np.random.default_rng(8)
        x = rng.lognormal(0.0, 1.0, size=5000)
        t, fit = adaptive_threshold(x, 0.98)
        assert fit.family is DistributionFamily.LOGNORMAL
        assert t == pytest.approx(float(np.quantile(x, 0.98)), rel=0.02)

    def test_normal_matches_empirical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(100.0, 5.0, size=5000)
        t, _ = adaptive_threshold(x, 0.10)
        assert abs(t - float(np.quantile(x, 0.10))) < 1.0

    def test_empty_buffer(self):
        with pytest.raises(EmptyBufferError):
            adaptive_threshold([], 0.5)

    @given(
        st.lists(st.floats(1e-320, 1e308) | st.floats(-1e308, -1e-320), max_size=8),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example([1e308, -1e308, 3.0], 0.5)  # the normal's variance overflows
    @example([1e-300, 1e300, 1e300, 5e299], 0.99)  # the lognormal's quantile overflows
    @settings(max_examples=300, deadline=None)
    def test_mixed_magnitudes_finite_or_typed_error(self, losses, p):
        # no warning, no untyped error and no non-finite threshold
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                t, _ = adaptive_threshold(losses, p)
        except (DegenerateSampleError, EmptyBufferError):
            return
        assert isinstance(t, float) and math.isfinite(t)


class TestTypes:
    def test_fit_validation(self):
        with pytest.raises(ValueError):
            make_fit(DistributionFamily.NORMAL, 0.0, -1.0)
        with pytest.raises(ValueError):
            DistributionFit(DistributionFamily.NORMAL, 0.0, 1.0, 1.5)

    def test_threshold_pair_validation(self):
        fit = make_fit(DistributionFamily.NORMAL, 0.0, 1.0)
        pair = ThresholdPair(t1=1.0, t2=None, fit_normal=fit)
        assert pair.t2 is None
        with pytest.raises(ValueError):
            ThresholdPair(t1=float("inf"), t2=None, fit_normal=fit)
        with pytest.raises(ValueError):
            ThresholdPair(t1=0.0, t2=float("nan"), fit_normal=fit)

    def test_pp_points_shape_and_range(self):
        rng = np.random.default_rng(4)
        x = rng.lognormal(0.0, 0.5, size=100)
        fit = family_fit(x, LOGNORMAL)
        pts = pp_points(x, fit)
        assert pts.shape == (100, 2)
        assert np.all((pts >= 0.0) & (pts <= 1.0))
        assert np.all(np.diff(pts[:, 0]) > 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

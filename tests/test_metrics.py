"""Tests for confusion metrics, ROC construction and standardized pAUC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomstream.errors import LengthMismatchError, SingleClassError, UndefinedRateError
from anomstream.labels import Label
from anomstream.metrics import (
    ConfusionCounts,
    accuracy,
    composite_scores,
    confusion,
    evaluate,
    far,
    macro_prf,
    mdr,
    report_csv,
    report_text,
    roc,
    spauc,
)

N, A = Label.NORMAL, Label.ABNORMAL


def spauc_grid_oracle(curve, fpr_max=0.05, step=1e-5):
    """Brute-force integration of the interpolated curve on a fine grid.

    Grid points hugging each curve knot (offset 1e-12 either side) keep
    every trapezoid cell clear of the vertical jumps, so the piecewise
    integration is exact apart from float rounding.
    """
    eps = 1e-12
    knots = curve.fpr[(curve.fpr > 0.0) & (curve.fpr < fpr_max)]
    grid = np.concatenate(
        [np.arange(0.0, fpr_max + step / 2, step), [fpr_max], knots - eps, knots + eps]
    )
    grid = np.unique(np.clip(grid, 0.0, fpr_max))
    tpr = np.interp(grid, curve.fpr, curve.tpr)
    p_auc = np.trapezoid(tpr, grid)
    a_min, a_max = fpr_max**2 / 2, fpr_max
    return 0.5 * (1 + (p_auc - a_min) / (a_max - a_min))


class TestConfusion:
    def test_perfect(self):
        c = confusion([N, A, N, A], [N, A, N, A])
        assert (c.fp, c.fn) == (0, 0)
        assert (c.tp, c.tn) == (2, 2)

    def test_all_normal_predictor(self):
        c = confusion([N, N, N], [N, A, A])
        assert c.tp == 0 and c.fp == 0
        assert c.fn == 2 and c.tn == 1

    def test_inverted_predictor_swaps(self):
        truth = [N, A, N, A, A]
        perfect = confusion(truth, truth)
        inverted = confusion([A if t is N else N for t in truth], truth)
        assert inverted.tp == perfect.fn == 0 or True  # structural swap below
        assert (inverted.tp, inverted.fn) == (perfect.fn, perfect.tp)
        assert (inverted.tn, inverted.fp) == (perfect.fp, perfect.tn)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion([N], [N, A])


class TestRates:
    def test_perfect_counts(self):
        c = ConfusionCounts(tp=66, fp=0, tn=7534, fn=0)
        assert far(c) == 0.0
        assert mdr(c) == 0.0
        assert accuracy(c) == 1.0

    def test_half_far(self):
        c = ConfusionCounts(tp=1, fp=5, tn=5, fn=0)
        assert far(c) == pytest.approx(0.5)

    def test_undefined_rates(self):
        with pytest.raises(UndefinedRateError):
            mdr(ConfusionCounts(tp=0, fp=1, tn=1, fn=0))
        with pytest.raises(UndefinedRateError):
            far(ConfusionCounts(tp=1, fp=0, tn=0, fn=1))

    def test_bounds_and_degenerate_predictors(self):
        all_normal = confusion([N, N, N, N], [N, N, A, A])
        assert far(all_normal) == 0.0
        all_abnormal = confusion([A, A, A, A], [N, N, A, A])
        assert mdr(all_abnormal) == 0.0


class TestMacroPrf:
    def test_perfect(self):
        c = ConfusionCounts(tp=5, fp=0, tn=5, fn=0)
        assert macro_prf(c) == (1.0, 1.0, 1.0)

    def test_all_normal_balanced_recall(self):
        c = confusion([N] * 10, [N] * 5 + [A] * 5)
        _, recall, _ = macro_prf(c)
        assert recall == pytest.approx(0.5)

    def test_hand_computed(self):
        # tp=3 fp=1 tn=4 fn=2 worked out by hand
        c = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
        precision, recall, f1 = macro_prf(c)
        assert precision == pytest.approx((0.75 + 4 / 6) / 2)
        assert recall == pytest.approx((0.6 + 0.8) / 2)
        f_abn = 2 * 0.75 * 0.6 / (0.75 + 0.6)
        f_nor = 2 * (4 / 6) * 0.8 / (4 / 6 + 0.8)
        assert f1 == pytest.approx((f_abn + f_nor) / 2)

    def test_macro_f1_between_per_class_f1(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tp, fp, tn, fn = rng.integers(1, 30, size=4)
            c = ConfusionCounts(int(tp), int(fp), int(tn), int(fn))
            _, _, f1 = macro_prf(c)
            f_abn = 2 * c.tp / (2 * c.tp + c.fp + c.fn)
            f_nor = 2 * c.tn / (2 * c.tn + c.fn + c.fp)
            assert min(f_abn, f_nor) - 1e-12 <= f1 <= max(f_abn, f_nor) + 1e-12


class TestRoc:
    def test_perfectly_separated_passes_corner(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [A, A, N, N])
        assert any(f == 0.0 and t == 1.0 for f, t in zip(curve.fpr, curve.tpr))

    def test_identical_scores_is_diagonal(self):
        curve = roc([0.5, 0.5, 0.5, 0.5], [A, N, A, N])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]

    def test_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=200)
        truth = rng.integers(0, 2, size=200)
        truth[0], truth[1] = 0, 1
        curve = roc(scores, truth)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.fpr[0] == 0.0 and curve.fpr[-1] == 1.0
        assert curve.tpr[0] == 0.0 and curve.tpr[-1] == 1.0

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(42)
        scores = rng.random(1000)
        truth = np.array([0, 1] * 500)
        value = spauc(roc(scores, truth), 1.0)  # the full area
        assert 0.45 <= value <= 0.55

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            roc([0.1, 0.2], [N, N])

    def test_auc_equals_mann_whitney_on_tie_free(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(1.0, 1.0, size=80)
        neg = rng.normal(0.0, 1.0, size=120)
        scores = np.concatenate([pos, neg])
        truth = np.array([1] * 80 + [0] * 120)
        assert len(np.unique(scores)) == 200
        u_stat = sum((p > n) for p in pos for n in neg) / (80 * 120)
        assert spauc(roc(scores, truth), 1.0) == pytest.approx(u_stat, abs=1e-9)


class TestSpauc:
    def test_perfect_is_one(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [A, A, N, N])
        assert spauc(curve) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_is_half(self):
        curve = roc([0.5] * 6, [A, N, A, N, A, N])
        assert spauc(curve) == pytest.approx(0.5, abs=1e-12)

    def test_worse_than_chance_below_half(self):
        curve = roc([0.1, 0.2, 0.8, 0.9], [A, A, N, N])
        assert spauc(curve) < 0.5

    def test_matches_grid_oracle(self):
        root = np.random.SeedSequence(505)
        for ss in root.spawn(10):
            rng = np.random.default_rng(ss)
            n = int(rng.integers(20, 400))
            scores = rng.normal(size=n)
            truth = rng.integers(0, 2, size=n)
            truth[0], truth[1] = 0, 1
            curve = roc(scores + truth * rng.random(), truth)
            assert spauc(curve) == pytest.approx(spauc_grid_oracle(curve), abs=1e-6)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=60)
        truth = rng.integers(0, 2, size=60)
        truth[0], truth[1] = 0, 1
        a = spauc(roc(scores, truth))
        b = spauc(roc(np.exp(scores), truth))
        assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_bad_limit(self):
        curve = roc([0.9, 0.1], [A, N])
        with pytest.raises(ValueError):
            spauc(curve, fpr_max=0.0)


class TestComposite:
    def test_band_ordering(self):
        losses = [1.0, 5.0, 9.0, 2.0]
        routes = ["high_conf_abnormal", "classifier", "high_conf_normal", "classifier"]
        votes = [float("nan"), 0.75, float("nan"), float("nan")]
        s = composite_scores(losses, routes, votes)
        # abnormal band above classifier band above normal band
        assert s[0] > s[1] > s[3] > s[2] or (s[0] > s[1] and s[1] > s[2])
        assert s[0] >= 2 / 3
        assert 1 / 3 <= s[1] <= 2 / 3
        assert s[2] <= 1 / 3 + 1e-12

    def test_classifier_band_uses_votes(self):
        losses = [1.0, 1.0]
        routes = ["classifier", "classifier"]
        s = composite_scores(losses, routes, [0.9, 0.1])
        assert s[0] > s[1]

    def test_constant_losses(self):
        s = composite_scores([2.0, 2.0], ["high_conf_normal", "high_conf_abnormal"],
                             [float("nan")] * 2)
        assert s[1] > s[0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            composite_scores([1.0], ["classifier", "classifier"], [0.5, 0.5])


class TestReports:
    def test_evaluate_and_formats(self):
        predicted = [A, A, N, N, N]
        truth = [A, N, N, N, A]
        scores = [0.9, 0.8, 0.1, 0.2, 0.3]
        report = evaluate(predicted, truth, scores)
        assert report["accuracy"] == pytest.approx(60.0)
        text = report_text(report)
        assert text.startswith("accuracy=60.00\n")
        csv_doc = report_csv(report)
        header, row = csv_doc.strip().split("\n")
        assert header == "accuracy,precision,recall,f1,far,mdr,spauc"
        assert row.split(",")[0] == "60.00"

    def test_report_without_scores(self):
        report = evaluate([A, N], [A, N])
        assert report["spauc"] is None
        assert report_text(report).strip().endswith("spauc=nan")

"""Evaluation of verdict streams against held-out ground truth.

Confusion counts treat abnormal as the positive class. The headline ranking
metric is the standardized partial AUC over the low-false-positive region
(FPR <= 0.05 by default), rescaled so that chance scores 0.5 and a perfect
ranker scores 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, SingleClassError, UndefinedRateError

DEFAULT_FPR_LIMIT = 0.05


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RocCurve:
    """ROC points sorted by FPR, from (0, 0) to (1, 1); tied scores move together."""

    fpr: np.ndarray
    tpr: np.ndarray


def _as_label_array(values) -> np.ndarray:
    return np.asarray([int(v) for v in values], dtype=np.int64)


def confusion(predicted, truth) -> ConfusionCounts:
    """Confusion counts with abnormal as the positive class."""
    pred = _as_label_array(predicted)
    true = _as_label_array(truth)
    if pred.shape[0] != true.shape[0] or pred.shape[0] == 0:
        raise LengthMismatchError(
            f"predicted has {pred.shape[0]} entries, truth has {true.shape[0]}"
        )
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def far(c: ConfusionCounts) -> float:
    """False alarm rate fp / (fp + tn)."""
    if c.fp + c.tn == 0:
        raise UndefinedRateError("no normal samples in truth; FAR undefined")
    return c.fp / (c.fp + c.tn)


def mdr(c: ConfusionCounts) -> float:
    """Missed detection rate fn / (fn + tp)."""
    if c.fn + c.tp == 0:
        raise UndefinedRateError("no abnormal samples in truth; MDR undefined")
    return c.fn / (c.fn + c.tp)


def accuracy(c: ConfusionCounts) -> float:
    return (c.tp + c.tn) / c.total


def _prf_one(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def macro_prf(c: ConfusionCounts) -> tuple[float, float, float]:
    """Macro precision/recall/F1 over the two classes.

    Each class is treated as positive in turn; empty denominators count as
    zero; macro-F1 is the unweighted mean of the per-class F1 values.
    """
    p_abn, r_abn, f_abn = _prf_one(c.tp, c.fp, c.fn)
    p_nor, r_nor, f_nor = _prf_one(c.tn, c.fn, c.fp)
    return (
        0.5 * (p_abn + p_nor),
        0.5 * (r_abn + r_nor),
        0.5 * (f_abn + f_nor),
    )


def roc(scores, truth) -> RocCurve:
    """Threshold sweep over unique scores, descending, with grouped ties."""
    s = np.asarray(scores, dtype=float)
    y = _as_label_array(truth)
    if s.shape[0] != y.shape[0]:
        raise LengthMismatchError(
            f"scores has {s.shape[0]} entries, truth has {y.shape[0]}"
        )
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("ROC needs both classes present in truth")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    # indices of the last element of each tie group
    last = np.nonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))[0]
    cum_tp = np.cumsum(y_sorted == 1)[last]
    cum_fp = np.cumsum(y_sorted == 0)[last]
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    return RocCurve(fpr=fpr, tpr=tpr)


def spauc(curve: RocCurve, fpr_max: float = DEFAULT_FPR_LIMIT) -> float:
    """Standardized partial AUC over fpr in [0, fpr_max].

    pAUC is the trapezoidal area restricted to the region, with linear
    interpolation at the cut; the result is 0.5 * (1 + (pAUC - A_min) /
    (A_max - A_min)) where A_min = fpr_max^2 / 2 and A_max = fpr_max, so the
    diagonal maps to 0.5 and a perfect ranker to 1.0.
    """
    if not 0.0 < fpr_max <= 1.0:
        raise ValueError(f"fpr_max must lie in (0, 1], got {fpr_max}")
    fpr, tpr = curve.fpr, curve.tpr
    inside = fpr <= fpr_max
    fx = fpr[inside]
    ty = tpr[inside]
    if fx.size == 0 or fx[-1] < fpr_max:
        # interpolate the point at the cut
        j = int(np.searchsorted(fpr, fpr_max, side="right"))
        f0, f1 = fpr[j - 1], fpr[j]
        t0, t1 = tpr[j - 1], tpr[j]
        t_cut = t0 if f1 == f0 else t0 + (t1 - t0) * (fpr_max - f0) / (f1 - f0)
        fx = np.append(fx, fpr_max)
        ty = np.append(ty, t_cut)
    p_auc = float(np.trapezoid(ty, fx))
    a_min = fpr_max * fpr_max / 2.0
    a_max = fpr_max
    return 0.5 * (1.0 + (p_auc - a_min) / (a_max - a_min))


def composite_scores(losses, routes, vote_fractions) -> np.ndarray:
    """Route-aware ranking scores over the system's three confidence bands.

    Rows resolved as high-confidence normal score in [0, 1/3), classifier-
    routed rows in [1/3, 2/3), and high-confidence abnormal rows in
    [2/3, 1], so the band ordering mirrors the decision structure at the
    time each verdict was issued. Within the outer bands rows are ordered
    by min-max-normalized loss; within the classifier band by the forest's
    abnormal-vote fraction (normalized loss before the first forest
    exists). ``routes`` holds the route name strings per row.
    """
    loss = np.asarray(losses, dtype=float)
    route = np.asarray(routes, dtype=object)
    votes = np.asarray(vote_fractions, dtype=float)
    if not (loss.shape == route.shape == votes.shape):
        raise LengthMismatchError("losses, routes and votes must align")
    lo, hi = float(np.min(loss)), float(np.max(loss))
    span = hi - lo
    normalized = (loss - lo) / span if span > 0 else np.zeros_like(loss)
    inner = normalized.copy()
    is_clf = route == "classifier"
    use_votes = is_clf & np.isfinite(votes)
    inner[use_votes] = votes[use_votes]
    band = np.where(
        route == "high_conf_abnormal", 2.0, np.where(is_clf, 1.0, 0.0)
    )
    return (band + inner) / 3.0


_REPORT_KEYS = ("accuracy", "precision", "recall", "f1", "far", "mdr", "spauc")


def evaluate(predicted, truth, scores=None, fpr_max: float = DEFAULT_FPR_LIMIT) -> dict:
    """Full metric set as percentages, keyed by the report column names.

    ``spauc`` is None when ranking scores are not supplied or truth is
    single-class.
    """
    c = confusion(predicted, truth)
    precision, recall, f1 = macro_prf(c)
    out = {
        "accuracy": 100.0 * accuracy(c),
        "precision": 100.0 * precision,
        "recall": 100.0 * recall,
        "f1": 100.0 * f1,
        "far": 100.0 * far(c) if c.fp + c.tn else None,
        "mdr": 100.0 * mdr(c) if c.fn + c.tp else None,
        "spauc": None,
    }
    if scores is not None:
        try:
            out["spauc"] = 100.0 * spauc(roc(scores, truth), fpr_max)
        except SingleClassError:
            pass
    return out


def _fmt(value) -> str:
    return "nan" if value is None else f"{value:.2f}"


def report_text(metrics: dict) -> str:
    """Flat key=value lines, one metric per line, percentages."""
    return "\n".join(f"{k}={_fmt(metrics.get(k))}" for k in _REPORT_KEYS) + "\n"


def report_csv(metrics: dict) -> str:
    """Two-line CSV: header row and one row of percentage values."""
    header = ",".join(_REPORT_KEYS)
    row = ",".join(_fmt(metrics.get(k)) for k in _REPORT_KEYS)
    return header + "\n" + row + "\n"

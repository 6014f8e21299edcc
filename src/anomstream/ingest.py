"""Stream construction: CSV loading, normalization, windows, synthetic data.

Ground-truth labels ride along on ``FeatureRecord`` for evaluation only; the
engine consumes the truth-free ``StreamRecord`` view, so labels cannot leak
into detection or training paths.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllFeaturesConstantError,
    EmptyAfterFilteringError,
    MissingFileError,
    SchemaMismatchError,
)
from .labels import Label

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class StreamRecord:
    """Engine-facing view of one stream sample: position and features only."""

    index: int
    features: np.ndarray


@dataclass(frozen=True, eq=False)
class FeatureRecord:
    """One timestamped feature vector with optional held-out ground truth."""

    index: int
    features: np.ndarray
    truth: Label | None = None
    timestamp: str | None = None

    def to_stream(self) -> StreamRecord:
        return StreamRecord(index=self.index, features=self.features)


@contextmanager
def open_text(path: Path, what: str = "input file"):
    """``path`` open as UTF-8 text; raises ``MissingFileError`` if it is not a file, and
    ``SchemaMismatchError`` on bytes that are not UTF-8 or JSON that does not parse."""
    if not path.is_file():
        raise MissingFileError(f"{what} not found or not a file: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            yield handle
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaMismatchError(f"cannot read {what} {path.name}: {exc}") from None


@dataclass
class CsvSchema:
    """Column roles and label-value mapping for a feature CSV."""

    feature_columns: list[str]
    label_column: str | None = None
    timestamp_column: str | None = None
    label_map: dict[str, Label] = field(default_factory=dict)

    @classmethod
    def from_json(cls, path) -> "CsvSchema":
        path = Path(path)
        with open_text(path, "schema file") as handle:
            doc = json.load(handle)
        features = doc.get("features") if isinstance(doc, dict) else None
        if not isinstance(features, list) or not all(isinstance(c, str) for c in features):
            raise SchemaMismatchError(f"schema {path.name} needs a 'features' list of column names")
        label_map = doc.get("label_map", {})
        if not isinstance(label_map, dict) or not all(isinstance(n, str) for n in label_map.values()):
            raise SchemaMismatchError(f"schema {path.name} needs a 'label_map' object of label names")
        try:
            label_map = {value: Label.from_name(name) for value, name in label_map.items()}
        except ValueError as exc:
            raise SchemaMismatchError(f"schema {path.name} 'label_map': {exc}") from None
        return cls(
            feature_columns=features,
            label_column=doc.get("label"),
            timestamp_column=doc.get("timestamp"),
            label_map=label_map,
        )

    def to_json(self, path) -> None:
        doc = {
            "features": self.feature_columns,
            "label": self.label_column,
            "timestamp": self.timestamp_column,
            "label_map": {k: v.display for k, v in self.label_map.items()},
        }
        Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


@dataclass
class CsvLoadResult:
    records: list[FeatureRecord]
    rejected: int


def load_csv(path, schema: CsvSchema) -> CsvLoadResult:
    """Parse a feature CSV in file order, dropping malformed rows.

    A row is rejected (and counted) when any feature cell fails to parse as
    a finite float or when its label value is absent from the schema's map.
    """
    path = Path(path)
    records: list[FeatureRecord] = []
    rejected = 0
    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        needed = list(schema.feature_columns)
        if schema.label_column:
            needed.append(schema.label_column)
        if schema.timestamp_column:
            needed.append(schema.timestamp_column)
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaMismatchError(f"columns missing from {path.name}: {missing}")
        for row in reader:
            try:
                values = np.array([float(row[c]) for c in schema.feature_columns], dtype=float)
            except (TypeError, ValueError):
                rejected += 1
                continue
            if not np.all(np.isfinite(values)):
                rejected += 1
                continue
            truth = None
            if schema.label_column:
                raw = row[schema.label_column]
                if raw not in schema.label_map:
                    rejected += 1
                    continue
                truth = schema.label_map[raw]
            timestamp = row[schema.timestamp_column] if schema.timestamp_column else None
            records.append(
                FeatureRecord(index=len(records), features=values, truth=truth, timestamp=timestamp)
            )
    if rejected:
        logger.warning("dropped %d malformed rows from %s", rejected, path.name)
    if not records:
        raise EmptyAfterFilteringError(f"no usable rows in {path}")
    return CsvLoadResult(records=records, rejected=rejected)


@dataclass
class MinMaxNormalizer:
    """Per-feature min-max scaling learned from the first-round slice.

    Constant features are dropped; live values outside the learned range
    clip to [0, 1].
    """

    mins: np.ndarray
    maxs: np.ndarray
    kept: np.ndarray  # indices into the raw feature vector

    @property
    def n_features(self) -> int:
        return int(self.kept.shape[0])

    def apply(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)[self.kept]
        return np.clip((x - self.mins) / (self.maxs - self.mins), 0.0, 1.0)


def fit_normalizer(records: Sequence[FeatureRecord]) -> MinMaxNormalizer:
    if not records:
        raise ValueError("cannot fit a normalizer on an empty slice")
    matrix = np.asarray([r.features for r in records], dtype=float)
    mins = matrix.min(axis=0)
    maxs = matrix.max(axis=0)
    kept = np.nonzero(maxs > mins)[0]
    dropped = matrix.shape[1] - kept.shape[0]
    if kept.size == 0:
        raise AllFeaturesConstantError("every feature is constant in the fitting slice")
    if dropped:
        logger.warning("dropped %d constant feature(s) during normalization", dropped)
    return MinMaxNormalizer(mins=mins[kept], maxs=maxs[kept], kept=kept)


def normalize_records(
    records: Sequence[FeatureRecord], normalizer: MinMaxNormalizer
) -> list[FeatureRecord]:
    return [
        FeatureRecord(
            index=r.index,
            features=normalizer.apply(r.features),
            truth=r.truth,
            timestamp=r.timestamp,
        )
        for r in records
    ]


def windows(rows: np.ndarray, timestep: int) -> np.ndarray:
    """Sliding windows of length ``timestep`` with stride one over (N, D) ``rows``.

    The first timestep - 1 rows yield nothing; every later row yields
    exactly one window ending at it, so n rows give max(0, n - T + 1)
    windows, as one read-only (n - T + 1, T, D) view of ``rows``.
    """
    if timestep < 1:
        raise ValueError("timestep must be >= 1")
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] < timestep:
        return np.empty((0, timestep, *rows.shape[1:]))
    return sliding_window_view(rows, timestep, axis=0).transpose(0, 2, 1)


@dataclass
class SyntheticConfig:
    """Generator for desk-scale surrogate streams with optional mean drift.

    Normal rows are iid Gaussian around ``normal_mean`` (optionally drifting
    linearly from ``drift_start`` onward, up to ``drift_magnitude`` standard
    deviations at the end of the stream). Anomalies are shifted by
    ``anomaly_shift`` standard deviations relative to the current normal
    mean, with the shift sign alternating across features (a pattern change,
    not a uniform level change, so the signal survives min-max clipping
    under drift) and noise widened by ``anomaly_std_scale``. With
    ``anomaly_burst > 1`` each anomalous event spans that many consecutive
    records (attack episodes rather than isolated points); the overall
    anomalous fraction stays close to ``anomaly_rate`` either way.
    """

    n_records: int = 100000
    n_features: int = 8
    anomaly_rate: float = 0.015
    normal_mean: float = 10.0
    normal_std: float = 1.0
    anomaly_shift: float = 4.0
    anomaly_std_scale: float = 1.5
    anomaly_burst: int = 1
    drift_magnitude: float = 0.0
    drift_start: float = 0.5

    def __post_init__(self) -> None:
        # each test is written to fail on NaN too
        if not (self.n_records >= 1 and self.n_features >= 1 and self.anomaly_burst >= 1):
            raise ValueError("n_records, n_features and anomaly_burst must be >= 1")
        if not (0.0 <= self.anomaly_rate <= 1.0 and 0.0 <= self.drift_start <= 1.0):
            raise ValueError("anomaly_rate and drift_start must lie in [0, 1]")
        if not (self.normal_std > 0.0 and self.anomaly_std_scale > 0.0):
            raise ValueError("normal_std and anomaly_std_scale must be > 0")


def synthetic_stream(config: SyntheticConfig, seed: int) -> list[FeatureRecord]:
    """Seeded synthetic stream with truth labels attached."""
    rng = np.random.default_rng(seed)
    n, d = config.n_records, config.n_features
    burst = config.anomaly_burst
    if burst == 1:
        is_abnormal = rng.random(n) < config.anomaly_rate
    else:
        starts = rng.random(n) < config.anomaly_rate / burst
        is_abnormal = np.zeros(n, dtype=bool)
        for i in np.nonzero(starts)[0]:
            is_abnormal[i : i + burst] = True
    noise = rng.standard_normal((n, d))
    t = np.arange(n, dtype=float) / max(n - 1, 1)
    if config.drift_start < 1.0:
        ramp = np.clip((t - config.drift_start) / (1.0 - config.drift_start), 0.0, 1.0)
    else:
        ramp = np.zeros(n)
    drift = config.drift_magnitude * config.normal_std * ramp
    mean = config.normal_mean + drift
    scale = np.where(is_abnormal, config.anomaly_std_scale, 1.0) * config.normal_std
    direction = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    shift = np.where(is_abnormal, config.anomaly_shift * config.normal_std, 0.0)
    features = mean[:, None] + shift[:, None] * direction + scale[:, None] * noise
    return [
        FeatureRecord(
            index=i,
            features=features[i],
            truth=Label.ABNORMAL if is_abnormal[i] else Label.NORMAL,
        )
        for i in range(n)
    ]


def split_fractions(
    records: Sequence[FeatureRecord],
    first: float,
    train: float,
    test: float,
) -> tuple[list[FeatureRecord], list[FeatureRecord], list[FeatureRecord]]:
    """Contiguous first-round/train/test split in stream order."""
    if abs(first + train + test - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if not all(0.0 <= f <= 1.0 for f in (first, train, test)):
        raise ValueError(f"split fractions must lie in [0, 1], got {(first, train, test)}")
    n = len(records)
    a = int(round(first * n))
    b = a + int(round(train * n))
    return list(records[:a]), list(records[a:b]), list(records[b:])


def _day_of(record: FeatureRecord) -> str:
    stamp = record.timestamp or ""
    return stamp.replace("T", " ").split(" ")[0]


def split_days(
    records: Sequence[FeatureRecord],
    first_days: Sequence[str],
    test_days: Sequence[str],
) -> tuple[list[FeatureRecord], list[FeatureRecord], list[FeatureRecord]]:
    """Day-based split keyed on the date part of each record's timestamp."""
    first_set, test_set = set(first_days), set(test_days)
    first, train, test = [], [], []
    for r in records:
        day = _day_of(r)
        if day in first_set:
            first.append(r)
        elif day in test_set:
            test.append(r)
        else:
            train.append(r)
    return first, train, test

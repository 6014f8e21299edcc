"""Stream construction: CSV loading, normalization, windows, synthetic data.

A stream is one columnar ``Stream``, whose ``truth`` column is for evaluation
only: the engine consumes the truth-free ``StreamRecord`` view, so labels
cannot leak into detection or training paths.
"""

from __future__ import annotations

import csv
import json
import logging
import numbers
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AllFeaturesConstantError,
    EmptyAfterFilteringError,
    MissingFileError,
    SchemaMismatchError,
    _store_floats,
    _store_ints,
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
    """One row of a ``Stream``: a view of its feature vector, with its held-out ground truth."""

    index: int
    features: np.ndarray
    truth: Label | None = None
    timestamp: str | None = None

    def to_stream(self) -> StreamRecord:
        return StreamRecord(index=self.index, features=self.features)


@dataclass(frozen=True, eq=False)
class Stream:
    """A feature stream as equal-length columns, in stream order.

    ``truth`` holds each row's ``Label`` value, or -1 where the row has none.
    An int gives that row as a ``FeatureRecord``; a slice, a boolean mask or
    an index array gives a ``Stream`` of those rows. Iterating yields the rows.
    """

    index: np.ndarray  # (N,) int64
    features: np.ndarray  # (N, D) float64
    truth: np.ndarray  # (N,) int8
    timestamps: np.ndarray | None = None  # (N,) object

    def __len__(self) -> int:
        return self.index.shape[0]

    def __getitem__(self, key):
        index, features, truth, stamp = (None if column is None else column[key] for column in
                                         (self.index, self.features, self.truth, self.timestamps))
        if not isinstance(key, numbers.Integral):
            return Stream(index, features, truth, stamp)
        return FeatureRecord(int(index), features, Label(truth) if truth >= 0 else None, stamp)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@contextmanager
def open_text(path: Path, what: str = "input file"):
    """``path`` open as UTF-8 text; raises ``MissingFileError`` if it is not a file, and
    ``SchemaMismatchError`` on bytes that are not UTF-8, JSON that does not parse or CSV that
    ``csv`` refuses, such as a cell longer than ``csv.field_size_limit()``."""
    if not path.is_file():
        raise MissingFileError(f"{what} not found or not a file: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            yield handle
        except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
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
        for key in ("label", "timestamp"):
            if not isinstance(doc.get(key), (str, type(None))):
                raise SchemaMismatchError(f"schema {path.name} '{key}' must be a column name or null")
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
    records: Stream
    rejected: int


def load_csv(path, schema: CsvSchema) -> CsvLoadResult:
    """Parse a feature CSV in file order, dropping malformed rows.

    A row is rejected (and counted) when a feature cell is missing or not a
    finite float, or its label value is absent from the schema's map. As in
    ``csv.DictReader``, blank lines are skipped uncounted, extra cells are
    ignored, a missing timestamp reads as None and a column named twice is
    read from its last position.
    """
    path = Path(path)
    flat, truth, stamps, rejected = array("d"), [], [], 0
    with open_text(path) as handle:
        reader = csv.reader(handle)
        position = {name: i for i, name in enumerate(next(reader, []))}
        label, stamp = schema.label_column, schema.timestamp_column
        needed = [*schema.feature_columns, *filter(None, (label, stamp))]
        missing = [c for c in needed if c not in position]
        if missing:
            raise SchemaMismatchError(f"columns missing from {path.name}: {missing}")
        columns = [position[c] for c in schema.feature_columns]
        label_at, stamp_at = (position[column] if column else None for column in (label, stamp))
        for row in reader:
            if not row:
                continue
            try:
                values = [float(row[i]) for i in columns]
                truth.append(schema.label_map[row[label_at]] if label_at is not None else -1)
            except (IndexError, KeyError, ValueError):
                rejected += 1
                continue
            flat.extend(values)
            if stamp_at is not None:
                stamps.append(row[stamp_at] if stamp_at < len(row) else None)
    features = np.frombuffer(flat, dtype=float).reshape(len(truth), len(columns))
    stream = Stream(np.arange(len(truth)), features, np.array(truth, dtype=np.int8),
                    np.array(stamps, dtype=object) if stamp_at is not None else None)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        rejected += len(stream) - int(finite.sum())
        stream = replace(stream[finite], index=np.arange(int(finite.sum())))
    if rejected:
        logger.warning("dropped %d malformed rows from %s", rejected, path.name)
    if not len(stream):
        raise EmptyAfterFilteringError(f"no usable rows in {path}")
    return CsvLoadResult(records=stream, rejected=rejected)


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
        """The kept columns of (..., D) ``features`` scaled and clipped, as a new array."""
        x = np.asarray(features, dtype=float)[..., self.kept]
        x -= self.mins
        x /= self.maxs - self.mins
        return np.clip(x, 0.0, 1.0, out=x)


def fit_normalizer(stream: Stream) -> MinMaxNormalizer:
    if not len(stream):
        raise ValueError("cannot fit a normalizer on an empty slice")
    mins, maxs = stream.features.min(axis=0), stream.features.max(axis=0)
    kept = np.nonzero(maxs > mins)[0]
    dropped = stream.features.shape[1] - kept.shape[0]
    if kept.size == 0:
        raise AllFeaturesConstantError("every feature is constant in the fitting slice")
    if dropped:
        logger.warning("dropped %d constant feature(s) during normalization", dropped)
    return MinMaxNormalizer(mins=mins[kept], maxs=maxs[kept], kept=kept)


def normalize_records(stream: Stream, normalizer: MinMaxNormalizer) -> Stream:
    return replace(stream, features=normalizer.apply(stream.features))


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
    seed: int = 0

    def __post_init__(self) -> None:
        _store_ints(self, ("n_records", "n_features", "anomaly_burst", "seed"))
        _store_floats(self, ("anomaly_rate", "normal_mean", "normal_std", "anomaly_shift",
                             "anomaly_std_scale", "drift_magnitude", "drift_start"))
        if not (self.n_records >= 1 and self.n_features >= 1 and self.anomaly_burst >= 1):
            raise ValueError("n_records, n_features and anomaly_burst must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 <= self.anomaly_rate <= 1.0 and 0.0 <= self.drift_start <= 1.0):
            raise ValueError("anomaly_rate and drift_start must lie in [0, 1]")
        if not (self.normal_std > 0.0 and self.anomaly_std_scale > 0.0):
            raise ValueError("normal_std and anomaly_std_scale must be > 0")


def synthetic_stream(config: SyntheticConfig) -> Stream:
    """The stream of ``config``, drawn from its ``seed``, with truth labels attached."""
    rng = np.random.default_rng(config.seed)
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
    return Stream(np.arange(n), features, is_abnormal.astype(np.int8))


def split_fractions(
    records: Sequence, first: float, train: float, test: float
) -> tuple[slice, slice, slice]:
    """Contiguous first-round/train/test slices of ``records`` in stream order."""
    if abs(first + train + test - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if not all(0.0 <= f <= 1.0 for f in (first, train, test)):
        raise ValueError(f"split fractions must lie in [0, 1], got {(first, train, test)}")
    n = len(records)
    a = int(round(first * n))
    b = a + int(round(train * n))
    return slice(0, a), slice(a, b), slice(b, n)


def split_days(
    stream: Stream, first_days: Sequence[str], test_days: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-round/train/test masks keyed on the date part of each row's timestamp.

    A row whose day is in neither list, or that has no timestamp, is a train row.
    """
    stamps = stream.timestamps if stream.timestamps is not None else [None] * len(stream)
    days = [(stamp or "").replace("T", " ").split(" ")[0] for stamp in stamps]
    first_set, test_set = set(first_days), set(test_days)
    first = np.array([day in first_set for day in days], dtype=bool)
    test = np.array([day in test_set for day in days], dtype=bool) & ~first
    return first, ~(first | test), test

"""Tests for CSV loading, normalization, windowing and synthetic streams."""

import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomstream.errors import (
    AllFeaturesConstantError,
    EmptyAfterFilteringError,
    MissingFileError,
    SchemaMismatchError,
)
from anomstream.ingest import (
    CsvSchema,
    FeatureRecord,
    Stream,
    SyntheticConfig,
    fit_normalizer,
    load_csv,
    normalize_records,
    split_days,
    split_fractions,
    synthetic_stream,
    windows,
)
from anomstream.labels import Label

SCHEMA = CsvSchema(
    feature_columns=["a", "b"],
    label_column="label",
    label_map={"Tor": Label.ABNORMAL, "Non-Tor": Label.NORMAL},
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_malformed_row_dropped(self, tmp_path):
        p = write_csv(
            tmp_path / "x.csv",
            "a,b,label\n1,2,Non-Tor\noops,3,Tor\n4,5,Tor\n",
        )
        result = load_csv(p, SCHEMA)
        assert len(result.records) == 2
        assert result.rejected == 1
        assert result.records[0].index == 0
        assert result.records[1].features.tolist() == [4.0, 5.0]

    def test_label_mapping(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", "a,b,label\n1,2,Tor\n3,4,Non-Tor\n")
        records = load_csv(p, SCHEMA).records
        assert records[0].truth is Label.ABNORMAL
        assert records[1].truth is Label.NORMAL

    def test_unmapped_label_rejected(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", "a,b,label\n1,2,Tor\n3,4,???\n")
        result = load_csv(p, SCHEMA)
        assert len(result.records) == 1 and result.rejected == 1

    def test_empty_after_filtering(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", "a,b,label\nbad,bad,Tor\n")
        with pytest.raises(EmptyAfterFilteringError):
            load_csv(p, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_csv(tmp_path / "nope.csv", SCHEMA)

    def test_schema_mismatch(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", "a,c,label\n1,2,Tor\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(p, SCHEMA)

    def test_non_finite_rejected(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", "a,b,label\ninf,2,Tor\n1,2,Tor\n")
        result = load_csv(p, SCHEMA)
        assert len(result.records) == 1 and result.rejected == 1

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([1], "features"),
            ({"feature": ["a", "b"]}, "features"),
            ({"features": "a"}, "features"),
            ({"features": ["a", 2]}, "features"),
            ({"features": ["a"], "label_map": ["normal"]}, "label_map"),
            ({"features": ["a"], "label_map": {"x": 1}}, "label_map"),
            ({"features": ["a"], "label_map": {"normal": "bogus"}}, "label_map"),
            ({"features": ["a"], "label": ["label"]}, "'label'"),
            ({"features": ["a"], "timestamp": ["ts"]}, "'timestamp'"),
        ],
        ids=["not_object", "features_missing", "features_not_list", "feature_not_string",
             "label_map_not_object", "label_name_not_string", "unknown_label_name",
             "label_not_string", "timestamp_not_string"],
    )
    def test_malformed_schema_document(self, tmp_path, doc, match):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaMismatchError, match=match):
            CsvSchema.from_json(path)

    @pytest.mark.parametrize(
        "text, features, rejected",
        [
            ("a,b,label\n1,2,Tor\n\n3,4,Non-Tor\n", [[1.0, 2.0], [3.0, 4.0]], 0),
            ("a,b,label\n1,2,Tor\n3,4\n", [[1.0, 2.0]], 1),
            ("a,b,label\n1,2,Tor,9\n", [[1.0, 2.0]], 0),
            ("a,b,label\n1,2,\n3,4,Tor\n", [[3.0, 4.0]], 1),
            ("a,b,a,label\n1,2,3,Tor\n", [[3.0, 2.0]], 0),
        ],
        ids=["blank_line_skipped", "short_row_rejected", "extra_cell_ignored",
             "empty_label_rejected", "repeated_column_reads_last"],
    )
    def test_row_rules(self, tmp_path, caplog, text, features, rejected):
        with caplog.at_level(logging.WARNING, logger="anomstream"):
            result = load_csv(write_csv(tmp_path / "x.csv", text), SCHEMA)
        assert [r.features.tolist() for r in result.records] == features
        assert [r.index for r in result.records] == list(range(len(features)))
        assert result.rejected == rejected
        assert (f"dropped {rejected} malformed rows" in caplog.text) == (rejected > 0)

    def test_missing_timestamp_cell_reads_none(self, tmp_path):
        schema = CsvSchema(feature_columns=["a"], timestamp_column="ts")
        p = write_csv(tmp_path / "x.csv", "a,ts\n1,2020-01-01 10:00\n2\n")
        result = load_csv(p, schema)
        assert [(r.timestamp, r.truth) for r in result.records] == [
            ("2020-01-01 10:00", None), (None, None)]
        assert result.rejected == 0

    def test_schema_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        SCHEMA.to_json(path)
        loaded = CsvSchema.from_json(path)
        assert loaded == SCHEMA


def make_stream(matrix, truth=None, timestamps=None):
    features = np.asarray(matrix, dtype=float)
    n = features.shape[0]
    truth = np.full(n, -1) if truth is None else np.asarray(truth)
    stamps = None if timestamps is None else np.array(timestamps, dtype=object)
    return Stream(np.arange(n), features, truth.astype(np.int8), stamps)


def as_records(stream):
    """The per-record list a ``Stream`` replaces, built from its columns independently."""
    stamps = [None] * len(stream.index) if stream.timestamps is None else stream.timestamps
    return [
        FeatureRecord(index=int(i), features=row, truth=None if t < 0 else Label(int(t)),
                      timestamp=stamp)
        for i, row, t, stamp in zip(stream.index, stream.features, stream.truth, stamps)
    ]


def assert_same_rows(rows, records):
    rows = list(rows)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert type(row.index) is int and row.index == record.index
        assert row.features.tobytes() == record.features.tobytes()
        assert row.truth is record.truth
        assert row.timestamp == record.timestamp


class TestStream:
    @given(data=st.data(), n=st.integers(0, 12), d=st.integers(1, 3),
           stamped=st.booleans(), offset=st.integers(0, 10**12))
    @settings(max_examples=80, deadline=None)
    def test_indexing_matches_record_list(self, data, n, d, stamped, offset):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
        stamps = [f"2020-01-0{1 + i % 4} {i:02d}:00" for i in range(n)] if stamped else None
        stream = make_stream(rng.normal(size=(n, d)), truth, stamps)
        stream = Stream(stream.index + offset, stream.features, stream.truth, stream.timestamps)
        records = as_records(stream)
        assert len(stream) == n
        assert_same_rows(stream, records)
        for i in range(-n, n):
            assert_same_rows([stream[i]], [records[i]])
            assert np.shares_memory(stream[i].features, stream.features)
        start, stop, step = (data.draw(st.integers(-n - 2, n + 2)) for _ in range(3))
        key = slice(start, stop, step or None)
        assert_same_rows(stream[key], records[key])
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        assert_same_rows(stream[mask], [r for r, keep in zip(records, mask) if keep])
        picks = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)),
                         dtype=np.int64)
        assert_same_rows(stream[picks], [records[i] for i in picks])
        assert isinstance(stream[mask], Stream) and isinstance(stream[picks], Stream)

    def test_normalized_rows_equal_the_live_row_path(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(300, 4)) * [1.0, 3.0, 0.0, 1e-3]
        stream = make_stream(matrix)
        nz = fit_normalizer(stream[:100])  # later rows fall outside the fitted range and clip
        normalized = normalize_records(stream, nz)
        assert normalized.features.shape == (300, 3)
        for i in range(len(stream)):
            assert normalized.features[i].tobytes() == nz.apply(stream[i].features).tobytes()
        assert normalized.truth is stream.truth and normalized.index is stream.index


class TestNormalizer:
    def test_midpoint_maps_to_half(self):
        records = make_stream([[0.0, 1.0], [10.0, 3.0]])
        nz = fit_normalizer(records)
        assert nz.apply(np.array([5.0, 2.0])) == pytest.approx([0.5, 0.5])

    def test_out_of_range_clips(self):
        records = make_stream([[0.0], [10.0]])
        nz = fit_normalizer(records)
        assert nz.apply(np.array([-5.0])) == pytest.approx([0.0])
        assert nz.apply(np.array([25.0])) == pytest.approx([1.0])

    def test_constant_feature_dropped(self):
        records = make_stream([[1.0, 7.0], [2.0, 7.0]])
        nz = fit_normalizer(records)
        assert nz.n_features == 1
        assert nz.kept.tolist() == [0]

    def test_all_constant_raises(self):
        with pytest.raises(AllFeaturesConstantError):
            fit_normalizer(make_stream([[1.0], [1.0]]))

    def test_refit_on_normalized_is_identity(self):
        rng = np.random.default_rng(3)
        records = make_stream(rng.normal(size=(50, 3)))
        nz = fit_normalizer(records)
        normalized = normalize_records(records, nz)
        nz2 = fit_normalizer(normalized)
        for r in normalized:
            assert nz2.apply(r.features) == pytest.approx(r.features, abs=1e-12)

    def test_truth_is_not_visible_downstream(self):
        record = FeatureRecord(index=0, features=np.array([1.0]), truth=Label.ABNORMAL)
        stream = record.to_stream()
        assert not hasattr(stream, "truth")


class TestWindows:
    def test_exact_fit(self):
        rows = np.arange(10.0).reshape(5, 2)
        assert len(list(windows(rows, 5))) == 1

    def test_unit_timestep(self):
        rows = np.arange(10.0).reshape(5, 2)
        wins = list(windows(rows, 1))
        assert len(wins) == 5
        assert wins[2].shape == (1, 2)

    def test_window_contents_and_end_index(self):
        rows = np.arange(12.0).reshape(6, 2)
        wins = list(windows(rows, 3))
        assert wins[0].tolist() == [[0, 1], [2, 3], [4, 5]]
        # the last window ends at the last row (index 5)
        assert wins[-1][-1].tolist() == rows[5].tolist()

    @given(st.integers(0, 40), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_count_formula(self, n, t):
        assert len(list(windows(np.zeros((n, 1)), t))) == max(0, n - t + 1)


class TestSynthetic:
    def test_zero_rate_all_normal(self):
        records = synthetic_stream(SyntheticConfig(n_records=500, anomaly_rate=0.0, seed=1))
        assert all(r.truth is Label.NORMAL for r in records)

    def test_count_within_binomial_bounds(self):
        config = SyntheticConfig(n_records=100_000, anomaly_rate=0.015, seed=5)
        records = synthetic_stream(config)
        count = sum(r.truth is Label.ABNORMAL for r in records)
        sigma = np.sqrt(100_000 * 0.015 * 0.985)
        assert abs(count - 1500) <= 3 * sigma

    def test_seed_determinism(self):
        config = SyntheticConfig(n_records=200, n_features=3, anomaly_rate=0.1, seed=9)
        a = synthetic_stream(config)
        b = synthetic_stream(config)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.features, rb.features)
            assert ra.truth == rb.truth

    def test_burst_lengths(self):
        config = SyntheticConfig(n_records=50_000, anomaly_rate=0.02, anomaly_burst=10, seed=2)
        records = synthetic_stream(config)
        flags = np.array([r.truth is Label.ABNORMAL for r in records], dtype=int)
        frac = flags.mean()
        assert 0.01 < frac < 0.04
        # every abnormal run spans at least one full burst (overlapping
        # bursts extend it), except a possible truncated run at the end
        padded = np.concatenate([[0], flags, [0]])
        edges = np.flatnonzero(np.diff(padded))
        runs = edges[1::2] - edges[0::2]
        assert len(runs) > 10
        assert all(run >= 10 for run in runs[:-1])
        assert int(np.median(runs)) == 10

    def test_drift_moves_mean(self):
        config = SyntheticConfig(
            n_records=20_000, n_features=2, anomaly_rate=0.0,
            drift_magnitude=2.0, drift_start=0.5, seed=3,
        )
        records = synthetic_stream(config)
        head = np.mean([r.features for r in records[:5000]], axis=0)
        tail = np.mean([r.features for r in records[-2000:]], axis=0)
        assert np.all(tail - head > 1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("n_records", 0), ("n_features", 0), ("anomaly_burst", 0), ("anomaly_rate", 1.5),
         ("anomaly_rate", float("nan")), ("drift_start", -0.5), ("normal_std", 0.0),
         ("anomaly_std_scale", -1.0), ("seed", -1)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticConfig(**{field: value})


class TestSplits:
    def test_fractions(self):
        records = make_stream(np.zeros((1000, 1)))
        first, train, test = (records[s] for s in split_fractions(records, 0.01, 0.69, 0.30))
        assert (len(first), len(train), len(test)) == (10, 690, 300)
        assert first[0].index == 0 and test[-1].index == 999

    def test_fractions_must_sum(self):
        with pytest.raises(ValueError):
            split_fractions(make_stream(np.zeros((10, 1))), 0.5, 0.1, 0.1)

    @pytest.mark.parametrize("fractions", [(-0.05, 0.75, 0.30), (1.2, -0.1, -0.1)])
    def test_fractions_must_lie_in_unit_interval(self, fractions):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            split_fractions(make_stream(np.zeros((10, 1))), *fractions)

    def test_day_split(self):
        stream = make_stream(
            np.zeros((6, 1)), timestamps=[f"2020-01-0{d} 10:00" for d in [1, 2, 2, 3, 4, 4]]
        )
        first, train, test = (stream[m] for m in split_days(stream, ["2020-01-02"], ["2020-01-04"]))
        assert [r.index for r in first] == [1, 2]
        assert [r.index for r in train] == [0, 3]
        assert [r.index for r in test] == [4, 5]

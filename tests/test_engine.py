"""Tests for the online engine: routing, buffers, phases, retraining."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomstream import engine as engine_mod
from anomstream.engine import (
    EngineConfig,
    OnlineAnomalyDetector,
    Phase,
    PhaseTransitionEvent,
    RetrainReport,
    Route,
    Verdict,
)
from anomstream.errors import (
    InsufficientDataError,
    NonFiniteError,
    NotBootstrappedError,
    ShapeMismatchError,
)
from anomstream.forest import ForestConfig
from anomstream.ingest import (StreamRecord, SyntheticConfig, fit_normalizer, normalize_records,
                               synthetic_stream)
from anomstream.labels import Label
from anomstream.scorer import LstmVaeScorer, ScorerConfig


class StubScorer:
    """Deterministic stand-in: the loss is the window's last first-feature.

    Lets tests place each record's loss exactly while exercising the real
    state machine; training is a no-op that keeps a copy of its windows,
    and streaming keeps a copy of each window with its position.
    """

    def __init__(self):
        self.train_calls = []  # (windows, epochs)
        self.stream_calls = []  # (window, position)

    def score(self, window):
        return float(window[-1][0])

    def score_many(self, windows):
        return np.array([self.score(w) for w in windows])

    def score_stream(self, window, position):
        self.stream_calls.append((np.array(window), position))
        return self.score(window)

    def train(self, windows, epochs):
        self.train_calls.append((np.array(windows), epochs))
        return self


def records_from_losses(losses, start_index=0, width=2):
    return [
        StreamRecord(index=start_index + i, features=np.array([v] + [0.5] * (width - 1)))
        for i, v in enumerate(losses)
    ]


def stub_engine(
    first_losses,
    *,
    p1=0.98,
    p2=0.10,
    warmup=5,
    interval=100,
    capacity=50,
    timestep=2,
    sink=None,
    forest=None,
    mode="adaptive",
):
    config = EngineConfig(
        scorer=ScorerConfig(timestep=timestep, n_features=2, hidden_size=4, latent_size=2),
        forest=forest or ForestConfig(n_estimators=5, max_depth=4),
        p1=p1,
        p2=p2,
        abnormal_warmup=warmup,
        update_interval=interval,
        buffer_capacity=capacity,
        seed=1,
        mode=mode,
    )
    engine = OnlineAnomalyDetector(config, scorer=StubScorer(), sink=sink)
    engine.bootstrap(records_from_losses(first_losses))
    return engine


def bootstrap_losses(rng, n=100):
    """Spread-out positive losses so threshold fitting succeeds."""
    return rng.lognormal(0.0, 0.4, size=n)


class TestEngineConfig:
    @pytest.mark.parametrize("name", ["p1", "p2"])
    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_percentile_outside_open_unit_interval(self, name, value):
        with pytest.raises(ValueError, match=name):
            EngineConfig(scorer=ScorerConfig(timestep=2, n_features=2), **{name: value})

    @pytest.mark.parametrize("name, value", [("buffer_capacity", 0), ("seed", -1)],
                             ids=["buffer_capacity", "seed"])
    def test_rejects_out_of_range_value(self, name, value):
        with pytest.raises(ValueError, match=name):
            EngineConfig(scorer=ScorerConfig(timestep=2, n_features=2), **{name: value})

    @pytest.mark.parametrize("name", ["abnormal_warmup", "update_interval", "buffer_capacity",
                                      "seed"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["float", "whole-float", "bool"])
    def test_rejects_non_integer_count(self, name, value):
        with pytest.raises(ValueError, match=f"got {name}="):
            EngineConfig(scorer=ScorerConfig(timestep=2, n_features=2), **{name: value})

    def test_numpy_integer_counts_stored_as_int(self):
        config = EngineConfig(scorer=ScorerConfig(timestep=2, n_features=2),
                              update_interval=np.int64(20), seed=np.int32(3))
        assert (config.update_interval, config.seed) == (20, 3)
        assert type(config.update_interval) is int and type(config.seed) is int

    @pytest.mark.parametrize(
        "cls, fields, name",
        [
            (ScorerConfig, {"learning_rate": True}, "learning_rate"),
            (ScorerConfig, {"adam_eps": float("inf")}, "adam_eps"),
            (ScorerConfig, {"learning_rate": "0.1"}, "learning_rate"),
            (EngineConfig, {"p1": "0.5"}, "p1"),
            (SyntheticConfig, {"anomaly_rate": "0.1"}, "anomaly_rate"),
            (SyntheticConfig, {"n_records": 2.5}, "n_records"),
            (SyntheticConfig, {"n_records": True}, "n_records"),
            (SyntheticConfig, {"anomaly_burst": 2.0}, "anomaly_burst"),
            (SyntheticConfig, {"seed": 1.5}, "seed"),
            (SyntheticConfig, {"normal_std": True}, "normal_std"),
        ],
        ids=["scorer-lr-bool", "scorer-eps-inf", "scorer-lr-str", "engine-p1-str",
             "synthetic-rate-str", "synthetic-n-float", "synthetic-n-bool",
             "synthetic-burst-whole-float", "synthetic-seed-float", "synthetic-std-bool"],
    )
    def test_mistyped_config_field_rejected(self, cls, fields, name):
        scorer = {"timestep": 2, "n_features": 2}
        given = {ScorerConfig: scorer, EngineConfig: {"scorer": ScorerConfig(**scorer)}}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number|got {name}="):
            cls(**given.get(cls, {}), **fields)

    @pytest.mark.parametrize(
        "cls, fields, name",
        [
            (EngineConfig, {"buffer_capacity": 2**63}, "buffer_capacity"),
            (ForestConfig, {"n_estimators": 2**64}, "n_estimators"),
            (ForestConfig, {"max_features": 2**63}, "max_features"),
            (ScorerConfig, {"batch_size": 2**63}, "batch_size"),
            (SyntheticConfig, {"n_records": 2**63}, "n_records"),
        ],
        ids=["engine-capacity", "forest-estimators", "forest-max-features", "scorer-batch",
             "synthetic-records"],
    )
    def test_int_outside_int64_rejected(self, cls, fields, name):
        # NumPy takes a size, a count or a seed only as an int64, so one past it fails here,
        # not later in deque(maxlen=...) or SeedSequence.spawn
        scorer = {"timestep": 2, "n_features": 2}
        given = {ScorerConfig: scorer, EngineConfig: {"scorer": ScorerConfig(**scorer)}}
        with pytest.raises(ValueError, match=name):
            cls(**given.get(cls, {}), **fields)

    def test_largest_int64_seed_accepted(self):
        top = 2**63 - 1
        scorer = ScorerConfig(timestep=2, n_features=2, seed=top)
        synthetic = SyntheticConfig(n_records=5, n_features=2, seed=top)
        assert EngineConfig(scorer=scorer, seed=top).seed == scorer.seed == synthetic.seed == top
        assert len(synthetic_stream(synthetic)) == 5

    def test_whole_number_floats_stored_as_float(self):
        config = SyntheticConfig(anomaly_rate=0, normal_mean=np.float32(2.5), drift_start=1)
        assert (config.anomaly_rate, config.normal_mean, config.drift_start) == (0.0, 2.5, 1.0)
        assert all(type(v) is float for v in (config.anomaly_rate, config.normal_mean))

    @pytest.mark.parametrize("mode", ["bogus", "Adaptive", ""])
    def test_rejects_unknown_mode(self, mode):
        with pytest.raises(ValueError, match="mode"):
            EngineConfig(scorer=ScorerConfig(timestep=2, n_features=2), mode=mode)

    def test_offline_needs_a_scorer(self):
        config = EngineConfig(scorer=ScorerConfig(timestep=2, n_features=2), mode="offline")
        with pytest.raises(ValueError, match="offline"):
            OnlineAnomalyDetector(config)
        stub = StubScorer()
        assert OnlineAnomalyDetector(config, scorer=stub).scorer is stub


class TestBootstrap:
    def test_requires_two_windows(self):
        with pytest.raises(InsufficientDataError):
            stub_engine([1.0, 2.0])  # timestep 2 -> one window

    def test_identical_losses_insufficient(self):
        with pytest.raises(InsufficientDataError):
            stub_engine([1.0] * 30)

    def test_process_before_bootstrap(self):
        config = EngineConfig(
            scorer=ScorerConfig(timestep=2, n_features=2, hidden_size=4, latent_size=2)
        )
        engine = OnlineAnomalyDetector(config, scorer=StubScorer())
        with pytest.raises(NotBootstrappedError):
            engine.process(StreamRecord(index=0, features=np.zeros(2)))

    def test_deterministic_t1(self):
        rng = np.random.default_rng(0)
        losses = bootstrap_losses(rng)
        t1a = stub_engine(losses).thresholds.t1
        t1b = stub_engine(losses).thresholds.t1
        assert t1a == t1b

    def test_initial_state(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(0)))
        assert engine.phase is Phase.INITIAL
        assert engine.thresholds.t2 is None
        assert engine.forest is None


class TestRoutingInitialPhase:
    def test_low_loss_is_normal(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(0)))
        t1 = engine.thresholds.t1
        verdict = engine.process(records_from_losses([t1 * 0.5], start_index=100)[0])
        assert verdict.label is Label.NORMAL
        assert verdict.route is Route.HIGH_CONF_NORMAL

    def test_high_loss_is_abnormal(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(0)))
        t1 = engine.thresholds.t1
        verdict = engine.process(records_from_losses([t1 * 2.0], start_index=100)[0])
        assert verdict.label is Label.ABNORMAL
        assert verdict.route is Route.HIGH_CONF_ABNORMAL
        assert len(engine.abnormal_losses) == 1


class TestLossBuffers:
    def test_hold_the_last_capacity_losses_in_arrival_order(self):
        capacity = 20
        engine = stub_engine(bootstrap_losses(np.random.default_rng(3)), capacity=capacity)
        losses = [0.1 + 0.001 * i if i % 2 else 100.0 + i for i in range(5 * capacity)]
        verdicts = [engine.process(r) for r in records_from_losses(losses, start_index=100)]
        for route, buffer in ((Route.HIGH_CONF_NORMAL, engine.normal_losses),
                              (Route.HIGH_CONF_ABNORMAL, engine.abnormal_losses)):
            routed = [v.loss for v in verdicts if v.route is route]
            assert len(routed) > capacity
            assert list(buffer) == routed[-capacity:]


class TestPhaseTransition:
    def test_flips_once_at_warmup(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(0)), warmup=5)
        t1 = engine.thresholds.t1
        highs = records_from_losses(
            t1 * (2.0 + 0.2 * np.arange(5.0)), start_index=100
        )
        for i, record in enumerate(highs):
            assert engine.phase is Phase.INITIAL
            assert len(engine.abnormal_losses) == i
            engine.process(record)
        assert engine.phase is Phase.STEADY
        assert engine.thresholds.t2 is not None
        assert engine.phase_transition() is False  # at most once

    def test_phase_matches_buffer_size_invariant(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(0)), warmup=4)
        t1 = engine.thresholds.t1
        rng = np.random.default_rng(5)
        for i in range(50):
            loss = t1 * (1.5 + rng.random()) if rng.random() < 0.3 else t1 * rng.random()
            engine.process(records_from_losses([loss], start_index=100 + i)[0])
            initial = engine.phase is Phase.INITIAL
            assert initial == (len(engine.abnormal_losses) < 4) or not initial

    def test_zero_anomaly_stream_stays_initial_but_retrains(self):
        engine = stub_engine(
            bootstrap_losses(np.random.default_rng(0)), warmup=5, interval=20
        )
        t1 = engine.thresholds.t1
        rng = np.random.default_rng(7)
        reports = []
        for i in range(60):
            loss = t1 * (0.2 + 0.6 * rng.random())
            engine.process(records_from_losses([loss], start_index=100 + i)[0])
            report = engine.maybe_retrain()
            if report:
                reports.append(report)
        assert engine.phase is Phase.INITIAL
        assert len(reports) == 3
        assert all(r.new_t2 is None for r in reports)


class TestSteadyRouting:
    def make_steady(self, sink=None, **kwargs):
        rng = np.random.default_rng(3)
        engine = stub_engine(bootstrap_losses(rng), warmup=5, **{"sink": sink, **kwargs})
        t1 = engine.thresholds.t1
        spread = t1 * (2.0 + 0.5 * np.arange(5.0))
        for record in records_from_losses(spread, start_index=1000):
            engine.process(record)
        assert engine.phase is Phase.STEADY
        return engine

    def test_three_routes(self):
        engine = self.make_steady()
        t = engine.thresholds
        assert t.t2 > t.t1
        low = engine.process(records_from_losses([t.t1 * 0.5], start_index=2000)[0])
        assert (low.label, low.route) == (Label.NORMAL, Route.HIGH_CONF_NORMAL)
        high = engine.process(records_from_losses([t.t2 * 2.0], start_index=2001)[0])
        assert (high.label, high.route) == (Label.ABNORMAL, Route.HIGH_CONF_ABNORMAL)
        mid_loss = 0.5 * (t.t1 + t.t2)
        mid = engine.process(records_from_losses([mid_loss], start_index=2002)[0])
        assert mid.route is Route.CLASSIFIER

    def test_classifier_cold_start_midpoint(self):
        engine = self.make_steady()
        t = engine.thresholds
        assert engine.forest is None
        just_above_t1 = t.t1 + 0.05 * (t.t2 - t.t1)
        verdict = engine.process(records_from_losses([just_above_t1], start_index=3000)[0])
        assert verdict.route is Route.CLASSIFIER
        assert verdict.label is Label.NORMAL
        assert verdict.votes is None
        just_below_t2 = t.t2 - 0.05 * (t.t2 - t.t1)
        verdict = engine.process(records_from_losses([just_below_t2], start_index=3001)[0])
        assert verdict.label is Label.ABNORMAL

    def test_forest_votes_after_retrain(self):
        engine = self.make_steady(interval=40)
        t = engine.thresholds
        rng = np.random.default_rng(9)
        # drive a full batch with both pseudo-classes present
        i = 0
        while engine.forest is None:
            loss = t.t2 * 1.5 if rng.random() < 0.3 else t.t1 * rng.random()
            engine.process(records_from_losses([loss], start_index=4000 + i)[0])
            engine.maybe_retrain()
            i += 1
            assert i < 500
        mid_loss = 0.5 * (engine.thresholds.t1 + engine.thresholds.t2)
        verdict = engine.process(records_from_losses([mid_loss], start_index=9000)[0])
        assert verdict.route is Route.CLASSIFIER
        assert verdict.votes is not None
        assert sum(verdict.votes) == engine.config.forest.n_estimators


class TestRetraining:
    def test_noop_below_interval(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(0)), interval=10)
        t1 = engine.thresholds.t1
        for i in range(9):
            engine.process(records_from_losses([t1 * 0.5], start_index=100 + i)[0])
            assert engine.maybe_retrain() is None

    def test_report_at_exact_interval(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(1)), interval=10)
        t1 = engine.thresholds.t1
        rng = np.random.default_rng(2)
        report = None
        for i in range(10):
            engine.process(
                records_from_losses([t1 * (0.2 + 0.7 * rng.random())], start_index=100 + i)[0]
            )
            report = engine.maybe_retrain() or report
        assert report is not None
        assert report.index == 1
        assert report.scorer_windows > 0
        assert report.new_t1 != report.old_t1

    def test_cadence_exact(self):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(1)), interval=7)
        t1 = engine.thresholds.t1
        rng = np.random.default_rng(3)
        retrain_at = []
        for i in range(50):
            engine.process(
                records_from_losses([t1 * (0.2 + 0.9 * rng.random())], start_index=100 + i)[0]
            )
            if engine.maybe_retrain():
                retrain_at.append(i + 1)
        assert retrain_at == [7, 14, 21, 28, 35, 42, 49]

    def test_frozen_thresholds_mode(self):
        engine = stub_engine(
            bootstrap_losses(np.random.default_rng(1)), interval=10,
            mode="fixed-threshold",
        )
        t1 = engine.thresholds.t1
        rng = np.random.default_rng(4)
        for i in range(10):
            engine.process(
                records_from_losses([t1 * (0.2 + 0.5 * rng.random())], start_index=100 + i)[0]
            )
        report = engine.maybe_retrain()
        assert report.new_t1 == t1 == engine.thresholds.t1

    def test_frozen_scorer_mode(self):
        engine = stub_engine(
            bootstrap_losses(np.random.default_rng(1)), interval=10, mode="initial-only",
        )
        t1 = engine.thresholds.t1
        for i in range(10):
            engine.process(records_from_losses([t1 * 0.5], start_index=100 + i)[0])
        engine.maybe_retrain()
        assert engine.scorer.train_calls == []

    def test_single_threshold_mode_never_transitions(self):
        engine = stub_engine(
            bootstrap_losses(np.random.default_rng(1)), warmup=3, mode="scorer-only",
        )
        t1 = engine.thresholds.t1
        for i in range(10):
            engine.process(records_from_losses([t1 * 3.0], start_index=100 + i)[0])
        assert engine.phase is Phase.INITIAL
        assert engine.thresholds.t2 is None

    def test_batch_without_high_confidence_records_keeps_forest(self):
        # a steady batch routed wholly to the classifier leaves the forest
        # no training rows: the fit is skipped, not a crash
        engine = stub_engine(
            bootstrap_losses(np.random.default_rng(3)), warmup=5, interval=10,
        )
        t1 = engine.thresholds.t1
        first = t1 * np.concatenate([2.0 + 0.5 * np.arange(5.0), 0.5 * np.ones(5)])
        for i, record in enumerate(records_from_losses(first, start_index=100)):
            engine.process(record)
            assert (engine.maybe_retrain() is None) == (i < 9)
        forest = engine.forest
        assert forest is not None
        t = engine.thresholds
        assert t.t2 > t.t1
        mid = 0.5 * (t.t1 + t.t2)
        for record in records_from_losses([mid] * 10, start_index=200):
            assert engine.process(record).route is Route.CLASSIFIER
        report = engine.maybe_retrain()
        assert report.forest_samples == 0
        assert not report.forest_trained
        assert "forest_skipped" in report.notes
        assert engine.forest is forest

    @pytest.mark.parametrize("timestep", [1, 2, 4])
    def test_retrain_batches_are_the_routed_rows(self, timestep, monkeypatch):
        # over two intervals, so the rows carried across a retrain count:
        # the scorer fine-tunes on the window ending at each pseudo-normal
        # record and the forest fits the rows not routed to the classifier
        fits = []
        real_fit = engine_mod.fit_forest

        def spy(x, y, config, seed):
            fits.append((np.array(x), np.array(y)))
            return real_fit(x, y, config, seed=seed)

        monkeypatch.setattr(engine_mod, "fit_forest", spy)
        interval = 12
        rng = np.random.default_rng(timestep)
        first_losses = bootstrap_losses(rng)
        engine = stub_engine(first_losses, warmup=3, interval=interval, timestep=timestep)
        rows = [np.array([v, 0.5]) for v in first_losses]
        verdicts = []
        for i in range(2 * interval):
            t = engine.thresholds
            if t.t2 is None:
                loss = t.t1 * 3.0 if i < 3 else t.t1 * 0.5
            else:
                loss = [t.t1 * 0.5 * rng.random(), t.t2 * 1.5, 0.5 * (t.t1 + t.t2)][i % 3]
            rows.append(np.array([loss, rng.random()]))
            verdicts.append(engine.process(StreamRecord(index=100 + i, features=rows[-1])))
            assert (engine.maybe_retrain() is None) == ((i + 1) % interval != 0)
        assert len(engine.scorer.train_calls) == len(fits) == 2
        n0 = len(first_losses)
        for k in range(2):
            pending = range(n0 + k * interval, n0 + (k + 1) * interval)
            routes = {verdicts[j - n0].route for j in pending}
            assert routes == set(Route)
            normal = [j for j in pending if verdicts[j - n0].label is Label.NORMAL]
            windows, epochs = engine.scorer.train_calls[k]
            assert epochs == engine.config.scorer.epochs_update
            expected = np.stack([np.stack(rows[j - timestep + 1 : j + 1]) for j in normal])
            assert np.array_equal(windows, expected)
            kept = [j for j in pending if verdicts[j - n0].route is not Route.CLASSIFIER]
            x, y = fits[k]
            assert np.array_equal(x, np.stack([rows[j] for j in kept]))
            assert y.tolist() == [int(verdicts[j - n0].label) for j in kept]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_fine_tune_is_rolled_back(self):
        # a real scorer with a huge step size overflows within its first
        # fine-tune; the retrain restores it and goes on
        records = [
            r.to_stream()
            for r in synthetic_stream(SyntheticConfig(n_records=80, n_features=3, seed=5))
        ]
        scorer_cfg = ScorerConfig(
            timestep=4, n_features=3, hidden_size=4, latent_size=2,
            learning_rate=1e6, batch_size=4, epochs_update=3, seed=1,
        )
        config = EngineConfig(scorer=scorer_cfg, update_interval=20, seed=1)
        # a scorer passed in counts as pretrained, so bootstrap does not train it
        engine = OnlineAnomalyDetector(config, scorer=LstmVaeScorer(scorer_cfg))
        engine.bootstrap(records[:40])
        for r in records[40:60]:
            engine.process(r)
        params = {k: v.copy() for k, v in engine.scorer.params.items()}
        rng_state = engine.scorer.rng.bit_generator.state
        report = engine.maybe_retrain()
        assert report.scorer_windows > 0
        assert "scorer_rolled_back" in report.notes
        assert engine.scorer.params.keys() == params.keys()
        for k, v in params.items():
            assert np.array_equal(engine.scorer.params[k], v), k
        assert engine.scorer.rng.bit_generator.state == rng_state
        assert engine.retrains_done == 1
        assert engine.maybe_retrain() is None  # the interval was reset
        verdict = engine.process(records[60])
        assert verdict.index == records[60].index
        assert np.isfinite(verdict.loss)


class TestRejectedRecords:
    def test_bad_record_changes_no_state(self):
        # real scorer, T=4: a rejected row must not enter the window tail,
        # so the records after it get the verdicts they get without it
        records = synthetic_stream(
            SyntheticConfig(n_records=90, n_features=3, anomaly_rate=0.1, seed=4)
        )

        def fresh():
            config = EngineConfig(
                scorer=ScorerConfig(
                    timestep=4, n_features=3, hidden_size=4, latent_size=2,
                    epochs_initial=2, seed=1,
                ),
                abnormal_warmup=5,
                update_interval=1000,
                seed=1,
            )
            engine = OnlineAnomalyDetector(config)
            engine.bootstrap([r.to_stream() for r in records[:40]])
            return engine

        bad = [
            (NonFiniteError, [np.nan, 10.0, 10.0]),
            (NonFiniteError, [10.0, np.inf, 10.0]),
            (ShapeMismatchError, [10.0, 10.0]),
            (ShapeMismatchError, [10.0, 10.0, 10.0, 10.0]),
            (NonFiniteError, ["a", 10.0, 10.0]),
            (NonFiniteError, [10.0, 1j, 10.0]),
        ]
        clean, dirty = fresh(), fresh()
        clean_verdicts, dirty_verdicts = [], []
        for pos, r in enumerate(records[40:]):
            if pos % 10 == 5:
                error, features = bad[(pos // 10) % len(bad)]
                with pytest.raises(error):
                    dirty.process(StreamRecord(index=-1, features=np.array(features)))
            clean_verdicts.append(clean.process(r.to_stream()))
            dirty_verdicts.append(dirty.process(r.to_stream()))
        assert dirty_verdicts == clean_verdicts
        assert dirty.samples_seen == clean.samples_seen == 50
        assert dirty.normal_losses == clean.normal_losses
        assert dirty.abnormal_losses == clean.abnormal_losses

    @pytest.mark.parametrize("features", [
        ["a", 0.5], [0.5, "0.5"], [1j, 0.5], np.array([0.5, 2 + 0j]),
        np.array([0.5, object()], dtype=object), [[0.5, 0.5], [0.5]],
    ], ids=["string", "numeric-string", "complex", "complex-array", "object", "ragged"])
    def test_non_numeric_feature_is_a_typed_error_naming_the_record(self, features):
        engine = stub_engine(bootstrap_losses(np.random.default_rng(2)))
        with pytest.raises(NonFiniteError, match="record 17 has a feature that is not a real"):
            engine.process(StreamRecord(index=17, features=features))
        first_round = records_from_losses(bootstrap_losses(np.random.default_rng(3)))
        first_round[5] = StreamRecord(index=17, features=features)
        with pytest.raises(NonFiniteError, match="record 17 "):
            OnlineAnomalyDetector(engine.config, scorer=StubScorer()).bootstrap(first_round)
        assert engine.samples_seen == 0
        assert engine.process(StreamRecord(index=18, features=np.array([0.5, 1]))).index == 18

    def test_record_that_fails_to_score_changes_no_state(self):
        # a scorer whose loss overflows rejects the record; with its weights
        # restored, the records after it get the verdicts they get without it
        records = [
            r.to_stream()
            for r in synthetic_stream(SyntheticConfig(n_records=70, n_features=3, seed=6))
        ]
        scorer_cfg = ScorerConfig(timestep=4, n_features=3, hidden_size=4, latent_size=2, seed=1)
        config = EngineConfig(scorer=scorer_cfg, update_interval=1000, seed=1)
        clean, dirty = (
            OnlineAnomalyDetector(config, scorer=LstmVaeScorer(scorer_cfg)) for _ in range(2)
        )
        for engine in (clean, dirty):
            engine.bootstrap(records[:40])
        for r in records[40:50]:
            assert clean.process(r) == dirty.process(r)
        out_b = dirty.scorer.params["out_b"].copy()
        dirty.scorer.params["out_b"][:] = np.inf
        with pytest.raises(NonFiniteError):
            dirty.process(records[50])
        dirty.scorer.params["out_b"][:] = out_b
        for r in records[50:]:
            assert clean.process(r) == dirty.process(r)
        assert dirty.samples_seen == clean.samples_seen

    def test_degenerate_first_round_leaves_buffer_empty(self):
        # T1 is fitted before the normal buffer is filled, so a retry after
        # the failure bootstraps as if fresh
        good = bootstrap_losses(np.random.default_rng(8))
        reference = stub_engine(good)
        engine = OnlineAnomalyDetector(reference.config, scorer=StubScorer())
        with pytest.raises(InsufficientDataError):
            engine.bootstrap(records_from_losses([1.0] * 30))
        assert not engine.bootstrapped
        assert len(engine.normal_losses) == 0
        engine.bootstrap(records_from_losses(good))
        assert engine.thresholds == reference.thresholds
        assert engine.normal_losses == reference.normal_losses

    def test_bad_first_round_changes_no_state(self):
        # real scorer, T=3: a bad first-round row is rejected before the
        # scorer trains, so a retry with good rows bootstraps as if fresh
        records = [
            r.to_stream()
            for r in synthetic_stream(SyntheticConfig(n_records=30, n_features=2, seed=2))
        ]

        def fresh():
            config = EngineConfig(
                scorer=ScorerConfig(
                    timestep=3, n_features=2, hidden_size=4, latent_size=2,
                    epochs_initial=2, seed=1,
                ),
                seed=1,
            )
            return OnlineAnomalyDetector(config)

        reference = fresh()
        reference.bootstrap(records)
        bad = [
            (NonFiniteError, [np.nan, 10.0]),
            (NonFiniteError, [10.0, np.inf]),
            (ShapeMismatchError, [10.0]),
            (ShapeMismatchError, [10.0, 10.0, 10.0]),
            (NonFiniteError, [10.0, "a"]),
            (NonFiniteError, [1j, 10.0]),
        ]
        for error, features in bad:
            engine = fresh()
            params = {k: v.copy() for k, v in engine.scorer.params.items()}
            rng_state = engine.scorer.rng.bit_generator.state
            first_round = list(records)
            first_round[17] = StreamRecord(index=17, features=np.array(features))
            with pytest.raises(error):
                engine.bootstrap(first_round)
            assert not engine.bootstrapped
            assert len(engine.normal_losses) == 0
            assert all(np.array_equal(params[k], v) for k, v in engine.scorer.params.items())
            assert engine.scorer.rng.bit_generator.state == rng_state
            engine.bootstrap(records)
            assert engine.thresholds == reference.thresholds
            assert engine.normal_losses == reference.normal_losses


class TestPendingInterval:
    @given(
        st.integers(1, 4), st.integers(1, 6), st.lists(st.booleans(), max_size=40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_array_holds_the_rows_fed_in(self, timestep, interval, retrain, seed):
        # any sequence of process and maybe_retrain calls; a skipped
        # maybe_retrain lets the interval outgrow its first capacity
        rng = np.random.default_rng(seed)
        first_losses = bootstrap_losses(rng, n=20)
        engine = stub_engine(first_losses, warmup=3, interval=interval, timestep=timestep)
        fed = np.array([[v, 0.5] for v in first_losses])
        n0, carry = len(fed), timestep - 1
        verdicts = []
        for i, call_retrain in enumerate(retrain):
            row = np.array([rng.lognormal(0.0, 0.6), rng.random()])
            verdicts.append(engine.process(StreamRecord(index=i, features=row)))
            fed = np.vstack([fed, row])
            if call_retrain:
                report = engine.maybe_retrain()
                if report is not None:
                    assert report.scorer_windows == sum(v.label is Label.NORMAL for v in verdicts)
                    assert report.forest_samples == sum(
                        v.route is not Route.CLASSIFIER for v in verdicts
                    )
                    verdicts = []
            pending = engine._pending
            assert pending == len(verdicts)
            assert np.array_equal(engine._rows[: carry + pending], fed[len(fed) - carry - pending :])
            assert engine._labels[:pending].tolist() == [int(v.label) for v in verdicts]
            assert engine._routes[:pending].tolist() == [
                list(Route).index(v.route) for v in verdicts
            ]
        # each record's window is the T rows fed in that end at its stream position
        assert [position for _, position in engine.scorer.stream_calls] == list(range(len(retrain)))
        for window, position in engine.scorer.stream_calls:
            assert np.array_equal(window, fed[n0 + position - carry : n0 + position + 1])


def spy_primes(scorer):
    """Record the stream position of every re-prime of ``scorer``'s stream memo."""
    positions = []
    real_prime = scorer._prime

    def spy(rows, position):
        positions.append(position)
        return real_prime(rows, position)

    scorer._prime = spy
    return positions


class TestReprime:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "mode, learning_rate, reprimed",
        [("adaptive", 1e-2, True), ("adaptive", 1e6, True), ("scorer-only", 1e-2, True),
         ("initial-only", 1e-2, False), ("offline", 1e-2, False)],
        ids=["fine-tune", "rolled-back", "scorer-only", "initial-only", "offline"],
    )
    def test_reprimed_after_a_fine_tune_only(self, mode, learning_rate, reprimed):
        # the scorer primes its stream at the first process and re-primes it
        # after every fine-tune, also a rolled-back one, and never when the
        # weights cannot change; either way each loss is the score of its
        # window under the current weights
        records = [
            r.to_stream()
            for r in synthetic_stream(SyntheticConfig(n_records=90, n_features=3, seed=5))
        ]
        scorer_cfg = ScorerConfig(
            timestep=4, n_features=3, hidden_size=4, latent_size=2,
            learning_rate=learning_rate, batch_size=4, epochs_update=2, seed=1,
        )
        config = EngineConfig(scorer=scorer_cfg, update_interval=20, seed=1, mode=mode)
        engine = OnlineAnomalyDetector(config, scorer=LstmVaeScorer(scorer_cfg))
        positions = spy_primes(engine.scorer)
        engine.bootstrap(records[:40])
        assert positions == []
        before = {k: v.copy() for k, v in engine.scorer.params.items()}
        for r in records[40:60]:
            engine.process(r)
        assert positions == [0]
        report = engine.maybe_retrain()
        assert report.scorer_windows > 0
        assert ("scorer_rolled_back" in report.notes) == (learning_rate > 1)
        changed = any(not np.array_equal(before[k], v) for k, v in engine.scorer.params.items())
        assert changed == (reprimed and learning_rate < 1)
        assert positions == ([0, 20] if reprimed else [0])
        rows = np.array([r.features for r in records])
        for j in range(60, 90):
            verdict = engine.process(records[j])
            assert verdict.loss == pytest.approx(engine.scorer.score(rows[j - 3 : j + 1]), rel=1e-12)
        assert positions == ([0, 20] if reprimed else [0])

    def test_second_bootstrap_rebuilds_the_stream(self):
        # a second bootstrap keeps the stream position and replaces the rows
        # before it, so the scorer's memo must be keyed on its rows too
        records = [
            r.to_stream()
            for r in synthetic_stream(SyntheticConfig(n_records=120, n_features=3, seed=8))
        ]
        scorer_cfg = ScorerConfig(timestep=4, n_features=3, hidden_size=4, latent_size=2, seed=2)
        config = EngineConfig(scorer=scorer_cfg, update_interval=1000, seed=1)
        engine = OnlineAnomalyDetector(config, scorer=LstmVaeScorer(scorer_cfg))
        engine.bootstrap(records[:40])
        for r in records[40:60]:
            engine.process(r)
        engine.bootstrap(records[60:100])
        assert engine.samples_seen == 20
        rows = np.array([r.features for r in records])
        for j in range(100, 120):
            verdict = engine.process(records[j])
            assert verdict.loss == pytest.approx(engine.scorer.score(rows[j - 3 : j + 1]), rel=1e-12)


class TestEventsAndDeterminism:
    def test_sink_receives_all_event_kinds(self):
        events = []
        engine = stub_engine(
            bootstrap_losses(np.random.default_rng(3)), warmup=3, interval=10,
            sink=events.append,
        )
        t1 = engine.thresholds.t1
        rng = np.random.default_rng(6)
        returned, in_force = [], []
        for i in range(20):
            loss = t1 * 2.0 if i in (2, 4, 6) else t1 * (0.2 + 0.5 * rng.random())
            in_force.append((engine.thresholds.t1, engine.thresholds.t2))
            returned.append(engine.process(records_from_losses([loss], start_index=100 + i)[0]))
            report = engine.maybe_retrain()
            if report is not None:
                returned.append(report)
        kinds = {type(e) for e in events}
        assert kinds == {Verdict, RetrainReport, PhaseTransitionEvent}
        emitted = [e for e in events if not isinstance(e, PhaseTransitionEvent)]
        assert len(emitted) == len(returned) == 22
        assert all(e is r for e, r in zip(emitted, returned))
        verdicts = [e for e in emitted if isinstance(e, Verdict)]
        assert [v.index for v in verdicts] == list(range(100, 120))
        assert [(v.t1, v.t2) for v in verdicts] == in_force

    def test_full_determinism_with_real_scorer(self):
        config = SyntheticConfig(
            n_records=600, n_features=3, anomaly_rate=0.05, anomaly_burst=5,
            anomaly_shift=3.0, seed=12,
        )
        records = synthetic_stream(config)

        def run():
            engine_cfg = EngineConfig(
                scorer=ScorerConfig(
                    timestep=3, n_features=3, hidden_size=4, latent_size=2,
                    epochs_initial=3, epochs_update=1, seed=5,
                ),
                forest=ForestConfig(n_estimators=4, max_depth=4),
                abnormal_warmup=10,
                update_interval=100,
                buffer_capacity=200,
                seed=5,
            )
            engine = OnlineAnomalyDetector(engine_cfg)
            engine.bootstrap([r.to_stream() for r in records[:60]])
            out = []
            for r in records[60:]:
                v = engine.process(r.to_stream())
                out.append((v.label, v.route, v.loss, v.votes))
                engine.maybe_retrain()
            out.append(("t", engine.thresholds.t1, engine.thresholds.t2, None))
            return out, {k: v.copy() for k, v in engine.scorer.params.items()}

        run1, params1 = run()
        run2, params2 = run()
        assert run1 == run2
        for k in params1:
            assert np.array_equal(params1[k], params2[k])


class TestThresholdTrajectory:
    def test_stays_within_buffer_quantile_envelope(self):
        # over 8+ retrains the fitted thresholds stay inside the envelope
        # of per-retrain empirical buffer quantiles, widened by 2%. A
        # pointwise comparison cannot work at p1 = 0.98: the normal buffer
        # only ever receives losses below the previous T1, so its own
        # empirical 98th percentile is systematically depressed while the
        # parametric fit extrapolates the untruncated tail (that
        # extrapolation is the point of fitting a distribution at all).
        rng = np.random.default_rng(14)
        engine = stub_engine(
            bootstrap_losses(rng, n=400), warmup=50, interval=250, capacity=2000,
        )
        fitted = {"t1": [], "t2": []}
        oracle = {"t1": [], "t2": []}
        for i in range(2000):
            if rng.random() < 0.10:
                loss = float(np.exp(rng.normal(1.6, 0.3)))
            else:
                loss = float(np.exp(rng.normal(0.0, 0.4)))
            engine.process(records_from_losses([loss], start_index=500 + i)[0])
            if engine.samples_seen % engine.config.update_interval == 0:
                normal_snapshot = np.array(engine.normal_losses)
                abnormal_snapshot = np.array(engine.abnormal_losses)
                report = engine.maybe_retrain()
                assert report is not None
                fitted["t1"].append(report.new_t1)
                oracle["t1"].append(float(np.quantile(normal_snapshot, engine.config.p1)))
                if report.new_t2 is not None:
                    fitted["t2"].append(report.new_t2)
                    oracle["t2"].append(
                        float(np.quantile(abnormal_snapshot, engine.config.p2))
                    )
            else:
                assert engine.maybe_retrain() is None
        assert len(fitted["t1"]) >= 8
        assert len(fitted["t2"]) >= 5
        for key in ("t1", "t2"):
            lo = min(oracle[key]) * 0.98
            hi = max(oracle[key]) * 1.02
            for value in fitted[key]:
                assert lo <= value <= hi, (key, value, lo, hi)


class TestUncertainBandFraction:
    def test_small_fraction_after_first_retrain(self):
        # full pipeline at toy size: ~1e4 normals with 1e2-scale shifted
        # anomaly episodes; classifier-routed share stays small once the
        # first retrain has refreshed the thresholds
        from anomstream.engine import OnlineAnomalyDetector as Detector

        config = SyntheticConfig(
            n_records=10_100, n_features=4, anomaly_rate=0.012, anomaly_burst=25,
            anomaly_shift=3.0, seed=6,
        )
        records = synthetic_stream(config)
        engine_cfg = EngineConfig(
            scorer=ScorerConfig(
                timestep=4, n_features=4, hidden_size=6, latent_size=3,
                epochs_initial=6, epochs_update=2, seed=3,
            ),
            forest=ForestConfig(n_estimators=10, max_depth=6),
            abnormal_warmup=60,
            update_interval=1500,
            buffer_capacity=3000,
            seed=3,
        )
        engine = Detector(engine_cfg)
        engine.bootstrap([r.to_stream() for r in records[:300]])
        routes = []
        first_retrain_at = None
        for pos, r in enumerate(records[300:]):
            verdict = engine.process(r.to_stream())
            if engine.maybe_retrain() and first_retrain_at is None:
                first_retrain_at = pos
            routes.append(verdict.route)
        assert first_retrain_at is not None
        after = routes[first_retrain_at + 1 :]
        uncertain = sum(r is Route.CLASSIFIER for r in after) / len(after)
        assert uncertain < 0.20


class TestPseudoLabelPurity:
    def test_separated_stream_low_error(self):
        # normal losses lognormal(0, 0.25); anomalies shifted 4 sigma up in
        # log space; count pseudo-label errors on high-confidence routes
        rng = np.random.default_rng(21)
        engine = stub_engine(bootstrap_losses(rng), warmup=20, interval=200, capacity=500)
        n = 4000
        is_anom = rng.random(n) < 0.05
        log_losses = rng.normal(0.0, 0.25, size=n) + np.where(is_anom, 4 * 0.25 + 1.0, 0.0)
        losses = np.exp(log_losses)
        wrong = 0
        high_conf = 0
        for i in range(n):
            v = engine.process(records_from_losses([losses[i]], start_index=100 + i)[0])
            engine.maybe_retrain()
            if v.route in (Route.HIGH_CONF_NORMAL, Route.HIGH_CONF_ABNORMAL):
                high_conf += 1
                truth = Label.ABNORMAL if is_anom[i] else Label.NORMAL
                if v.label is not truth:
                    wrong += 1
        assert high_conf > 0.5 * n
        assert wrong / high_conf < 0.01


# ---------------------------------------------------------------- process_block

BLOCK_FIRST = 40  # the first round, which the stream is normalised on
BLOCK_STREAM = synthetic_stream(SyntheticConfig(
    n_records=300, n_features=3, anomaly_rate=0.1, anomaly_burst=4, anomaly_shift=3.0, seed=3))
BLOCK_RECORDS = [r.to_stream() for r in normalize_records(
    BLOCK_STREAM, fit_normalizer(BLOCK_STREAM[:BLOCK_FIRST]))]


def block_engine(sink=None):
    """A real T=3, H=4 scorer whose 260 replayed records flip the phase inside an interval,
    retrain six times with fine-tunes and three forest fits, and take all three routes."""
    config = EngineConfig(
        scorer=ScorerConfig(timestep=3, n_features=3, hidden_size=4, latent_size=2,
                            epochs_initial=3, epochs_update=1, batch_size=8, seed=4),
        forest=ForestConfig(n_estimators=4, max_depth=4),
        abnormal_warmup=6,
        update_interval=40,
        buffer_capacity=200,
        seed=4,
    )
    engine = OnlineAnomalyDetector(config, sink=sink)
    engine.bootstrap(BLOCK_RECORDS[:BLOCK_FIRST])
    return engine


def event_key(event):
    """An event's fields that a loss's last bits cannot move."""
    if isinstance(event, Verdict):
        return ("verdict", event.index, event.label, event.route, event.votes,
                event.t2 is None)
    if isinstance(event, RetrainReport):
        return ("retrain", event.index, event.samples_seen, event.scorer_windows,
                event.forest_samples, event.forest_trained, event.notes)
    return ("flip", event.samples_seen)


def event_values(event):
    """An event's loss and thresholds, which hold a batched loss's last bits."""
    if isinstance(event, Verdict):
        return [event.loss, event.t1, event.t2 or 0.0]
    if isinstance(event, RetrainReport):
        return [event.new_t1, event.new_t2 or 0.0]
    return [event.t2]


@functools.cache
def one_at_a_time():
    """The events and the engine of the whole replay, one ``process`` call per record."""
    events = []
    engine = block_engine(events.append)
    for r in BLOCK_RECORDS[BLOCK_FIRST:]:
        engine.process(r)
        engine.maybe_retrain()
    return events, engine


def engine_state(engine):
    """Everything a refused block must leave as it was."""
    k = engine._pending
    return (engine.samples_seen, engine._pending, engine._normal, engine._classified,
            list(engine.normal_losses), list(engine.abnormal_losses), engine.thresholds,
            engine.scorer._flat.tobytes(), engine.scorer.rng.bit_generator.state,
            engine._forest_seeds.n_children_spawned, engine.retrains_done,
            engine._rows[: engine.config.scorer.timestep - 1 + k].tobytes(),
            engine._labels[:k].tobytes(), engine._routes[:k].tobytes())


class TestProcessBlock:
    def test_reference_run_covers_every_event(self):
        events, engine = one_at_a_time()
        routes = {e.route for e in events if isinstance(e, Verdict)}
        reports = [e for e in events if isinstance(e, RetrainReport)]
        assert routes == set(Route)
        assert [e.samples_seen for e in events if isinstance(e, PhaseTransitionEvent)] == [130]
        assert [r.forest_trained for r in reports] == [False] * 3 + [True] * 3
        assert sum(e.votes is not None for e in events if isinstance(e, Verdict)) == 7

    @given(st.lists(st.sampled_from(["process", 1, 7, "boundary"]), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_blocks_route_as_single_records(self, steps):
        # blocks of 1, 7 or up to the retrain boundary, mixed with plain process calls, give
        # the one-at-a-time events; losses and thresholds within TestStreaming's 1e-12
        expected, reference = one_at_a_time()
        events = []
        engine = block_engine(events.append)
        records, steps = BLOCK_RECORDS[BLOCK_FIRST:], itertools.cycle(steps)
        while records:
            step = next(steps)
            if step == "process":
                returned = [engine.process(records[0])]
            else:
                room = engine.config.update_interval - engine._pending
                size = room if step == "boundary" else min(step, room)
                returned = engine.process_block(records[:size])
            records = records[len(returned):]
            engine.maybe_retrain()
        assert [event_key(e) for e in events] == [event_key(e) for e in expected]
        got = np.concatenate([event_values(e) for e in events])
        assert got == pytest.approx(np.concatenate([event_values(e) for e in expected]),
                                    rel=1e-12, abs=0.0)
        assert engine.scorer._flat.tobytes() == reference.scorer._flat.tobytes()

    def test_returns_the_verdicts_it_emits(self):
        events = []
        engine = block_engine(events.append)
        verdicts = engine.process_block(BLOCK_RECORDS[BLOCK_FIRST : BLOCK_FIRST + 7])
        assert [v.index for v in verdicts] == list(range(BLOCK_FIRST, BLOCK_FIRST + 7))
        assert all(e is v for e, v in zip(events, verdicts)) and len(events) == 7
        assert engine.process_block([]) == [] and engine.samples_seen == 7

    def test_process_after_a_block_re_primes_the_stream(self):
        # a block leaves the stream memo behind; the next process re-primes it at its
        # position, so every loss after the block holds the one-at-a-time bits
        config = dataclasses.replace(block_engine().config, update_interval=1000)
        through = OnlineAnomalyDetector(config)
        blocked = OnlineAnomalyDetector(config)
        for engine in (through, blocked):
            engine.bootstrap(BLOCK_RECORDS[:BLOCK_FIRST])
        positions = spy_primes(blocked.scorer)
        records = BLOCK_RECORDS[BLOCK_FIRST : BLOCK_FIRST + 40]
        expected = [through.process(r) for r in records]
        got = [blocked.process(r) for r in records[:10]]
        got += blocked.process_block(records[10:17])
        got += [blocked.process(r) for r in records[17:]]
        assert positions == [0, 17]
        assert [v.loss for v in got[:10] + got[17:]] == [
            v.loss for v in expected[:10] + expected[17:]]
        assert [v.loss for v in got[10:17]] == pytest.approx(
            [v.loss for v in expected[10:17]], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("error, features", [
        (NonFiniteError, [np.nan, 0.5, 0.5]),
        (NonFiniteError, [0.5, np.inf, 0.5]),
        (ShapeMismatchError, [0.5, 0.5]),
        (NonFiniteError, ["0.5", "a", "0.5"]),
        (NonFiniteError, [0.5, 1j, 0.5]),
    ], ids=["nan", "inf", "width", "string", "complex"])
    def test_bad_record_refuses_the_whole_block(self, at, error, features):
        clean, dirty = block_engine(), block_engine()
        for engine in (clean, dirty):
            for r in BLOCK_RECORDS[BLOCK_FIRST : BLOCK_FIRST + 45]:
                engine.process(r)
                engine.maybe_retrain()
        before = engine_state(dirty)
        block = list(BLOCK_RECORDS[BLOCK_FIRST + 45 : BLOCK_FIRST + 52])
        block[at] = StreamRecord(index=-7, features=features)
        with pytest.raises(error, match="record -7"):
            dirty.process_block(block)
        assert engine_state(dirty) == before
        self.assert_same_continuation(clean, dirty)

    def test_long_block_and_unbootstrapped_engine_are_refused(self):
        clean, dirty = block_engine(), block_engine()
        for engine in (clean, dirty):
            engine.process_block(BLOCK_RECORDS[BLOCK_FIRST : BLOCK_FIRST + 30])
        before = engine_state(dirty)
        with pytest.raises(ValueError, match="11 records crosses the retrain boundary, 10"):
            dirty.process_block(BLOCK_RECORDS[BLOCK_FIRST + 30 : BLOCK_FIRST + 41])
        assert engine_state(dirty) == before
        self.assert_same_continuation(clean, dirty)
        fresh = OnlineAnomalyDetector(clean.config)
        with pytest.raises(NotBootstrappedError):
            fresh.process_block(BLOCK_RECORDS[:3])
        assert fresh.samples_seen == 0 and not fresh.bootstrapped

    def test_block_that_fails_to_score_changes_no_state(self):
        clean, dirty = block_engine(), block_engine()
        for engine in (clean, dirty):
            engine.process_block(BLOCK_RECORDS[BLOCK_FIRST : BLOCK_FIRST + 12])
        before = engine_state(dirty)
        out_b = dirty.scorer.params["out_b"].copy()
        dirty.scorer.params["out_b"][:] = np.inf
        with pytest.raises(NonFiniteError):
            dirty.process_block(BLOCK_RECORDS[BLOCK_FIRST + 12 : BLOCK_FIRST + 19])
        dirty.scorer.params["out_b"][:] = out_b
        assert engine_state(dirty) == before
        self.assert_same_continuation(clean, dirty)

    @staticmethod
    def assert_same_continuation(clean, dirty):
        rest = BLOCK_RECORDS[BLOCK_FIRST + clean.samples_seen :]
        verdicts = []
        for engine in (clean, dirty):
            room = engine.config.update_interval - engine._pending
            verdicts.append(engine.process_block(rest[:room]))
            engine.maybe_retrain()
            verdicts[-1] += [engine.process(r) for r in rest[room : room + 30]]
        assert verdicts[1] == verdicts[0]
        assert engine_state(dirty) == engine_state(clean)

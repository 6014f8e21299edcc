"""End-to-end tests of the command-line surface on small streams."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anomstream
from anomstream import engine as engine_mod, ingest
from anomstream.cli import main
from anomstream.engine import EngineConfig
from anomstream.forest import ForestConfig
from anomstream.ingest import SyntheticConfig
from anomstream.scorer import ScorerConfig

SMALL_RUN_CONFIG = {
    "engine": {
        "update_interval": 400,
        "abnormal_warmup": 50,
        "buffer_capacity": 1000,
        "seed": 3,
    },
    "scorer": {
        "timestep": 3,
        "hidden_size": 6,
        "latent_size": 3,
        "epochs_initial": 6,
        "epochs_update": 2,
        "batch_size": 16,
    },
    "forest": {"n_estimators": 8, "max_depth": 6},
    "stream": {
        "source": "synthetic",
        "split": {"kind": "fractions", "first": 0.05, "train": 0.65, "test": 0.30},
        "synthetic": {
            "n_records": 4000,
            "n_features": 5,
            "anomaly_rate": 0.03,
            "anomaly_burst": 12,
            "anomaly_shift": 3.0,
            "drift_magnitude": 1.0,
        },
    },
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "config.json"
    cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
    out = base / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--mode", "adaptive"]) == 0
    return out


class TestRun:
    def test_artifacts_exist(self, run_dir):
        for name in ("verdicts.csv", "thresholds.csv", "metrics.txt", "metrics.csv",
                     "scorer.npz", "run_config.json"):
            assert (run_dir / name).exists(), name

    def test_verdict_columns(self, run_dir):
        rows = list(csv.DictReader(open(run_dir / "verdicts.csv")))
        assert list(rows[0]) == ["index", "loss", "route", "label", "t1", "t2", "score"]
        n_total = SMALL_RUN_CONFIG["stream"]["synthetic"]["n_records"]
        n_first = int(round(0.05 * n_total))
        assert len(rows) == n_total - n_first
        for row in rows[:50]:
            assert row["label"] in ("normal", "abnormal")
            assert row["route"] in ("high_conf_normal", "high_conf_abnormal", "classifier")
            assert 0.0 <= float(row["score"]) <= 1.0

    def test_threshold_trajectory(self, run_dir):
        rows = list(csv.DictReader(open(run_dir / "thresholds.csv")))
        events = [r["event"] for r in rows]
        assert events[0] == "bootstrap"
        assert "retrain" in events
        retrains = [r for r in rows if r["event"] == "retrain"]
        assert len(retrains) >= 5
        for row in retrains:
            assert float(row["t1"]) > 0

    def test_metrics_files_agree(self, run_dir):
        text = dict(
            line.split("=") for line in (run_dir / "metrics.txt").read_text().strip().splitlines()
        )
        header, row = (run_dir / "metrics.csv").read_text().strip().splitlines()
        by_col = dict(zip(header.split(","), row.split(",")))
        assert by_col == text

    def test_same_seed_byte_identical(self, run_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        out2 = tmp_path / "rerun"
        assert main(["run", "--config", str(cfg), "--out", str(out2), "--mode", "adaptive"]) == 0
        for name in ("verdicts.csv", "thresholds.csv", "metrics.txt", "metrics.csv"):
            assert (out2 / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_replays_one_block_per_interval(self, tmp_path, monkeypatch):
        # blocks run across the train/test split and end at each retrain boundary
        sizes = []
        real = engine_mod.OnlineAnomalyDetector.process_block

        def spy(detector, records):
            sizes.append(len(records))
            return real(detector, records)

        monkeypatch.setattr(engine_mod.OnlineAnomalyDetector, "process_block", spy)
        config = json.loads(json.dumps(SMALL_RUN_CONFIG))
        config["engine"]["update_interval"] = 100
        config["stream"]["synthetic"]["n_records"] = 600
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        assert sizes == [100] * 5 + [70]
        events = [row["event"] for row in csv.DictReader(open(out / "thresholds.csv"))]
        assert events.count("retrain") == 5
        assert len(list(csv.DictReader(open(out / "verdicts.csv")))) == 570

    def test_scorer_only_has_no_forest_checkpoint(self, run_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        out = tmp_path / "scorer_only"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--mode", "scorer-only"]) == 0
        assert not (out / "forest.json").exists()
        assert (out / "scorer.npz").exists()

    def test_unknown_mode_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "x"), "--mode", "bogus"]) == 1

    def test_missing_csv_is_data_error(self, tmp_path):
        rc = main([
            "run", "--out", str(tmp_path / "x"), "--csv", str(tmp_path / "nope.csv"),
            "--schema", str(tmp_path / "nope.json"),
        ])
        assert rc == 2

    def test_days_split_without_first_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"stream": {"split": {"kind": "days", "test": ["2024-01-02"]}}}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "days split" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "split",
        ["days", {"first": "0.1"}, {"first": -0.05, "train": 0.75, "test": 0.30}],
        ids=["split_not_object", "fraction_not_number", "negative_fraction"],
    )
    def test_malformed_split_is_usage_error(self, tmp_path, capsys, split):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"stream": {"split": split, "synthetic": {"n_records": 500}}}
        ))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "split" in capsys.readouterr().err


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _same_json_type(a, b) -> bool:
    """Whether ``b`` is a valid value where the config holds ``a``."""
    if isinstance(a, float):  # a number is a float; a non-finite float is not
        return type(b) in (int, float) and math.isfinite(b)
    return type(a) is type(b)


JSON_VALUES = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.integers(-3, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 5), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 5), max_size=2),
)


class TestConfig:
    @pytest.mark.parametrize(
        "doc",
        [
            {"engine": {"update_interval": "10"}},
            {"engine": {"update_interval": True}},
            {"engine": {"p1": math.nan}},
            {"scorer": {"learning_rate": 10**400}},
            {"engine": {"bogus": 1}},
            {"engine": "x"},
            {"scorer": {"hidden_size": "8"}},
            {"scorer": {"n_features": 3}},
            {"forest": {"max_features": "log2"}},
            {"forest": {"max_features": 0}},
            {"stream": {"synthetic": {"n_records": "500"}}},
            {"stream": {"synthetic": {"seed": 1.5}}},
            {"stream": {"source": "Csv"}},
            {"stream": {"source": "csv", "csv": {"path": "stream.csv"}}},
            {"stream": {"csv": {"path": 3}}},
            {"stream": {"split": {"first": 0.5}}},
            {"bogus": {}},
            [1],
            {"scorer": {"batch_size": 0}},
            {"scorer": {"learning_rate": 0}},
            {"scorer": {"epochs_update": -1}},
            {"scorer": {"hidden_size": 10**30}},
            {"scorer": {"hidden_size": 10**9}},
            {"engine": {"mode": "bogus"}},
            {"stream": {"synthetic": {"n_records": -1}}},
            {"stream": {"synthetic": {"n_records": 0}}},
            {"stream": {"synthetic": {"n_features": 0}}},
            {"stream": {"synthetic": {"anomaly_rate": 1.5}}},
            {"stream": {"synthetic": {"anomaly_rate": -0.1}}},
            {"stream": {"synthetic": {"normal_std": 0}}},
            {"stream": {"synthetic": {"normal_std": -1.0}}},
            {"stream": {"synthetic": {"anomaly_std_scale": 0}}},
            {"stream": {"synthetic": {"anomaly_burst": 0}}},
            {"stream": {"synthetic": {"drift_start": 1.5}}},
            {"stream": {"synthetic": {"drift_start": -0.5}}},
            {"engine": {"seed": -1}},
            {"scorer": {"seed": -2}},
            {"stream": {"synthetic": {"seed": -3}}},
            {"engine": {"buffer_capacity": 2**63}},
        ],
    )
    def test_bad_config_is_usage_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("source", [[], ["--csv", "stream.csv", "--schema", "schema.json"]],
                             ids=["synthetic", "csv"])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, source):
        def read(*args, **kwargs):
            pytest.fail("records were read before --seed was checked")

        monkeypatch.setattr(ingest, "synthetic_stream", read)
        monkeypatch.setattr(ingest, "load_csv", read)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--out", "x", "--seed", "-1", *source]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "seed" in err
        assert not (tmp_path / "x").exists()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_wrong_typed_leaf_is_usage_error(self, data):
        leaves = list(_leaves(SMALL_RUN_CONFIG))
        path, value = data.draw(st.sampled_from(leaves))
        wrong = data.draw(JSON_VALUES.filter(lambda v: not _same_json_type(value, v)))
        doc = json.loads(json.dumps(SMALL_RUN_CONFIG))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = wrong
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(doc))
            assert main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "x")]) == 1
        err = stderr.getvalue()
        assert err.startswith("usage error:") and path[-1] in err, (path, err)

    def test_run_config_round_trip(self, run_dir, tmp_path):
        doc = json.loads((run_dir / "run_config.json").read_text())
        assert doc["engine"]["mode"] == "adaptive"

        def settable(cls, *derived):
            return {f.name for f in dataclasses.fields(cls)} - set(derived)

        assert set(doc["engine"]) == settable(EngineConfig, "scorer", "forest")
        assert set(doc["scorer"]) == settable(ScorerConfig, "n_features")
        assert set(doc["forest"]) == settable(ForestConfig)
        assert set(doc["stream"]["synthetic"]) == settable(SyntheticConfig)
        assert doc["scorer"]["seed"] == doc["stream"]["synthetic"]["seed"] == 3
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "again"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("verdicts.csv", "thresholds.csv", "scorer.npz", "forest.json",
                     "run_config.json"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_mode_flag_overrides_config(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SMALL_RUN_CONFIG))
        doc["engine"]["mode"] = "fixed-threshold"
        doc["stream"]["synthetic"]["n_records"] = 1000
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        for flag, mode in (([], "fixed-threshold"), (["--mode", "adaptive"], "adaptive")):
            out = tmp_path / mode
            assert main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 0
            assert json.loads((out / "run_config.json").read_text())["engine"]["mode"] == mode
            assert f"mode={mode} " in capsys.readouterr().out


class TestEval:
    def test_eval_matches_run_metrics(self, run_dir, tmp_path, capsys):
        # rebuild the truth for the test slice from the generator
        from anomstream.ingest import SyntheticConfig, synthetic_stream

        synth = SMALL_RUN_CONFIG["stream"]["synthetic"]
        records = synthetic_stream(SyntheticConfig(**synth, seed=3))
        n = synth["n_records"]
        test_start = int(round(0.05 * n)) + int(round(0.65 * n))
        truth_path = tmp_path / "truth.csv"
        with truth_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "label"])
            for r in records[test_start:]:
                writer.writerow([r.index, r.truth.display])
        capsys.readouterr()
        assert main(["eval", "--verdicts", str(run_dir / "verdicts.csv"),
                     "--truth", str(truth_path)]) == 0
        assert capsys.readouterr().out == (run_dir / "metrics.csv").read_text()

    def test_eval_perfect_fixture(self, tmp_path, capsys):
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        with verdicts.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "loss", "route", "label", "t1", "t2", "score"])
            for i in range(8):
                label = "abnormal" if i < 2 else "normal"
                score = 0.9 if i < 2 else 0.1
                writer.writerow([i, score, "high_conf_abnormal" if i < 2 else "high_conf_normal",
                                 label, 0.5, 0.7, score])
        with truth.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "label"])
            for i in range(8):
                writer.writerow([i, "abnormal" if i < 2 else "normal"])
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(out[0].split(","), out[1].split(",")))
        assert values["far"] == "0.00"
        assert values["mdr"] == "0.00"
        assert values["spauc"] == "100.00"

    def test_eval_all_normal_log(self, tmp_path, capsys):
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        with verdicts.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "loss", "route", "label", "t1", "t2", "score"])
            for i in range(6):
                writer.writerow([i, 0.1 * i, "high_conf_normal", "normal", 0.9, "", 0.1 * i])
        with truth.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "label"])
            for i in range(6):
                writer.writerow([i, "abnormal" if i >= 3 else "normal"])
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(out[0].split(","), out[1].split(",")))
        assert values["mdr"] == "100.00"

    def test_eval_hand_built_confusion(self, tmp_path, capsys):
        # tp=3 fp=1 tn=4 fn=2: acc 70%, FAR 1/5, MDR 2/5 worked out by hand
        rows = [
            ("abnormal", "abnormal"), ("abnormal", "abnormal"), ("abnormal", "abnormal"),
            ("abnormal", "normal"),
            ("normal", "normal"), ("normal", "normal"), ("normal", "normal"), ("normal", "normal"),
            ("normal", "abnormal"), ("normal", "abnormal"),
        ]
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        with verdicts.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "loss", "route", "label", "t1", "t2", "score"])
            for i, (pred, _) in enumerate(rows):
                writer.writerow([i, 1.0, "high_conf_normal", pred, 2.0, 3.0, 0.5])
        with truth.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "label"])
            for i, (_, t) in enumerate(rows):
                writer.writerow([i, t])
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(out[0].split(","), out[1].split(",")))
        assert values["accuracy"] == "70.00"
        assert values["far"] == "20.00"
        assert values["mdr"] == "40.00"

    def test_misaligned_truth_is_data_error(self, tmp_path):
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        verdicts.write_text("index,loss,route,label,t1,t2,score\n0,1.0,classifier,normal,1,2,0.5\n")
        truth.write_text("index,label\n5,normal\n")
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 2

    @pytest.mark.parametrize(
        "verdict_log, truth_csv, named",
        [
            ("index,loss,route,label\n0,1.0,classifier,normal\n0,9.0,classifier,abnormal\n",
             "index,label\n0,normal\n", "verdicts.csv"),
            ("index,loss,route,label\n0,1.0,classifier,normal\n1,9.0,classifier,abnormal\n",
             "index,label\n1,abnormal\n0,normal\n1,abnormal\n", "truth.csv"),
        ],
        ids=["verdict-log", "truth"],
    )
    def test_repeated_index_is_data_error(self, tmp_path, capsys, verdict_log, truth_csv, named):
        # a log holding index 0 twice with conflicting labels would score whichever came last
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        verdicts.write_text(verdict_log)
        truth.write_text(truth_csv)
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "index " in err and named in err

    @pytest.mark.parametrize(
        "verdict_log, truth_csv, named",
        [
            ("loss,route,label,score\n1.0,classifier,normal,0.5\n", "index,label\n0,normal\n",
             "'index'"),
            ("index,route,label,score\n0,classifier,normal,0.5\n", "index,label\n0,normal\n",
             "'loss'"),
            ("index,loss,route,label\n0.5,1.0,classifier,normal\n", "index,label\n0,normal\n",
             "'0.5'"),
            ("index,loss,route,label\n0,1.0,classifier,Tor\n", "index,label\n0,normal\n",
             "'Tor'"),
            ("index,loss,route,label,score\n0,1.0,classifier,normal,high\n",
             "index,label\n0,normal\n", "'high'"),
            ("index,loss,route,label\n0,nan,classifier,normal\n", "index,label\n0,normal\n",
             "'nan'"),
            ("index,loss,route,label\n0,1.0,classifier,normal\n", "index,label\nx,normal\n",
             "'x'"),
            ("index,loss,route,label\n0,1.0,classifier,normal\n", "index,label\n0,Tor\n",
             "'Tor'"),
            ("index,loss,route,label,score\n0,1.0,classifier,normal,0.5\n"
             "1,9.0,classifier,normal,\n", "index,label\n0,normal\n1,abnormal\n", "'score'"),
        ],
        ids=["no-index-column", "no-loss-column", "float-index", "unknown-label", "text-score",
             "nan-loss", "text-truth-index", "unknown-truth-label", "empty-score"],
    )
    def test_bad_cell_or_header_is_data_error(self, tmp_path, capsys, verdict_log, truth_csv,
                                              named):
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        verdicts.write_text(verdict_log)
        truth.write_text(truth_csv)
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and named in err

    def test_log_without_score_column_ranks_by_loss(self, tmp_path, capsys):
        verdicts = tmp_path / "verdicts.csv"
        truth = tmp_path / "truth.csv"
        verdicts.write_text("index,loss,route,label\n0,1.0,classifier,normal\n"
                            "1,9.0,classifier,normal\n2,2.0,classifier,normal\n")
        truth.write_text("index,label\n0,normal\n1,abnormal\n2,normal\n")
        assert main(["eval", "--verdicts", str(verdicts), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert dict(zip(out[0].split(","), out[1].split(",")))["spauc"] == "100.00"


class TestFit:
    def test_lognormal_column(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        path = tmp_path / "losses.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["loss"])
            for v in rng.lognormal(0.3, 0.6, size=3000):
                writer.writerow([repr(float(v))])
        pp = tmp_path / "missing" / "pp.csv"  # --pp-out creates the directories it needs
        assert main(["fit", "--csv", str(path), "--column", "loss",
                     "--percentile", "0.98", "--pp-out", str(pp)]) == 0
        out = capsys.readouterr().out
        assert "family=lognormal" in out
        rows = list(csv.DictReader(open(pp)))
        assert list(rows[0]) == ["empirical", "theoretical"]
        assert len(rows) == 3000

    def test_bad_percentile_is_usage_error(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("loss\n1.0\n2.0\n")
        assert main(["fit", "--csv", str(path), "--column", "loss",
                     "--percentile", "1.5"]) == 1

    def test_empty_column_is_data_error(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("loss\n\n\n")
        assert main(["fit", "--csv", str(path), "--column", "loss",
                     "--percentile", "0.9"]) == 2

    def test_missing_column_is_data_error(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("other\n1.0\n")
        assert main(["fit", "--csv", str(path), "--column", "loss",
                     "--percentile", "0.9"]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, cell):
        path = tmp_path / "losses.csv"
        path.write_text(f"loss\n1.0\n2.0\n{cell}\n3.0\n")
        assert main(["fit", "--csv", str(path), "--column", "loss",
                     "--percentile", "0.9"]) == 2
        assert repr(cell) in capsys.readouterr().err

    @pytest.mark.parametrize("column, percentile", [
        ("1e308\n-1e308\n3", "0.5"),  # the normal's and logistic's variance overflows
        ("1e-300\n1e300\n1e300\n5e299", "0.99"),  # the lognormal's quantile overflows
    ])
    def test_overflowing_fit_is_data_error(self, tmp_path, capsys, column, percentile):
        path = tmp_path / "losses.csv"
        path.write_text(f"loss\n{column}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--csv", str(path), "--column", "loss",
                         "--percentile", percentile]) == 2
        assert capsys.readouterr().err.startswith("data error:")


class TestSynth:
    @pytest.mark.parametrize(
        "flags",
        [["--features", "0"], ["--n", "-1"], ["--rate", "nan"], ["--burst", "0"],
         ["--drift-start", "2"], ["--seed", "-1"]],
        ids=["no_features", "negative_n", "nan_rate", "zero_burst", "drift_start_past_end",
             "negative_seed"],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "stream.csv"
        assert main(["synth", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    def test_writes_csv_and_schema(self, tmp_path):
        out = tmp_path / "stream.csv"
        schema = tmp_path / "schema.json"
        assert main(["synth", "--out", str(out), "--n", "500", "--features", "4",
                     "--rate", "0.1", "--seed", "2", "--schema-out", str(schema)]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 500
        assert list(rows[0]) == ["f0", "f1", "f2", "f3", "label"]
        assert set(r["label"] for r in rows) == {"normal", "abnormal"}
        doc = json.loads(schema.read_text())
        assert doc["features"] == ["f0", "f1", "f2", "f3"]

    def test_synth_then_run_csv_source(self, tmp_path):
        stream = tmp_path / "stream.csv"
        schema = tmp_path / "schema.json"
        main(["synth", "--out", str(stream), "--n", "2500", "--features", "4",
              "--rate", "0.05", "--seed", "4", "--schema-out", str(schema)])
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "engine": {"update_interval": 300, "abnormal_warmup": 40, "seed": 5},
            "scorer": {"timestep": 3, "hidden_size": 6, "latent_size": 3,
                       "epochs_initial": 4, "epochs_update": 1},
            "forest": {"n_estimators": 6, "max_depth": 5},
            "stream": {"split": {"kind": "fractions", "first": 0.05,
                                 "train": 0.65, "test": 0.30}},
        }))
        out = tmp_path / "run"
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--csv", str(stream), "--schema", str(schema)])
        assert rc == 0
        assert (out / "verdicts.csv").exists()
        assert (out / "metrics.txt").exists()


    def test_csv_round_trip_is_exact(self, tmp_path):
        out, schema = tmp_path / "stream.csv", tmp_path / "schema.json"
        assert main(["synth", "--out", str(out), "--n", "700", "--features", "5", "--rate", "0.1",
                     "--burst", "3", "--drift", "1.5", "--seed", "8",
                     "--schema-out", str(schema)]) == 0
        loaded = ingest.load_csv(out, ingest.CsvSchema.from_json(schema))
        expected = ingest.synthetic_stream(SyntheticConfig(
            n_records=700, n_features=5, anomaly_rate=0.1, anomaly_burst=3, drift_magnitude=1.5,
            seed=8))
        assert loaded.rejected == 0
        assert loaded.records.features.tobytes() == expected.features.tobytes()
        assert loaded.records.truth.tobytes() == expected.truth.tobytes()
        assert loaded.records.index.tolist() == list(range(700))


class TestDaysSplit:
    """A days split end to end: the train days, then the test days, each in stream order."""

    DAYS = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"]

    def test_run_replays_train_then_test_days(self, tmp_path, capsys, monkeypatch):
        stream = ingest.synthetic_stream(SyntheticConfig(
            n_records=800, n_features=3, anomaly_rate=0.05, anomaly_burst=5, seed=6))
        # 50-row blocks cycle through the days, so every split part is interleaved with the others
        days = [self.DAYS[(i // 50) % 4] for i in range(len(stream))]
        with (tmp_path / "stream.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["f0", "f1", "f2", "label", "ts"])
            for i, (r, day) in enumerate(zip(stream, days)):
                writer.writerow([*map(repr, r.features.tolist()), r.truth.display,
                                 f"{day}{'T' if i % 2 else ' '}10:{i % 60:02d}"])
        (tmp_path / "schema.json").write_text(json.dumps({
            "features": ["f0", "f1", "f2"], "label": "label", "timestamp": "ts",
            "label_map": {"normal": "normal", "abnormal": "abnormal"}}))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "engine": {"update_interval": 150, "abnormal_warmup": 10, "seed": 2},
            "scorer": {"timestep": 3, "hidden_size": 4, "latent_size": 2,
                       "epochs_initial": 2, "epochs_update": 1},
            "forest": {"n_estimators": 4, "max_depth": 4},
            "stream": {"source": "csv", "csv": {"path": "stream.csv", "schema": "schema.json"},
                       "split": {"kind": "days", "first": ["2020-01-02"],
                                 "test": ["2020-01-01", "2020-01-04"]}},
        }))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", "config.json", "--out", "run"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "run" / "verdicts.csv")))
        train = [i for i, day in enumerate(days) if day == "2020-01-03"]
        test = [i for i, day in enumerate(days) if day in ("2020-01-01", "2020-01-04")]
        assert [int(row["index"]) for row in rows] == train + test

        with (tmp_path / "truth.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "label"])
            writer.writerows([i, stream[i].truth.display] for i in test)
        capsys.readouterr()
        assert main(["eval", "--verdicts", "run/verdicts.csv", "--truth", "truth.csv"]) == 0
        assert capsys.readouterr().out == (tmp_path / "run" / "metrics.csv").read_text()


class TestInputFiles:
    """Each input path the CLI opens: a directory or bytes that are not UTF-8 are typed errors."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "stream.csv").write_text("f0,label\n1.0,normal\n2.0,abnormal\n")
        (tmp_path / "schema.json").write_text(
            json.dumps({"features": ["f0"], "label": "label",
                        "label_map": {"normal": "normal", "abnormal": "abnormal"}})
        )
        (tmp_path / "verdicts.csv").write_text("index,loss,label\n0,1.0,normal\n")
        (tmp_path / "truth.csv").write_text("index,label\n0,normal\n")
        (tmp_path / "loss.csv").write_text("loss\n1.0\n2.0\n")
        return tmp_path

    # {d} is the directory of the inputs, {} the path under test
    COMMANDS = {
        "run-config": ["run", "--config", "{d}/{}", "--out", "{d}/out"],
        "run-csv": ["run", "--csv", "{d}/{}", "--schema", "{d}/schema.json", "--out", "{d}/out"],
        "run-schema": ["run", "--csv", "{d}/stream.csv", "--schema", "{d}/{}", "--out", "{d}/out"],
        "eval-verdicts": ["eval", "--verdicts", "{d}/{}", "--truth", "{d}/truth.csv"],
        "eval-truth": ["eval", "--verdicts", "{d}/verdicts.csv", "--truth", "{d}/{}"],
        "fit-csv": ["fit", "--csv", "{d}/{}", "--column", "loss", "--percentile", "0.9"],
    }

    def _main(self, inputs, command, path):
        return main([arg.format(path, d=inputs) for arg in self.COMMANDS[command]])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_directory_is_a_typed_error(self, inputs, capsys, command):
        code, kind = (1, "usage error:") if command == "run-config" else (2, "data error:")
        assert self._main(inputs, command, "dir") == code
        err = capsys.readouterr().err
        assert err.startswith(kind) and "not found" in err and "dir" in err

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "run-config"])
    @pytest.mark.parametrize("content", [b"\xff\xfeindex,loss\n", b"index,loss\n0,\xff\n"],
                             ids=["bom", "mid-file"])
    def test_file_that_is_not_utf8_is_a_data_error(self, inputs, capsys, command, content):
        (inputs / "bad.txt").write_bytes(content)
        assert self._main(inputs, command, "bad.txt") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "bad.txt" in err

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c not in ("run-config",
                                                                          "run-schema")])
    def test_oversized_csv_cell_is_a_data_error(self, inputs, capsys, command):
        # a cell past csv.field_size_limit() makes the reader raise csv.Error
        cell = "1" * (csv.field_size_limit() + 10)
        (inputs / "big.csv").write_text(f"index,loss,label,f0\n0,{cell},normal,1.0\n")
        assert self._main(inputs, command, "big.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "big.csv" in err and "field" in err

    @pytest.mark.parametrize("content", ["{not json", ""], ids=["broken", "empty"])
    def test_schema_that_is_not_json_is_a_data_error(self, inputs, capsys, content):
        (inputs / "bad.json").write_text(content)
        assert self._main(inputs, "run-schema", "bad.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "bad.json" in err


class TestOutPath:
    """A bad output path is a usage error, raised before any input is read or written."""

    @pytest.fixture(autouse=True)
    def no_records(self, monkeypatch):
        def read(*args, **kwargs):
            pytest.fail("input was read before the output paths were checked")

        monkeypatch.setattr(ingest, "synthetic_stream", read)
        monkeypatch.setattr(ingest, "load_csv", read)
        monkeypatch.setattr(ingest, "open_text", read)

    # {} is a file holding "keep" and {d} an empty directory
    COMMANDS = {
        "run-out-is-a-file": ["run", "--config", "{cfg}", "--out", "{}"],
        "run-out-under-a-file": ["run", "--config", "{cfg}", "--out", "{}/run"],
        "synth-out-is-a-directory": ["synth", "--out", "{d}", "--n", "10"],
        "synth-out-under-a-file": ["synth", "--out", "{}/stream.csv", "--n", "10"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_out_is_a_usage_error(self, tmp_path, capsys, command):
        cfg, afile, adir = tmp_path / "config.json", tmp_path / "afile", tmp_path / "adir"
        cfg.write_text(json.dumps(SMALL_RUN_CONFIG))
        afile.write_text("keep")
        adir.mkdir()
        argv = [arg.format(afile, cfg=cfg, d=adir) for arg in self.COMMANDS[command]]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert afile.read_text() == "keep" and not any(adir.iterdir())

    # the output flags besides --out; {csv} is a loss column and {s} the synth stream CSV
    FLAGS = {
        "fit-pp-out-is-a-directory":
            ["fit", "--csv", "{csv}", "--column", "loss", "--percentile", "0.9",
             "--pp-out", "{d}"],
        "fit-pp-out-under-a-file":
            ["fit", "--csv", "{csv}", "--column", "loss", "--percentile", "0.9",
             "--pp-out", "{}/pp.csv"],
        "synth-schema-out-is-a-directory":
            ["synth", "--out", "{s}", "--n", "10", "--schema-out", "{d}"],
        "synth-schema-out-under-a-file":
            ["synth", "--out", "{s}", "--n", "10", "--schema-out", "{}/schema.json"],
    }

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_bad_output_flag_is_a_usage_error(self, tmp_path, capsys, command):
        afile, adir, stream = tmp_path / "afile", tmp_path / "adir", tmp_path / "stream.csv"
        column = tmp_path / "loss.csv"
        column.write_text("loss\n1.0\n2.0\n3.0\n")
        afile.write_text("keep")
        adir.mkdir()
        argv = [arg.format(afile, d=adir, s=stream, csv=column) for arg in self.FLAGS[command]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and argv[-2] in err
        assert afile.read_text() == "keep" and not any(adir.iterdir())
        assert not stream.exists()


class TestModuleEntryPoint:
    def test_python_dash_m_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "anomstream", "fit", "--csv", "missing.csv",
             "--column", "loss", "--percentile", "0.9"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "data error" in proc.stderr


BLAS_RUN_CONFIG = {
    "engine": {"update_interval": 150, "abnormal_warmup": 20, "seed": 2},
    "scorer": {"epochs_initial": 2, "epochs_update": 1},
    "forest": {"n_estimators": 4, "max_depth": 4},
    "stream": {
        "source": "synthetic",
        "split": {"kind": "fractions", "first": 0.2, "train": 0.5, "test": 0.3},
        "synthetic": {"n_records": 700, "n_features": 39, "anomaly_rate": 0.05},
    },
}

# Trains the 39-feature case at the default geometry, then runs the detector
# (whose streaming step is a T-row GEMM) on a short synthetic stream.
BLAS_SCRIPT = """
import sys
import numpy as np
from anomstream.cli import main
from anomstream.scorer import LstmVaeScorer, ScorerConfig
out = sys.argv[1]
windows = np.random.default_rng(3).uniform(size=(110, 30, 39))
LstmVaeScorer(ScorerConfig(n_features=39, seed=3)).train(windows, epochs=2).save(out + "/trained.npz")
sys.exit(main(["run", "--config", out + "/config.json", "--out", out + "/run"]))
"""


class TestBlasThreads:
    def test_same_bytes_at_any_thread_count(self, tmp_path):
        src = str(Path(anomstream.__file__).resolve().parents[1])
        outputs = {}
        for threads in (1, 2, 4):
            out = tmp_path / str(threads)
            out.mkdir()
            (out / "config.json").write_text(json.dumps(BLAS_RUN_CONFIG))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-c", BLAS_SCRIPT, str(out)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            arrays = {}
            for name in ("trained.npz", "run/scorer.npz"):
                with np.load(out / name) as data:
                    arrays.update({f"{name}:{k}": data[k] for k in data.files})
            outputs[threads] = arrays, (out / "run" / "verdicts.csv").read_bytes()
        arrays, verdicts = outputs[1]
        for threads in (2, 4):
            other, other_verdicts = outputs[threads]
            assert other.keys() == arrays.keys()
            for k, v in arrays.items():
                assert np.array_equal(other[k], v), (threads, k)
            assert other_verdicts == verdicts, threads

"""Command-line interface: replay runs, threshold fitting, evaluation.

Subcommands:
  run    bootstrap on a first-round slice, replay the stream through the
         online engine, and write verdicts/thresholds/metrics/checkpoints
  fit    fit the best loss distribution to one CSV column and report the
         quantile threshold, emitting probability-plot data
  eval   score a verdict log against a ground-truth CSV
  synth  emit a seeded synthetic feature stream as CSV

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import engine as engine_mod
from . import ingest, metrics as metrics_mod, thresholds
from .errors import (
    AnomstreamError,
    InvalidPercentileError,
    LengthMismatchError,
    NonFiniteError,
)
from .forest import ForestConfig, save_forest, vote_fraction
from .ingest import CsvSchema, SyntheticConfig
from .labels import Label
from .scorer import LstmVaeScorer, ScorerConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MODES = ("adaptive", "fixed-threshold", "scorer-only", "initial-only", "offline")

VERDICT_COLUMNS = ("index", "loss", "route", "label", "t1", "t2", "score")


class UsageError(Exception):
    """Bad flags or config; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse failures on our exit-code scheme
        raise UsageError(message)


def _fmt_float(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


# --------------------------------------------------------------------- config


_DEFAULT_CONFIG = {
    "engine": {
        "p1": 0.98,
        "p2": 0.10,
        "abnormal_warmup": 500,
        "update_interval": 6400,
        "buffer_capacity": 5000,
        "seed": 0,
    },
    "scorer": {
        "timestep": 30,
        "hidden_size": 64,
        "latent_size": 32,
        "learning_rate": 1e-3,
        "batch_size": 32,
        "epochs_initial": 30,
        "epochs_update": 5,
    },
    "forest": {
        "n_estimators": 40,
        "max_depth": 16,
        "min_samples_split": 2,
        "max_features": "sqrt",
    },
    "stream": {
        "source": "synthetic",
        "split": {"kind": "fractions", "first": 0.01, "train": 0.69, "test": 0.30},
        "synthetic": {"n_records": 100000},
        "csv": {},
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_run_config(args) -> dict:
    config = copy.deepcopy(_DEFAULT_CONFIG)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        config = _merge(config, json.loads(path.read_text(encoding="utf-8")))
    if args.seed is not None:
        config["engine"]["seed"] = args.seed
    if args.csv:
        config["stream"]["source"] = "csv"
        config["stream"]["csv"]["path"] = args.csv
    if args.schema:
        config["stream"]["csv"]["schema"] = args.schema
    if args.synthetic:
        config["stream"]["source"] = "synthetic"
    return config


def _split_records(records, split_cfg):
    """Split by ``split_cfg``, which ``_DEFAULT_CONFIG`` has filled in."""
    if not isinstance(split_cfg, dict):
        raise UsageError(f"stream.split must be an object, got {split_cfg!r}")
    kind = split_cfg["kind"]
    if kind == "fractions":
        fractions = [split_cfg[key] for key in ("first", "train", "test")]
        if not all(
            isinstance(f, (int, float)) and not isinstance(f, bool) and math.isfinite(f)
            for f in fractions
        ):
            raise UsageError("a fractions split needs finite numbers 'first', 'train' and 'test'")
        return ingest.split_fractions(records, *fractions)
    if kind == "days":
        # the fraction defaults are merged in too: a missing list reads as a number
        first, test = split_cfg["first"], split_cfg["test"]
        if not (isinstance(first, list) and isinstance(test, list)):
            raise UsageError("a days split needs 'first' and 'test' lists of dates")
        return ingest.split_days(records, first, test)
    raise UsageError(f"unknown split kind: {kind!r}")


# ------------------------------------------------------------------------ run


class _RunRecorder:
    """Collects the verdicts and the threshold trajectory from engine events.

    Each verdict carries the thresholds in force when its record was routed
    (the engine emits it before any phase transition the record triggers).
    """

    def __init__(self):
        self.verdicts: list[engine_mod.Verdict] = []
        self.threshold_rows = []  # (samples_seen, event, t1, t2)

    def sink(self, event):
        if isinstance(event, engine_mod.Verdict):
            self.verdicts.append(event)
        elif isinstance(event, engine_mod.RetrainReport):
            self.threshold_rows.append(
                (event.samples_seen, "retrain", event.new_t1, event.new_t2)
            )
        elif isinstance(event, engine_mod.PhaseTransitionEvent):
            self.threshold_rows.append((event.samples_seen, "phase_transition", None, event.t2))


def _composite_scores(verdicts) -> np.ndarray:
    losses = np.array([v.loss for v in verdicts], dtype=float)
    routes = np.array([v.route.value for v in verdicts], dtype=object)
    votes = np.array(
        [vote_fraction(v.votes) if v.votes is not None else np.nan for v in verdicts],
        dtype=float,
    )
    return metrics_mod.composite_scores(losses, routes, votes)


def _write_verdicts(path: Path, verdicts, scores: np.ndarray) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(VERDICT_COLUMNS)
        for v, score in zip(verdicts, scores):
            writer.writerow(
                [v.index, _fmt_float(v.loss), v.route.value, v.label.display,
                 _fmt_float(v.t1), _fmt_float(v.t2), _fmt_float(score)]
            )


def _write_thresholds(path: Path, recorder: _RunRecorder) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["samples_seen", "event", "t1", "t2"])
        for samples_seen, event, t1, t2 in recorder.threshold_rows:
            writer.writerow([samples_seen, event, _fmt_float(t1), _fmt_float(t2)])


def _evaluate_slice(verdicts, scores: np.ndarray, test_records) -> dict | None:
    """Metrics of the test slice: the last ``len(test_records)`` verdicts.

    Every record yields one verdict in stream order, and the test slice is
    replayed last.
    """
    start = len(verdicts) - len(test_records)
    rows = [
        (v.label, r.truth, score)
        for v, r, score in zip(verdicts[start:], test_records, scores[start:])
        if r.truth is not None
    ]
    if not rows:
        return None
    predicted, truth, slice_scores = zip(*rows)
    return metrics_mod.evaluate(list(predicted), list(truth), np.array(slice_scores))


def _run_engine(config: dict, mode: str, out_dir: Path) -> dict | None:
    stream_cfg = config["stream"]
    if stream_cfg["source"] == "csv":
        csv_cfg = stream_cfg["csv"]
        if "path" not in csv_cfg or "schema" not in csv_cfg:
            raise UsageError("csv source needs both a path and a schema")
        schema = CsvSchema.from_json(csv_cfg["schema"])
        records = ingest.load_csv(csv_cfg["path"], schema).records
    else:
        synth_cfg = dict(stream_cfg["synthetic"])
        synth_seed = synth_cfg.pop("seed", config["engine"]["seed"])
        records = ingest.synthetic_stream(SyntheticConfig(**synth_cfg), seed=synth_seed)

    first, train, test = _split_records(records, stream_cfg["split"])
    if not first or not (train or test):
        raise UsageError("split produced an empty partition")

    normalizer = ingest.fit_normalizer(first)
    first_n = ingest.normalize_records(first, normalizer)
    train_n = ingest.normalize_records(train, normalizer)
    test_n = ingest.normalize_records(test, normalizer)

    seed = config["engine"]["seed"]
    scorer_over = dict(config["scorer"])
    scorer_over.pop("n_features", None)  # geometry comes from the normalizer
    scorer_seed = scorer_over.pop("seed", seed)
    scorer_cfg = ScorerConfig(
        n_features=normalizer.n_features, seed=scorer_seed, **scorer_over
    )
    forest_cfg = ForestConfig(**config["forest"])
    engine_cfg = engine_mod.EngineConfig(
        scorer=scorer_cfg, forest=forest_cfg, **config["engine"]
    )

    recorder = _RunRecorder()
    scorer = None
    adapt_thresholds = adapt_scorer = two_layer = True
    if mode == "fixed-threshold":
        adapt_thresholds = False
    elif mode == "scorer-only":
        two_layer = False
    elif mode == "initial-only":
        adapt_scorer = False
    elif mode == "offline":
        scorer = LstmVaeScorer(scorer_cfg)
        offline_windows = ingest.windows(
            np.asarray([r.features for r in first_n + train_n]), scorer_cfg.timestep
        )
        logger.info("offline pretraining on %d windows", len(offline_windows))
        scorer.train(offline_windows, scorer_cfg.epochs_initial)
        adapt_scorer = False

    detector = engine_mod.OnlineAnomalyDetector(
        engine_cfg,
        scorer=scorer,
        adapt_thresholds=adapt_thresholds,
        adapt_scorer=adapt_scorer,
        two_layer=two_layer,
        sink=recorder.sink,
    )
    detector.bootstrap([r.to_stream() for r in first_n])
    recorder.threshold_rows.append(
        (0, "bootstrap", detector.thresholds.t1, detector.thresholds.t2)
    )

    for record in train_n + test_n:
        detector.process(record.to_stream())
        detector.maybe_retrain()

    out_dir.mkdir(parents=True, exist_ok=True)
    scores = _composite_scores(recorder.verdicts)
    _write_verdicts(out_dir / "verdicts.csv", recorder.verdicts, scores)
    _write_thresholds(out_dir / "thresholds.csv", recorder)
    if hasattr(detector.scorer, "save"):
        detector.scorer.save(out_dir / "scorer.npz")
    if detector.forest is not None:
        save_forest(detector.forest, out_dir / "forest.json")
    (out_dir / "run_config.json").write_text(
        json.dumps({"mode": mode, **config}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    report = _evaluate_slice(recorder.verdicts, scores, test_n)
    if report is not None:
        (out_dir / "metrics.txt").write_text(
            metrics_mod.report_text(report), encoding="utf-8"
        )
        (out_dir / "metrics.csv").write_text(
            metrics_mod.report_csv(report), encoding="utf-8"
        )
    else:
        logger.info("no ground truth in the test slice; metrics skipped")
    return report


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    if args.mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {args.mode!r}")
    report = _run_engine(config, args.mode, Path(args.out))
    print(f"run complete: mode={args.mode} out={args.out}")
    if report is not None:
        sys.stdout.write(metrics_mod.report_text(report))
    return EXIT_OK


# ------------------------------------------------------------------------ fit


def _read_column(path: Path, column: str) -> np.ndarray:
    if not path.exists():
        raise ingest.MissingFileError(f"input file not found: {path}")
    values = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if not reader.fieldnames or column not in reader.fieldnames:
            raise ingest.SchemaMismatchError(f"column {column!r} not in {path.name}")
        for row in reader:
            cell = row[column]
            if cell is None or cell.strip() == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ingest.SchemaMismatchError(
                    f"non-numeric or non-finite value {cell!r} in column {column!r}"
                )
            values.append(value)
    return np.asarray(values, dtype=float)


def _cmd_fit(args) -> int:
    if not 0.0 < args.percentile < 1.0:
        raise InvalidPercentileError(
            f"percentile must lie in (0, 1), got {args.percentile}"
        )
    sample = _read_column(Path(args.csv), args.column)
    threshold, fit = thresholds.adaptive_threshold(sample, args.percentile)
    print(f"family={fit.family.value}")
    print(f"location={fit.location!r}")
    print(f"scale={fit.scale!r}")
    print(f"ks_statistic={fit.gof!r}")
    print(f"threshold={threshold!r}")
    if args.pp_out:
        points = thresholds.pp_points(sample, fit)
        with Path(args.pp_out).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["empirical", "theoretical"])
            for emp, theo in points:
                writer.writerow([_fmt_float(emp), _fmt_float(theo)])
    return EXIT_OK


# ----------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    verdict_path = Path(args.verdicts)
    truth_path = Path(args.truth)
    for p in (verdict_path, truth_path):
        if not p.exists():
            raise ingest.MissingFileError(f"input file not found: {p}")

    by_index = {}
    with verdict_path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            by_index[int(row["index"])] = row

    predicted, truth, scores = [], [], []
    missing_score = False
    with truth_path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if not reader.fieldnames or "index" not in reader.fieldnames or "label" not in reader.fieldnames:
            raise ingest.SchemaMismatchError("truth CSV needs 'index' and 'label' columns")
        for row in reader:
            idx = int(row["index"])
            if idx not in by_index:
                raise LengthMismatchError(f"truth index {idx} missing from verdict log")
            v = by_index[idx]
            predicted.append(Label.from_name(v["label"]))
            truth.append(Label.from_name(row["label"]))
            if v.get("score"):
                scores.append(float(v["score"]))
            else:
                missing_score = True
                scores.append(float(v["loss"]))
    if not truth:
        raise ingest.EmptyAfterFilteringError("truth CSV has no rows")
    s = np.asarray(scores, dtype=float)
    if missing_score:
        lo, hi = float(np.min(s)), float(np.max(s))
        s = (s - lo) / (hi - lo) if hi > lo else np.zeros_like(s)
    report = metrics_mod.evaluate(predicted, truth, s)
    sys.stdout.write(metrics_mod.report_csv(report))
    return EXIT_OK


# ---------------------------------------------------------------------- synth


def _cmd_synth(args) -> int:
    config = SyntheticConfig(
        n_records=args.n,
        n_features=args.features,
        anomaly_rate=args.rate,
        anomaly_shift=args.shift,
        anomaly_burst=args.burst,
        drift_magnitude=args.drift,
        drift_start=args.drift_start,
    )
    records = ingest.synthetic_stream(config, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    feature_names = [f"f{i}" for i in range(config.n_features)]
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(feature_names + ["label"])
        for r in records:
            writer.writerow([_fmt_float(v) for v in r.features] + [r.truth.display])
    if args.schema_out:
        schema = CsvSchema(
            feature_columns=feature_names,
            label_column="label",
            label_map={"normal": Label.NORMAL, "abnormal": Label.ABNORMAL},
        )
        schema.to_json(args.schema_out)
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


# ----------------------------------------------------------------------- main


def _build_parser() -> _Parser:
    parser = _Parser(prog="anomstream", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a stream through the online engine")
    run.add_argument("--config", help="JSON run config; flags override its values")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--mode", default="adaptive", help=f"one of {', '.join(MODES)}")
    run.add_argument("--csv", help="feature CSV path (overrides config source)")
    run.add_argument("--schema", dest="schema", help="schema JSON for --csv")
    run.add_argument("--synthetic", action="store_true",
                     help="use the synthetic generator from the config")
    run.set_defaults(func=_cmd_run)

    fit = sub.add_parser("fit", help="fit loss distributions to a CSV column")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--column", required=True)
    fit.add_argument("--percentile", type=float, required=True)
    fit.add_argument("--pp-out", help="write P-P plot data CSV here")
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("eval", help="evaluate a verdict log against ground truth")
    ev.add_argument("--verdicts", required=True)
    ev.add_argument("--truth", required=True)
    ev.set_defaults(func=_cmd_eval)

    synth = sub.add_parser("synth", help="emit a synthetic stream CSV")
    synth.add_argument("--out", required=True)
    synth.add_argument("--n", type=int, default=100000)
    synth.add_argument("--features", type=int, default=8)
    synth.add_argument("--rate", type=float, default=0.015)
    synth.add_argument("--shift", type=float, default=4.0,
                       help="anomaly mean shift in standard deviations")
    synth.add_argument("--burst", type=int, default=1,
                       help="records per anomalous episode")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--drift", type=float, default=0.0)
    synth.add_argument("--drift-start", type=float, default=0.5)
    synth.add_argument("--schema-out")
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidPercentileError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AnomstreamError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

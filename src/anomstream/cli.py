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
import csv
import dataclasses
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


def _checked(section, where: str, keys, kind=object) -> dict:
    """``section`` if it is a JSON object whose keys are in ``keys`` and values ``kind``s."""
    if not isinstance(section, dict):
        raise UsageError(f"{where} must be an object, got {section!r}")
    for key, value in section.items():
        if key not in keys:
            raise UsageError(f"unknown key {key!r} in {where}; it takes {list(keys)}")
        if not isinstance(value, kind):
            raise UsageError(f"{where}.{key} must be {kind.__name__}, got {value!r}")
    return section


def _build(cls, section, where: str, **derived):
    """``cls`` from its JSON ``section`` and the ``derived`` fields; defaults are the class's."""
    settable = [f.name for f in dataclasses.fields(cls) if f.name not in derived]
    try:
        return cls(**_checked(section, where, settable), **derived)
    except ValueError as exc:  # a type or range check in __post_init__
        raise UsageError(f"{where}: {exc}") from None


def _number(value) -> bool:  # a finite JSON number; a bool is none, nor an int past any float
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _resolve_split(split) -> dict:
    """``stream.split`` with its defaults filled in, checked before any record is read."""
    split = {"kind": "fractions", "first": 0.01, "train": 0.69, "test": 0.30,
             **_checked(split, "stream.split", ("kind", "first", "train", "test"))}
    if split["kind"] == "fractions":
        if not all(_number(split[key]) for key in ("first", "train", "test")):
            raise UsageError("a fractions split needs finite numbers 'first', 'train' and 'test'")
        _split_records([], split)  # no records: only split_fractions' own checks run
    elif split["kind"] == "days":
        # the fraction defaults are filled in too: a missing list reads as a number
        days = split["first"], split["test"]
        if not _number(split["train"]) or not all(
                isinstance(d, list) and all(isinstance(day, str) for day in d) for d in days):
            raise UsageError("a days split needs 'first' and 'test' lists of dates, and a "
                             "number 'train' if given")
    else:
        raise UsageError(f"stream.split.kind must be 'fractions' or 'days', got {split['kind']!r}")
    return split


def _split_records(records, split: dict):
    """The first-round, train and test selectors of ``records``: three slices or three masks."""
    if split["kind"] == "days":
        return ingest.split_days(records, split["first"], split["test"])
    return ingest.split_fractions(records, split["first"], split["train"], split["test"])


@dataclasses.dataclass
class _RunConfig:
    """A checked ``run`` config; ``engine.scorer.n_features`` is 1 until the records are read."""

    engine: engine_mod.EngineConfig
    stream: dict  # "source", "csv" and "split"
    synthetic: SyntheticConfig

    def to_json(self) -> dict:
        """Every settable field with its value; reads back as the same config."""
        engine = dataclasses.asdict(self.engine)
        scorer, forest = engine.pop("scorer"), engine.pop("forest")
        del scorer["n_features"]  # the normalizer's, not settable
        stream = {**self.stream, "synthetic": dataclasses.asdict(self.synthetic)}
        return {"engine": engine, "scorer": scorer, "forest": forest, "stream": stream}


def _load_run_config(args) -> _RunConfig:
    """The config file and flags of ``args``, all checked before any record is read."""
    doc = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found or not a file: {path}")
        doc = json.loads(path.read_text(encoding="utf-8"))
    doc = _checked(doc, "config", ("engine", "scorer", "forest", "stream"), dict)
    flags = {k: v for k, v in (("seed", args.seed), ("mode", args.mode)) if v is not None}
    engine = _build(engine_mod.EngineConfig, {**doc.get("engine", {}), **flags}, "engine",
                    scorer=None, forest=_build(ForestConfig, doc.get("forest", {}), "forest"))
    # scorer.seed and stream.synthetic.seed default to engine.seed
    scorer = {"seed": engine.seed, **doc.get("scorer", {})}
    engine.scorer = _build(ScorerConfig, scorer, "scorer", n_features=1)

    stream = _checked(doc.get("stream", {}), "stream", ("source", "split", "synthetic", "csv"))
    csv_doc = dict(_checked(stream.get("csv", {}), "stream.csv", ("path", "schema"), str))
    csv_doc.update((key, flag) for key, flag in (("path", args.csv), ("schema", args.schema)) if flag)
    source = "csv" if args.csv else stream.get("source", "synthetic")
    if source not in ("synthetic", "csv"):
        raise UsageError(f"stream.source must be 'synthetic' or 'csv', got {source!r}")
    if source == "csv" and not {"path", "schema"} <= csv_doc.keys():
        raise UsageError("csv source needs both a path and a schema")
    synthetic = _build(SyntheticConfig, {"seed": engine.seed, **stream.get("synthetic", {})},
                       "stream.synthetic")
    stream = {"source": source, "csv": csv_doc, "split": _resolve_split(stream.get("split", {}))}
    return _RunConfig(engine, stream, synthetic)


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


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _evaluate_slice(verdicts, scores: np.ndarray, test: ingest.Stream) -> dict | None:
    """Metrics of the test slice's rows with truth. Its verdicts are the last ``len(test)``:
    every record yields one verdict in stream order, and the test slice is replayed last."""
    start = len(verdicts) - len(test)
    known = test.truth >= 0
    if not known.any():
        return None
    predicted = [v.label for v, k in zip(verdicts[start:], known) if k]
    return metrics_mod.evaluate(predicted, test.truth[known], scores[start:][known])


def _run_engine(config: _RunConfig, out_dir: Path) -> dict | None:
    if config.stream["source"] == "csv":
        schema = CsvSchema.from_json(config.stream["csv"]["schema"])
        stream = ingest.load_csv(config.stream["csv"]["path"], schema).records
    else:
        stream = ingest.synthetic_stream(config.synthetic)

    parts = _split_records(stream, config.stream["split"])
    sizes = [len(stream.index[part]) for part in parts]
    if not sizes[0] or not (sizes[1] or sizes[2]):
        raise UsageError("split produced an empty partition")

    normalizer = ingest.fit_normalizer(stream[parts[0]])
    stream = ingest.normalize_records(stream, normalizer)  # the raw features are dropped here
    first, train, test = (stream[part] for part in parts)

    scorer_cfg = dataclasses.replace(config.engine.scorer, n_features=normalizer.n_features)
    engine_cfg = dataclasses.replace(config.engine, scorer=scorer_cfg)

    recorder = _RunRecorder()
    scorer = None
    if engine_cfg.mode == "offline":
        scorer = LstmVaeScorer(scorer_cfg)
        rows = np.concatenate((first.features, train.features))
        offline_windows = ingest.windows(rows, scorer_cfg.timestep)
        logger.info("offline pretraining on %d windows", len(offline_windows))
        scorer.train(offline_windows, scorer_cfg.epochs_initial)

    detector = engine_mod.OnlineAnomalyDetector(engine_cfg, scorer=scorer, sink=recorder.sink)
    detector.bootstrap([r.to_stream() for r in first])
    recorder.threshold_rows.append((0, "bootstrap", detector.thresholds.t1, detector.thresholds.t2))

    for part in (train, test):
        for index, features in zip(part.index.tolist(), part.features):
            detector.process(ingest.StreamRecord(index=index, features=features))
            detector.maybe_retrain()

    scores = _composite_scores(recorder.verdicts)
    _write_csv(out_dir / "verdicts.csv", VERDICT_COLUMNS, (
        [v.index, _fmt_float(v.loss), v.route.value, v.label.display,
         _fmt_float(v.t1), _fmt_float(v.t2), _fmt_float(score)]
        for v, score in zip(recorder.verdicts, scores)
    ))
    _write_csv(out_dir / "thresholds.csv", ["samples_seen", "event", "t1", "t2"], (
        [samples_seen, event, _fmt_float(t1), _fmt_float(t2)]
        for samples_seen, event, t1, t2 in recorder.threshold_rows
    ))
    detector.scorer.save(out_dir / "scorer.npz")
    if detector.forest is not None:
        save_forest(detector.forest, out_dir / "forest.json")
    (out_dir / "run_config.json").write_text(
        json.dumps(config.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    report = _evaluate_slice(recorder.verdicts, scores, test)
    if report is not None:
        (out_dir / "metrics.txt").write_text(metrics_mod.report_text(report), encoding="utf-8")
        (out_dir / "metrics.csv").write_text(metrics_mod.report_csv(report), encoding="utf-8")
    else:
        logger.info("no ground truth in the test slice; metrics skipped")
    return report


def _out_path(path: str, flag: str, directory: bool = False) -> Path:
    """The output path given to ``flag``, checked before any work, with its directories created.

    A path that cannot be created, or a directory given for a file (or a
    file for a directory), is a usage error.
    """
    out = Path(path)
    try:
        (out if directory else out.parent).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission
        raise UsageError(f"cannot create {flag} {out}: {exc}") from None
    if not directory and out.is_dir():
        raise UsageError(f"{flag} {out} is a directory, not a file")
    return out


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    report = _run_engine(config, _out_path(args.out, "--out", directory=True))
    print(f"run complete: mode={config.engine.mode} out={args.out}")
    if report is not None:
        sys.stdout.write(metrics_mod.report_text(report))
    return EXIT_OK


# ------------------------------------------------------------------------ fit


def _table(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """The rows of a CSV whose header names every one of ``columns``."""
    with ingest.open_text(path) as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ingest.SchemaMismatchError(f"column {missing[0]!r} not in {path.name}")
        return list(reader)


def _cell(row: dict, column: str, parse, path: Path):
    """``parse`` of one cell; a cell it rejects is a data error that names the cell."""
    cell = row[column] or ""
    try:
        return parse(cell)
    except ValueError:
        raise ingest.SchemaMismatchError(f"bad {column!r} value {cell!r} in {path.name}") from None


def _by_index(rows: list[dict], path: Path) -> dict[int, dict]:
    """``rows`` by their ``index`` cell, in order; an index that repeats is a data error."""
    by_index = {}
    for row in rows:
        idx = _cell(row, "index", int, path)
        if by_index.setdefault(idx, row) is not row:
            raise LengthMismatchError(f"index {idx} repeats in {path.name}")
    return by_index


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {cell!r}")
    return value


def _read_column(path: Path, column: str) -> np.ndarray:
    values = [_cell(row, column, _finite, path) for row in _table(path, (column,))
              if (row[column] or "").strip()]
    return np.asarray(values, dtype=float)


def _cmd_fit(args) -> int:
    if not 0.0 < args.percentile < 1.0:
        raise InvalidPercentileError(
            f"percentile must lie in (0, 1), got {args.percentile}"
        )
    pp_out = _out_path(args.pp_out, "--pp-out") if args.pp_out else None
    sample = _read_column(Path(args.csv), args.column)
    threshold, fit = thresholds.adaptive_threshold(sample, args.percentile)
    print(f"family={fit.family.value}")
    print(f"location={fit.location!r}")
    print(f"scale={fit.scale!r}")
    print(f"ks_statistic={fit.gof!r}")
    print(f"threshold={threshold!r}")
    if pp_out:
        _write_csv(pp_out, ["empirical", "theoretical"], (
            [_fmt_float(emp), _fmt_float(theo)] for emp, theo in thresholds.pp_points(sample, fit)
        ))
    return EXIT_OK


# ----------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    verdict_path = Path(args.verdicts)
    truth_path = Path(args.truth)
    verdict_rows = _table(verdict_path, ("index", "loss", "label"))
    truth_rows = _table(truth_path, ("index", "label"))
    by_index = _by_index(verdict_rows, verdict_path)

    # a log with a score column is ranked by it, every cell; one without, by normalised loss
    column = "score" if verdict_rows and "score" in verdict_rows[0] else "loss"
    predicted, truth, scores = [], [], []
    for idx, row in _by_index(truth_rows, truth_path).items():
        if idx not in by_index:
            raise LengthMismatchError(f"truth index {idx} missing from verdict log")
        v = by_index[idx]
        predicted.append(_cell(v, "label", Label.from_name, verdict_path))
        truth.append(_cell(row, "label", Label.from_name, truth_path))
        scores.append(_cell(v, column, _finite, verdict_path))
    if not truth:
        raise ingest.EmptyAfterFilteringError("truth CSV has no rows")
    s = np.asarray(scores, dtype=float)
    if column == "loss":
        lo, hi = float(np.min(s)), float(np.max(s))
        s = (s - lo) / (hi - lo) if hi > lo else np.zeros_like(s)
    report = metrics_mod.evaluate(predicted, truth, s)
    sys.stdout.write(metrics_mod.report_csv(report))
    return EXIT_OK


# ---------------------------------------------------------------------- synth


def _cmd_synth(args) -> int:
    # flags left out are absent from args, so their defaults are SyntheticConfig's
    fields = {f.name for f in dataclasses.fields(SyntheticConfig)}
    config = SyntheticConfig(**{k: v for k, v in vars(args).items() if k in fields})
    out = _out_path(args.out, "--out")
    schema_out = _out_path(args.schema_out, "--schema-out") if args.schema_out else None
    records = ingest.synthetic_stream(config)
    feature_names = [f"f{i}" for i in range(config.n_features)]
    _write_csv(out, feature_names + ["label"], (
        [_fmt_float(v) for v in r.features] + [r.truth.display] for r in records
    ))
    if schema_out:
        schema = CsvSchema(
            feature_columns=feature_names,
            label_column="label",
            label_map={"normal": Label.NORMAL, "abnormal": Label.ABNORMAL},
        )
        schema.to_json(schema_out)
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
    run.add_argument("--mode", default=None, choices=engine_mod.MODES,
                     help="overrides the config's engine.mode")
    run.add_argument("--csv", help="feature CSV path (overrides config source)")
    run.add_argument("--schema", dest="schema", help="schema JSON for --csv")
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

    synth = sub.add_parser("synth", help="emit a synthetic stream CSV",
                           argument_default=argparse.SUPPRESS)
    synth.add_argument("--out", required=True)
    synth.add_argument("--n", dest="n_records", type=int)
    synth.add_argument("--features", dest="n_features", type=int)
    synth.add_argument("--rate", dest="anomaly_rate", type=float)
    synth.add_argument("--shift", dest="anomaly_shift", type=float,
                       help="anomaly mean shift in standard deviations")
    synth.add_argument("--burst", dest="anomaly_burst", type=int,
                       help="records per anomalous episode")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--drift", dest="drift_magnitude", type=float)
    synth.add_argument("--drift-start", type=float)
    synth.add_argument("--schema-out", default=None)
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, InvalidPercentileError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AnomstreamError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

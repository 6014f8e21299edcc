"""Wrappers around anomstream's public callables, with an in-memory span log.

The benchmark never edits the package. It replaces public functions and
methods with wrappers for the life of one child process:

* untraced runs wrap only ``OnlineAnomalyDetector.bootstrap``, ``process``
  and ``maybe_retrain``, which give the end of set-up, each verdict's
  duration and each retrain pause;
* traced runs wrap every layer boundary that ``targets`` lists and record
  one span (name, start, end, parent) per call, from which self times are
  derived.

A name in ``targets`` that the package no longer defines is reported as
missing rather than raising, so the benchmark outlives refactors.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from speed import clock


class Tracer:
    """Nested spans of one thread. Each span is [name, start, end, parent].

    Durations are the raw ones until ``rescale`` replaces them (with the
    same spans' durations at the reference speed, see ``speed.py``).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._lengths: list[float] | None = None

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, clock(), 0.0, parent])

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = clock()

    def rescale(self, lengths) -> None:
        self._lengths = [float(x) for x in lengths]

    def lengths(self) -> list[float]:
        if self._lengths is not None:
            return self._lengths
        return [end - start for _, start, end, _ in self.spans]

    def self_seconds(self) -> dict[str, float]:
        """Per name: time inside its spans not covered by child spans."""
        lengths = self.lengths()
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, parent), length in zip(self.spans, lengths):
            out[name] += length
            if parent >= 0:
                out[self.spans[parent][0]] -= length
        return out

    def durations(self, name: str) -> list[float]:
        return [x for s, x in zip(self.spans, self.lengths()) if s[0] == name]

    def seconds_under(self, name: str, parent: str) -> float:
        """Total duration of ``name`` spans whose direct parent is a ``parent`` span."""
        return sum(
            x
            for s, x in zip(self.spans, self.lengths())
            if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent
        )


class Observations:
    """Counts and timings taken from arguments and return values at the boundaries."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.setup_end: float | None = None
        self.verdict_spans: list[tuple[float, float]] = []
        self.pause_spans: list[tuple[float, float]] = []
        self.retrain_samples: list[int] = []
        self.verdicts: list = []
        self.phase_flip_at = -1
        self._fit_voted = True

    # engine ---------------------------------------------------------------
    def bootstrap(self, args, result, error, start, end) -> None:
        if error is None:
            self.setup_end = end

    def process(self, args, result, error, start, end) -> None:
        if error is not None:
            return
        self.verdict_spans.append((start, end))
        self.verdicts.append(result)
        route = getattr(getattr(result, "route", None), "value", "unknown")
        self.counts[f"engine.route.{route}"] += 1
        if route == "classifier" and getattr(result, "votes", None) is not None:
            if not self._fit_voted:
                self._fit_voted = True
                self.counts["forest.fits_voted"] += 1
        detector = args[0]
        phase = getattr(getattr(detector, "phase", None), "value", None)
        if self.phase_flip_at < 0 and phase == "steady":
            self.phase_flip_at = int(getattr(detector, "samples_seen", -1))

    def maybe_retrain(self, args, result, error, start, end) -> None:
        if error is not None or result is None:
            return
        self.pause_spans.append((start, end))
        self.retrain_samples.append(int(getattr(result, "samples_seen", -1)))
        self.counts["engine.retrains"] += 1
        for note in getattr(result, "notes", ()):
            self.counts[f"engine.notes.{note}"] += 1

    # layers below the engine ----------------------------------------------
    def load_csv(self, args, result, error, start, end) -> None:
        if error is None:
            self.counts["ingest.load_csv.rows"] += len(result.records)

    def score_many(self, args, result, error, start, end) -> None:
        self.counts["scorer.score_many.windows"] += len(args[1])

    def train(self, args, result, error, start, end) -> None:
        scorer, windows, epochs = args[0], args[1], args[2]
        n = len(windows)
        if n and epochs > 0:
            batch = max(1, min(scorer.config.batch_size, n))
            self.counts["scorer.train.minibatches"] += epochs * math.ceil(n / batch)

    def fit_forest(self, args, result, error, start, end) -> None:
        self.counts["forest.fit_forest.rows"] += int(np.shape(args[0])[0])
        if error is None:
            self.counts["forest.fits"] += 1
            self._fit_voted = False
        elif type(error).__name__ == "DegenerateTrainingSetError":
            self.counts["forest.fit_forest.skipped"] += 1

    def adaptive_threshold(self, args, result, error, start, end) -> None:
        self.counts["thresholds.adaptive_threshold.values"] += int(np.size(args[0]))

    def std_normal_cdf(self, args, result, error, start, end) -> None:
        self.counts["thresholds.std_normal_cdf.values"] += int(np.size(args[0]))


def _wrap(fn, name: str, tracer: Tracer | None, observe):
    def wrapper(*args, **kwargs):
        if tracer is not None:
            tracer.enter(name)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            end = clock()
            if tracer is not None:
                tracer.exit()
            if observe is not None:
                observe(args, None, exc, start, end)
            raise
        end = clock()
        if tracer is not None:
            tracer.exit()
        if observe is not None:
            observe(args, result, None, start, end)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def targets(pkg) -> list[tuple[str, list[tuple[object, str]], str | None, bool]]:
    """(span name, bindings, observer, always) for every wrapped boundary.

    The first binding is where the name is defined; later ones are the
    ``from x import y`` copies that callers actually use. ``always`` marks
    the three engine calls wrapped in untraced runs too.
    """
    cli, engine, ingest, scorer, forest, thresholds, metrics = (
        getattr(pkg, m, None)
        for m in ("cli", "engine", "ingest", "scorer", "forest", "thresholds", "metrics")
    )
    detector = getattr(engine, "OnlineAnomalyDetector", None)
    lstm = getattr(scorer, "LstmVaeScorer", None)
    return [
        ("cli", [(cli, "main")], None, False),
        ("ingest.load_csv", [(ingest, "load_csv")], "load_csv", False),
        ("ingest.normalize", [(ingest, "fit_normalizer")], None, False),
        ("ingest.normalize", [(ingest, "normalize_records")], None, False),
        ("engine.bootstrap", [(detector, "bootstrap")], "bootstrap", True),
        ("engine.process", [(detector, "process")], "process", True),
        ("engine.maybe_retrain", [(detector, "maybe_retrain")], "maybe_retrain", True),
        ("scorer.score", [(lstm, "score")], None, False),
        ("scorer.score_many", [(lstm, "score_many")], "score_many", False),
        ("scorer.train", [(lstm, "train")], "train", False),
        ("forest.fit_forest", [(forest, "fit_forest"), (engine, "fit_forest")], "fit_forest", False),
        ("forest.predict", [(forest, "predict"), (engine, "predict")], None, False),
        ("thresholds.adaptive_threshold",
         [(thresholds, "adaptive_threshold"), (engine, "adaptive_threshold")],
         "adaptive_threshold", False),
        ("thresholds.std_normal_cdf", [(thresholds, "std_normal_cdf")], "std_normal_cdf", False),
        ("metrics.composite_scores", [(metrics, "composite_scores")], None, False),
        ("metrics.evaluate", [(metrics, "evaluate")], None, False),
    ]


def install(pkg, obs: Observations, tracer: Tracer | None) -> list[str]:
    """Wrap the boundaries (all of them when ``tracer`` is set); return missing names."""
    missing = []
    for name, bindings, observer, always in targets(pkg):
        if tracer is None and not always:
            continue
        owner, attr = bindings[0]
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.append(f"{name}:{attr}")
            continue
        observe = getattr(obs, observer) if observer else None
        for owner, attr in bindings:
            fn = getattr(owner, attr, None) if owner is not None else None
            if callable(fn):
                setattr(owner, attr, _wrap(fn, name, tracer, observe))
    return missing


def _p50_us(values: list[float]) -> float:
    return float(np.median(values)) * 1e6 if values else 0.0


def layer_metrics(tracer: Tracer, obs: Observations) -> dict[str, float]:
    """Per-layer numbers of one traced child, keyed by the names in BENCHMARK.json."""
    self_s = tracer.self_seconds()
    calls = Counter(s[0] for s in tracer.spans)
    c = obs.counts
    minibatches = c["scorer.train.minibatches"]
    fits = c["forest.fits"]
    process_s = sum(tracer.durations("engine.process"))
    retrain_s = sum(tracer.durations("engine.maybe_retrain"))
    return {
        "ingest.load_csv.self_s": self_s["ingest.load_csv"],
        "ingest.load_csv.rows": c["ingest.load_csv.rows"],
        "ingest.normalize.self_s": self_s["ingest.normalize"],
        "scorer.score.calls": calls["scorer.score"],
        "scorer.score.self_s": self_s["scorer.score"],
        "scorer.score.us_p50": _p50_us(tracer.durations("scorer.score")),
        "scorer.score_many.windows": c["scorer.score_many.windows"],
        "scorer.score_many.self_s": self_s["scorer.score_many"],
        "scorer.train.calls": calls["scorer.train"],
        "scorer.train.minibatches": minibatches,
        "scorer.train.self_s": self_s["scorer.train"],
        "scorer.train.ms_per_minibatch":
            1e3 * self_s["scorer.train"] / minibatches if minibatches else 0.0,
        "forest.fit_forest.calls": calls["forest.fit_forest"],
        "forest.fit_forest.rows": c["forest.fit_forest.rows"],
        "forest.fit_forest.self_s": self_s["forest.fit_forest"],
        "forest.fit_forest.skipped": c["forest.fit_forest.skipped"],
        "forest.fits_voted_ratio": c["forest.fits_voted"] / fits if fits else 0.0,
        "forest.predict.calls": calls["forest.predict"],
        "forest.predict.self_s": self_s["forest.predict"],
        "forest.predict.us_p50": _p50_us(tracer.durations("forest.predict")),
        "thresholds.adaptive_threshold.calls": calls["thresholds.adaptive_threshold"],
        "thresholds.adaptive_threshold.values": c["thresholds.adaptive_threshold.values"],
        "thresholds.adaptive_threshold.self_s": self_s["thresholds.adaptive_threshold"],
        "thresholds.std_normal_cdf.values": c["thresholds.std_normal_cdf.values"],
        "thresholds.std_normal_cdf.self_s": self_s["thresholds.std_normal_cdf"],
        "engine.process.self_s": self_s["engine.process"],
        "engine.process.score_share":
            sum(tracer.durations("scorer.score")) / process_s if process_s else 0.0,
        "engine.maybe_retrain.self_s": self_s["engine.maybe_retrain"],
        "engine.maybe_retrain.train_share":
            tracer.seconds_under("scorer.train", "engine.maybe_retrain") / retrain_s
            if retrain_s else 0.0,
        "engine.bootstrap.self_s": self_s["engine.bootstrap"],
        "engine.retrains": c["engine.retrains"],
        "engine.phase_flip_at": obs.phase_flip_at,
        "engine.route.high_conf_normal": c["engine.route.high_conf_normal"],
        "engine.route.high_conf_abnormal": c["engine.route.high_conf_abnormal"],
        "engine.route.classifier": c["engine.route.classifier"],
        "engine.notes.t1_kept": c["engine.notes.t1_kept"],
        "engine.notes.t2_kept": c["engine.notes.t2_kept"],
        "engine.notes.empty_uncertain_band": c["engine.notes.empty_uncertain_band"],
        "engine.notes.scorer_skipped": c["engine.notes.scorer_skipped"],
        "engine.notes.forest_skipped": c["engine.notes.forest_skipped"],
        "metrics.composite_scores.calls": calls["metrics.composite_scores"],
        "metrics.composite_scores.self_s": self_s["metrics.composite_scores"],
        "metrics.evaluate.self_s": self_s["metrics.evaluate"],
        "cli.self_s": self_s["cli"],
    }

"""Online learning state machine around the scorer, thresholds and forest.

Each incoming record extends a sliding window, gets a scalar loss from the
scorer, and is routed by the current thresholds into high-confidence
normal, high-confidence abnormal, or the uncertain band decided by the
forest. High-confidence losses feed bounded FIFO buffers from which the
thresholds are re-fitted, and both models retrain every ``update_interval``
samples from the interval's feature rows and pseudo-labels.

The engine is a single-writer state machine: ``process`` and
``maybe_retrain`` must be called sequentially from one thread.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateSampleError,
    DegenerateTrainingSetError,
    EmptyBufferError,
    InsufficientDataError,
    NonFiniteError,
    NotBootstrappedError,
    ShapeMismatchError,
    _store_floats,
    _store_ints,
)
from .forest import ForestConfig, RandomForest, fit_forest, predict
from .ingest import StreamRecord, windows as make_windows
from .labels import Label
from .scorer import LstmVaeScorer, ScorerConfig
from .thresholds import ThresholdPair, adaptive_threshold

logger = logging.getLogger(__name__)

# the paper's full detector, then its ablations: frozen thresholds, no
# classifier, no scorer updates, and a scorer pretrained offline and frozen
MODES = ("adaptive", "fixed-threshold", "scorer-only", "initial-only", "offline")


class Phase(Enum):
    INITIAL = "initial"
    STEADY = "steady"


class Route(Enum):
    HIGH_CONF_NORMAL = "high_conf_normal"
    HIGH_CONF_ABNORMAL = "high_conf_abnormal"
    CLASSIFIER = "classifier"


_ROUTE_CODES = {route: code for code, route in enumerate(Route)}  # a route as an int8


@dataclass(frozen=True)
class Verdict:
    """One routed record; ``t1``/``t2`` are the thresholds it was routed by."""

    index: int
    label: Label
    route: Route
    loss: float
    t1: float
    t2: float | None
    votes: tuple[int, int] | None = None


@dataclass
class EngineConfig:
    """Knobs of the online loop; scorer/forest geometry ride along."""

    scorer: ScorerConfig
    forest: ForestConfig = field(default_factory=ForestConfig)
    p1: float = 0.98
    p2: float = 0.10
    abnormal_warmup: int = 500   # abnormal losses collected before dual thresholds
    update_interval: int = 6400  # samples between threshold/model updates
    buffer_capacity: int = 5000
    seed: int = 0
    mode: str = "adaptive"  # one of MODES

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {list(MODES)}, got {self.mode!r}")
        _store_ints(self, ("abnormal_warmup", "update_interval", "buffer_capacity", "seed"))
        for name, p in zip(("p1", "p2"), _store_floats(self, ("p1", "p2"))):
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.abnormal_warmup < 1 or self.update_interval < 1:
            raise ValueError("abnormal_warmup and update_interval must be >= 1")
        if self.abnormal_warmup > self.buffer_capacity:
            raise ValueError("abnormal_warmup cannot exceed buffer_capacity")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RetrainReport:
    index: int
    samples_seen: int
    old_t1: float
    new_t1: float
    old_t2: float | None
    new_t2: float | None
    scorer_windows: int
    forest_samples: int
    forest_trained: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PhaseTransitionEvent:
    samples_seen: int
    t2: float


EngineEvent = Verdict | RetrainReport | PhaseTransitionEvent


class OnlineAnomalyDetector:
    """Two-layer online detector with self-adapting thresholds.

    The engine makes three calls on its ``scorer``: ``score_many(windows)``,
    ``score_stream(window, position)`` and ``train(windows, epochs)``, which
    raises ``NonFiniteError`` with the scorer unchanged when a fine-tune
    diverges; tests fuzz the state machine with a cheap stub. A scorer passed
    in counts as pretrained: ``bootstrap`` trains only the scorer the engine
    builds itself. ``config.mode`` selects the detector or one of its
    ablations (see ``MODES``); ``offline`` needs a scorer passed in.
    """

    def __init__(
        self,
        config: EngineConfig,
        scorer=None,
        *,
        sink: Callable[[EngineEvent], None] | None = None,
    ):
        if config.mode == "offline" and scorer is None:
            raise ValueError("offline mode needs a pretrained scorer")
        self.config = config
        self._pretrained = scorer is not None
        self.scorer = scorer if scorer is not None else LstmVaeScorer(config.scorer)
        self._sink = sink

        self.normal_losses: deque[float] = deque(maxlen=config.buffer_capacity)
        self.abnormal_losses: deque[float] = deque(maxlen=config.buffer_capacity)
        self.thresholds: ThresholdPair | None = None
        self.forest: RandomForest | None = None
        self.samples_seen = 0
        self.retrains_done = 0
        self._start_interval(np.empty((0, config.scorer.n_features)))
        self._forest_seeds = np.random.SeedSequence(config.seed)

    # ------------------------------------------------------------- lifecycle

    @property
    def bootstrapped(self) -> bool:
        return self.thresholds is not None

    @property
    def phase(self) -> Phase:
        """STEADY once T2 is set (dual thresholds), INITIAL before."""
        if self.thresholds is None or self.thresholds.t2 is None:
            return Phase.INITIAL
        return Phase.STEADY

    def _start_interval(self, head_rows: np.ndarray) -> None:
        """Start an empty pending interval after the feature rows ``head_rows``.

        _rows[:timestep - 1] holds the feature rows before the interval, then
        one row per pending record; _labels and _routes hold each pending
        record's label and route code. The arrays double when full and keep
        their size across retrains.
        """
        self._rows = head_rows
        self._labels = np.empty(0, dtype=np.int8)
        self._routes = np.empty(0, dtype=np.int8)
        # pending records, and how many were labelled normal and routed to the
        # classifier: counted as they come, since counting the arrays in
        # maybe_retrain costs a noticeable share of a pause without a fine-tune
        self._pending = self._normal = self._classified = 0

    def _emit(self, event: EngineEvent) -> None:
        if self._sink is not None:
            self._sink(event)

    def bootstrap(self, first_round: Sequence[StreamRecord]) -> None:
        """Train the scorer on the first-round slice and fit the initial T1.

        The slice is treated entirely as pseudo-normal; its window losses
        seed the normal buffer. A record of the wrong width or with a
        non-finite feature is rejected before any state or scorer changes.
        """
        features = np.asarray([self._checked_features(record) for record in first_round])
        t = self.config.scorer.timestep
        first_windows = make_windows(features, t)
        if len(first_windows) < 2:
            raise InsufficientDataError(
                f"first round yields {len(first_windows)} windows, need at least 2"
            )
        if not self._pretrained:
            self.scorer.train(first_windows, self.config.scorer.epochs_initial)
        losses = self.scorer.score_many(first_windows)
        # fit on a copy of the buffer, so a failed fit leaves it as it was
        held = self.normal_losses.copy()
        held.extend(losses)
        try:
            t1, fit = adaptive_threshold(np.fromiter(held, float, len(held)), self.config.p1)
        except DegenerateSampleError as exc:
            raise InsufficientDataError(f"first-round losses are degenerate: {exc}") from exc
        self.normal_losses = held
        self._install(t1, fit, None, None)
        self._start_interval(features[len(features) - (t - 1) :].copy())

    # -------------------------------------------------------------- routing

    def _checked_features(self, record: StreamRecord) -> np.ndarray:
        """The record's features; raises on a wrong width or a non-finite value."""
        features = np.asarray(record.features, dtype=float)
        width = self.config.scorer.n_features
        if features.shape != (width,):
            raise ShapeMismatchError(f"record shape {features.shape}, expected {(width,)}")
        if not np.isfinite(features).all():
            raise NonFiniteError(f"record {record.index} has a non-finite feature")
        return features

    def process(self, record: StreamRecord) -> Verdict:
        """Score, route and pseudo-label one record.

        A record of the wrong width or with a non-finite feature is rejected
        before any state changes.
        """
        if not self.bootstrapped:
            raise NotBootstrappedError("call bootstrap() before process()")
        features = self._checked_features(record)
        k, t_steps = self._pending, self.config.scorer.timestep
        if k == len(self._labels):  # full: double the capacity
            self._rows, self._labels, self._routes = (
                np.concatenate([a, np.empty((max(k, 1), *a.shape[1:]), dtype=a.dtype)])
                for a in (self._rows, self._labels, self._routes)
            )
        self._rows[t_steps - 1 + k] = features
        loss = self.scorer.score_stream(self._rows[k : t_steps + k], self.samples_seen)
        t = self.thresholds

        # t2 is None exactly in the single-threshold phase
        votes = None
        if loss < t.t1:
            label, route = Label.NORMAL, Route.HIGH_CONF_NORMAL
            self.normal_losses.append(loss)
        elif t.t2 is None or loss > t.t2:
            label, route = Label.ABNORMAL, Route.HIGH_CONF_ABNORMAL
            self.abnormal_losses.append(loss)
        else:
            route = Route.CLASSIFIER
            if self.forest is not None:
                label, votes = predict(self.forest, features)
            else:
                # cold start before the first steady retrain: midpoint rule
                midpoint = 0.5 * (t.t1 + t.t2)
                label = Label.NORMAL if loss <= midpoint else Label.ABNORMAL
        verdict = Verdict(record.index, label, route, loss, t.t1, t.t2, votes)
        self._labels[k] = label
        self._routes[k] = _ROUTE_CODES[route]
        self._pending += 1
        self._normal += label is Label.NORMAL
        self._classified += route is Route.CLASSIFIER

        self.samples_seen += 1
        self._emit(verdict)
        self.phase_transition()
        return verdict

    def phase_transition(self) -> bool:
        """Switch to dual-threshold operation once abnormal losses suffice.

        Flips at most once, computing the initial T2 at that moment; if the
        abnormal losses cannot be fitted, T2 <- T1. In ``scorer-only`` mode
        the engine stays single-threshold forever.
        """
        if self.config.mode == "scorer-only" or self.phase is not Phase.INITIAL:
            return False
        if len(self.abnormal_losses) < self.config.abnormal_warmup:
            return False
        t = self.thresholds
        t2, fit_abn = self._refit(self.abnormal_losses, self.config.p2, "T2") or (t.t1, None)
        self._install(t.t1, t.fit_normal, t2, fit_abn)
        self._emit(PhaseTransitionEvent(self.samples_seen, t2))
        return True

    # ------------------------------------------------------------ retraining

    def _refit(self, buffer: deque[float], p: float, name: str):
        """(threshold, fit) at ``p`` from ``buffer``, or None if it cannot be fitted."""
        try:
            return adaptive_threshold(np.fromiter(buffer, float, len(buffer)), p)
        except (EmptyBufferError, DegenerateSampleError) as exc:
            logger.warning("cannot refit %s: %s", name, exc)
            return None

    def _install(self, t1, fit_normal, t2, fit_abnormal) -> bool:
        """Set the thresholds; returns True (with a warning) if the uncertain band is empty."""
        self.thresholds = ThresholdPair(
            t1=t1, t2=t2, fit_normal=fit_normal, fit_abnormal=fit_abnormal
        )
        empty = t2 is not None and t2 <= t1
        if empty:
            logger.warning("T2 (%.6g) <= T1 (%.6g): uncertain band is empty", t2, t1)
        return empty

    def maybe_retrain(self) -> RetrainReport | None:
        """Recompute thresholds and retrain both models every full batch.

        A fine-tune that diverges is rolled back by the scorer (note
        ``scorer_rolled_back``); the retrain goes on.
        """
        k = self._pending
        if k < self.config.update_interval:
            return None
        t = self.thresholds
        notes: list[str] = []
        t_steps = self.config.scorer.timestep
        rows = self._rows[: t_steps - 1 + k]
        labels = self._labels[:k]
        scorer_windows, forest_samples = self._normal, k - self._classified

        if self.config.mode != "fixed-threshold":
            # a threshold that cannot be refitted keeps its previous value
            t1_fit = self._refit(self.normal_losses, self.config.p1, "T1")
            if t1_fit is None:
                notes.append("t1_kept")
            t2_fit = None
            if self.phase is Phase.STEADY:
                t2_fit = self._refit(self.abnormal_losses, self.config.p2, "T2")
                if t2_fit is None:
                    notes.append("t2_kept")
            t1, fit_n = t1_fit or (t.t1, t.fit_normal)
            t2, fit_a = t2_fit or (t.t2, t.fit_abnormal)
            if self._install(t1, fit_n, t2, fit_a):
                notes.append("empty_uncertain_band")

        if self.config.mode not in ("initial-only", "offline"):
            if scorer_windows:
                batch = make_windows(rows, t_steps)[labels == Label.NORMAL]
                try:
                    self.scorer.train(batch, self.config.scorer.epochs_update)
                except NonFiniteError as exc:
                    logger.warning("fine-tune diverged, scorer rolled back: %s", exc)
                    notes.append("scorer_rolled_back")
            else:
                logger.warning("no pseudo-normal windows this batch; scorer not updated")
                notes.append("scorer_skipped")

        forest_trained = False
        if self.phase is Phase.STEADY:
            kept = self._routes[:k] != _ROUTE_CODES[Route.CLASSIFIER]
            try:
                self.forest = fit_forest(
                    rows[t_steps - 1 :][kept],
                    labels[kept].astype(np.int64),
                    self.config.forest,
                    seed=self._forest_seeds.spawn(1)[0],
                )
                forest_trained = True
            except DegenerateTrainingSetError as exc:
                logger.warning("keeping previous forest: %s", exc)
                notes.append("forest_skipped")

        self._rows[: t_steps - 1] = rows[k:]
        self._pending = self._normal = self._classified = 0
        self.retrains_done += 1
        report = RetrainReport(
            index=self.retrains_done,
            samples_seen=self.samples_seen,
            old_t1=t.t1,
            new_t1=self.thresholds.t1,
            old_t2=t.t2,
            new_t2=self.thresholds.t2,
            scorer_windows=scorer_windows,
            forest_samples=forest_samples,
            forest_trained=forest_trained,
            notes=tuple(notes),
        )
        self._emit(report)
        return report

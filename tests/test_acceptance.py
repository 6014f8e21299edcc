"""Acceptance suite: one test per release criterion, each printing a
``[PASS] criterion N`` line when its assertions hold.

Heavy-path criteria (engine fuzzing, full drift-scenario replays) run at
desk scale with seeds frozen after margin checks; the scenario fixture is
shared by the ordering and determinism criteria.
"""

import json
import logging
import math
import os
import time

import numpy as np
import pytest

from anomstream import cli
from anomstream.engine import EngineConfig, OnlineAnomalyDetector, Phase, Route
from anomstream.forest import ForestConfig, build_tree, fit_forest, gini
from anomstream.ingest import StreamRecord
from anomstream.labels import Label
from anomstream.metrics import roc, spauc
from anomstream.scorer import LstmVaeScorer, ScorerConfig
from anomstream.thresholds import DistributionFamily, adaptive_threshold, fit_distributions

TOY = dict(timestep=3, n_features=2, hidden_size=8, latent_size=4)


# ---------------------------------------------------------------- criterion 1


def loglik_from_stats(n, s1, s2, mu, sigma):
    """Normal log-likelihood from sufficient statistics (n, sum, sum sq)."""
    ssd = s2 - 2.0 * mu * s1 + n * mu * mu
    return -0.5 * n * math.log(2.0 * math.pi * sigma * sigma) - ssd / (2.0 * sigma * sigma)


def numeric_normal_mle(x):
    """Grid search plus golden-section refinement of the log-likelihood."""
    n, s1, s2 = len(x), float(np.sum(x)), float(np.sum(x * x))
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def refine(fn, lo, hi, iters=80):
        a, b = lo, hi
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        fc, fd = fn(c), fn(d)
        for _ in range(iters):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = fn(d)
        return 0.5 * (a + b)

    mus = np.linspace(float(np.min(x)), float(np.max(x)), 41)
    spread = float(np.max(x) - np.min(x))
    sigmas = np.geomspace(spread / 1000.0, spread, 41)
    grid = np.array([[loglik_from_stats(n, s1, s2, m, s) for s in sigmas] for m in mus])
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    mu, sigma = mus[i], sigmas[j]
    for _ in range(4):
        lo = mus[max(i - 1, 0)] - spread / 40
        hi = mus[min(i + 1, 40)] + spread / 40
        mu = refine(lambda m: loglik_from_stats(n, s1, s2, m, sigma), lo, hi)
        sigma = refine(
            lambda s: loglik_from_stats(n, s1, s2, mu, s),
            sigmas[max(j - 1, 0)] * 0.5,
            sigmas[min(j + 1, 40)] * 2.0,
        )
    return mu, sigma


def family_fit(x, family):
    """The one entry of ``family`` in ``fit_distributions(x)``."""
    (fit,) = [f for f in fit_distributions(x) if f.family is family]
    return fit


def test_criterion_1_mle_matches_numeric_maximizer(criterion_report):
    start = time.time()
    root = np.random.SeedSequence(101)
    worst = 0.0
    for ss in root.spawn(100):
        rng = np.random.default_rng(ss)
        # lognormal MLE: maximize the normal likelihood of the log-values
        x = rng.lognormal(0.5, 0.3, size=1000)
        fit = family_fit(x, DistributionFamily.LOGNORMAL)
        mu_n, sigma_n = numeric_normal_mle(np.log(x))
        worst = max(
            worst,
            abs(fit.location - mu_n) / abs(mu_n),
            abs(fit.scale - sigma_n) / abs(sigma_n),
        )
        # normal MLE
        y = rng.normal(5.0, 2.0, size=1000)
        fit = family_fit(y, DistributionFamily.NORMAL)
        mu_n, sigma_n = numeric_normal_mle(y)
        worst = max(
            worst,
            abs(fit.location - mu_n) / abs(mu_n),
            abs(fit.scale - sigma_n) / abs(sigma_n),
        )
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    # the logistic fit is method-of-moments (it does not maximize the
    # likelihood), so it is checked against its sampling oracle instead
    rng = np.random.default_rng(404)
    z = rng.logistic(3.0, 1.5, size=5000)
    fit = family_fit(z, DistributionFamily.LOGISTIC)
    assert fit.location == pytest.approx(3.0, rel=0.05)
    assert fit.scale == pytest.approx(1.5, rel=0.05)
    criterion_report(1, f"closed forms within {worst:.2e} of numeric maximizer in {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_threshold_vs_empirical_quantiles(criterion_report):
    percentiles = (0.01, 0.10, 0.95, 0.98)
    rng = np.random.default_rng(1)
    cases = [
        ("lognormal", rng.lognormal(0.0, 0.25, size=5000), "rel", 0.02),
        ("normal", rng.normal(100.0, 5.0, size=5000), "abs", 1.0),  # 1% of scale
        ("logistic", rng.logistic(100.0, 2.0, size=5000), "rel", 0.02),
    ]
    worst = {}
    for name, sample, kind, tol in cases:
        for p in percentiles:
            fitted, _ = adaptive_threshold(sample, p)
            empirical = float(np.quantile(sample, p))
            if kind == "rel":
                err = abs(fitted - empirical) / abs(empirical)
            else:
                err = abs(fitted - empirical)
            assert err < tol, (name, p, err)
            worst[name] = max(worst.get(name, 0.0), err)
    criterion_report(2, "worst errors " + ", ".join(f"{k}={v:.4f}" for k, v in worst.items()))


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_family_recovery(criterion_report):
    # the normal and logistic cases use supports spanning negatives so the
    # lognormal candidate is excluded; a low-sigma lognormal is otherwise
    # statistically indistinguishable from a positive-support normal at
    # this sample size
    cases = [
        (DistributionFamily.LOGNORMAL, lambda r: r.lognormal(0.0, 0.8, size=2000)),
        (DistributionFamily.NORMAL, lambda r: r.normal(5.0, 2.0, size=2000)),
        (DistributionFamily.LOGISTIC, lambda r: r.logistic(0.0, 1.0, size=2000)),
    ]
    root = np.random.SeedSequence(20260810)
    rates = {}
    for family, gen in cases:
        hits = sum(
            fit_distributions(gen(np.random.default_rng(ss)))[0].family is family
            for ss in root.spawn(100)
        )
        assert hits >= 95, (family, hits)
        rates[family.value] = hits
    criterion_report(3, "recovery " + ", ".join(f"{k}={v}/100" for k, v in rates.items()))


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_gradient_check(criterion_report):
    h = 1e-4
    worst = 0.0
    root = np.random.SeedSequence(4242)
    for ss in root.spawn(20):
        rng = np.random.default_rng(ss)
        scorer = LstmVaeScorer(ScorerConfig(**TOY, seed=int(rng.integers(1 << 31))))
        window = rng.normal(size=(3, 2))
        noise = rng.standard_normal(4)
        _, kl, grads = scorer.loss_and_gradients(window, noise)
        assert kl >= 0.0
        for name, g in grads.items():
            fd = np.zeros_like(g)
            it = np.nditer(g, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = scorer.params[name][idx]
                scorer.params[name][idx] = orig + h
                up = sum(scorer.loss_and_gradients(window, noise)[:2])
                scorer.params[name][idx] = orig - h
                down = sum(scorer.loss_and_gradients(window, noise)[:2])
                scorer.params[name][idx] = orig
                fd[idx] = (up - down) / (2.0 * h)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-6)
            worst = max(worst, float(np.max(np.abs(fd - g) / denom)))
    assert worst < 1e-3
    criterion_report(4, f"max relative gradient error {worst:.2e} over 20 draws, KL >= 0")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_convergence(criterion_report):
    passed = 0
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        window = rng.uniform(0.2, 0.8, size=(3, 2))
        windows = [window.copy() for _ in range(50)]
        scorer = LstmVaeScorer(ScorerConfig(**TOY, seed=seed, batch_size=8))
        initial = np.mean([scorer.loss_and_gradients(w)[0] for w in windows])
        scorer.train(windows, epochs=200)
        final = np.mean([scorer.loss_and_gradients(w)[0] for w in windows])
        ratios.append(final / initial)
        passed += final < 0.1 * initial
    assert passed >= 9
    criterion_report(5, f"{passed}/10 seeds below 10% (worst ratio {max(ratios):.3f})")


# ---------------------------------------------------------------- criterion 6


class _StubScorer:
    """Loss equals the first feature of the window's last row."""

    def score(self, window):
        return float(window[-1][0])

    def score_many(self, windows):
        return np.array([self.score(w) for w in windows])

    def score_stream(self, window, position):
        return self.score(window)

    def train(self, windows, epochs):
        return self


def test_criterion_6_engine_fuzz(criterion_report):
    logging.getLogger("anomstream.engine").setLevel(logging.ERROR)
    start = time.time()
    n = 1_000_000
    interval = 10_000
    capacity = 5000
    rng = np.random.default_rng(606)
    losses = rng.lognormal(0.0, 0.4, size=n)
    anomalous = rng.random(n) < 0.01
    losses[anomalous] *= 6.0
    extra = rng.random((n, 3))

    config = EngineConfig(
        scorer=ScorerConfig(timestep=4, n_features=4, hidden_size=4, latent_size=2),
        forest=ForestConfig(n_estimators=2, max_depth=4),
        abnormal_warmup=500,
        update_interval=interval,
        buffer_capacity=capacity,
        seed=9,
    )
    engine = OnlineAnomalyDetector(config, scorer=_StubScorer())
    engine.bootstrap(
        [StreamRecord(index=i, features=np.append(losses[i], extra[i])) for i in range(200)]
    )

    from collections import deque

    normal_mirror = deque(engine.normal_losses, maxlen=capacity)
    abnormal_mirror = deque(maxlen=capacity)
    phase_changes = 0
    last_phase = engine.phase
    retrain_steps = []
    routes_seen = set()
    for i in range(200, n):
        verdict = engine.process(StreamRecord(index=i, features=np.append(losses[i], extra[i])))
        step = i - 200 + 1
        # routing totality and buffer mirroring (exact FIFO)
        routes_seen.add(verdict.route)
        assert verdict.label in (Label.NORMAL, Label.ABNORMAL)
        if verdict.route is Route.HIGH_CONF_NORMAL:
            normal_mirror.append(verdict.loss)
        elif verdict.route is Route.HIGH_CONF_ABNORMAL:
            abnormal_mirror.append(verdict.loss)
        assert len(engine.normal_losses) <= capacity
        assert len(engine.abnormal_losses) <= capacity
        if engine.phase is not last_phase:
            assert last_phase is Phase.INITIAL and engine.phase is Phase.STEADY
            phase_changes += 1
            last_phase = engine.phase
        if engine.maybe_retrain() is not None:
            retrain_steps.append(step)
        if step % 100_000 == 0:
            assert list(engine.normal_losses) == list(normal_mirror)
            assert list(engine.abnormal_losses) == list(abnormal_mirror)
    elapsed = time.time() - start
    assert phase_changes == 1
    assert retrain_steps == list(range(interval, n - 200 + 1, interval))
    assert Route.HIGH_CONF_NORMAL in routes_seen and Route.HIGH_CONF_ABNORMAL in routes_seen
    assert elapsed < 300.0
    criterion_report(6, f"{n - 200} steps in {elapsed:.0f}s, {len(retrain_steps)} exact retrains, one phase flip")


# ---------------------------------------------------------------- criterion 7


def spauc_grid_oracle(curve, fpr_max=0.05, step=1e-5):
    eps = 1e-12
    knots = curve.fpr[(curve.fpr > 0.0) & (curve.fpr < fpr_max)]
    grid = np.concatenate(
        [np.arange(0.0, fpr_max + step / 2, step), [fpr_max], knots - eps, knots + eps]
    )
    grid = np.unique(np.clip(grid, 0.0, fpr_max))
    tpr = np.interp(grid, curve.fpr, curve.tpr)
    p_auc = np.trapezoid(tpr, grid)
    a_min, a_max = fpr_max**2 / 2.0, fpr_max
    return 0.5 * (1.0 + (p_auc - a_min) / (a_max - a_min))


def test_criterion_7_spauc_oracle(criterion_report):
    perfect = roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert spauc(perfect) == 1.0
    diagonal = roc([0.5] * 10, [1, 0] * 5)
    assert spauc(diagonal) == 0.5
    worst = 0.0
    root = np.random.SeedSequence(707)
    for ss in root.spawn(50):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(30, 2000))
        truth = rng.integers(0, 2, size=n)
        truth[0], truth[1] = 0, 1
        scores = rng.normal(size=n) + truth * rng.random() * 2.0
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # induce ties
        curve = roc(scores, truth)
        worst = max(worst, abs(spauc(curve) - spauc_grid_oracle(curve)))
    assert worst < 1e-6
    criterion_report(7, f"boundary cases exact; 50 seeded sets within {worst:.2e} of grid oracle")


# ---------------------------------------------------------------- criterion 8


def brute_force_best_weighted_gini(x, y):
    n, d = x.shape
    best = None
    for f in range(d):
        for threshold in np.unique(x[:, f]):
            left = x[:, f] < threshold
            nl, nr = int(left.sum()), int(n - left.sum())
            if nl == 0 or nr == 0:
                continue
            w = (
                nl * gini(np.bincount(y[left], minlength=2))
                + nr * gini(np.bincount(y[~left], minlength=2))
            ) / n
            if best is None or w < best:
                best = w
    return best


def test_criterion_8_forest_split_oracle(criterion_report):
    root = np.random.SeedSequence(808)
    nodes_checked = 0
    for ss in root.spawn(100):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(4, 17))
        d = int(rng.integers(1, 5))
        x = rng.integers(0, 2, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n).astype(int)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        tree = build_tree(x, y, np.random.default_rng(ss), ForestConfig(max_features="all"))
        subsets = {0: np.arange(n)}
        for node in range(tree.feature.size):
            if tree.feature[node] == -1:
                continue
            idx = subsets[node]
            mask = x[idx, tree.feature[node]] < tree.threshold[node]
            subsets[int(tree.left[node])] = idx[mask]
            subsets[int(tree.right[node])] = idx[~mask]
            nl, nr = int(mask.sum()), int((~mask).sum())
            achieved = (
                nl * gini(np.bincount(y[idx][mask], minlength=2))
                + nr * gini(np.bincount(y[idx][~mask], minlength=2))
            ) / idx.size
            assert achieved == pytest.approx(
                brute_force_best_weighted_gini(x[idx], y[idx]), abs=1e-12
            )
            nodes_checked += 1
        # forest determinism per seed on the same draw
        forest_a = fit_forest(x, y, ForestConfig(n_estimators=3, max_depth=3), seed=11)
        forest_b = fit_forest(x, y, ForestConfig(n_estimators=3, max_depth=3), seed=11)
        for name in ("feature", "threshold", "left", "right", "counts", "roots"):
            assert np.array_equal(getattr(forest_a, name), getattr(forest_b, name))
    assert nodes_checked > 100
    criterion_report(8, f"{nodes_checked} split nodes matched the exhaustive oracle over 100 draws")


# ----------------------------------------------------- criteria 9, 10 and 11


SCENARIO_CONFIG = {
    "engine": {
        "update_interval": 6400,
        "abnormal_warmup": 500,
        "buffer_capacity": 5000,
        "seed": 11,
    },
    "scorer": {
        "timestep": 5,
        "hidden_size": 8,
        "latent_size": 4,
        "epochs_initial": 12,
        "epochs_update": 5,
    },
    "forest": {"n_estimators": 40, "max_depth": 12, "min_samples_split": 4},
    "stream": {
        "source": "synthetic",
        "split": {"kind": "fractions", "first": 0.01, "train": 0.69, "test": 0.30},
        "synthetic": {
            "n_records": 100_000,
            "n_features": 8,
            "anomaly_rate": 0.015,
            "anomaly_burst": 50,
            "anomaly_shift": 3.0,
            "anomaly_std_scale": 1.5,
            "drift_magnitude": 2.0,
            "drift_start": 0.5,
        },
    },
}


def run_scenario(out_dir, mode):
    config_path = out_dir.parent / f"config_{mode}.json"
    config_path.write_text(json.dumps(SCENARIO_CONFIG))
    code = cli.main(
        ["run", "--config", str(config_path), "--out", str(out_dir), "--mode", mode]
    )
    assert code == 0
    lines = (out_dir / "metrics.txt").read_text().strip().splitlines()
    return {k: float(v) for k, v in (line.split("=") for line in lines)}


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    logging.getLogger("anomstream").setLevel(logging.ERROR)
    base = tmp_path_factory.mktemp("scenario")
    start = time.time()
    runs = {
        mode: run_scenario(base / mode.replace("-", "_"), mode)
        for mode in ("adaptive", "fixed-threshold", "initial-only", "offline")
    }
    runs["_elapsed"] = time.time() - start
    runs["_base"] = base
    return runs


@pytest.mark.slow
def test_criterion_9_mode_ordering(scenario, criterion_report):
    adaptive = scenario["adaptive"]
    fixed = scenario["fixed-threshold"]
    assert adaptive["spauc"] >= fixed["spauc"]
    assert fixed["spauc"] >= 50.0  # chance level
    assert adaptive["spauc"] >= 90.0
    assert adaptive["far"] <= 5.0
    assert scenario["_elapsed"] < 600.0
    criterion_report(
        9,
        f"spauc adaptive {adaptive['spauc']:.2f} >= fixed {fixed['spauc']:.2f} >= 50; "
        f"far {adaptive['far']:.2f}% (four runs in {scenario['_elapsed']:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_10_training_setting_ordering(scenario, criterion_report):
    adaptive = scenario["adaptive"]
    assert adaptive["spauc"] > scenario["initial-only"]["spauc"]
    assert adaptive["spauc"] > scenario["offline"]["spauc"]
    criterion_report(
        10,
        f"online {adaptive['spauc']:.2f} > initial {scenario['initial-only']['spauc']:.2f}"
        f" and > offline {scenario['offline']['spauc']:.2f}",
    )


@pytest.mark.slow
def test_criterion_11_determinism(scenario, tmp_path, criterion_report):
    rerun_dir = tmp_path / "adaptive_rerun"
    run_scenario(rerun_dir, "adaptive")
    first_dir = scenario["_base"] / "adaptive"
    compared = []
    for name in ("verdicts.csv", "thresholds.csv", "metrics.txt", "metrics.csv"):
        assert (rerun_dir / name).read_bytes() == (first_dir / name).read_bytes(), name
        compared.append(name)
    criterion_report(11, f"byte-identical reruns for {', '.join(compared)}")


# --------------------------------------------------------------- criterion 12


DATASET_CSV_ENV = "ANOMSTREAM_DARKNET_CSV"
DATASET_SCHEMA_ENV = "ANOMSTREAM_DARKNET_SCHEMA"


def test_criterion_12_dataset_smoke(tmp_path, criterion_report):
    csv_path = os.environ.get(DATASET_CSV_ENV)
    schema_path = os.environ.get(DATASET_SCHEMA_ENV)
    if not csv_path or not schema_path or not os.path.exists(csv_path):
        pytest.skip(
            f"dataset smoke test needs {DATASET_CSV_ENV} and {DATASET_SCHEMA_ENV}"
        )
    from anomstream.ingest import CsvSchema, load_csv

    schema = CsvSchema.from_json(schema_path)
    records = load_csv(csv_path, schema).records[:50_000]
    subsample = tmp_path / "subsample.csv"
    with subsample.open("w", newline="", encoding="utf-8") as handle:
        import csv as csv_mod

        writer = csv_mod.writer(handle)
        writer.writerow(schema.feature_columns + [schema.label_column])
        inverse = {v: k for k, v in schema.label_map.items()}
        for r in records:
            writer.writerow(
                [repr(float(v)) for v in r.features] + [inverse[r.truth]]
            )
    config = {
        "engine": {"update_interval": 6400, "abnormal_warmup": 500, "seed": 1},
        "scorer": {"timestep": 5, "hidden_size": 16, "latent_size": 8,
                   "epochs_initial": 10, "epochs_update": 3},
        "forest": {"n_estimators": 40, "max_depth": 12, "min_samples_split": 4},
        "stream": {
            "source": "csv",
            "csv": {"path": str(subsample), "schema": schema_path},
            "split": {"kind": "fractions", "first": 0.01, "train": 0.69, "test": 0.30},
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    results = {}
    for mode in ("adaptive", "scorer-only"):
        out = tmp_path / mode.replace("-", "_")
        assert cli.main(["run", "--config", str(config_path), "--out", str(out),
                         "--mode", mode]) == 0
        for name in ("verdicts.csv", "thresholds.csv", "metrics.txt", "scorer.npz"):
            assert (out / name).exists()
        lines = (out / "metrics.txt").read_text().strip().splitlines()
        results[mode] = {k: float(v) for k, v in (l.split("=") for l in lines)}
    assert results["adaptive"]["spauc"] > results["scorer-only"]["spauc"]
    criterion_report(12, f"dataset smoke: adaptive {results['adaptive']['spauc']:.2f} > "
               f"scorer-only {results['scorer-only']['spauc']:.2f}")

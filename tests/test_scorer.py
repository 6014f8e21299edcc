"""Tests for the LSTM-VAE scorer: forward math, gradients, training."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomstream.errors import CorruptCheckpointError, NonFiniteError, ShapeMismatchError
from anomstream.ingest import windows
from anomstream.scorer import LstmVaeScorer, ScorerConfig, reparameterize

TOY = dict(timestep=3, n_features=2, hidden_size=8, latent_size=4)


def toy_scorer(seed=0, **overrides):
    cfg = ScorerConfig(**{**TOY, **overrides, "seed": seed})
    return LstmVaeScorer(cfg)


def zero_scorer(**overrides):
    s = toy_scorer(**overrides)
    for k in s.params:
        s.params[k] = np.zeros_like(s.params[k])
    return s


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = toy_scorer(seed=11), toy_scorer(seed=11)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_different_seed_differs(self):
        a, b = toy_scorer(seed=1), toy_scorer(seed=2)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_init_bounds(self):
        s = toy_scorer(seed=3)
        bound = 1.0 / math.sqrt(s.config.hidden_size)
        for v in s.params.values():
            assert np.all(np.abs(v) <= bound)

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("epochs_initial", -1), ("epochs_update", -1),
         ("learning_rate", 0.0), ("learning_rate", math.nan), ("adam_beta1", 1.0),
         ("adam_beta2", -0.1), ("adam_eps", 0.0)],
    )
    def test_training_field_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            ScorerConfig(**TOY, **{field: value})

    @pytest.mark.parametrize("field, value", [("hidden_size", 10**9), ("n_features", 10**7),
                                              ("latent_size", 10**8)])
    def test_geometry_over_parameter_cap_rejected(self, field, value):
        # rejected by the config, before any tensor is allocated
        with pytest.raises(ValueError, match="parameters"):
            ScorerConfig(**{**TOY, field: value})

    def test_parameter_count_formula(self):
        cfg = ScorerConfig(timestep=5, n_features=3, hidden_size=64, latent_size=32)
        s = LstmVaeScorer(cfg)
        h, l, d = 64, 32, 3
        expected = 4 * h * (d + h + 1) + 2 * (h * l + l) + 4 * h * (l + h + 1) + (h * d + d)
        assert sum(v.size for v in s.params.values()) == expected

    def test_reference_geometry_parameter_count(self):
        # the published complexity figure for this architecture (~58.2k
        # parameters at hidden 64 / latent 32) is matched closest by a
        # 39-feature input: 58,151 parameters, within 0.1%
        cfg = ScorerConfig(timestep=5, n_features=39, hidden_size=64, latent_size=32)
        count = sum(v.size for v in LstmVaeScorer(cfg).params.values())
        assert count == 58151
        assert abs(count - 58207) / 58207 < 0.002


class TestForward:
    def test_zero_weights_encode(self):
        # mu = logvar = 0 is the only latent with zero KL
        s = zero_scorer()
        assert s.loss(np.ones((3, 2)), np.ones(4)).kl == 0.0

    def test_zero_weights_decode(self):
        # a zero decoder reconstructs zeros, so recon is the window's sum of squares
        s = zero_scorer()
        assert s.loss(np.ones((3, 2)), np.ones(4)).recon == 6.0

    def test_encode_deterministic(self):
        s = toy_scorer(seed=5)
        w = np.random.default_rng(0).normal(size=(3, 2))
        assert s.loss(w, np.full(4, 0.3)) == s.loss(w, np.full(4, 0.3))

    def test_shape_mismatch(self):
        s = toy_scorer()
        w = np.zeros((3, 2))
        calls = [
            lambda: s.score(np.zeros((4, 2))),  # wrong T
            lambda: s.loss(np.zeros((3, 3))),  # wrong D
            lambda: s.score(w[None]),  # a batch where one window goes
            lambda: s.score_many(w),  # a window where a batch goes
            lambda: s.score_many(np.zeros((0, 3, 2))),  # an empty batch
            lambda: s.score_many(np.zeros((2, 4, 2))),
            lambda: s.loss(w, np.zeros(5)),  # wrong-shaped noise
            lambda: s.loss(w, np.zeros((1, 4))),
            lambda: s.loss_and_gradients(w, np.zeros(3)),
            lambda: s.train(np.zeros((2, 3, 3)), epochs=1),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatchError):
                call()

    def test_batch_is_a_view_of_the_rows(self):
        s = toy_scorer()
        rows = np.random.default_rng(0).normal(size=(10, 2))
        batch = s._stack(windows(rows, 3))
        assert batch.shape == (8, 3, 2) and np.shares_memory(batch, rows)

    def test_single_step_equals_hand_computed_cell(self):
        # T=1, 2-unit cell with fixed small weights, checked against a
        # straight-line reimplementation of one LSTM step
        cfg = ScorerConfig(timestep=1, n_features=2, hidden_size=2, latent_size=2, seed=0)
        s = LstmVaeScorer(cfg)
        rng = np.random.default_rng(42)
        for k in s.params:
            s.params[k] = rng.uniform(-0.3, 0.3, size=s.params[k].shape)
        x = np.array([[0.5, -0.25]])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        a = s.params["enc_wx"] @ x[0] + s.params["enc_b"]
        i, f, g, o = sig(a[0:2]), sig(a[2:4]), np.tanh(a[4:6]), sig(a[6:8])
        c = i * g
        h = o * np.tanh(c)
        mu = s.params["mu_w"] @ h + s.params["mu_b"]
        lv = s.params["logvar_w"] @ h + s.params["logvar_b"]
        kl_expected = -0.5 * np.sum(1.0 + lv - mu * mu - np.exp(lv))

        noise = np.array([0.2, -0.1])
        z = mu + np.exp(0.5 * lv) * noise
        a = s.params["dec_wx"] @ z + s.params["dec_b"]
        i, f, g, o = sig(a[0:2]), sig(a[2:4]), np.tanh(a[4:6]), sig(a[6:8])
        h = o * np.tanh(i * g)
        row = s.params["out_w"] @ h + s.params["out_b"]
        value = s.loss(x, noise)
        assert value.recon == pytest.approx(np.sum((row - x[0]) ** 2), abs=1e-12)
        assert value.kl == pytest.approx(kl_expected, abs=1e-12)


class TestReparameterize:
    def test_zero_noise_returns_mu(self):
        mu = np.array([1.0, -2.0])
        assert np.array_equal(reparameterize(mu, np.zeros(2), np.zeros(2)), mu)

    def test_zero_logvar_adds_noise(self):
        mu, n = np.array([1.0, 2.0]), np.array([0.5, -0.5])
        assert reparameterize(mu, np.zeros(2), n) == pytest.approx(mu + n)

    def test_moments_over_seeded_draws(self):
        rng = np.random.default_rng(101)
        mu = np.array([0.3, -1.2])
        logvar = np.array([0.4, -0.6])
        draws = np.stack(
            [reparameterize(mu, logvar, rng.standard_normal(2)) for _ in range(100_000)]
        )
        assert draws.mean(axis=0) == pytest.approx(mu, abs=0.01 * np.exp(0.5 * logvar).max() * 3)
        assert draws.std(axis=0) == pytest.approx(np.exp(0.5 * logvar), rel=0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            reparameterize(np.zeros(2), np.zeros(3), np.zeros(2))


class TestLoss:
    def test_zero_everything(self):
        s = zero_scorer()
        value = s.loss(np.zeros((3, 2)))
        assert value.total == value.recon == value.kl == 0.0

    def test_kl_closed_form_unit_mu(self):
        # mu = (1, 0, ...), logvar = 0 gives KL exactly 0.5
        s = zero_scorer()
        s.params["mu_b"] = np.array([1.0, 0.0, 0.0, 0.0])
        value = s.loss(np.zeros((3, 2)))
        assert value.kl == pytest.approx(0.5, abs=1e-12)

    def test_total_is_recon_plus_kl(self):
        s = toy_scorer(seed=9)
        w = np.random.default_rng(1).normal(size=(3, 2))
        value = s.loss(w, np.full(4, 0.3))
        assert value.total == pytest.approx(value.recon + value.kl, abs=1e-12)
        assert value.kl >= 0.0 and value.recon >= 0.0

    def test_kl_nonnegative_over_random_draws(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            s = toy_scorer(seed=int(rng.integers(1 << 30)))
            value = s.loss(rng.normal(size=(3, 2)), rng.standard_normal(4))
            assert value.kl >= 0.0

    def test_non_finite_raises(self):
        s = toy_scorer()
        s.params["out_b"] = np.full(2, np.inf)
        with pytest.raises(NonFiniteError):
            s.loss(np.zeros((3, 2)))

    def test_score_equals_zero_noise_loss(self):
        s = toy_scorer(seed=13)
        w = np.random.default_rng(3).normal(size=(3, 2))
        assert s.score(w) == s.loss(w, np.zeros(4)).total

    def test_score_many_matches_score(self):
        s = toy_scorer(seed=13)
        rng = np.random.default_rng(4)
        wins = [rng.normal(size=(3, 2)) for _ in range(7)]
        batch = s.score_many(wins)
        single = [s.score(w) for w in wins]
        assert batch == pytest.approx(single, rel=1e-12)


def textbook_score(params, window, hidden):
    """Zero-noise loss of one window, written the plain way: one matmul and
    one ``1 / (1 + exp(-x))`` per gate, gate rows ordered (i, f, g, o)."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def lstm(inputs, layer):
        wx, wh, b = params[f"{layer}_wx"], params[f"{layer}_wh"], params[f"{layer}_b"]
        gate = [slice(k * hidden, (k + 1) * hidden) for k in range(4)]
        h, c, states = np.zeros(hidden), np.zeros(hidden), []
        for x in inputs:
            i = sigmoid(wx[gate[0]] @ x + wh[gate[0]] @ h + b[gate[0]])
            f = sigmoid(wx[gate[1]] @ x + wh[gate[1]] @ h + b[gate[1]])
            g = np.tanh(wx[gate[2]] @ x + wh[gate[2]] @ h + b[gate[2]])
            o = sigmoid(wx[gate[3]] @ x + wh[gate[3]] @ h + b[gate[3]])
            c = f * c + i * g
            h = o * np.tanh(c)
            states.append(h)
        return states

    h_enc = lstm(window, "enc")[-1]
    mu = params["mu_w"] @ h_enc + params["mu_b"]
    logvar = params["logvar_w"] @ h_enc + params["logvar_b"]
    xhat = [params["out_w"] @ h + params["out_b"] for h in lstm([mu] * len(window), "dec")]
    recon = sum(float(np.sum((xh - x) ** 2)) for xh, x in zip(xhat, window))
    kl = -0.5 * float(np.sum(1.0 + logvar - mu * mu - np.exp(logvar)))
    return recon + max(kl, 0.0)


class TestTextbookReference:
    @given(
        st.integers(1, 6), st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_and_score_many_match(self, t, d, h, l, seed):
        s = LstmVaeScorer(
            ScorerConfig(timestep=t, n_features=d, hidden_size=h, latent_size=l, seed=seed)
        )
        wins = np.random.default_rng(seed).normal(size=(5, t, d))
        expected = [textbook_score(s.params, w, h) for w in wins]
        assert [s.score(w) for w in wins] == pytest.approx(expected, rel=1e-12)
        assert s.score_many(wins) == pytest.approx(expected, rel=1e-12)


def stream_losses(scorer, rows, start, cuts=()):
    """Stream ``rows``, whose first row is at stream position ``start``, and
    return the loss of every window that completes, in order, and the
    positions the scorer primed at. Before each position in ``cuts`` the
    scorer's memo goes stale: at an even one a window of another stream is
    scored in between, and at an odd one the window is scored twice."""
    t = scorer.config.timestep
    primes, real_prime = [], scorer._prime
    scorer._prime = lambda head, position: primes.append(position) or real_prime(head, position)
    out = []
    try:
        for e in range(t - 1, len(rows)):
            window = rows[e - t + 1 : e + 1]
            if e in cuts and e % 2 == 0:
                scorer.score_stream(window[::-1] + 1.0, start + e + 3)
            elif e in cuts:
                scorer.score_stream(window, start + e)
            out.append(scorer.score_stream(window, start + e))
    finally:
        del scorer._prime
    return np.array(out), primes


class TestStreaming:
    @given(
        st.integers(1, 6), st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
        st.integers(1, 12), st.integers(-40, 40), st.sets(st.integers(0, 20)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_score_many(self, t, d, h, l, n, start, cuts, seed):
        s = LstmVaeScorer(
            ScorerConfig(timestep=t, n_features=d, hidden_size=h, latent_size=l, seed=seed)
        )
        rows = np.random.default_rng(seed).normal(size=(t - 1 + n, d))
        expected = s.score_many(windows(rows, t))
        got, _ = stream_losses(s, rows, start, {c + t - 1 for c in cuts})
        assert got == pytest.approx(expected, rel=1e-12)

    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_re_primed_stream_is_bit_identical(self, t, d, n, data):
        s = LstmVaeScorer(ScorerConfig(timestep=t, n_features=d, hidden_size=5, latent_size=3))
        rows = np.random.default_rng(n).normal(size=(t + n, d))
        k = data.draw(st.integers(t - 1, t - 1 + n), label="cut")
        through, primes = stream_losses(s, rows, 0)
        assert primes == [t - 1]
        cut, primes = stream_losses(s, rows, 0, {k})
        assert np.array_equal(cut, through)
        assert k in primes

    @pytest.mark.parametrize("d", [8, 39])
    def test_re_primed_stream_is_bit_identical_at_default_geometry(self, d):
        s = LstmVaeScorer(ScorerConfig(n_features=d, seed=5))
        rng = np.random.default_rng(d)
        rows = rng.uniform(size=(120, d))
        cuts = set(rng.choice(np.arange(29, 120), size=4, replace=False).tolist())
        through, _ = stream_losses(s, rows, 7)
        cut, primes = stream_losses(s, rows, 7, cuts)
        assert np.array_equal(cut, through)
        assert {7 + c for c in cuts} <= set(primes)
        assert through == pytest.approx(s.score_many(windows(rows, 30)), rel=1e-12)

    def test_rejects_a_wrong_window(self):
        s = toy_scorer()
        with pytest.raises(ShapeMismatchError):
            s.score_stream(np.zeros((2, 2)), 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_train_changes_nothing(self):
        # a fine-tune whose loss overflows is rolled back: the weights, the
        # rng and the stream go on as if it had never run
        rows = np.random.default_rng(9).uniform(size=(40, 2))
        s, reference = (toy_scorer(seed=3, learning_rate=1e6, batch_size=4) for _ in range(2))
        for scorer in (s, reference):
            stream_losses(scorer, rows[:30], 0)
        params = {k: v.copy() for k, v in s.params.items()}
        rng_state = s.rng.bit_generator.state
        with pytest.raises(NonFiniteError):
            s.train(windows(rows, 3), epochs=3)
        for k, v in params.items():
            assert np.array_equal(s.params[k], v), k
        assert s.rng.bit_generator.state == rng_state
        for e in range(30, 40):
            window = rows[e - 2 : e + 1]
            assert s.score_stream(window, e) == reference.score_stream(window, e)


class TestGradients:
    def test_matches_finite_differences(self):
        h = 1e-4
        root = np.random.SeedSequence(77)
        for ss in root.spawn(3):
            rng = np.random.default_rng(ss)
            s = toy_scorer(seed=int(rng.integers(1 << 30)))
            w = rng.normal(size=(3, 2))
            noise = rng.standard_normal(4)
            _, grads = s.loss_and_gradients(w, noise)
            for name, g in grads.items():
                fd = np.zeros_like(g)
                it = np.nditer(g, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = s.params[name][idx]
                    s.params[name][idx] = orig + h
                    up = s.loss(w, noise).total
                    s.params[name][idx] = orig - h
                    down = s.loss(w, noise).total
                    s.params[name][idx] = orig
                    fd[idx] = (up - down) / (2 * h)
                denom = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-6)
                assert np.max(np.abs(fd - g) / denom) < 1e-3, name


class TestTraining:
    def test_zero_epochs_unchanged(self):
        s = toy_scorer(seed=2)
        before = {k: v.copy() for k, v in s.params.items()}
        s.train([np.zeros((3, 2))] * 4, epochs=0)
        for k in before:
            assert np.array_equal(before[k], s.params[k])

    def test_identical_windows_converge(self):
        rng = np.random.default_rng(100)
        window = rng.uniform(0.2, 0.8, size=(3, 2))
        windows = [window.copy() for _ in range(50)]
        s = toy_scorer(seed=1, batch_size=8)
        initial = np.mean([s.loss(w).recon for w in windows])
        s.train(windows, epochs=200)
        final = np.mean([s.loss(w).recon for w in windows])
        assert final < 0.1 * initial

    def test_loss_not_increasing_across_runs(self):
        # end-of-training mean loss below the starting value in >= 9/10 seeds
        improved = 0
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            windows = [rng.uniform(0.0, 1.0, size=(3, 2)) for _ in range(24)]
            s = toy_scorer(seed=seed, batch_size=8)
            start = s.score_many(windows).mean()
            s.train(windows, epochs=30)
            improved += s.score_many(windows).mean() <= start
        assert improved >= 9

    def test_training_deterministic_per_seed(self):
        rng = np.random.default_rng(17)
        windows = [rng.normal(size=(3, 2)) for _ in range(10)]
        runs = []
        for _ in range(2):
            s = toy_scorer(seed=123)
            s.train(windows, epochs=5)
            runs.append({k: v.copy() for k, v in s.params.items()})
        for k in runs[0]:
            assert np.array_equal(runs[0][k], runs[1][k])

    def test_training_holds_one_minibatch_cache(self):
        # three minibatches must peak like one: each minibatch's forward cache
        # and gradients are freed before the next minibatch's forward starts
        def train_peak(n_windows):
            s = LstmVaeScorer(ScorerConfig(timestep=10, n_features=4, hidden_size=16,
                                           latent_size=4, batch_size=32, seed=5))
            x = np.random.default_rng(6).uniform(size=(n_windows, 10, 4))
            tracemalloc.start()
            try:
                s.train(x, epochs=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert train_peak(96) <= 1.2 * train_peak(32)

    def test_score_monotone_under_scaling(self):
        rng = np.random.default_rng(8)
        windows = [rng.uniform(0.3, 0.7, size=(3, 2)) for _ in range(30)]
        s = toy_scorer(seed=4, batch_size=8)
        s.train(windows, epochs=60)
        w = windows[0]
        assert s.score(w * 10.0) > s.score(w)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        s = toy_scorer(seed=21)
        rng = np.random.default_rng(0)
        s.train([rng.normal(size=(3, 2)) for _ in range(6)], epochs=2)
        path = tmp_path / "scorer.npz"
        s.save(path)
        loaded = LstmVaeScorer.load(path)
        assert loaded.config == s.config
        for k in s.params:
            assert np.array_equal(loaded.params[k], s.params[k])
        w = rng.normal(size=(3, 2))
        assert loaded.score(w) == s.score(w)

    @staticmethod
    def rewrite(source, target, **changes):
        """Copy the archive at ``source`` to ``target`` with entries replaced (None drops one)."""
        with np.load(source) as data:
            payload = {k: data[k] for k in data.files}
        for k, v in changes.items():
            if v is None:
                del payload[k]
            else:
                payload[k] = v
        np.savez(target, **payload)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"enc_wx": None}, "lacks"),
            ({"out_b": None}, "lacks"),
            ({"config_json": None}, "lacks"),
            ({"format_version": None}, "lacks"),
            ({"format_version": np.array(2)}, "version"),
            ({"format_version": np.array("1")}, "version"),
            ({"format_version": np.array([1])}, "version"),
            ({"config_json": np.array(json.dumps({**TOY, "bogus": 1}))}, "config"),
            ({"config_json": np.array(json.dumps({**TOY, "timestep": 0}))}, "config"),
            ({"config_json": np.array("[1]")}, "config"),
            ({"config_json": np.array("not json")}, "config"),
            ({"enc_b": np.array(["x"] * 32)}, "enc_b"),
            ({"out_w": np.zeros((2, 8), dtype=np.float32)}, "out_w"),
        ],
        ids=["no-enc_wx", "no-out_b", "no-config", "no-version", "version-2", "version-str",
             "version-list", "config-unknown-key", "config-bad-value", "config-not-object",
             "config-not-json", "str-tensor", "float32-tensor"],
    )
    def test_malformed_archive_rejected(self, tmp_path, changes, match):
        good = tmp_path / "scorer.npz"
        toy_scorer(seed=2).save(good)
        bad = tmp_path / "bad.npz"
        self.rewrite(good, bad, **changes)
        with pytest.raises(CorruptCheckpointError, match=match):
            LstmVaeScorer.load(bad)

    @pytest.mark.parametrize("data", [b"junk", b"PK\x03\x04junk", b""],
                             ids=["bytes", "broken-zip", "empty"])
    def test_non_archive_file_rejected(self, tmp_path, data):
        path = tmp_path / "scorer.npz"
        path.write_bytes(data)
        with pytest.raises(CorruptCheckpointError, match="not a scorer checkpoint"):
            LstmVaeScorer.load(path)

    def test_bare_array_rejected(self, tmp_path):
        path = tmp_path / "scorer.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(CorruptCheckpointError, match="not an archive"):
            LstmVaeScorer.load(path)

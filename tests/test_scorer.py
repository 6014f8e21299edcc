"""Tests for the LSTM-VAE scorer: forward math, gradients, training."""

import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomstream.errors import CorruptCheckpointError, NonFiniteError, ShapeMismatchError
from anomstream.ingest import windows
from anomstream import scorer as scorer_module
from anomstream.scorer import _SCORE_CHUNK, LstmVaeScorer, ScorerConfig, _Workspace, reparameterize

TOY = dict(timestep=3, n_features=2, hidden_size=8, latent_size=4)


def toy_scorer(seed=0, **overrides):
    cfg = ScorerConfig(**{**TOY, **overrides, "seed": seed})
    return LstmVaeScorer(cfg)


def zero_scorer(**overrides):
    s = toy_scorer(**overrides)
    for k in s.params:
        s.params[k][...] = 0.0
    return s


# The scoring forward before it ran the fused step, as a reference: one (B, 4H) gate buffer,
# its four (B, H) gate views and a (B, 4H) (scale, shift) pair around one tanh per step.

def gate_affine(b, h_n):
    """(scale, shift) around the gates' tanh for B rows: sigmoid(x) = tanh(x / 2) / 2 + 1 / 2."""
    scale = np.full((b, 4 * h_n), 0.5)
    scale[:, 2 * h_n : 3 * h_n] = 1.0
    return scale, 1.0 - scale


def gate_views(a):
    """The (input, forget, cell, output) (B, H) views of the (B, 4H) gate buffer ``a``."""
    h_n = a.shape[1] // 4
    return a[:, :h_n], a[:, h_n : 2 * h_n], a[:, 2 * h_n : 3 * h_n], a[:, 3 * h_n :]


def view_cell(a, gates, c_prev, c, tc, h, scale, shift):
    """One LSTM step over B rows, in place: ``a`` becomes the gates that ``gates`` views."""
    gi, gf, gg, go = gates
    a *= scale
    np.tanh(a, out=a)
    a *= scale
    a += shift
    np.multiply(gf, c_prev, out=c)
    np.multiply(gi, gg, out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(go, tc, out=h)


def view_lstm(xw, t, wh):
    """The (T, B, H) hidden states of one layer over the (T, B, 4H) inputs ``xw``, or its
    constant (B, 4H) input; c and tanh(c) are overwritten at every step."""
    b, h_n = xw.shape[-2], wh.shape[1]
    scale, shift = gate_affine(b, h_n)
    inputs = xw if xw.ndim == 3 else itertools.repeat(xw, t)
    h, c, tc, a = np.zeros((b, h_n)), np.zeros((b, h_n)), np.empty((b, h_n)), np.empty((b, 4 * h_n))
    hs, gates = np.empty((t, b, h_n)), gate_views(a)
    for xw_t, h_out in zip(inputs, hs):
        np.matmul(h, wh.T, out=a)
        a += xw_t
        view_cell(a, gates, c, c, tc, h_out, scale, shift)
        h = h_out
    return hs


def view_losses(scorer, x, noise):
    """The (recon, kl) losses of the windows ``x`` on ``view_lstm``; ``noise=None`` decodes mu."""
    p = scorer.params
    b, t, d = x.shape
    x_wx = np.matmul(x.reshape(b * t, d), p["enc_wx"].T).reshape(b, t, -1)
    x_wx += p["enc_b"]
    hs = view_lstm(x_wx.transpose(1, 0, 2), t, p["enc_wh"])
    recon, kl, _ = scorer._tail(x, hs[-1], noise, lambda z: view_lstm(
        z @ p["dec_wx"].T + p["dec_b"], t, p["dec_wh"]))
    return recon, kl


def view_score_many(scorer, x):
    out = np.empty(len(x))
    for start in range(0, len(x), _SCORE_CHUNK):
        recon, kl = view_losses(scorer, x[start : start + _SCORE_CHUNK], None)
        out[start : start + len(recon)] = recon + kl
    return out


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
         ("adam_beta2", -0.1), ("adam_eps", 0.0), ("seed", -1)],
    )
    def test_training_field_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            ScorerConfig(**TOY, **{field: value})

    @pytest.mark.parametrize("field", ["timestep", "n_features", "hidden_size", "latent_size",
                                       "batch_size", "epochs_initial", "epochs_update", "seed"])
    @pytest.mark.parametrize("value", [4.0, 2.5, True], ids=["whole-float", "float", "bool"])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match="integers"):
            ScorerConfig(**{**TOY, field: value})

    def test_numpy_integer_field_accepted(self):
        cfg = ScorerConfig(**{**TOY, "hidden_size": np.int64(8), "epochs_update": np.int32(2)})
        assert cfg.hidden_size == 8 and cfg.epochs_update == 2

    def test_params_are_read_only_views_of_one_vector(self):
        s = toy_scorer(seed=5)
        assert all(np.shares_memory(v, s._flat) for v in s.params.values())
        assert sum(v.size for v in s.params.values()) == s._flat.size
        assert s._flat.ctypes.data % 64 == 0  # no SIMD load of the vector splits a cache line
        with pytest.raises(TypeError):
            s.params["out_b"] = np.zeros(2)
        with pytest.raises(TypeError):
            s.params["x"] = np.zeros(2)

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
            s.params[k][...] = rng.uniform(-0.3, 0.3, size=s.params[k].shape)
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


    @given(st.integers(1, 6), st.sampled_from([1, 2, 7]), st.integers(0, 3), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lstm_branches_and_input_forms_agree_bitwise(self, t, b, spare, h, seed):
        # the cached (training) loop runs the ops of the no-cache loop scoring once ran
        # (view_lstm), also on the leading rows of a larger workspace, and a constant
        # (B, 4H) input is read as its (T, B, 4H) broadcast would be
        s = toy_scorer(timestep=t, hidden_size=h)
        ws = _Workspace.allocate(s, b + spare).rows(b)
        rng = np.random.default_rng(seed)
        wh = rng.normal(size=(4 * h, h))
        s.params["enc_wh"][...] = wh
        per_step, constant = rng.normal(size=(t, b, 4 * h)), rng.normal(size=(b, 4 * h))
        inputs = {"per_step": per_step, "constant": constant,
                  "broadcast": np.broadcast_to(constant, (t, b, 4 * h))}
        hidden = {}
        for name, xw in inputs.items():
            cached = s._lstm(ws, "enc", xw)
            hidden[name] = view_lstm(xw, t, wh)
            assert cached.shape == (t, b, h) and np.shares_memory(cached, ws.enc.h)
            assert cached.tobytes() == hidden[name].tobytes(), name
        assert hidden["constant"].tobytes() == hidden["broadcast"].tobytes()


class TestBatchForward:
    @given(st.integers(1, 8), st.integers(1, 70), st.integers(1, 6), st.integers(1, 40),
           st.sampled_from([1, 63, 64, 65, 127, 128, 129, 257]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_view_reference_bitwise(self, t, h, l, d, n, seed):
        # score_many in chunks, with a remainder on the leading rows of its block, score and
        # loss with noise run the fused step on derived weights; the bits are view_lstm's
        s = LstmVaeScorer(ScorerConfig(timestep=t, n_features=d, hidden_size=h, latent_size=l,
                                       seed=seed))
        rng = np.random.default_rng(seed)
        x, noise = rng.normal(size=(n, t, d)), rng.standard_normal(l)
        assert s.score_many(x).tobytes() == view_score_many(s, x).tobytes()
        recon, kl = view_losses(s, x[-1:], noise[None])
        assert s.loss(x[-1], noise) == scorer_module.LossValue(
            float(recon[0] + kl[0]), float(recon[0]), float(kl[0]))
        assert s.score(x[0]) == view_score_many(s, x[:1])[0]

    @pytest.mark.parametrize("h", [63, 64])
    def test_matches_the_view_reference_after_training(self, h):
        # the default geometry, and H=63, where a gate-major GEMM changes bits
        s = LstmVaeScorer(ScorerConfig(n_features=8, hidden_size=h, seed=5))
        rng = np.random.default_rng(h)
        rows = rng.uniform(size=(286, 8))
        s.train(windows(rows[:80], 30), epochs=1)
        x, noise = windows(rows, 30), rng.standard_normal(32)  # 257 windows
        assert s.score_many(x).tobytes() == view_score_many(s, x).tobytes()
        recon, kl = view_losses(s, x[:1], noise[None])
        value = s.loss(x[0], noise)
        assert (value.recon, value.kl) == (recon[0], kl[0])

    def test_scoring_never_runs_the_training_cell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_cell ran outside train")

        s = toy_scorer(seed=3)
        w = np.random.default_rng(0).normal(size=(3, 2))
        monkeypatch.setattr(scorer_module, "_cell", refuse)
        s.score(w), s.loss(w, np.ones(4)), s.score_many([w, w]), s.score_stream(w, 5)
        with pytest.raises(AssertionError, match="outside train"):
            s.train([w], epochs=1)


class TestNonFiniteWindow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_blames_the_window_and_changes_nothing(self, bad):
        # a NaN or inf in a window is the data's fault, not the weights': each entry point
        # names the window batch before any forward, memo change or rng draw, NumPy warns of
        # nothing, and the stream then goes on without a re-prime
        rows = np.random.default_rng(2).normal(size=(12, 2))
        s, reference = toy_scorer(seed=6), toy_scorer(seed=6)
        stream_losses(s, rows[:6], 0)
        memo, flat, rng_state = s._stream, s._flat.copy(), s.rng.bit_generator.state
        window = rows[4:7].copy()
        window[-1, 1] = bad
        batch = np.stack([rows[:3], window])
        calls = [lambda: s.score(window), lambda: s.loss(window, np.ones(4)),
                 lambda: s.score_many(batch), lambda: s.score_stream(window, 6),
                 lambda: s.train(batch, epochs=2), lambda: s.loss_and_gradients(window)]
        for call in calls:
            with pytest.raises(NonFiniteError, match="window batch"):
                call()
            assert s._stream is memo and s._flat.tobytes() == flat.tobytes()
            assert s.rng.bit_generator.state == rng_state
        through, _ = stream_losses(reference, rows, 0)
        got, primes = stream_losses(s, rows[4:], 4)
        assert primes == [] and got.tobytes() == through[4:].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 9), place=st.sampled_from(["first", "interior", "last"]),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), col=st.integers(0, 1),
           data=st.data())
    def test_a_bad_row_of_a_window_view_is_refused(self, n, place, bad, col, data):
        # a window view is checked on its N + T - 1 rows, each once: a bad value in any row,
        # the first and the last included, is still refused before anything changes
        rows = np.random.default_rng(n).normal(size=(n + 2, 2))
        row = {"first": 0, "last": n + 1}.get(place)
        row = data.draw(st.integers(1, n)) if row is None else row
        rows[row, col] = bad
        view = windows(rows, 3)
        assert view.strides[0] == view.strides[1] and view.base is not None
        s = toy_scorer(seed=6)
        flat, rng_state = s._flat.copy(), s.rng.bit_generator.state
        for call in (lambda: s.score_many(view), lambda: s.train(view, epochs=1)):
            with pytest.raises(NonFiniteError, match="window batch"):
                call()
            assert s._flat.tobytes() == flat.tobytes()
            assert s.rng.bit_generator.state == rng_state


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
        s.params["mu_b"][...] = np.array([1.0, 0.0, 0.0, 0.0])
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
        s.params["out_b"][...] = np.full(2, np.inf)
        with pytest.raises(NonFiniteError):
            s.loss(np.zeros((3, 2)))

    def test_score_equals_zero_noise_loss(self):
        # every no-noise path decodes the latent mean: the bits of explicit zero noise
        s = toy_scorer(seed=13)
        w = np.random.default_rng(3).normal(size=(3, 2))
        expected = s.loss(w, np.zeros(4)).total
        assert s.score(w) == s.loss(w).total == expected
        assert s.score_many([w])[0] == s.score_stream(w, position=7) == expected

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

    def test_non_integer_position_is_refused_before_the_memo(self):
        # a float or bool position raises TypeError and leaves the memo as it was, so the
        # stream goes on without a re-prime; a NumPy integer is a position
        rows = np.random.default_rng(8).normal(size=(12, 2))
        s, reference = toy_scorer(seed=4), toy_scorer(seed=4)
        stream_losses(s, rows[:6], 0)
        memo = s._stream
        for position in (6.5, 6.0, True, "6", None):
            with pytest.raises(TypeError, match="position"):
                s.score_stream(rows[4:7], position)
            assert s._stream is memo
        through, _ = stream_losses(reference, rows, 0)
        got, primes = stream_losses(s, rows[4:11], 4)
        assert primes == [] and got.tobytes() == through[4:9].tobytes()
        assert s.score_stream(rows[9:12], np.int64(11)) == through[9]
        assert s._stream.position == 12 and type(s._stream.position) is int

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_train_changes_nothing(self):
        # a fine-tune whose loss overflows is rolled back: the weights, the
        # rng and the stream go on as if it had never run
        rows = np.random.default_rng(9).uniform(size=(40, 2))
        s, reference = (toy_scorer(seed=3, learning_rate=1e6, batch_size=4) for _ in range(2))
        for scorer in (s, reference):
            stream_losses(scorer, rows[:30], 0)
        params = {k: v.copy() for k, v in s.params.items()}
        flat = s._flat.copy()
        rng_state = s.rng.bit_generator.state
        with pytest.raises(NonFiniteError):
            s.train(windows(rows, 3), epochs=3)
        for k, v in params.items():
            assert np.array_equal(s.params[k], v), k
            assert np.shares_memory(s.params[k], s._flat), k
        assert s._flat.tobytes() == flat.tobytes()
        assert s.rng.bit_generator.state == rng_state
        for e in range(30, 40):
            window = rows[e - 2 : e + 1]
            assert s.score_stream(window, e) == reference.score_stream(window, e)


class CellStream:
    """The stream memo before the derived weights: each slot's (h, c) and one (T, 4H) gate
    buffer for ``view_cell``, each array allocated on its own."""

    def __init__(self, config, rows, position):
        t, h_n = config.timestep, config.hidden_size
        self.rows = rows.copy()
        self.position = position
        self.h = np.zeros((t, h_n))
        self.c = np.zeros((t, h_n))
        self.tc = np.empty((t, h_n))
        self.a = np.empty((t, 4 * h_n))
        self.gates = gate_views(self.a)
        self.xw = np.empty(4 * h_n)
        self.affine = gate_affine(t, h_n)


class CellStreaming(LstmVaeScorer):
    """The streaming path before the fused step, as a reference: the encoder's T-row
    step runs ``view_cell`` on ``params`` as they are, and the decoder is ``view_lstm`` at B = 1."""

    def _advance(self, stream, row, position):
        p = self.params
        slot = (position - 1) % self.config.timestep
        stream.h[slot] = 0.0
        stream.c[slot] = 0.0
        np.matmul(stream.h, p["enc_wh"].T, out=stream.a)
        np.matmul(row, p["enc_wx"].T, out=stream.xw)
        stream.xw += p["enc_b"]
        stream.a += stream.xw
        view_cell(stream.a, stream.gates, stream.c, stream.c, stream.tc, stream.h, *stream.affine)

    def _prime(self, rows, position):
        stream = CellStream(self.config, rows, position)
        for k, row in enumerate(rows):
            self._advance(stream, row, position - len(rows) + k)
        return stream

    def score_stream(self, window, position):
        x, _ = self._batch_of_one(window, None)
        head = x[0, :-1]
        stream, self._stream = self._stream, None
        if stream is None or stream.position != position or not np.array_equal(stream.rows, head):
            stream = self._prime(head, position)
        self._advance(stream, x[0, -1], position)
        h_enc = stream.h[position % self.config.timestep][None]
        p, t = self.params, self.config.timestep
        recon, kl, _ = self._tail(x, h_enc, None, lambda z: view_lstm(
            z @ p["dec_wx"].T + p["dec_b"], t, p["dec_wh"]))
        stream.rows[...] = x[0, 1:]
        stream.position = position + 1
        self._stream = stream
        return float(recon[0] + kl[0])


class TestStreamMemo:
    @given(
        st.integers(1, 6), st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
        st.integers(1, 12), st.integers(-40, 40), st.sets(st.integers(0, 20)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_cell_reference_bitwise(self, t, d, h, l, n, start, cuts, seed):
        cfg = ScorerConfig(timestep=t, n_features=d, hidden_size=h, latent_size=l, seed=seed)
        rows = np.random.default_rng(seed).normal(size=(t - 1 + n, d))
        cuts = {c + t - 1 for c in cuts}
        (got, got_primes), (want, want_primes) = (
            stream_losses(cls(cfg), rows, start, cuts) for cls in (LstmVaeScorer, CellStreaming))
        assert got.tobytes() == want.tobytes()
        assert got_primes == want_primes

    @pytest.mark.parametrize("d, h", [(8, 64), (39, 64), (8, 63)])
    def test_matches_the_cell_reference_after_training(self, d, h):
        # the default geometry, and H=63, where a gate-major GEMM changes bits
        cfg = ScorerConfig(n_features=d, hidden_size=h, seed=5)
        rows = np.random.default_rng(d).uniform(size=(150, d))
        losses = []
        for cls in (LstmVaeScorer, CellStreaming):
            s = cls(cfg)
            stream_losses(s, rows[:40], 3)
            s.train(windows(rows[:60], 30), epochs=2)
            losses.append(stream_losses(s, rows[10:], 13, {70, 101})[0].tobytes())
        assert losses[0] == losses[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_memo_follows_the_weights(self, tmp_path):
        # after a train, a rolled-back train and a save and load, the stream goes on with
        # the bits of a fresh scorer holding the same weights: the memo re-primed by train
        # holds no weights from before it
        rows = np.random.default_rng(4).uniform(size=(40, 2))

        def continued(scorer):
            losses, primes = stream_losses(scorer, rows[18:], 18)
            return losses.tobytes(), primes

        def fresh(scorer):
            twin = toy_scorer(seed=2)
            twin._flat[...] = scorer._flat
            return continued(twin)[0]

        s, diverging = toy_scorer(seed=2, batch_size=4), toy_scorer(seed=2, learning_rate=1e6)
        for scorer in (s, diverging):
            stream_losses(scorer, rows[:20], 0)
        before = s._flat.copy()
        s.train(windows(rows[:20], 3), epochs=2)
        assert not np.array_equal(s._flat, before)
        with pytest.raises(NonFiniteError):
            diverging.train(windows(rows[:20], 3), epochs=3)
        for scorer in (s, diverging):
            losses, primes = continued(scorer)
            assert primes == [] and losses == fresh(scorer)
        s.save(tmp_path / "s.npz")
        loaded = LstmVaeScorer.load(tmp_path / "s.npz")
        assert continued(loaded)[0] == fresh(s)

    def test_train_lets_the_old_memo_go(self, monkeypatch):
        # the fine-tune keeps a copy of the memo's rows, not a view that holds its block
        rows = np.random.default_rng(5).uniform(size=(12, 2))
        s = toy_scorer(seed=3)
        stream_losses(s, rows, 0)
        block, seen, allocate = weakref.ref(s._stream.rows.base), [], _Workspace.allocate

        def spy(scorer, b):
            seen.append(block())
            return allocate(scorer, b)

        monkeypatch.setattr(_Workspace, "allocate", spy)
        s.train(windows(rows, 3), epochs=1)
        assert seen == [None] and s._stream.rows.base is not None

    def test_memo_is_one_aligned_block_and_steps_allocate_nothing(self):
        s = LstmVaeScorer(ScorerConfig(n_features=3, seed=1))
        rows = np.random.default_rng(1).uniform(size=(40, 3))
        stream_losses(s, rows[:35], 0)
        memo = vars(s._stream).values()
        arrays = [v for v in memo if isinstance(v, np.ndarray)]
        views = [v for group in memo if isinstance(group, tuple) for v in group]
        assert len(arrays) >= 10 and all(v.base is arrays[0].base for v in arrays + views)
        assert all(v.ctypes.data % 64 == 0 for v in arrays)
        z = np.random.default_rng(2).normal(size=(1, 32))
        tracemalloc.start()
        try:
            s._stream.advance(rows[35], 35)
            s._stream.decode(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096  # a (T, H) array alone is 15 KB


class PerStepBptt(LstmVaeScorer):
    """The training forward and backward before the workspace, as a reference.

    Each cached step keeps its own (B, 4H) gate buffer, c and tanh(c), and
    the backward allocates every temporary; the gradients go into the
    workspace's vector all the same, so only the BPTT loops differ.
    """

    def _lstm(self, ws, layer, xw):
        t, wh = self.config.timestep, self.params[f"{layer}_wh"]
        b, h_n = xw.shape[-2], self.config.hidden_size
        scale, shift = gate_affine(b, h_n)
        inputs = xw if xw.ndim == 3 else itertools.repeat(xw, t)
        h = np.zeros((b, h_n))
        c = np.zeros((b, h_n))
        hs = np.empty((t, b, h_n))
        steps = []
        for xw_t, h_out in zip(inputs, hs):
            a = np.matmul(h, wh.T)
            a += xw_t
            gates = gate_views(a)
            c_next, tc = np.empty((b, h_n)), np.empty((b, h_n))
            view_cell(a, gates, c, c_next, tc, h_out, scale, shift)
            steps.append((*gates, c, h, tc))
            c, h = c_next, h_out
        self.steps = {**getattr(self, "steps", {}), layer: steps}
        return hs

    def _lstm_backward(self, ws, layer, x, dh_steps, dh_last):
        steps = self.steps.pop(layer)
        p, grads = self.params, ws.grads
        wx, wh = p[f"{layer}_wx"], p[f"{layer}_wh"]
        g_wx, g_wh, g_b = grads[f"{layer}_wx"], grads[f"{layer}_wh"], grads[f"{layer}_b"]
        per_step = x.ndim == 3
        da_sum = None if per_step else np.zeros((x.shape[0], wx.shape[0]))
        dh_rec = dh_last
        dc_rec = np.zeros_like(dh_last)
        for step in range(len(steps) - 1, -1, -1):
            gi, gf, gg, go, c_prev, h_prev, tc = steps[step]
            dh = dh_rec if dh_steps is None else dh_steps[step] + dh_rec
            do = dh * tc
            dc = dc_rec + dh * go * (1.0 - tc * tc)
            da = np.concatenate(
                [
                    dc * gg * gi * (1.0 - gi),
                    dc * c_prev * gf * (1.0 - gf),
                    dc * gi * (1.0 - gg * gg),
                    do * go * (1.0 - go),
                ],
                axis=1,
            )
            if per_step:
                g_wx += da.T @ x[step]
                g_b += da.sum(axis=0)
            else:
                da_sum += da
            g_wh += da.T @ h_prev
            dh_rec = da @ wh
            dc_rec = dc * gf
        if per_step:
            return None
        g_wx += da_sum.T @ x
        g_b += da_sum.sum(axis=0)
        return da_sum @ wx


class TestWorkspace:
    @given(
        st.integers(1, 6), st.integers(1, 5), st.integers(1, 4), st.integers(1, 5),
        st.integers(0, 3), st.integers(1, 12), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_step_reference_bitwise(self, t, h, d, b, spare, n, seed):
        # a minibatch of b on the leading rows of a workspace for b + spare windows,
        # one window's loss_and_gradients, and one train call of n windows in
        # minibatches of b (a remainder runs on views), against the reference
        cfg = ScorerConfig(timestep=t, n_features=d, hidden_size=h, latent_size=2,
                           batch_size=b, seed=seed)
        s, ref = LstmVaeScorer(cfg), PerStepBptt(cfg)
        rng = np.random.default_rng(seed)
        x, noise = rng.normal(size=(n + b, t, d)), rng.standard_normal((b, 2))
        grads = []
        for scorer, ws in ((s, _Workspace.allocate(s, b + spare).rows(b)),
                           (ref, _Workspace.allocate(ref, b))):
            losses = scorer._grads_batch(x[:b], noise, 1.0 / b, ws)
            grads.append((ws.flat.tobytes(), *(v.tobytes() for v in losses)))
        assert grads[0] == grads[1]
        (value, got), (ref_value, want) = (m.loss_and_gradients(x[0], noise[0]) for m in (s, ref))
        assert value == ref_value
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        for scorer in (s, ref):
            scorer.train(x[b:], epochs=1)
        assert s._flat.tobytes() == ref._flat.tobytes()
        assert s.rng.bit_generator.state == ref.rng.bit_generator.state

    @pytest.mark.parametrize("t, h, b", [(30, 64, 32), (3, 5, 7)])
    def test_input_projections_take_the_decoder_gate_cache(self, t, h, b):
        # xw is spent when the encoder's loop ends, before the decoder writes its first gate,
        # so the map holds no floats for it: a remainder's xw is the cache's leading floats too
        cfg = ScorerConfig(timestep=t, n_features=3, hidden_size=h, latent_size=2, seed=1)
        ws = _Workspace.allocate(LstmVaeScorer(cfg), b)
        mapped = ws.enc.gates.base
        for rows, xw in ((b, ws.xw), (b - 1, ws.rows(b - 1).xw)):
            assert xw.shape == (rows, t, 4 * h) and xw.flags.c_contiguous
            assert xw.ctypes.data == ws.dec.gates.ctypes.data
            assert np.shares_memory(xw, ws.dec.gates)
        rest = [*ws.enc, *ws.dec, ws.bh, ws.gm, ws.da, ws.twh, ws.affine]
        assert all(v.base is mapped for v in rest)
        assert mapped.size == sum(-(-v.size // 8) * 8 for v in rest)  # whole 64-byte lines
        assert len(mapped.base) == 8 * mapped.size

    def test_train_frees_its_workspace(self, monkeypatch):
        # the workspace lives for one train call: its mapped cache and its gradient
        # vector are released when train returns, and traced memory is back
        cfg = ScorerConfig(timestep=10, n_features=4, hidden_size=16, latent_size=4,
                           batch_size=32, seed=5)
        x = np.random.default_rng(6).uniform(size=(40, 10, 4))
        LstmVaeScorer(cfg).train(x, epochs=1)  # warms up first
        s, buffers, allocate = LstmVaeScorer(cfg), [], _Workspace.allocate

        def spy(scorer, b):
            ws = allocate(scorer, b)
            buffers.extend(weakref.ref(v.base) for v in (ws.enc.gates, ws.flat))
            return ws

        monkeypatch.setattr(_Workspace, "allocate", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            s.train(x, epochs=1)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(buffers) == 2 and all(ref() is None for ref in buffers)
        assert after - before <= 64 * 1024


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

    @pytest.mark.parametrize("epochs", [True, 1.5, 2.0, "2", None])
    def test_non_integer_epochs_refused_before_anything_changes(self, epochs):
        rows = np.random.default_rng(3).normal(size=(8, 2))
        s = toy_scorer(seed=2)
        stream_losses(s, rows, 0)
        memo, flat, rng_state = s._stream, s._flat.copy(), s.rng.bit_generator.state
        with pytest.raises(TypeError, match="epochs"):
            s.train(windows(rows, 3), epochs)
        assert s._stream is memo and s._flat.tobytes() == flat.tobytes()
        assert s.rng.bit_generator.state == rng_state
        twin = toy_scorer(seed=2)
        for scorer, count in ((s, np.int64(2)), (twin, 2)):  # a NumPy integer is a count
            scorer.train(windows(rows, 3), count)
        assert s._flat.tobytes() == twin._flat.tobytes()

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

    def test_numpy_integer_config_round_trip(self, tmp_path):
        cfg = ScorerConfig(**{**TOY, "timestep": np.int64(3), "hidden_size": np.int32(8),
                              "epochs_update": np.int64(2), "seed": np.int64(4)})
        s = LstmVaeScorer(cfg)
        path = tmp_path / "scorer.npz"
        s.save(path)
        loaded = LstmVaeScorer.load(path)
        assert loaded.config == s.config
        assert all(type(v) in (int, float) for v in vars(loaded.config).values())
        for k in s.params:
            assert np.array_equal(loaded.params[k], s.params[k])

    def test_numpy_float_config_round_trip(self, tmp_path):
        cfg = ScorerConfig(**{**TOY, "learning_rate": np.float32(1e-3), "adam_eps": np.float64(1e-7)})
        path = tmp_path / "scorer.npz"
        LstmVaeScorer(cfg).save(path)
        loaded = LstmVaeScorer.load(path).config
        assert loaded == cfg and loaded.learning_rate == float(np.float32(1e-3))
        assert type(loaded.learning_rate) is float and type(cfg.adam_eps) is float

    def test_train_after_load_moves_the_loaded_views(self, tmp_path):
        # load copies into the buffer's views, so training the loaded scorer
        # moves them exactly as it moves the scorer that was saved
        s = toy_scorer(seed=21)
        path = tmp_path / "scorer.npz"
        s.save(path)
        loaded = LstmVaeScorer.load(path)
        views = dict(loaded.params)
        before = {k: v.copy() for k, v in views.items()}
        rng = np.random.default_rng(0)
        batch = [rng.normal(size=(3, 2)) for _ in range(6)]
        s.train(batch, epochs=2)
        loaded.train(batch, epochs=2)
        for k, v in views.items():
            assert loaded.params[k] is v and np.shares_memory(v, loaded._flat), k
            assert not np.array_equal(v, before[k]), k
            assert np.array_equal(v, s.params[k]), k

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
            ({"config_json": np.array(json.dumps({**TOY, "seed": -1}))}, "config"),
            ({"enc_b": np.array(["x"] * 32)}, "enc_b"),
            ({"out_w": np.zeros((2, 8), dtype=np.float32)}, "out_w"),
            ({"config_json": np.array(json.dumps({**TOY, "hidden_size": 8.0}))}, "config"),
            ({"config_json": np.array(json.dumps({**TOY, "hidden_size": True}))}, "config"),
            ({"config_json": np.array(json.dumps({**TOY, "epochs_update": 2.5}))}, "config"),
        ],
        ids=["no-enc_wx", "no-out_b", "no-config", "no-version", "version-2", "version-str",
             "version-list", "config-unknown-key", "config-bad-value", "config-not-object",
             "config-not-json", "config-negative-seed", "str-tensor", "float32-tensor",
             "config-float-size", "config-bool-size", "config-float-count"],
    )
    def test_malformed_archive_rejected(self, tmp_path, changes, match):
        good = tmp_path / "scorer.npz"
        toy_scorer(seed=2).save(good)
        bad = tmp_path / "bad.npz"
        self.rewrite(good, bad, **changes)
        with pytest.raises(CorruptCheckpointError, match=match):
            LstmVaeScorer.load(bad)

    @pytest.mark.parametrize("data", [b"junk", b"PK\x03\x04junk", b"", None],
                             ids=["bytes", "broken-zip", "empty", "directory"])
    def test_non_archive_file_rejected(self, tmp_path, data):
        path = tmp_path / "scorer.npz"
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
        with pytest.raises(CorruptCheckpointError, match="not a scorer checkpoint"):
            LstmVaeScorer.load(path)

    def test_bare_array_rejected(self, tmp_path):
        path = tmp_path / "scorer.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(CorruptCheckpointError, match="not an archive"):
            LstmVaeScorer.load(path)

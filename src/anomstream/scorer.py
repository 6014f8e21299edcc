"""Sequence variational autoencoder used as the unsupervised anomaly scorer.

A single-layer LSTM encoder maps a window of feature rows to a Gaussian
latent; a single-layer LSTM decoder (fed the latent at every step, followed
by a fully connected output layer) reconstructs the window. The scalar
anomaly score of a window is the reconstruction sum of squares plus the
analytic KL term, evaluated with zero latent noise.

Everything is plain numpy with hand-written reverse-mode gradients through
the unrolled sequence, so training is deterministic for a fixed seed and
checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptCheckpointError, NonFiniteError, ShapeMismatchError

_CHECKPOINT_VERSION = 1
_SCORE_CHUNK = 512  # windows per ``score_many`` forward pass, bounding its intermediates
_MAX_PARAMETERS = 10**8  # 800 MB of float64 weights, before Adam's two copies and the gradients

# Parameter tensors in a fixed order; gate slices within the 4H axis are
# (input, forget, cell, output).
_PARAM_SHAPES = (
    ("enc_wx", lambda h, l, t, d: (4 * h, d)),
    ("enc_wh", lambda h, l, t, d: (4 * h, h)),
    ("enc_b", lambda h, l, t, d: (4 * h,)),
    ("mu_w", lambda h, l, t, d: (l, h)),
    ("mu_b", lambda h, l, t, d: (l,)),
    ("logvar_w", lambda h, l, t, d: (l, h)),
    ("logvar_b", lambda h, l, t, d: (l,)),
    ("dec_wx", lambda h, l, t, d: (4 * h, l)),
    ("dec_wh", lambda h, l, t, d: (4 * h, h)),
    ("dec_b", lambda h, l, t, d: (4 * h,)),
    ("out_w", lambda h, l, t, d: (d, h)),
    ("out_b", lambda h, l, t, d: (d,)),
)


@dataclass(kw_only=True)  # so timestep, defaulted, stays first: checkpoints keep their key order
class ScorerConfig:
    """Geometry and training hyperparameters of the scorer."""

    timestep: int = 30
    n_features: int
    hidden_size: int = 64
    latent_size: int = 32
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    epochs_initial: int = 30
    epochs_update: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timestep < 1 or self.n_features < 1:
            raise ValueError("timestep and n_features must be >= 1")
        if self.hidden_size < 1 or self.latent_size < 1:
            raise ValueError("hidden_size and latent_size must be >= 1")
        if self.batch_size < 1 or self.epochs_initial < 0 or self.epochs_update < 0:
            raise ValueError("batch_size must be >= 1, epochs_initial and epochs_update >= 0")
        if not (self.learning_rate > 0 and self.adam_eps > 0
                and 0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("learning_rate and adam_eps must be > 0, adam betas in [0, 1)")
        geometry = (self.hidden_size, self.latent_size, self.timestep, self.n_features)
        if sum(math.prod(shape(*geometry)) for _, shape in _PARAM_SHAPES) > _MAX_PARAMETERS:
            raise ValueError(f"the scorer geometry needs more than {_MAX_PARAMETERS} parameters")


@dataclass(frozen=True)
class LossValue:
    """Scorer loss split into its reconstruction and KL components."""

    total: float
    recon: float
    kl: float


def reparameterize(mu: np.ndarray, logvar: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Latent draw z = mu + exp(logvar / 2) * noise."""
    mu = np.asarray(mu, dtype=float)
    logvar = np.asarray(logvar, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if mu.shape != logvar.shape or mu.shape != noise.shape:
        raise ShapeMismatchError(
            f"mu {mu.shape}, logvar {logvar.shape}, noise {noise.shape} must match"
        )
    return mu + np.exp(0.5 * logvar) * noise


class LstmVaeScorer:
    """LSTM encoder/decoder VAE scoring windows by negative ELBO.

    ``score``, ``score_many`` and ``loss`` are pure. ``score_stream`` updates
    a memo of the last stream scored and ``train`` changes the weights and
    re-primes that memo, so neither is thread-safe; edits to ``params`` made
    outside ``train`` leave the memo stale.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        self._stream: _Stream | None = None
        self.rng = np.random.default_rng(config.seed)
        bound = 1.0 / np.sqrt(config.hidden_size)
        self.params: dict[str, np.ndarray] = {}
        for name, shape_fn in _PARAM_SHAPES:
            shape = shape_fn(
                config.hidden_size, config.latent_size, config.timestep, config.n_features
            )
            self.params[name] = self.rng.uniform(-bound, bound, size=shape)

    # ----------------------------------------------------------------- basics

    def _stack(self, windows) -> np.ndarray:
        """``windows`` as one checked (N, T, D) batch; a float64 array batch is not copied."""
        x = np.asarray(windows, dtype=float)
        t, d = self.config.timestep, self.config.n_features
        if x.ndim != 3 or x.shape[0] == 0 or x.shape[1:] != (t, d):
            raise ShapeMismatchError(f"window batch shape {x.shape}, expected (N, {t}, {d})")
        return x

    def _batch_of_one(self, window, noise) -> tuple[np.ndarray, np.ndarray]:
        """One ``window`` as a checked batch and its (1, L) noise; ``noise=None`` means zero."""
        x = self._stack(np.asarray(window, dtype=float)[None])
        if noise is None:
            noise = np.zeros(self.config.latent_size)
        return x, np.asarray(noise, dtype=float)[None]

    # --------------------------------------------------------------- forward

    def _lstm(self, xw: np.ndarray, wh: np.ndarray, need_cache: bool):
        """One LSTM layer over ``xw``, the (T, B, 4H) input projections plus bias.

        Returns the (T, B, H) hidden states and, with ``need_cache``, the
        per-step gate values that ``_lstm_backward`` consumes.
        """
        t, b, _ = xw.shape
        h_n = self.config.hidden_size
        scale, shift = _gate_affine(b, h_n)
        h = np.zeros((b, h_n))
        c = np.zeros((b, h_n))
        tc = np.empty((b, h_n))
        hs = np.empty((t, b, h_n))
        # a cached step keeps its own gates, c and tanh(c); scoring overwrites one set
        buffer = None if need_cache else np.empty((b, 4 * h_n))
        steps = [] if need_cache else None
        wh_t = wh.T
        for xw_t, h_out in zip(xw, hs):
            a = np.matmul(h, wh_t, out=buffer)
            a += xw_t
            c_prev, h_prev = c, h
            if need_cache:
                c, tc = np.empty((b, h_n)), np.empty((b, h_n))
            gates = _cell(a, c_prev, c, tc, h_out, scale, shift)
            h = h_out
            if need_cache:
                steps.append((*gates, c_prev, h_prev, tc))
        return hs, steps

    def _encode_batch(self, x: np.ndarray, need_cache: bool = True):
        p = self.params
        b, t, d = x.shape
        # the input projections of every step in one GEMM
        x_wx = (x.reshape(b * t, d) @ p["enc_wx"].T).reshape(b, t, -1)
        x_wx += p["enc_b"]
        hs, steps = self._lstm(x_wx.transpose(1, 0, 2), p["enc_wh"], need_cache)
        return hs[-1], steps

    def _decode_batch(self, z: np.ndarray, t: int, need_cache: bool = True):
        p = self.params
        z_wx = z @ p["dec_wx"].T + p["dec_b"]
        # the latent is the decoder's input at every step
        hs, steps = self._lstm(np.broadcast_to(z_wx, (t, *z_wx.shape)), p["dec_wh"], need_cache)
        # batch-major rows, so the output projection is one GEMM into (B, T, D)
        h_rows = hs.transpose(1, 0, 2).reshape(-1, hs.shape[2])
        xhat = (h_rows @ p["out_w"].T).reshape(z.shape[0], t, -1)
        xhat += p["out_b"]
        return xhat, hs, steps

    def _losses_batch(self, x: np.ndarray, noise: np.ndarray, need_cache: bool = True):
        h_enc, enc_steps = self._encode_batch(x, need_cache)
        recon, kl, tail = self._tail(x, h_enc, noise, need_cache)
        return recon, kl, (h_enc, enc_steps, tail)

    def _tail(self, x: np.ndarray, h_enc: np.ndarray, noise: np.ndarray, need_cache: bool):
        """Latent, decoder and loss of the windows ``x`` from their (B, H) final encoder states.

        Raises ``NonFiniteError`` on a negative KL term or a non-finite loss.
        """
        p = self.params
        mu = h_enc @ p["mu_w"].T + p["mu_b"]
        logvar = h_enc @ p["logvar_w"].T + p["logvar_b"]
        z = reparameterize(mu, logvar, noise)
        xhat, h_dec, dec_steps = self._decode_batch(z, x.shape[1], need_cache)
        diff = xhat - x
        recon = np.sum(diff * diff, axis=(1, 2))
        kl_terms = -0.5 * (1.0 + logvar - mu * mu - np.exp(logvar))
        kl = np.sum(kl_terms, axis=1)
        if np.any(kl < -1e-9):
            raise NonFiniteError("KL term is negative; loss computation is invalid")
        kl = np.maximum(kl, 0.0)
        if not np.all(np.isfinite(recon + kl)):
            raise NonFiniteError("non-finite loss; the scorer has diverged")
        return recon, kl, (mu, logvar, z, diff, h_dec, dec_steps)

    def loss(self, window, noise: np.ndarray | None = None) -> LossValue:
        """Negative ELBO of one window; ``noise=None`` means zero noise."""
        x, noise = self._batch_of_one(window, noise)
        recon, kl, _ = self._losses_batch(x, noise, need_cache=False)
        return LossValue(total=float(recon[0] + kl[0]), recon=float(recon[0]), kl=float(kl[0]))

    def score(self, window) -> float:
        """Deterministic anomaly score: loss with zero latent noise."""
        return self.loss(window, noise=None).total

    def score_many(self, windows: Sequence) -> np.ndarray:
        """Batched deterministic scores for a sequence of windows."""
        x = self._stack(windows)
        out = np.empty(x.shape[0])
        zeros = np.zeros((min(_SCORE_CHUNK, x.shape[0]), self.config.latent_size))
        for start in range(0, x.shape[0], _SCORE_CHUNK):
            part = x[start : start + _SCORE_CHUNK]
            recon, kl, _ = self._losses_batch(part, zeros[: part.shape[0]], need_cache=False)
            out[start : start + part.shape[0]] = recon + kl
        return out

    # ------------------------------------------------------------- streaming

    def _advance(self, stream: "_Stream", row: np.ndarray, position: int) -> None:
        """Feed the row at stream ``position`` to every window in flight in one T-row step.

        The slot of the window that starts with this row, the one ending at
        ``position + T - 1``, is zeroed first; it last held the window that
        ended at ``position - 1``.
        """
        p = self.params
        slot = (position - 1) % self.config.timestep
        stream.h[slot] = 0.0
        stream.c[slot] = 0.0
        np.matmul(stream.h, p["enc_wh"].T, out=stream.a)
        np.matmul(row, p["enc_wx"].T, out=stream.xw)
        stream.xw += p["enc_b"]
        stream.a += stream.xw
        _cell(stream.a, stream.c, stream.c, stream.tc, stream.h, stream.scale, stream.shift)

    def _prime(self, rows: np.ndarray, position: int) -> "_Stream":
        """A fresh stream memo for the window at ``position``, from ``rows``, the T - 1 before it.

        Every slot runs in its fixed position, so the windows in flight hold
        the same bits as a stream that ran through those rows without a break.
        """
        stream = _Stream(self.config, rows, position)
        for k, row in enumerate(rows):
            self._advance(stream, row, position - len(rows) + k)
        return stream

    def score_stream(self, window, position: int) -> float:
        """``score`` of the window ending at stream ``position``, whose last row is new.

        The memo is reused if ``position`` is its next one and the window starts
        with its T - 1 rows, else rebuilt from the window (``_prime``). The new
        row advances every window in flight; the one it completes is scored.
        """
        x, noise = self._batch_of_one(window, None)
        head = x[0, :-1]
        stream, self._stream = self._stream, None  # invalid until the loss passes _tail's checks
        if stream is None or stream.position != position or not np.array_equal(stream.rows, head):
            stream = self._prime(head, position)
        self._advance(stream, x[0, -1], position)
        h_enc = stream.h[position % self.config.timestep][None]
        recon, kl, _ = self._tail(x, h_enc, noise, False)
        stream.rows[...] = x[0, 1:]
        stream.position = position + 1
        self._stream = stream
        return float(recon[0] + kl[0])

    # -------------------------------------------------------------- backward

    def _lstm_backward(self, grads, layer: str, x: np.ndarray, steps,
                       dh_steps: np.ndarray | None, dh_last: np.ndarray):
        """Backpropagate through one LSTM layer run by ``_lstm``.

        ``x`` holds the layer's time-major (T, B, In) inputs, or its one
        (B, In) input when the layer reads the same input at every step.
        ``dh_steps`` is the (T, B, H) upstream gradient on each step's hidden
        state (None when only the last state feeds on) and ``dh_last`` the
        gradient on the final hidden state. The ``layer``'s weight gradients
        are added into ``grads``. For a (B, In) input the pre-activation
        gradients are summed over the steps first, so its input weights, bias
        and input take one product each after the loop, and the input
        gradient is returned.
        """
        p = self.params
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

    def _grads_batch(self, x: np.ndarray, cache, weight: float):
        """Gradients of weight * sum_b total_b for the cached forward pass."""
        h_enc, enc_steps, (mu, logvar, z, diff, h_dec, dec_steps) = cache
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}

        dxhat = (2.0 * weight) * diff  # (B,T,D)
        # T per-step products summed in step order: the same bits at any BLAS thread count
        grads["out_w"] = np.add.reduce(dxhat.transpose(1, 2, 0) @ h_dec, axis=0)
        grads["out_b"] = dxhat.sum(axis=(0, 1))
        dh_ext = (dxhat.reshape(-1, dxhat.shape[2]) @ p["out_w"]).reshape(*dxhat.shape[:2], -1)
        # the decoder reads z at every step
        no_dh = np.zeros((x.shape[0], self.config.hidden_size))
        dz = self._lstm_backward(grads, "dec", z, dec_steps, dh_ext.transpose(1, 0, 2), no_dh)

        # KL gradients plus the reparameterization path from dz.
        std = np.exp(0.5 * logvar)
        noise = (z - mu) / std
        dmu = dz + weight * mu
        dlogvar = dz * noise * 0.5 * std + weight * 0.5 * (np.exp(logvar) - 1.0)

        grads["mu_w"] = dmu.T @ h_enc
        grads["mu_b"] = dmu.sum(axis=0)
        grads["logvar_w"] = dlogvar.T @ h_enc
        grads["logvar_b"] = dlogvar.sum(axis=0)

        dh_enc = dmu @ p["mu_w"] + dlogvar @ p["logvar_w"]
        self._lstm_backward(grads, "enc", x.transpose(1, 0, 2), enc_steps, None, dh_enc)
        return grads

    def loss_and_gradients(self, window, noise: np.ndarray | None = None):
        """Loss of one window plus analytic gradients for every tensor."""
        x, noise = self._batch_of_one(window, noise)
        recon, kl, cache = self._losses_batch(x, noise)
        value = LossValue(float(recon[0] + kl[0]), float(recon[0]), float(kl[0]))
        return value, self._grads_batch(x, cache, weight=1.0)

    # -------------------------------------------------------------- training

    def train(self, windows: Sequence, epochs: int) -> "LstmVaeScorer":
        """Adam minimization of the mean loss over ``windows``.

        The optimizer state is fresh for each call; parameters continue from
        their current values, so repeated calls fine-tune the model. A diverging
        one restores the parameters and rng state bit-exactly and re-raises
        ``NonFiniteError``; either way the stream memo is re-primed.
        """
        if epochs <= 0:
            return self
        x = self._stack(windows)
        n = x.shape[0]
        cfg = self.config
        batch = min(cfg.batch_size, n)
        params = {k: v.copy() for k, v in self.params.items()}
        rng_state = self.rng.bit_generator.state
        # stale from here on, so only the rows and position are held through the fine-tune
        stream, self._stream = self._stream and (self._stream.rows, self._stream.position), None
        m_state = {k: np.zeros_like(v) for k, v in self.params.items()}
        v_state = {k: np.zeros_like(v) for k, v in self.params.items()}
        step = 0
        try:
            for _ in range(epochs):
                order = self.rng.permutation(n)
                for start in range(0, n, batch):
                    idx = order[start : start + batch]
                    xb = x[idx]
                    noise = self.rng.standard_normal((xb.shape[0], cfg.latent_size))
                    _, _, cache = self._losses_batch(xb, noise)
                    grads = self._grads_batch(xb, cache, weight=1.0 / xb.shape[0])
                    step += 1
                    bc1 = 1.0 - cfg.adam_beta1**step
                    bc2 = 1.0 - cfg.adam_beta2**step
                    for k, g in grads.items():
                        m_state[k] = cfg.adam_beta1 * m_state[k] + (1.0 - cfg.adam_beta1) * g
                        v_state[k] = cfg.adam_beta2 * v_state[k] + (1.0 - cfg.adam_beta2) * g * g
                        self.params[k] -= (
                            cfg.learning_rate * (m_state[k] / bc1) / (np.sqrt(v_state[k] / bc2) + cfg.adam_eps)
                        )
                    del cache, grads  # before the next forward: one minibatch's BPTT cache at a time
        except NonFiniteError:
            self.params.update(params)
            self.rng.bit_generator.state = rng_state
            raise
        finally:
            if stream:
                self._stream = self._prime(*stream)
        return self

    # ------------------------------------------------------------ checkpoint

    def save(self, path) -> None:
        """Write a versioned checkpoint; round-trips bit-exactly."""
        payload = {name: self.params[name] for name, _ in _PARAM_SHAPES}
        payload["format_version"] = np.array(_CHECKPOINT_VERSION)
        payload["config_json"] = np.array(json.dumps(asdict(self.config)))
        np.savez(path, **payload)

    @classmethod
    def load(cls, path) -> "LstmVaeScorer":
        """Read a ``save`` checkpoint; a file that is not one raises ``CorruptCheckpointError``."""
        try:
            data = np.load(path, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CorruptCheckpointError(f"not a scorer checkpoint: {exc}") from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CorruptCheckpointError("not a scorer checkpoint: one array, not an archive")
        with data:
            names = [name for name, _ in _PARAM_SHAPES]
            missing = [k for k in ("format_version", "config_json", *names) if k not in data]
            if missing:
                raise CorruptCheckpointError(f"scorer checkpoint lacks {missing}")
            version = data["format_version"].tolist()
            if version != _CHECKPOINT_VERSION:
                raise CorruptCheckpointError(f"unsupported checkpoint version {version!r}")
            try:
                config = ScorerConfig(**json.loads(str(data["config_json"])))
            except (TypeError, ValueError) as exc:  # not a JSON object, an unknown key, a bad value
                raise CorruptCheckpointError(f"bad scorer config: {exc}") from None
            scorer = cls(config)
            for name in names:
                tensor = data[name]
                if tensor.shape != scorer.params[name].shape:
                    raise ShapeMismatchError(
                        f"checkpoint tensor {name} has shape {tensor.shape}"
                    )
                if tensor.dtype != np.float64:
                    raise CorruptCheckpointError(f"checkpoint tensor {name} holds {tensor.dtype}")
                scorer.params[name] = tensor.copy()
        return scorer


def _gate_affine(b: int, h_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) that ``_cell`` applies around its ``tanh``, for B rows of 4H gates.

    (B, 4H), not one broadcast row: same-shape operands take numpy's
    single-loop fast path.
    """
    scale = np.full((b, 4 * h_n), 0.5)
    scale[:, 2 * h_n : 3 * h_n] = 1.0
    return scale, 1.0 - scale


def _cell(a, c_prev, c, tc, h, scale, shift):
    """One LSTM step over B rows, in place, from the (B, 4H) pre-activation ``a``.

    ``a`` becomes the gates; the new cell state is written to ``c`` (which
    may be ``c_prev``), its tanh to ``tc`` and the hidden state to ``h``.
    Returns the (input, forget, cell, output) gate views.

    All four gates come from one ``tanh`` over ``a``, by sigmoid(x) =
    tanh(x / 2) / 2 + 1 / 2: the i, f and o slices are halved before the
    ``tanh`` and after it, then shifted by 1/2; the g slice is left as it
    is. Halving is exact, so each gate is bit-identical to a sigmoid or
    tanh taken on its own slice.
    """
    h_n = a.shape[1] // 4
    a *= scale
    np.tanh(a, out=a)
    a *= scale
    a += shift
    gi, gf = a[:, :h_n], a[:, h_n : 2 * h_n]
    gg, go = a[:, 2 * h_n : 3 * h_n], a[:, 3 * h_n :]
    np.multiply(gf, c_prev, out=c)
    np.multiply(gi, gg, out=tc)  # i * g, before tc takes tanh(c)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(go, tc, out=h)
    return gi, gf, gg, go


class _Stream:
    """The scorer's memo of the last record stream it scored.

    Slot ``e mod T`` holds the encoder (h, c) of the window ending at stream
    position ``e``, for the T windows in flight; ``rows`` is a copy of the
    T - 1 rows the window at the next ``position`` starts with. Every array
    of the step is allocated here, once.
    """

    def __init__(self, config: ScorerConfig, rows: np.ndarray, position: int):
        timestep, hidden_size = config.timestep, config.hidden_size
        self.rows = rows.copy()
        self.position = position
        self.h = np.zeros((timestep, hidden_size))
        self.c = np.zeros((timestep, hidden_size))
        self.tc = np.empty((timestep, hidden_size))
        self.a = np.empty((timestep, 4 * hidden_size))
        self.xw = np.empty(4 * hidden_size)
        self.scale, self.shift = _gate_affine(timestep, hidden_size)

"""Sequence variational autoencoder used as the unsupervised anomaly scorer.

A single-layer LSTM encoder maps a window of feature rows to a Gaussian
latent; a single-layer LSTM decoder (fed the latent at every step, followed
by a fully connected output layer) reconstructs the window. The scalar
anomaly score of a window is the reconstruction sum of squares plus the
analytic KL term, evaluated with the latent at its mean.

Everything is plain numpy with hand-written reverse-mode gradients through
the unrolled sequence, so training is deterministic for a fixed seed and
checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import zipfile
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (CorruptCheckpointError, NonFiniteError, ShapeMismatchError, _is_int,
                     _store_floats, _store_ints)

_CHECKPOINT_VERSION = 1
_SCORE_CHUNK = 64  # windows per ``score_many`` forward pass, bounding its intermediates
_MAX_PARAMETERS = 10**8  # 800 MB of float64 weights, before Adam's two copies and the gradients

# Parameter tensors in buffer and checkpoint order, each shape a function of
# (H, L, D); gate slices within the 4H axis are (input, forget, cell, output).
_PARAM_SHAPES = {
    "enc_wx": lambda h, l, d: (4 * h, d),
    "enc_wh": lambda h, l, d: (4 * h, h),
    "enc_b": lambda h, l, d: (4 * h,),
    "mu_w": lambda h, l, d: (l, h),
    "mu_b": lambda h, l, d: (l,),
    "logvar_w": lambda h, l, d: (l, h),
    "logvar_b": lambda h, l, d: (l,),
    "dec_wx": lambda h, l, d: (4 * h, l),
    "dec_wh": lambda h, l, d: (4 * h, h),
    "dec_b": lambda h, l, d: (4 * h,),
    "out_w": lambda h, l, d: (d, h),
    "out_b": lambda h, l, d: (d,),
}
# the tensors ``_derive`` copies into the fused step's layout, in block order
_FUSED_WEIGHTS = ("enc_wx", "enc_wh", "enc_b", "dec_wx", "dec_wh", "dec_b")


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
        ints = _store_ints(self, ("timestep", "n_features", "hidden_size", "latent_size",
                                  "batch_size", "epochs_initial", "epochs_update", "seed"))
        if min(ints[:5]) < 1 or min(ints[5:]) < 0:
            raise ValueError("timestep, n_features, hidden_size, latent_size, batch_size must be "
                             ">= 1; epochs_initial, epochs_update, seed >= 0")
        lr, beta1, beta2, eps = _store_floats(
            self, ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps"))
        if not (lr > 0 and eps > 0 and 0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("learning_rate and adam_eps must be > 0, adam betas in [0, 1)")
        geometry = (self.hidden_size, self.latent_size, self.n_features)
        if sum(math.prod(shape(*geometry)) for shape in _PARAM_SHAPES.values()) > _MAX_PARAMETERS:
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

    ``params`` maps each tensor's name to its view of one float64 vector, and
    cannot be rebound. ``score``, ``score_many`` and ``loss`` are pure.
    ``score_stream`` updates a memo of the last stream scored and ``train``
    changes the weights and re-primes that memo, so neither is thread-safe.
    The memo holds its own copies of the encoder's and decoder's weights, laid
    out for its step, next to the states it keeps: edits to ``params`` made
    outside ``train`` leave both stale until the memo is next built.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        self._stream: _Stream | None = None
        geometry = (config.hidden_size, config.latent_size, config.n_features)
        self._shapes = {name: shape(*geometry) for name, shape in _PARAM_SHAPES.items()}
        self._ends = list(itertools.accumulate(map(math.prod, self._shapes.values())))
        self.rng = np.random.default_rng(config.seed)
        bound = 1.0 / np.sqrt(config.hidden_size)
        self._flat, views = self._vector()
        # one draw of every weight, in order: the bits of one draw per tensor
        self._flat[...] = self.rng.uniform(-bound, bound, self._ends[-1])
        self.params = MappingProxyType(views)

    def _vector(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """A zeroed float64 vector laid out like ``_flat``, and its named tensor views."""
        flat = _aligned_zeros(self._ends[-1])
        parts = zip(self._shapes.items(), np.split(flat, self._ends[:-1]))
        return flat, {name: v.reshape(shape) for (name, shape), v in parts}

    # ----------------------------------------------------------------- basics

    def _stack(self, windows) -> np.ndarray:
        """``windows`` as one checked (N, T, D) batch; a float64 array batch is not copied."""
        x = np.asarray(windows, dtype=float)
        t, d = self.config.timestep, self.config.n_features
        if x.ndim != 3 or x.shape[0] == 0 or x.shape[1:] != (t, d):
            raise ShapeMismatchError(f"window batch shape {x.shape}, expected (N, {t}, {d})")
        n, (s_n, s_t, s_d) = x.shape[0], x.strides  # windows one row apart read N + T - 1 rows
        rows = as_strided(x, (n + t - 1, d), (s_t, s_d), writeable=False) if s_n == s_t else x
        if not np.isfinite(rows).all():  # before any forward: the data's fault, not the weights'
            raise NonFiniteError("the window batch holds a NaN or inf")
        return x

    def _batch_of_one(self, window, noise) -> tuple[np.ndarray, np.ndarray | None]:
        """One ``window`` as a checked batch and its (1, L) noise; ``noise=None`` stays None."""
        x = self._stack(np.asarray(window, dtype=float)[None])
        return x, None if noise is None else np.asarray(noise, dtype=float)[None]

    # --------------------------------------------------------------- forward

    def _lstm(self, ws: _Workspace, layer: str, xw: np.ndarray) -> np.ndarray:
        """One LSTM layer of ``train``'s forward, kept in ``ws``'s ``layer`` cache for
        ``_lstm_backward``: T steps over ``xw``, the input projections plus bias in (T, B, 4H), or
        one (B, 4H) input read at every step. Returns the (T, B, H) hidden states."""
        cache, wh = getattr(ws, layer), self.params[f"{layer}_wh"]
        b, h_n = xw.shape[-2], self.config.hidden_size
        inputs = xw if xw.ndim == 3 else itertools.repeat(xw)
        a, a_gm = cache.a, cache.a.reshape(b, 4, h_n).transpose(1, 0, 2)
        h = cache.c[0]  # zero, as h0 is
        for xw_t, g, c_prev, c, tc, h_out in zip(inputs, cache.gates, cache.c, cache.c[1:],
                                                  cache.tc, cache.h):
            np.matmul(h, wh.T, out=a)
            a += xw_t
            _cell(a, a_gm, g, c_prev, c, tc, h_out, *ws.affine)
            h = h_out
        return cache.h

    def _losses_batch(self, x: np.ndarray, noise: np.ndarray | None, ws: _Workspace | _Batch):
        """Losses of the windows ``x``, run in ``ws`` sized for them: ``train``'s ``_Workspace``
        keeps the forward for the backward, a ``_Batch`` runs it on the derived weights."""
        b, t, d = x.shape
        batch = isinstance(ws, _Batch)
        p = ws.weights if batch else self.params
        lstm = ws.lstm if batch else lambda layer, xw: self._lstm(ws, layer, xw)
        # the input projections of every step in one GEMM
        x_wx = np.matmul(x.reshape(b * t, d), p["enc_wx"].T,
                         out=ws.xw.reshape(b * t, -1)).reshape(b, t, -1)
        x_wx += p["enc_b"]
        h_enc = lstm("enc", x_wx.transpose(1, 0, 2))[-1].copy()  # a _Batch's decoder overwrites hs
        recon, kl, tail = self._tail(x, h_enc, noise, lambda z: lstm(  # z at every step
            "dec", z @ p["dec_wx"].T + p["dec_b"]))
        return recon, kl, (h_enc, tail)

    def _tail(self, x: np.ndarray, h_enc: np.ndarray, noise: np.ndarray | None, decode):
        """Latent, decoder and loss of the windows ``x`` from their (B, H) final encoder states.

        ``noise=None`` decodes the latent mean. ``decode`` runs the decoder: it maps the (B, L)
        latents to the (T, B, H) hidden states (``_lstm`` in training, else ``_Batch.lstm`` or
        ``_Stream.decode``). Raises ``NonFiniteError`` on a negative KL term or a non-finite loss.
        """
        p = self.params
        mu = h_enc @ p["mu_w"].T + p["mu_b"]
        logvar = h_enc @ p["logvar_w"].T + p["logvar_b"]
        z = mu if noise is None else reparameterize(mu, logvar, noise)
        h_dec = decode(z)
        # batch-major rows, so the output projection is one GEMM into (B, T, D)
        h_rows = h_dec.transpose(1, 0, 2).reshape(-1, h_dec.shape[2])
        xhat = (h_rows @ p["out_w"].T).reshape(x.shape)
        xhat += p["out_b"]
        diff = xhat - x
        recon = np.add.reduce(diff * diff, axis=(1, 2))
        kl_terms = -0.5 * (1.0 + logvar - mu * mu - np.exp(logvar))
        kl = np.add.reduce(kl_terms, axis=1)
        if np.logical_or.reduce(kl < -1e-9):
            raise NonFiniteError("KL term is negative; loss computation is invalid")
        kl = np.maximum(kl, 0.0)
        if not np.logical_and.reduce(np.isfinite(recon + kl)):
            raise NonFiniteError("non-finite loss; the scorer has diverged")
        return recon, kl, (mu, logvar, z, diff, h_dec)

    def loss(self, window, noise: np.ndarray | None = None) -> LossValue:
        """Negative ELBO of one window; ``noise=None`` decodes the latent mean."""
        x, noise = self._batch_of_one(window, noise)
        recon, kl, _ = self._losses_batch(x, noise, _Batch.allocate(self, 1))
        return LossValue(total=float(recon[0] + kl[0]), recon=float(recon[0]), kl=float(kl[0]))

    def score(self, window) -> float:
        """Deterministic anomaly score: the loss with the latent at its mean."""
        return self.loss(window, noise=None).total

    def score_many(self, windows: Sequence) -> np.ndarray:
        """Batched deterministic scores for a sequence of windows, in chunks of ``_SCORE_CHUNK``."""
        x = self._stack(windows)
        batch, out = _Batch.allocate(self, min(len(x), _SCORE_CHUNK)), np.empty(len(x))
        for start in range(0, len(x), _SCORE_CHUNK):
            part = x[start : start + _SCORE_CHUNK]
            recon, kl, _ = self._losses_batch(part, None, batch.rows(len(part)))
            out[start : start + len(part)] = recon + kl
        return out

    # ------------------------------------------------------------- streaming

    def _prime(self, rows: np.ndarray, position: int) -> "_Stream":
        """A fresh stream memo for the window at ``position``, from ``rows``, the T - 1 before it.

        Every slot runs in its fixed position, so the windows in flight hold
        the same bits as a stream that ran through those rows without a break.
        """
        stream = _Stream(self, rows, position)
        for k, row in enumerate(rows):
            stream.advance(row, position - len(rows) + k)
        return stream

    def score_stream(self, window, position: int) -> float:
        """``score`` of the window ending at stream ``position``, whose last row is new.

        The memo is reused if ``position`` is its next one and the window starts
        with its T - 1 rows, else rebuilt from the window (``_prime``). The new
        row advances every window in flight; the one it completes is scored.
        A ``position`` that is not an integer raises ``TypeError``.
        """
        if not _is_int(position):  # before the memo is touched
            raise TypeError(f"position must be an integer, got {position!r}")
        position = int(position)
        x, _ = self._batch_of_one(window, None)
        head = x[0, :-1]
        stream, self._stream = self._stream, None  # invalid until the loss passes _tail's checks
        if stream is None or stream.position != position or not np.array_equal(stream.rows, head):
            stream = self._prime(head, position)
        stream.advance(x[0, -1], position)
        h_enc = stream.enc_h[position % self.config.timestep][None]
        recon, kl, _ = self._tail(x, h_enc, None, stream.decode)
        stream.rows[...] = x[0, 1:]
        stream.position = position + 1
        self._stream = stream
        return float(recon[0] + kl[0])

    # -------------------------------------------------------------- backward

    def _lstm_backward(self, ws: _Workspace, layer: str, x: np.ndarray,
                       dh_steps: np.ndarray | None, dh_last: np.ndarray):
        """Backpropagate through one LSTM layer run by ``_lstm`` with its cache in ``ws``.

        ``x`` holds the layer's time-major (T, B, In) inputs, or its one
        (B, In) input when the layer reads the same input at every step.
        ``dh_steps`` is the (T, B, H) upstream gradient on each step's hidden
        state (None when only the last state feeds on) and ``dh_last`` the
        gradient on the final hidden state. The ``layer``'s weight gradients
        are added into ``ws.grads``. For a (B, In) input the pre-activation
        gradients are summed over the steps first, so its input weights, bias
        and input take one product each after the loop, and the input
        gradient is returned. Temporaries are ``ws``'s; each element takes the comments' operations.
        """
        p, cache = self.params, getattr(ws, layer)
        wx, wh = p[f"{layer}_wx"], p[f"{layer}_wh"]
        g_wx, g_wh, g_b = (ws.grads[f"{layer}_{k}"] for k in ("wx", "wh", "b"))
        per_step = x.ndim == 3
        dh_buf, do, dc, dc_rec, dh_rec_buf, t1 = ws.bh
        (pre, one_minus), (da, da_sum) = ws.gm, ws.da
        da_gm = da.reshape(da.shape[0], 4, -1).transpose(1, 0, 2)
        da_sum.fill(0.0)
        dc_rec.fill(0.0)
        dh_rec = dh_last
        for step in range(len(cache.tc) - 1, -1, -1):
            gi, gf, gg, go = gates = cache.gates[step]
            tc = cache.tc[step]
            dh = dh_rec if dh_steps is None else np.add(dh_steps[step], dh_rec, out=dh_buf)
            np.multiply(dh, tc, out=do)  # do = dh * tc
            np.multiply(tc, tc, out=t1)  # dc = dc_rec + dh * go * (1 - tc * tc)
            np.subtract(1.0, t1, out=t1)
            np.multiply(dh, go, out=dc)
            dc *= t1
            dc += dc_rec
            # da = [dc * gg * gi * (1 - gi), dc * c_prev * gf * (1 - gf),
            #       dc * gi * (1 - gg * gg), do * go * (1 - go)], written gate-major into (B, 4H)
            np.subtract(1.0, gates, out=one_minus)
            np.multiply(gg, gg, out=one_minus[2])
            np.subtract(1.0, one_minus[2], out=one_minus[2])
            np.multiply(dc, gg, out=pre[0])
            pre[0] *= gi
            np.multiply(dc, cache.c[step], out=pre[1])
            pre[1] *= gf
            np.multiply(dc, gi, out=pre[2])
            np.multiply(do, go, out=pre[3])
            pre *= one_minus
            np.copyto(da_gm, pre)
            if per_step:
                g_wx += da.T @ x[step]
                g_b += da.sum(axis=0)
            else:
                da_sum += da
            h_prev = cache.h[step - 1] if step else cache.c[0]  # c[0] is zero, as h0 is
            g_wh += np.matmul(da.T, h_prev, out=ws.twh)
            dh_rec = np.matmul(da, wh, out=dh_rec_buf)
            np.multiply(dc, gf, out=dc_rec)
        if per_step:
            return None
        g_wx += da_sum.T @ x
        g_b += da_sum.sum(axis=0)
        return da_sum @ wx

    def _grads_batch(self, x: np.ndarray, noise: np.ndarray, weight: float, ws: _Workspace):
        """Losses of the windows ``x``, run in the workspace ``ws`` sized for them, and the
        gradients of weight * sum_b total_b, written into ``ws.flat``."""
        recon, kl, (h_enc, (mu, logvar, z, diff, h_dec)) = self._losses_batch(x, noise, ws)
        p, grads = self.params, ws.grads
        ws.flat.fill(0.0)

        dxhat = (2.0 * weight) * diff  # (B,T,D)
        # T per-step products summed in step order: the same bits at any BLAS thread count
        np.add.reduce(dxhat.transpose(1, 2, 0) @ h_dec, axis=0, out=grads["out_w"])
        dxhat.sum(axis=(0, 1), out=grads["out_b"])
        dh_ext = (dxhat.reshape(-1, dxhat.shape[2]) @ p["out_w"]).reshape(*dxhat.shape[:2], -1)
        # the decoder reads z at every step
        no_dh = np.zeros((x.shape[0], self.config.hidden_size))
        dz = self._lstm_backward(ws, "dec", z, dh_ext.transpose(1, 0, 2), no_dh)

        # KL gradients plus the reparameterization path from dz.
        std = np.exp(0.5 * logvar)
        noise = (z - mu) / std
        dmu = dz + weight * mu
        dlogvar = dz * noise * 0.5 * std + weight * 0.5 * (np.exp(logvar) - 1.0)

        np.matmul(dmu.T, h_enc, out=grads["mu_w"])
        dmu.sum(axis=0, out=grads["mu_b"])
        np.matmul(dlogvar.T, h_enc, out=grads["logvar_w"])
        dlogvar.sum(axis=0, out=grads["logvar_b"])

        dh_enc = dmu @ p["mu_w"] + dlogvar @ p["logvar_w"]
        self._lstm_backward(ws, "enc", x.transpose(1, 0, 2), None, dh_enc)
        return recon, kl

    def loss_and_gradients(self, window, noise: np.ndarray | None = None):
        """Loss of one window plus analytic gradients for every tensor."""
        x, noise = self._batch_of_one(window, noise)
        ws = _Workspace.allocate(self, 1)
        recon, kl = self._grads_batch(x, noise, 1.0, ws)
        return LossValue(float(recon[0] + kl[0]), float(recon[0]), float(kl[0])), ws.grads

    # -------------------------------------------------------------- training

    def train(self, windows: Sequence, epochs: int) -> "LstmVaeScorer":
        """Adam minimization of the mean loss over ``windows``.

        The optimizer state is fresh for each call; parameters continue from their current
        values, so repeated calls fine-tune the model. A diverging one restores the parameters and
        rng state bit-exactly and re-raises ``NonFiniteError``; either way the stream memo is
        re-primed. A non-integer ``epochs`` (``TypeError``) or a NaN or inf window
        (``NonFiniteError``) is refused before anything changes.
        """
        if not _is_int(epochs):
            raise TypeError(f"epochs must be an integer, got {epochs!r}")
        if epochs <= 0:
            return self
        x = self._stack(windows)
        n = x.shape[0]
        cfg = self.config
        batch = min(cfg.batch_size, n)
        saved = self._flat.copy()
        rng_state = self.rng.bit_generator.state
        # stale from here on, so only the rows and position are held through the fine-tune; a
        # copy of the rows, as a view would keep the memo's whole block alive (+1 MB peak RSS)
        stream = self._stream and (self._stream.rows.copy(), self._stream.position)
        self._stream = None
        m, v, scratch = (self._vector()[0] for _ in range(3))
        ws = _Workspace.allocate(self, batch)  # freed on return
        step = 0
        try:
            for _ in range(epochs):
                order = self.rng.permutation(n)
                for start in range(0, n, batch):
                    xb = x[order[start : start + batch]]
                    noise = self.rng.standard_normal((xb.shape[0], cfg.latent_size))
                    rows = ws.rows(xb.shape[0])
                    self._grads_batch(xb, noise, 1.0 / xb.shape[0], rows)
                    g = rows.flat
                    step += 1
                    # Adam in place; each element takes the operations of b1 * m + (1 - b1) * g,
                    # b2 * v + (1 - b2) * g * g and lr * (m / bc1) / (sqrt(v / bc2) + eps) in order
                    np.multiply(g, 1.0 - cfg.adam_beta2, out=scratch)
                    scratch *= g
                    v *= cfg.adam_beta2
                    v += scratch
                    g *= 1.0 - cfg.adam_beta1  # g is spent from here on, and holds the step
                    m *= cfg.adam_beta1
                    m += g
                    np.divide(v, 1.0 - cfg.adam_beta2**step, out=scratch)
                    np.sqrt(scratch, out=scratch)
                    scratch += cfg.adam_eps
                    np.divide(m, 1.0 - cfg.adam_beta1**step, out=g)
                    g *= cfg.learning_rate
                    g /= scratch
                    self._flat -= g
        except NonFiniteError:
            np.copyto(self._flat, saved)
            self.rng.bit_generator.state = rng_state
            raise
        finally:
            if stream:
                self._stream = self._prime(*stream)
        return self

    # ------------------------------------------------------------ checkpoint

    def save(self, path) -> None:
        """Write a versioned checkpoint; round-trips bit-exactly."""
        np.savez(path, **self.params, format_version=np.array(_CHECKPOINT_VERSION),
                 config_json=np.array(json.dumps(asdict(self.config))))

    @classmethod
    def load(cls, path) -> "LstmVaeScorer":
        """Read a ``save`` checkpoint; a file that is not one raises ``CorruptCheckpointError``."""
        try:
            data = np.load(path, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile, IsADirectoryError) as exc:
            raise CorruptCheckpointError(f"not a scorer checkpoint: {exc}") from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CorruptCheckpointError("not a scorer checkpoint: one array, not an archive")
        with data:
            absent = [k for k in ("format_version", "config_json", *_PARAM_SHAPES) if k not in data]
            if absent:
                raise CorruptCheckpointError(f"scorer checkpoint lacks {absent}")
            version = data["format_version"].tolist()
            if version != _CHECKPOINT_VERSION:
                raise CorruptCheckpointError(f"unsupported checkpoint version {version!r}")
            try:
                config = ScorerConfig(**json.loads(str(data["config_json"])))
            except (TypeError, ValueError) as exc:  # not a JSON object, an unknown key, a bad value
                raise CorruptCheckpointError(f"bad scorer config: {exc}") from None
            scorer = cls(config)
            for name, view in scorer.params.items():
                tensor = data[name]
                if tensor.shape != view.shape:
                    raise ShapeMismatchError(f"checkpoint tensor {name} has shape {tensor.shape}")
                if tensor.dtype != np.float64:
                    raise CorruptCheckpointError(f"checkpoint tensor {name} holds {tensor.dtype}")
                view[...] = tensor
        return scorer


def _aligned_zeros(n: int) -> np.ndarray:
    """n zeroed float64s from a 64-byte boundary: off one, scoring ran up to 14% and training 6%
    slower (AVX-512)."""
    raw = np.zeros(n + 8)
    return raw[(-raw.ctypes.data % 64) // 8 :][:n]


# private, and faulted in by the map call itself where the platform can (Linux): on the default
# shared map, faulted in page by page, score_many ran 9% and a fine-tune 4% slower (D=39, N=150)
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)}
              if hasattr(mmap, "MAP_PRIVATE") else {})


def _mapped(n: int) -> np.ndarray:
    """n zeroed float64s in an anonymous map of their own, so page-aligned. A malloc'd block this
    size is freed by raising glibc's mmap and trim thresholds, after which later blocks sat in an
    untrimmed heap: +2-5 MB peak RSS for the BPTT workspace, +3.7-7.3 MB for the batch forward's."""
    return np.frombuffer(mmap.mmap(-1, 8 * n, **_MAP_FLAGS), dtype=np.float64)


def _carve(shapes: list[tuple[int, ...]], block=_aligned_zeros) -> list[np.ndarray]:
    """Float64 arrays of ``shapes`` laid end to end in one ``block(n)`` of n floats, which starts
    on a 64-byte boundary; each array starts on one too."""
    sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]  # whole 64-byte lines
    flat = block(sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    return [flat[i : i + math.prod(shape)].reshape(shape) for i, shape in zip(starts, shapes)]


def _cell(a, a_gm, gates, c_prev, c, tc, h, scale, shift):
    """One LSTM step of ``train``'s forward over B rows, in place, from the (B, 4H) pre-activation
    ``a``, whose gate-major view ``a_gm`` goes to the (4, B, H) ``gates``, c to ``c``, tanh(c) to
    ``tc`` and h to ``h``. All four gates come from one ``tanh``, by sigmoid(x) = tanh(x / 2) / 2
    + 1 / 2: ``scale`` halves the i, f and o slices before the ``tanh`` and after it, ``shift``
    adds 1/2. Halving is exact, so each gate is bit-identical to a sigmoid or tanh on its own."""
    a *= scale
    np.tanh(a, out=a)
    a *= scale
    a += shift
    np.copyto(gates, a_gm)
    gi, gf, gg, go = gates
    np.multiply(gf, c_prev, out=c)
    np.multiply(gi, gg, out=tc)  # i * g, before tc takes tanh(c)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(go, tc, out=h)


class _Cache(NamedTuple):
    """One LSTM layer's BPTT cache in ``train``'s workspace, for B windows of T steps."""

    gates: np.ndarray  # (T, 4, B, H) activated gates, gate-major: each one (B, H) block
    c: np.ndarray  # (T + 1, B, H) cell states, c[0] = 0
    tc: np.ndarray  # (T, B, H) tanh of the cell states
    h: np.ndarray  # (T, B, H) hidden states
    a: np.ndarray  # (B, 4H) pre-activation buffer


class _Workspace(NamedTuple):
    """``train``'s BPTT workspace for minibatches of up to B windows, allocated once per call.

    Every array starts on a 64-byte boundary, as ``_vector``'s do. Held for the call, the cache
    is not returned to the OS and faulted in again for each minibatch, as one allocated per step
    was; gate-major, each elementwise operation on a gate runs as one inner loop, not B strided.
    """

    enc: _Cache
    dec: _Cache
    bh: np.ndarray  # (6, B, H): the backward's dh, do, dc, dc_rec, dh_rec and 1 - tanh(c)^2
    gm: np.ndarray  # (2, 4, B, H): da's leading factors and its (1 - gate) factors
    da: np.ndarray  # (2, B, 4H): da, and the decoder's sum of it over the steps
    twh: np.ndarray  # (4H, H): one step's recurrent weight-gradient product
    affine: np.ndarray  # (2, B, 4H): ``_cell``'s (scale, shift); same-shape operands run fastest
    xw: np.ndarray  # (B, T, 4H): the encoder's input projections, on ``dec.gates``' floats
    flat: np.ndarray  # the gradient vector, laid out like ``_flat``
    grads: dict[str, np.ndarray]  # its named tensor views

    @classmethod
    def allocate(cls, scorer: LstmVaeScorer, b: int) -> "_Workspace":
        t, h_n = scorer.config.timestep, scorer.config.hidden_size
        layer = [(t, 4, b, h_n), (t + 1, b, h_n), (t, b, h_n), (t, b, h_n), (b, 4 * h_n)]
        shapes = [*layer, *layer, (6, b, h_n), (2, 4, b, h_n), (2, b, 4 * h_n), (4 * h_n, h_n),
                  (2, b, 4 * h_n)]
        arrays = _carve(shapes, _mapped)
        enc, dec = _Cache(*arrays[:5]), _Cache(*arrays[5:10])
        enc.c[0] = dec.c[0] = 0.0
        arrays[14][...] = 0.5  # affine: g * 1 + 0 around the tanh, sigmoids * 1/2 + 1/2
        arrays[14][:, :, 2 * h_n : 3 * h_n] = np.array([1.0, 0.0])[:, None, None]
        # the input projections are spent when the encoder's loop ends, before the decoder
        # writes its first gate, so they take the decoder's gate cache (T * 4 * B * H floats)
        return cls(enc, dec, *arrays[10:], dec.gates.reshape(b, t, 4 * h_n), *scorer._vector())

    def rows(self, b: int) -> "_Workspace":
        """The workspace of a minibatch of ``b`` windows: views of the leading b rows."""
        enc, dec = (_Cache(*(v[..., :b, :] for v in c)) for c in (self.enc, self.dec))
        return self._replace(enc=enc, dec=dec, bh=self.bh[..., :b, :], gm=self.gm[..., :b, :],
                             da=self.da[..., :b, :], affine=self.affine[:, :b], xw=self.xw[:b])


def _derive(p, shapes: list[tuple[int, ...]], block=_aligned_zeros
            ) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """``_FUSED_WEIGHTS``' copies from ``params`` ``p``, by name, then zeroed arrays of ``shapes``,
    carved from one ``block`` (``_carve``'s). A copy has its gate rows reordered from (i, f, g, o)
    to (g, f, i, o) and its sigmoid rows halved: halving is exact, so ``_cell``'s pass before
    ``tanh`` goes."""
    h_n = p["enc_wh"].shape[1]
    arrays = _carve([*(p[name].shape for name in _FUSED_WEIGHTS), *shapes], block)
    order = np.r_[2 * h_n : 3 * h_n, h_n : 2 * h_n, :h_n, 3 * h_n : 4 * h_n]
    for name, w in zip(_FUSED_WEIGHTS, arrays):
        np.take(p[name], order, axis=0, out=w)
        w[h_n:] *= 0.5
    return dict(zip(_FUSED_WEIGHTS, arrays)), arrays[len(_FUSED_WEIGHTS) :]


def _fused_views(z: np.ndarray, affine: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_fused_step``'s views of a state z = [c | g | f | i | o]: (g, f, i, o), (c, g), (f, i),
    c, g, o and the (scale, shift) pair ``affine``, set from zeros: g * 1 + 0, sigmoid / 2 + 1/2."""
    affine[0, 0] = 1.0
    affine[:, 1:] = 0.5
    return z[1:], z[:2], z[2:4], z[0], z[1], z[4], *affine


def _fused_step(gates: tuple[np.ndarray, ...], pre: np.ndarray, h: np.ndarray) -> None:
    """One LSTM step, in place, on a gate-major state z = [c | g | f | i | o] (``gates``).

    ``pre`` is the (g, f, i, o) pre-activation, its sigmoid rows already halved, so one ``tanh``
    and the (scale, shift) pass give the gates. As c sits next to g and f next to i, c * f + g * i
    is one multiply and one add; ``h`` gets o * tanh(c). Each element takes ``_cell``'s operations
    in its order, so the bits are ``_cell``'s.
    """
    a, cg, fi, c, g, o, scale, shift = gates
    np.tanh(pre, out=a)
    a *= scale
    a += shift
    cg *= fi
    c += g
    np.tanh(c, out=h)
    h *= o


def _slot_step(gates, h, wh_t, pre, xw, h_out) -> None:
    """A ``_fused_step`` of B rows from states ``h`` (``h_out`` may be ``h``) and inputs ``xw``.
    h @ wh′ᵀ is ``_lstm``'s BLAS call, slot-major into ``pre``; one copy puts ``pre`` + ``xw``
    gate-major: a GEMM written gate-major or per gate sums in another order at some sizes."""
    np.matmul(h, wh_t, out=pre)
    pre += xw
    np.copyto(gates[0], pre.reshape(len(h), 4, -1).transpose(1, 0, 2))
    _fused_step(gates, gates[0], h_out)


class _Batch(NamedTuple):
    """The forward of ``score``, ``score_many`` and ``loss`` for up to B windows, one mapped block
    a call: the encoder, then the decoder, run ``_slot_step`` on one gate-major (5, B, H) state."""

    weights: dict[str, np.ndarray]  # ``_derive``'s
    xw: np.ndarray  # (B, T, 4H): the encoder's input projections
    gates: tuple[np.ndarray, ...]  # ``_fused_views`` of the state
    pre: np.ndarray  # (B, 4H): the pre-activations
    hs: np.ndarray  # (T + 1, B, H): a layer's hidden states after h0, which is zero, never written

    @classmethod
    def allocate(cls, scorer: LstmVaeScorer, b: int) -> "_Batch":
        t, h_n = scorer.config.timestep, scorer.config.hidden_size
        weights, (xw, z, affine, pre, hs) = _derive(scorer.params, [
            (b, t, 4 * h_n), (5, b, h_n), (2, 4, b, h_n), (b, 4 * h_n), (t + 1, b, h_n)], _mapped)
        return cls(weights, xw, _fused_views(z, affine), pre, hs)

    def rows(self, b: int) -> "_Batch":
        """The block of a chunk of ``b`` windows: views of the leading b rows."""
        return self._replace(xw=self.xw[:b], gates=tuple(v[..., :b, :] for v in self.gates),
                             pre=self.pre[:b], hs=self.hs[:, :b])

    def lstm(self, layer: str, xw: np.ndarray) -> np.ndarray:
        """The ``layer``'s (T, B, H) hidden states, as ``_lstm``'s: ``xw`` holds the time-major
        (T, B, 4H) inputs, or one (B, 4H) input read at every step."""
        wh_t = self.weights[f"{layer}_wh"].T
        self.gates[3][...] = 0.0  # c0
        inputs = xw if xw.ndim == 3 else itertools.repeat(xw)
        for x_t, h_prev, h in zip(inputs, self.hs, self.hs[1:]):
            _slot_step(self.gates, h_prev, wh_t, self.pre, x_t, h)
        return self.hs[1:]


class _Stream:
    """The scorer's memo of the last record stream it scored.

    Slot ``e mod T`` holds the encoder state of the window ending at stream position ``e``, for
    the T windows in flight; ``rows`` is a copy of the T - 1 rows the window at the next
    ``position`` starts with. Both recurrences run ``_fused_step`` on the derived weights made
    when the memo is built, the encoder on a (5, T, H) state and the decoder on a (5, H) one.
    Every array is a view of the one aligned ``_derive`` block, so no step allocates.
    """

    def __init__(self, scorer: LstmVaeScorer, rows: np.ndarray, position: int):
        cfg = scorer.config
        t, h_n = cfg.timestep, cfg.hidden_size
        w, (self.rows, enc_z, enc_affine, self.enc_h, self.enc_pre, self.enc_xw,
            dec_z, dec_affine, self.dec_h, self.dec_xw) = _derive(scorer.params, [
                (t - 1, cfg.n_features), (5, t, h_n), (2, 4, t, h_n), (t, h_n), (t, 4 * h_n),
                (t, 4 * h_n), (5, h_n), (2, 4, h_n), (t, h_n), (4 * h_n,)])
        self.enc_wx_t, self.enc_wh_t, self.dec_wx_t, self.dec_wh_t = (
            w[name].T for name in ("enc_wx", "enc_wh", "dec_wx", "dec_wh"))
        self.enc_b, self.dec_b = w["enc_b"], w["dec_b"]
        self.enc_gates = _fused_views(enc_z, enc_affine)
        self.dec_gates = _fused_views(dec_z, dec_affine)
        self.rows[...] = rows
        self.position = position

    def advance(self, row: np.ndarray, position: int) -> None:
        """Feed the row at stream ``position`` to every window in flight in one T-row
        ``_slot_step``. The slot of the window that starts with this row, the one ending at
        ``position + T - 1``, is zeroed first; it last held the window ending at ``position - 1``.
        """
        h, xw = self.enc_h, self.enc_xw
        slot = (position - 1) % len(h)
        h[slot] = 0.0
        self.enc_gates[3][slot] = 0.0  # c
        np.dot(row, self.enc_wx_t, out=xw[0])
        xw[0] += self.enc_b
        xw[1:] = xw[0]  # a broadcast add would allocate numpy's buffer on every call
        _slot_step(self.enc_gates, h, self.enc_wh_t, self.enc_pre, xw, h)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """The decoder's (T, 1, H) hidden states for the (1, L) latent ``z`` (``_tail``'s
        ``decode``): ``np.dot`` for the matvec, and step 1 reads the input projection, as h0 = 0."""
        gates, xw, hs, wh_t = self.dec_gates, self.dec_xw, self.dec_h, self.dec_wh_t
        a = gates[0].reshape(-1)
        np.dot(z[0], self.dec_wx_t, out=xw)
        xw += self.dec_b
        gates[3][...] = 0.0  # c0
        _fused_step(gates, xw.reshape(4, -1), hs[0])
        for h_prev, h in zip(hs, hs[1:]):
            np.dot(h_prev, wh_t, out=a)
            a += xw
            _fused_step(gates, gates[0], h)
        return hs[:, None]

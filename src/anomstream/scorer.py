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

import functools
import itertools
import json
import math
import mmap
import zipfile
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (CorruptCheckpointError, NonFiniteError, ShapeMismatchError, _is_int,
                     _store_floats, _store_ints)

_CHECKPOINT_VERSION = 1
_SCORE_CHUNK = 128  # windows per ``score_many`` forward pass, bounding its intermediates
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
# the tensors ``_Stream`` copies into its own layout, in its block's order
_STREAM_WEIGHTS = ("enc_wx", "enc_wh", "enc_b", "dec_wx", "dec_wh", "dec_b")


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
        return x

    def _batch_of_one(self, window, noise) -> tuple[np.ndarray, np.ndarray | None]:
        """One ``window`` as a checked batch and its (1, L) noise; ``noise=None`` stays None."""
        x = self._stack(np.asarray(window, dtype=float)[None])
        return x, None if noise is None else np.asarray(noise, dtype=float)[None]

    # --------------------------------------------------------------- forward

    def _lstm(self, xw: np.ndarray, t: int, wh: np.ndarray, cache: _Cache | None = None):
        """One LSTM layer of ``t`` steps over ``xw``, the input projections plus bias.

        ``xw`` holds the time-major (T, B, 4H) inputs, or the one (B, 4H) input
        of a layer that reads the same input at every step. Returns the (T, B, H) hidden
        states; with a ``cache`` for these B rows, every step is kept in it for ``_lstm_backward``.
        """
        b, h_n = xw.shape[-2], self.config.hidden_size
        scale, shift = _gate_affine(b, h_n)
        inputs = xw if xw.ndim == 3 else itertools.repeat(xw, t)
        wh_t = wh.T
        if cache is None:  # scoring overwrites one gate buffer, c and tanh(c) at every step
            h = np.zeros((b, h_n))
            c = np.zeros((b, h_n))
            tc = np.empty((b, h_n))
            hs = np.empty((t, b, h_n))
            a = np.empty((b, 4 * h_n))
            gates = _gate_views(a)
            for xw_t, h_out in zip(inputs, hs):
                np.matmul(h, wh_t, out=a)
                a += xw_t
                _cell(a, gates, c, c, tc, h_out, scale, shift)
                h = h_out
            return hs
        # training keeps every step's gates, gate-major, and its c and tanh(c) in the cache
        a, a_gm = cache.a, cache.a.reshape(b, 4, h_n).transpose(1, 0, 2)
        h = cache.c[0]  # zero, as h0 is
        for xw_t, g, c_prev, c, tc, h_out in zip(inputs, cache.gates, cache.c, cache.c[1:],
                                                  cache.tc, cache.h):
            np.matmul(h, wh_t, out=a)
            a += xw_t
            _cell(a, g, c_prev, c, tc, h_out, scale, shift, a_gm)
            h = h_out
        return cache.h

    def _losses_batch(self, x: np.ndarray, noise: np.ndarray | None, ws: _Workspace | None = None):
        """Losses of the windows ``x``; a workspace ``ws`` sized for them keeps the forward."""
        p = self.params
        b, t, d = x.shape
        # the input projections of every step in one GEMM
        x_wx = np.matmul(x.reshape(b * t, d), p["enc_wx"].T,
                         out=None if ws is None else ws.xw.reshape(b * t, -1)).reshape(b, t, -1)
        x_wx += p["enc_b"]
        hs = self._lstm(x_wx.transpose(1, 0, 2), t, p["enc_wh"], ws and ws.enc)
        recon, kl, tail = self._tail(x, hs[-1], noise, lambda z: self._lstm(  # z at every step
            z @ p["dec_wx"].T + p["dec_b"], t, p["dec_wh"], ws and ws.dec))
        return recon, kl, (hs[-1], tail)

    def _tail(self, x: np.ndarray, h_enc: np.ndarray, noise: np.ndarray | None, decode):
        """Latent, decoder and loss of the windows ``x`` from their (B, H) final encoder states.

        ``noise=None`` decodes the latent mean. ``decode`` runs the decoder: it maps the (B, L)
        latents to the (T, B, H) hidden states (``_lstm``, or the stream's fused step). Raises
        ``NonFiniteError`` on a negative KL term or a non-finite loss.
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
        recon, kl, _ = self._losses_batch(x, noise)
        return LossValue(total=float(recon[0] + kl[0]), recon=float(recon[0]), kl=float(kl[0]))

    def score(self, window) -> float:
        """Deterministic anomaly score: the loss with the latent at its mean."""
        return self.loss(window, noise=None).total

    def score_many(self, windows: Sequence) -> np.ndarray:
        """Batched deterministic scores for a sequence of windows."""
        x = self._stack(windows)
        out = np.empty(x.shape[0])
        for start in range(0, x.shape[0], _SCORE_CHUNK):
            part = x[start : start + _SCORE_CHUNK]
            recon, kl, _ = self._losses_batch(part, None)
            out[start : start + part.shape[0]] = recon + kl
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


def _carve(shapes: list[tuple[int, ...]], block=_aligned_zeros) -> list[np.ndarray]:
    """Float64 arrays of ``shapes`` laid end to end in one ``block(n)`` of n floats, which starts
    on a 64-byte boundary; each array starts on one too."""
    sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]  # whole 64-byte lines
    flat = block(sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    return [flat[i : i + math.prod(shape)].reshape(shape) for i, shape in zip(starts, shapes)]


@functools.lru_cache(maxsize=2)  # sizes live together: a batch and its remainder
def _gate_affine(b: int, h_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) that ``_cell`` applies around its ``tanh``, for B rows of 4H gates.

    (B, 4H), not one broadcast row: same-shape operands take numpy's
    single-loop fast path. Memoized, so both are read-only.
    """
    scale = np.full((b, 4 * h_n), 0.5)
    scale[:, 2 * h_n : 3 * h_n] = 1.0
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _gate_views(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (input, forget, cell, output) (B, H) views of the (B, 4H) gate buffer ``a``."""
    h_n = a.shape[1] // 4
    return a[:, :h_n], a[:, h_n : 2 * h_n], a[:, 2 * h_n : 3 * h_n], a[:, 3 * h_n :]


def _cell(a, gates, c_prev, c, tc, h, scale, shift, a_gm=None):
    """One LSTM step over B rows, in place, from the (B, 4H) pre-activation ``a``.

    ``a`` becomes the gates, which ``gates`` views (``_gate_views``), or, given ``a_gm``, ``a``'s
    gate-major view, are copied into the (4, B, H) block ``gates``. The new cell state is
    written to ``c`` (which may be ``c_prev``), its tanh to ``tc`` and the hidden state to ``h``.

    All four gates come from one ``tanh`` over ``a``, by sigmoid(x) =
    tanh(x / 2) / 2 + 1 / 2: the i, f and o slices are halved before the
    ``tanh`` and after it, then shifted by 1/2; the g slice is left as it
    is. Halving is exact, so each gate is bit-identical to a sigmoid or
    tanh taken on its own slice.
    """
    gi, gf, gg, go = gates
    a *= scale
    np.tanh(a, out=a)
    a *= scale
    a += shift
    if a_gm is not None:
        np.copyto(gates, a_gm)
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
    xw: np.ndarray  # (B, T, 4H): the encoder's input projections
    flat: np.ndarray  # the gradient vector, laid out like ``_flat``
    grads: dict[str, np.ndarray]  # its named tensor views

    @classmethod
    def allocate(cls, scorer: LstmVaeScorer, b: int) -> "_Workspace":
        t, h_n = scorer.config.timestep, scorer.config.hidden_size
        layer = [(t, 4, b, h_n), (t + 1, b, h_n), (t, b, h_n), (t, b, h_n), (b, 4 * h_n)]
        shapes = [*layer, *layer, (6, b, h_n), (2, 4, b, h_n), (2, b, 4 * h_n), (4 * h_n, h_n),
                  (b, t, 4 * h_n)]
        # mapped, not malloc'd: glibc frees a block this size by raising its mmap and trim
        # thresholds, after which later workspaces sat in an untrimmed heap (+2-5 MB peak RSS)
        arrays = _carve(shapes, lambda n: np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64))
        enc, dec = _Cache(*arrays[:5]), _Cache(*arrays[5:10])
        enc.c[0] = dec.c[0] = 0.0
        return cls(enc, dec, *arrays[10:], *scorer._vector())

    def rows(self, b: int) -> "_Workspace":
        """The workspace of a minibatch of ``b`` windows: views of the leading b rows."""
        enc, dec = (_Cache(*(v[..., :b, :] for v in c)) for c in (self.enc, self.dec))
        return self._replace(enc=enc, dec=dec, bh=self.bh[..., :b, :], gm=self.gm[..., :b, :],
                             da=self.da[..., :b, :], xw=self.xw[:b])


def _fused_step(gates: tuple[np.ndarray, ...], pre: np.ndarray, h: np.ndarray) -> None:
    """One LSTM step of the stream memo, in place, on a gate-major state z = [c | g | f | i | o].

    ``gates`` holds ``_Stream._gates``' views of z and ``pre`` the (g, f, i, o) pre-activation,
    its sigmoid rows already halved, so one ``tanh`` and the (scale, shift) pass give the gates
    (sigmoid(x) = tanh(x / 2) / 2 + 1 / 2). As c sits next to g and f next to i, c * f + g * i
    is one multiply and one add; ``h`` gets o * tanh(c). Each element takes ``_cell``'s
    operations in its order, so the bits are ``_lstm``'s.
    """
    a, cg, fi, c, g, o, scale, shift = gates
    np.tanh(pre, out=a)
    a *= scale
    a += shift
    cg *= fi
    c += g
    np.tanh(c, out=h)
    h *= o


class _Stream:
    """The scorer's memo of the last record stream it scored.

    Slot ``e mod T`` holds the encoder state of the window ending at stream
    position ``e``, for the T windows in flight; ``rows`` is a copy of the
    T - 1 rows the window at the next ``position`` starts with.

    Both recurrences run ``_fused_step``, the encoder on a (5, T, H) state and the decoder on
    a (5, H) one. They read copies of the encoder's and the decoder's ``wx``, ``wh`` and ``b``
    made when the memo is built, gate rows reordered from (i, f, g, o) to (g, f, i, o) and the
    sigmoid rows halved: halving is exact, so ``_cell``'s scaling pass before ``tanh`` goes.
    Every array (those weights, the states, the buffers, the decoder's (T, H) hidden states)
    is a view of one zeroed float64 block and starts on a 64-byte boundary, as ``_vector``'s
    do; no step allocates.
    """

    def __init__(self, scorer: LstmVaeScorer, rows: np.ndarray, position: int):
        cfg, p = scorer.config, scorer.params
        t, h_n = cfg.timestep, cfg.hidden_size
        shapes = [(t - 1, cfg.n_features), *(p[name].shape for name in _STREAM_WEIGHTS),
                  (5, t, h_n), (2, 4, t, h_n), (t, h_n), (t, 4 * h_n), (t, 4 * h_n),
                  (5, h_n), (2, 4, h_n), (t, h_n), (4 * h_n,)]
        self.rows, *weights = _carve(shapes)
        (enc_z, enc_affine, self.enc_h, self.enc_pre, self.enc_xw,
         dec_z, dec_affine, self.dec_h, self.dec_xw) = weights[6:]
        order = np.r_[2 * h_n : 3 * h_n, h_n : 2 * h_n, :h_n, 3 * h_n : 4 * h_n]
        for name, w in zip(_STREAM_WEIGHTS, weights):
            np.take(p[name], order, axis=0, out=w)
            w[h_n:] *= 0.5
        enc_wx, enc_wh, self.enc_b, dec_wx, dec_wh, self.dec_b = weights[:6]
        self.enc_wx_t, self.enc_wh_t, self.dec_wx_t, self.dec_wh_t = (
            w.T for w in (enc_wx, enc_wh, dec_wx, dec_wh))
        for affine in (enc_affine, dec_affine):  # after the tanh: g * 1 + 0, sigmoids * 1/2 + 1/2
            affine[0, 0] = 1.0
            affine[:, 1:] = 0.5
        self.enc_gates = self._gates(enc_z, enc_affine)
        self.dec_gates = self._gates(dec_z, dec_affine)
        self.rows[...] = rows
        self.position = position

    @staticmethod
    def _gates(z: np.ndarray, affine: np.ndarray) -> tuple[np.ndarray, ...]:
        """``_fused_step``'s views of the state ``z``: (g, f, i, o), (c, g), (f, i), c, g and o,
        then the (scale, shift) pair ``affine``."""
        return z[1:], z[:2], z[2:4], z[0], z[1], z[4], *affine

    def advance(self, row: np.ndarray, position: int) -> None:
        """Feed the row at stream ``position`` to every window in flight in one T-row step.

        The slot of the window that starts with this row, the one ending at
        ``position + T - 1``, is zeroed first; it last held the window that
        ended at ``position - 1``. The (T, H) @ (H, 4H) product is ``_lstm``'s
        BLAS call, slot-major, and one copy puts it gate-major: a GEMM written
        gate-major or per gate sums in another order at some sizes (T=30, H=63).
        """
        h, pre, xw, gates = self.enc_h, self.enc_pre, self.enc_xw, self.enc_gates
        slot = (position - 1) % len(h)
        h[slot] = 0.0
        gates[3][slot] = 0.0  # c
        np.matmul(h, self.enc_wh_t, out=pre)
        np.dot(row, self.enc_wx_t, out=xw[0])
        xw[0] += self.enc_b
        xw[1:] = xw[0]  # a broadcast add would allocate numpy's buffer on every call
        pre += xw
        np.copyto(gates[0], pre.reshape(len(h), 4, -1).transpose(1, 0, 2))
        _fused_step(gates, gates[0], h)

    def decode(self, z: np.ndarray) -> np.ndarray:
        """The decoder's (T, 1, H) hidden states for the (1, L) latent ``z`` (``_tail``'s
        ``decode``). Step 1's pre-activation is the input projection alone, as h0 = 0; a step
        makes 9 passes, the matvec and the input add among them, where ``_lstm`` makes 11."""
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

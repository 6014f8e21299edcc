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
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

_CHECKPOINT_VERSION = 1

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


@dataclass
class ScorerConfig:
    """Geometry and training hyperparameters of the scorer."""

    timestep: int
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


@dataclass(frozen=True)
class LossValue:
    """Scorer loss split into its reconstruction and KL components."""

    total: float
    recon: float
    kl: float


def parameter_count(config: ScorerConfig) -> int:
    """Total number of scalar parameters for a given geometry."""
    h, l, d = config.hidden_size, config.latent_size, config.n_features
    return 4 * h * (d + h + 1) + 2 * (h * l + l) + 4 * h * (l + h + 1) + (h * d + d)


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

    Scoring is pure and may run concurrently; ``train`` mutates the single
    parameter set and must not overlap with scoring.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        bound = 1.0 / np.sqrt(config.hidden_size)
        self.params: dict[str, np.ndarray] = {}
        for name, shape_fn in _PARAM_SHAPES:
            shape = shape_fn(
                config.hidden_size, config.latent_size, config.timestep, config.n_features
            )
            self.params[name] = self.rng.uniform(-bound, bound, size=shape)

    # ----------------------------------------------------------------- basics

    @property
    def parameter_count(self) -> int:
        return sum(v.size for v in self.params.values())

    def _window_rows(self, window) -> np.ndarray:
        rows = np.asarray(window, dtype=float)
        t, d = self.config.timestep, self.config.n_features
        if rows.shape != (t, d):
            raise ShapeMismatchError(f"window shape {rows.shape}, expected {(t, d)}")
        return rows

    def _stack(self, windows) -> np.ndarray:
        """The (N, T, D) batch of ``windows`` as one C-contiguous array."""
        x = np.ascontiguousarray(windows, dtype=float)
        t, d = self.config.timestep, self.config.n_features
        if x.ndim != 3 or x.shape[0] == 0 or x.shape[1:] != (t, d):
            raise ShapeMismatchError(f"window batch shape {x.shape}, expected (N, {t}, {d})")
        return x

    # --------------------------------------------------------------- forward

    def _lstm(self, xw: np.ndarray, wh: np.ndarray, need_cache: bool):
        """One LSTM layer over ``xw``, the (T, B, 4H) input projections plus bias.

        Returns the (T, B, H) hidden states and, with ``need_cache``, the
        per-step gate values that ``_lstm_backward`` consumes.

        Each step takes all four gates from one ``tanh`` over the 4H
        pre-activation, by sigmoid(x) = (1 + tanh(x / 2)) / 2: the i, f and o
        slices are halved before the ``tanh`` and mapped by (1 + y) / 2 after
        it, the g slice is left as it is. Halving is exact, so each gate is
        bit-identical to a sigmoid or tanh taken on its own slice.
        """
        t, b, _ = xw.shape
        h_n = self.config.hidden_size
        g_slice = slice(2 * h_n, 3 * h_n)
        scale = np.full(4 * h_n, 0.5)
        scale[g_slice] = 1.0
        h = np.zeros((b, h_n))
        c = np.zeros((b, h_n))
        hs = np.empty((t, b, h_n))
        steps = [] if need_cache else None
        for xw_t, h_out in zip(xw, hs):
            a = h @ wh.T
            a += xw_t
            a *= scale
            np.tanh(a, out=a)
            gg = a[:, g_slice].copy()
            a += 1.0
            a *= 0.5
            gi, gf, go = a[:, :h_n], a[:, h_n : 2 * h_n], a[:, 3 * h_n :]
            c_prev, h_prev = c, h
            c = gf * c_prev
            # the g slice of ``a`` is spent once copied: it takes i * g
            c += np.multiply(gi, gg, out=a[:, g_slice])
            tc = np.tanh(c)
            h = np.multiply(go, tc, out=h_out)
            if need_cache:
                steps.append((gi, gf, gg, go, c_prev, h_prev, tc))
        return hs, steps

    def _encode_batch(self, x: np.ndarray, need_cache: bool = True):
        p = self.params
        b, t, d = x.shape
        # the input projections of every step in one GEMM
        x_wx = (x.reshape(b * t, d) @ p["enc_wx"].T).reshape(b, t, -1)
        x_wx += p["enc_b"]
        hs, steps = self._lstm(x_wx.transpose(1, 0, 2), p["enc_wh"], need_cache)
        h = hs[-1]
        mu = h @ p["mu_w"].T + p["mu_b"]
        logvar = h @ p["logvar_w"].T + p["logvar_b"]
        return mu, logvar, h, steps

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

    def encode(self, window) -> tuple[np.ndarray, np.ndarray]:
        """Latent Gaussian parameters (mu, logvar) of one window."""
        rows = self._window_rows(window)
        mu, logvar, _, _ = self._encode_batch(rows[None])
        return mu[0], logvar[0]

    def decode(self, z: np.ndarray, timesteps: int | None = None) -> np.ndarray:
        """Reconstruct ``timesteps`` rows from a latent vector."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.config.latent_size,):
            raise ShapeMismatchError(
                f"latent shape {z.shape}, expected {(self.config.latent_size,)}"
            )
        t = self.config.timestep if timesteps is None else timesteps
        xhat, _, _ = self._decode_batch(z[None], t)
        return xhat[0]

    def _losses_batch(self, x: np.ndarray, noise: np.ndarray, need_cache: bool = True):
        mu, logvar, h_enc, enc_steps = self._encode_batch(x, need_cache)
        z = reparameterize(mu, logvar, noise)
        xhat, h_dec, dec_steps = self._decode_batch(z, x.shape[1], need_cache)
        diff = xhat - x
        recon = np.sum(diff * diff, axis=(1, 2))
        kl_terms = -0.5 * (1.0 + logvar - mu * mu - np.exp(logvar))
        kl = np.sum(kl_terms, axis=1)
        if np.any(kl < -1e-9):
            raise NonFiniteError("KL term is negative; loss computation is invalid")
        kl = np.maximum(kl, 0.0)
        cache = (mu, logvar, z, xhat, diff, h_enc, enc_steps, h_dec, dec_steps)
        return recon, kl, cache

    def loss(self, window, noise: np.ndarray | None = None) -> LossValue:
        """Negative ELBO of one window; ``noise=None`` means zero noise."""
        rows = self._window_rows(window)
        if noise is None:
            noise = np.zeros(self.config.latent_size)
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (self.config.latent_size,):
            raise ShapeMismatchError(
                f"noise shape {noise.shape}, expected {(self.config.latent_size,)}"
            )
        recon, kl, _ = self._losses_batch(rows[None], noise[None], need_cache=False)
        total = float(recon[0] + kl[0])
        if not np.isfinite(total):
            raise NonFiniteError("loss overflowed; training has diverged")
        return LossValue(total=total, recon=float(recon[0]), kl=float(kl[0]))

    def score(self, window) -> float:
        """Deterministic anomaly score: loss with zero latent noise."""
        return self.loss(window, noise=None).total

    def score_many(self, windows: Sequence, chunk: int = 512) -> np.ndarray:
        """Batched deterministic scores for a sequence of windows."""
        x = self._stack(windows)
        out = np.empty(x.shape[0])
        zeros = np.zeros((min(chunk, x.shape[0]), self.config.latent_size))
        for start in range(0, x.shape[0], chunk):
            part = x[start : start + chunk]
            recon, kl, _ = self._losses_batch(part, zeros[: part.shape[0]], need_cache=False)
            out[start : start + part.shape[0]] = recon + kl
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("non-finite score encountered")
        return out

    # -------------------------------------------------------------- backward

    def _lstm_backward(self, grads, layer: str, x: np.ndarray, steps,
                       dh_steps: np.ndarray | None, dh_last: np.ndarray,
                       need_dx: bool = False):
        """Backpropagate through one LSTM layer run by ``_lstm``.

        ``x`` holds the layer's time-major (T, B, In) inputs, ``dh_steps``
        the (T, B, H) upstream gradient on each step's hidden state (None
        when only the last state feeds on) and ``dh_last`` the gradient on
        the final hidden state. The ``layer``'s weight gradients are added
        into ``grads``; with ``need_dx`` the input gradient summed over the
        steps is returned.
        """
        p = self.params
        wx, wh = p[f"{layer}_wx"], p[f"{layer}_wh"]
        g_wx, g_wh, g_b = grads[f"{layer}_wx"], grads[f"{layer}_wh"], grads[f"{layer}_b"]
        dx = np.zeros(x.shape[1:]) if need_dx else None
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
            g_wx += da.T @ x[step]
            g_wh += da.T @ h_prev
            g_b += da.sum(axis=0)
            if need_dx:
                dx += da @ wx
            dh_rec = da @ wh
            dc_rec = dc * gf
        return dx

    def _grads_batch(self, x: np.ndarray, cache, weight: float):
        """Gradients of weight * sum_b total_b for the cached forward pass."""
        mu, logvar, z, _, diff, h_enc, enc_steps, h_dec, dec_steps = cache
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}

        dxhat = (2.0 * weight) * diff  # (B,T,D)
        dxhat_rows = dxhat.reshape(-1, dxhat.shape[2])
        grads["out_w"] = dxhat_rows.T @ h_dec.transpose(1, 0, 2).reshape(-1, h_dec.shape[2])
        grads["out_b"] = dxhat.sum(axis=(0, 1))
        dh_ext = (dxhat_rows @ p["out_w"]).reshape(*dxhat.shape[:2], -1)  # (B,T,H)
        # the decoder reads z at every step, so dz sums over the steps
        z_steps = np.broadcast_to(z, (x.shape[1], *z.shape))
        no_dh = np.zeros((x.shape[0], self.config.hidden_size))
        dz = self._lstm_backward(
            grads, "dec", z_steps, dec_steps, dh_ext.transpose(1, 0, 2), no_dh, need_dx=True
        )

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
        rows = self._window_rows(window)
        if noise is None:
            noise = np.zeros(self.config.latent_size)
        noise = np.asarray(noise, dtype=float)
        recon, kl, cache = self._losses_batch(rows[None], noise[None])
        value = LossValue(float(recon[0] + kl[0]), float(recon[0]), float(kl[0]))
        grads = self._grads_batch(rows[None], cache, weight=1.0)
        return value, grads

    # -------------------------------------------------------------- training

    def train(self, windows: Sequence, epochs: int) -> "LstmVaeScorer":
        """Adam minimization of the mean loss over ``windows``.

        The optimizer state is fresh for each call; parameters continue from
        their current values, so repeated calls fine-tune the model.
        """
        if epochs <= 0:
            return self
        x = self._stack(windows)
        n = x.shape[0]
        cfg = self.config
        batch = max(1, min(cfg.batch_size, n))
        m_state = {k: np.zeros_like(v) for k, v in self.params.items()}
        v_state = {k: np.zeros_like(v) for k, v in self.params.items()}
        step = 0
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb = x[idx]
                noise = self.rng.standard_normal((xb.shape[0], cfg.latent_size))
                recon, kl, cache = self._losses_batch(xb, noise)
                mean_loss = float(np.mean(recon + kl))
                if not np.isfinite(mean_loss):
                    raise NonFiniteError("training diverged to a non-finite loss")
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
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format_version"])
            if version != _CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            config = ScorerConfig(**json.loads(str(data["config_json"])))
            scorer = cls(config)
            for name, _ in _PARAM_SHAPES:
                tensor = data[name]
                if tensor.shape != scorer.params[name].shape:
                    raise ShapeMismatchError(
                        f"checkpoint tensor {name} has shape {tensor.shape}"
                    )
                scorer.params[name] = tensor.copy()
        return scorer

"""Variational autoencoder over pooled per-message word statistics.

Pretrained unsupervised on the train split, independent of the
classifier. The posterior mean is the message's statistical embedding;
sampling happens only while pretraining. Pretraining builds no autodiff
graph: each step computes the negated ELBO and its closed-form gradient
in plain numpy (reparameterized sample, analytic Gaussian KL; Kingma &
Welling 2014, arXiv 1312.6114). The tests check it bit for bit against
the same loss built on the autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .optim import Adam
from .serialize import load_table, save_table


class VaeError(ValueError):
    pass


@dataclass
class VaeConfig:
    latent_dim: int = 16
    hidden_dim: int = 64
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 7


@dataclass
class StatVae:
    """Trainable weights plus the frozen input standardization.

    Inputs are standardized per component over the pretraining set; a
    component that never varies is passed through at unit scale. Both
    posterior heads share the hidden layer and emit `latent_dim` values.
    """

    params: dict[str, Tensor]
    in_mean: np.ndarray
    in_std: np.ndarray
    latent_dim: int

    @property
    def input_dim(self) -> int:
        return self.in_mean.shape[0]


def init_stat_vae(input_dim: int, config: VaeConfig,
                  rng: np.random.Generator) -> StatVae:
    h, z = config.hidden_dim, config.latent_dim
    params = {
        "enc_w": ad.glorot(rng, input_dim, h),
        "enc_b": ad.zeros(h),
        "mu_w": ad.glorot(rng, h, z),
        "mu_b": ad.zeros(z),
        "logvar_w": ad.glorot(rng, h, z),
        "logvar_b": ad.zeros(z),
        "dec_w": ad.glorot(rng, z, h),
        "dec_b": ad.zeros(h),
        "out_w": ad.glorot(rng, h, input_dim),
        "out_b": ad.zeros(input_dim),
    }
    return StatVae(params, np.zeros(input_dim), np.ones(input_dim), z)


def _standardize(vae: StatVae, x: np.ndarray) -> np.ndarray:
    return (x - vae.in_mean) / vae.in_std


def _encoder(p: dict[str, np.ndarray], x: np.ndarray):
    """Hidden-unit mask, hidden layer, posterior mean and log-variance.

    `x` is a standardized (b, n) batch and `p` the parameter arrays.
    """
    pre = x @ p["enc_w"] + p["enc_b"]
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    return mask, hidden, hidden @ p["mu_w"] + p["mu_b"], \
        hidden @ p["logvar_w"] + p["logvar_b"]


def _elbo_step(vae: StatVae, batch: np.ndarray, noise: np.ndarray) -> float:
    """Negated ELBO of one batch; a finite loss also sets every `.grad`.

    The loss is the batch mean of 1/2 squared reconstruction error of the
    standardized batch plus the closed-form KL(q || N(0, I)), decoded
    from the sample mu + exp(log_var / 2) * noise. Every expression
    repeats the autodiff engine's float operations in its order, and the
    three gradients reaching `log_var` are summed in the engine's order
    (the sample's, the KL's 1 + log_var, then its exp(log_var)), so the
    loss and gradients are bit-equal to the graph-built loss.
    """
    p = {name: t.values for name, t in vae.params.items()}
    rows = batch.shape[0]
    x = _standardize(vae, batch)
    enc_mask, hidden, mu, log_var = _encoder(p, x)
    std = np.exp(log_var * 0.5)
    var = np.exp(log_var)
    sample = mu + std * noise
    dec_pre = sample @ p["dec_w"] + p["dec_b"]
    dec_mask = dec_pre > 0
    dec_hidden = np.where(dec_mask, dec_pre, 0.0)
    diff = dec_hidden @ p["out_w"] + p["out_b"] + x * -1.0
    kl_body = log_var + 1.0 + mu ** 2 * -1.0 + var * -1.0
    loss = float((diff ** 2).sum() * (0.5 / rows) + kl_body.sum() * (-0.5 / rows))
    if not np.isfinite(loss):
        return loss
    g_out = 0.5 / rows * 2.0 * diff
    g_dec = g_out @ p["out_w"].T * dec_mask
    g_sample = g_dec @ p["dec_w"].T
    kl_grad = -0.5 / rows * -1.0
    g_mu = g_sample + kl_grad * 2.0 * mu
    g_log_var = g_sample * noise * std * 0.5 + -0.5 / rows + kl_grad * var
    g_enc = (g_mu @ p["mu_w"].T + g_log_var @ p["logvar_w"].T) * enc_mask
    grads = {"enc_w": x.T @ g_enc, "enc_b": g_enc.sum(axis=0),
             "mu_w": hidden.T @ g_mu, "mu_b": g_mu.sum(axis=0),
             "logvar_w": hidden.T @ g_log_var, "logvar_b": g_log_var.sum(axis=0),
             "dec_w": sample.T @ g_dec, "dec_b": g_dec.sum(axis=0),
             "out_w": dec_hidden.T @ g_out, "out_b": g_out.sum(axis=0)}
    for name, t in vae.params.items():
        t.grad = grads[name]
    return loss


def pretrain(vectors: np.ndarray, config: VaeConfig) -> tuple[StatVae, list[float]]:
    """Fit the VAE on normalized statistics vectors; returns per-step losses.

    Deterministic for a given (vectors, config): initialization, shuffle
    order and reparameterization noise all come from one seeded stream.
    A non-finite step loss stops training with a VaeError naming the
    epoch and the step within it.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vectors.size == 0:
        raise VaeError("cannot pretrain on an empty statistics set")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    vae = init_stat_vae(vectors.shape[1], config, rng)
    mean = vectors.mean(axis=0)
    std = vectors.std(axis=0)
    vae.in_mean = mean
    vae.in_std = np.where(std < 1e-6, 1.0, std)
    # Standardization happens inside each step; train on the raw vectors.
    optimizer = Adam(vae.params, lr=config.learning_rate)
    losses: list[float] = []
    n = vectors.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for step, start in enumerate(range(0, n, config.batch_size)):
            batch = vectors[order[start:start + config.batch_size]]
            noise = rng.standard_normal((batch.shape[0], config.latent_dim))
            value = _elbo_step(vae, batch, noise)
            if not np.isfinite(value):
                raise VaeError(f"non-finite loss {value!r} at epoch {epoch} step {step}")
            optimizer.step()
            losses.append(value)
    return vae, losses


def embed_statistics(vae: StatVae, x: np.ndarray) -> np.ndarray:
    """Deterministic embedding: the posterior mean, no sampling.

    Accepts (n,) or (b, n); returns matching (latent_dim,) or
    (b, latent_dim) float64.
    """
    single = np.asarray(x).ndim == 1
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != vae.input_dim:
        raise VaeError(
            f"expected statistics dimension {vae.input_dim}, got {x.shape[1]}")
    p = {name: t.values for name, t in vae.params.items()}
    mu = _encoder(p, _standardize(vae, x))[2]
    return mu[0] if single else mu


def save_stat_vae(vae: StatVae, path: str | Path) -> None:
    arrays = {name: t.values for name, t in vae.params.items()}
    arrays["in_mean"] = vae.in_mean
    arrays["in_std"] = vae.in_std
    save_table(path, arrays, meta={"latent_dim": str(vae.latent_dim)})


def load_stat_vae(path: str | Path) -> StatVae:
    arrays, meta = load_table(path)
    in_mean = arrays.pop("in_mean")
    in_std = arrays.pop("in_std")
    params = {name: ad.parameter(values) for name, values in arrays.items()}
    return StatVae(params, in_mean, in_std, int(meta["latent_dim"]))


def save_embedding_cache(path: str | Path, embeddings: np.ndarray,
                         dict_hash: str) -> None:
    """Per-message embedding table keyed by the dictionary digest.

    Row i belongs to message id i; the ids are stored alongside.
    """
    save_table(path, {
        "message_ids": np.arange(len(embeddings), dtype=np.int64),
        "embeddings": np.asarray(embeddings, dtype=np.float64),
    }, meta={"dict_hash": dict_hash})


def load_embedding_cache(path: str | Path) -> tuple[np.ndarray, str]:
    """(N, latent_dim) embeddings indexed by message id, and the digest."""
    arrays, meta = load_table(path)
    ids = arrays["message_ids"]
    vecs = arrays["embeddings"]
    if not np.array_equal(ids, np.arange(len(vecs))):
        raise VaeError(f"{path}: message ids are not 0..{len(vecs) - 1} in order")
    return vecs, meta.get("dict_hash", "")

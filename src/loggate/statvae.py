"""Variational autoencoder over pooled per-message word statistics.

Pretrained unsupervised on the train split, independent of the
classifier. The posterior mean is the message's statistical embedding;
sampling happens only while pretraining.
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


@dataclass
class LatentCode:
    mu: Tensor
    log_var: Tensor
    sample: Tensor | None = None

    @property
    def mean_values(self) -> np.ndarray:
        """Noise-free representation (the posterior mean)."""
        return self.mu.values


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


def encode(vae: StatVae, x: np.ndarray,
           noise: np.ndarray | None = None) -> LatentCode:
    """Posterior parameters for a batch of statistics vectors.

    `x` is (b, n) or (n,). When `noise` is given (standard-normal,
    shaped like the posterior mean) the reparameterized sample is
    attached; inference passes no noise and uses the mean only.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != vae.input_dim:
        raise VaeError(
            f"expected statistics dimension {vae.input_dim}, got {x.shape[1]}")
    p = vae.params
    inputs = Tensor(_standardize(vae, x))
    hidden = ad.relu(ad.matmul(inputs, p["enc_w"]) + p["enc_b"])
    mu = ad.matmul(hidden, p["mu_w"]) + p["mu_b"]
    log_var = ad.matmul(hidden, p["logvar_w"]) + p["logvar_b"]
    sample = None
    if noise is not None:
        if noise.shape != mu.values.shape:
            raise VaeError(f"noise shape {noise.shape} != posterior {mu.values.shape}")
        sample = mu + ad.exp(log_var * 0.5) * Tensor(noise)
    return LatentCode(mu, log_var, sample)


def decode(vae: StatVae, latent: Tensor) -> Tensor:
    p = vae.params
    hidden = ad.relu(ad.matmul(latent, p["dec_w"]) + p["dec_b"])
    return ad.matmul(hidden, p["out_w"]) + p["out_b"]


def kl_divergence(code: LatentCode) -> Tensor:
    """Closed-form KL against the standard normal prior, batch mean.

    Per row: -1/2 * sum(1 + log s^2 - mu^2 - s^2). Always >= 0, zero
    exactly at mu=0, s=1.
    """
    rows = code.mu.values.shape[0]
    body = 1.0 + code.log_var - ad.square(code.mu) - ad.exp(code.log_var)
    return ad.total(body) * (-0.5 / rows)


def elbo_loss(x: np.ndarray, code: LatentCode, reconstruction: Tensor) -> Tensor:
    """Negated evidence bound: KL plus Gaussian reconstruction error.

    The reconstruction term is 1/2 squared error per row (unit-variance
    Gaussian observation model, constants dropped), batch mean.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if reconstruction.values.shape != x.shape:
        raise VaeError(
            f"reconstruction shape {reconstruction.values.shape} != input {x.shape}")
    rows = x.shape[0]
    recon = ad.total(ad.square(reconstruction - Tensor(x))) * (0.5 / rows)
    return recon + kl_divergence(code)


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
    # Standardization happens inside encode(); train on the raw vectors.
    optimizer = Adam(vae.params, lr=config.learning_rate)
    losses: list[float] = []
    n = vectors.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for step, start in enumerate(range(0, n, config.batch_size)):
            batch = vectors[order[start:start + config.batch_size]]
            noise = rng.standard_normal((batch.shape[0], config.latent_dim))
            code = encode(vae, batch, noise=noise)
            target = _standardize(vae, batch)
            recon = decode(vae, code.sample)
            loss = elbo_loss(target, code, recon)
            value = float(loss.values)
            if not np.isfinite(value):
                raise VaeError(f"non-finite loss {value!r} at epoch {epoch} step {step}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(value)
    return vae, losses


def embed_statistics(vae: StatVae, x: np.ndarray) -> np.ndarray:
    """Deterministic embedding: the posterior mean, no sampling.

    Accepts (n,) or (b, n); returns matching (latent_dim,) or
    (b, latent_dim) float64.
    """
    single = np.asarray(x).ndim == 1
    code = encode(vae, x)
    out = code.mean_values.copy()
    return out[0] if single else out


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

"""Variational autoencoder over pooled per-message word statistics.

Pretrained unsupervised on the train split, independent of the
classifier. The posterior mean is the message's statistical embedding;
sampling happens only while pretraining. Pretraining builds no autodiff
graph: each step computes the negated ELBO and its closed-form gradient
in plain numpy (reparameterized sample, analytic Gaussian KL; Kingma &
Welling 2014, arXiv 1312.6114). Like the classifier, the VAE trains
over the one flat layout its `optim.Adam` owns: its ten parameters are
views into the optimizer's value vector, each step writes its gradients
into the optimizer's `grad_views`, and `Adam.step_flat` updates the
parameters in place. A step is about fifty numpy calls on arrays of at
most (batch, hidden_dim), so it writes every intermediate with `out=`
into buffers its caller passes: `pretrain` allocates one set per batch
size (the full batch and a short last one), and each epoch gathers its
shuffled rows and draws its noise into the same two blocks, so every
batch is a fixed view. The tests check the step bit for bit against the
same loss built on the autodiff graph, and the whole of pretraining
against the per-batch loop over separate arrays and `Adam.step`.
Pretraining reads only its vectors, so `pipeline.preprocess` may run it
in a forked lane. Embedding runs only the posterior-mean head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import _relu
from .optim import Adam
from .serialize import load_table, save_table


class VaeError(ValueError):
    pass


# `embed_statistics` runs at most this many rows a product, so a whole
# corpus is never one (rows, hidden_dim) float64 hidden layer: 20,000 rows
# are 10 MB of it, 2,048 rows 1 MB. On the 20,000-record diagnose-10x
# benchmark, 2,048-row blocks read a peak RSS of 62.8 MB against 67.7 MB
# for the whole batch (medians of 7 runs, 2-core x86-64 VM). No block has
# one row unless the batch does, because a one-row product is BLAS gemv,
# which rounded differently on all 6 input widths tried; blocks of 2 to
# 4,096 rows (23 sizes) kept the whole product's bits on all of them
# (OpenBLAS 0.3.31, AVX-512).
EMBED_BLOCK_ROWS = 2048


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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """`x @ w + b` of 2-D operands in `out` or a fresh array.

    Every product here is `np.dot`, which for 2-D float64 operands calls
    the BLAS routine `np.matmul` calls (gemm, or gemv where a side is one
    row or column), with less wrapper overhead: the bits are the same,
    and the graph tests compare them with the engine's `np.matmul`.
    """
    out = np.dot(x, w, out=out)
    out += b
    return out


def _step_buffers(rows: int, n: int, h: int, z: int) -> tuple[np.ndarray, ...]:
    """Fresh intermediates of one step over a (rows, n) batch, in the
    order `_elbo_step` unpacks them."""
    wide, narrow = (rows, h), (rows, z)
    return (np.empty(wide), np.empty(wide, dtype=bool),  # hidden, enc_mask
            # mu, log_var, std, var, sample, mu_square, kl_body, g_sample
            *(np.empty(narrow) for _ in range(8)),
            np.empty(wide), np.empty(wide, dtype=bool),  # dec_hidden, dec_mask
            np.empty((rows, n)), np.empty((rows, n)),  # diff, diff_square
            *(np.empty(wide) for _ in range(3)))  # g_dec, g_enc, g_enc_part


def _elbo_step(p: dict[str, np.ndarray], x: np.ndarray, noise: np.ndarray,
               grads: dict[str, np.ndarray], work: tuple[np.ndarray, ...]) -> float:
    """Negated ELBO of one standardized batch; a finite loss also fills `grads`.

    `p` holds the parameter arrays and `grads` one array of each
    parameter's shape, which receives its gradient in place. The loss is
    the batch mean of 1/2 squared reconstruction error of `x` plus the
    closed-form KL(q || N(0, I)), decoded from the sample
    mu + exp(log_var / 2) * noise. Every expression repeats the autodiff
    engine's float operations in its order, and the three gradients
    reaching `log_var` are summed in the engine's order (the sample's,
    the KL's 1 + log_var, then its exp(log_var)), so the loss and
    gradients are bit-equal to the graph-built loss. The engine's
    `a + b * -1.0` is written `a - b` and its `m ** 2` `np.square(m)`,
    and a sum may swap its two operands (`a + b == b + a` exactly); each
    gives the same bits.

    Every intermediate is written in place with `out=` into `work`, the
    `_step_buffers` of `x`'s shape and the parameters' sizes. A gradient
    overwrites the forward value it no longer needs: `diff` becomes the
    output's gradient, `mu` its own, and the sample's gradient that of
    `log_var`. The ReLUs are the classifier's in-place `fusion._relu`, so
    a NaN pre-activation makes the loss NaN where the graph's masked ReLU
    would zero it.
    """
    rows = x.shape[0]
    (hidden, enc_mask, mu, log_var, std, var, sample, mu_square, kl_body, g_sample,
     dec_hidden, dec_mask, diff, diff_square, g_dec, g_enc, g_enc_part) = work
    _affine(x, p["enc_w"], p["enc_b"], hidden)
    np.greater(hidden, 0, out=enc_mask)
    _relu(hidden)
    _affine(hidden, p["mu_w"], p["mu_b"], mu)
    _affine(hidden, p["logvar_w"], p["logvar_b"], log_var)
    np.multiply(log_var, 0.5, out=std)
    np.exp(std, out=std)
    np.exp(log_var, out=var)
    np.multiply(std, noise, out=sample)
    sample += mu
    _affine(sample, p["dec_w"], p["dec_b"], dec_hidden)
    np.greater(dec_hidden, 0, out=dec_mask)
    _relu(dec_hidden)
    _affine(dec_hidden, p["out_w"], p["out_b"], diff)
    diff -= x
    np.add(log_var, 1.0, out=kl_body)
    kl_body -= np.square(mu, out=mu_square)
    kl_body -= var
    loss = float(np.add.reduce(np.square(diff, out=diff_square), axis=None) * (0.5 / rows)
                 + np.add.reduce(kl_body, axis=None) * (-0.5 / rows))
    if not math.isfinite(loss):
        return loss
    g_out = diff
    g_out *= 0.5 / rows * 2.0
    np.dot(g_out, p["out_w"].T, out=g_dec)
    g_dec *= dec_mask
    np.dot(g_dec, p["dec_w"].T, out=g_sample)
    kl_grad = -0.5 / rows * -1.0
    g_mu = mu
    g_mu *= kl_grad * 2.0
    g_mu += g_sample
    g_log_var = g_sample
    g_log_var *= noise
    g_log_var *= std
    g_log_var *= 0.5
    g_log_var += -0.5 / rows
    var *= kl_grad
    g_log_var += var
    np.dot(g_mu, p["mu_w"].T, out=g_enc)
    g_enc += np.dot(g_log_var, p["logvar_w"].T, out=g_enc_part)
    g_enc *= enc_mask
    for weight, bias, inputs, g in (("enc_w", "enc_b", x, g_enc),
                                    ("mu_w", "mu_b", hidden, g_mu),
                                    ("logvar_w", "logvar_b", hidden, g_log_var),
                                    ("dec_w", "dec_b", sample, g_dec),
                                    ("out_w", "out_b", dec_hidden, g_out)):
        np.dot(inputs.T, g, out=grads[weight])
        np.add.reduce(g, axis=0, out=grads[bias])
    return loss


def pretrain(vectors: np.ndarray, config: VaeConfig) -> tuple[StatVae, list[float]]:
    """Fit the VAE on normalized statistics vectors; returns per-step losses.

    Deterministic for a given (vectors, config): initialization, shuffle
    order and reparameterization noise all come from one seeded stream.
    Each epoch draws its permutation, then one noise row per vector,
    which is the stream a per-batch noise draw would read. The ten
    parameters are views into the optimizer's flat vector, which Adam
    updates in place from the gradients `_elbo_step` writes into its
    `grad_views`.
    Each epoch gathers its shuffled rows and draws its noise into the
    same two blocks, so every batch is a fixed view, and each step writes
    its intermediates into the one set of `_step_buffers` allocated for
    its batch size. A non-finite step loss stops training with a
    VaeError naming the epoch and the step within it; so does a
    non-positive `batch_size`, `latent_dim` or `hidden_dim`, or a
    negative `epochs`, before any training.
    """
    for name in ("batch_size", "latent_dim", "hidden_dim"):
        if getattr(config, name) <= 0:
            raise VaeError(f"VaeConfig.{name} must be positive, "
                           f"got {getattr(config, name)!r}")
    if config.epochs < 0:
        raise VaeError(f"VaeConfig.epochs must not be negative, got {config.epochs!r}")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vectors.size == 0:
        raise VaeError("cannot pretrain on an empty statistics set")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    vae = init_stat_vae(vectors.shape[1], config, rng)
    mean = vectors.mean(axis=0)
    std = vectors.std(axis=0)
    vae.in_mean = mean
    vae.in_std = np.where(std < 1e-6, 1.0, std)
    optimizer = Adam(vae.params, lr=config.learning_rate)
    p = {name: t.values for name, t in vae.params.items()}
    # Elementwise, so each row has the bits a per-batch standardization gives.
    x = _standardize(vae, vectors)
    losses: list[float] = []
    n = x.shape[0]
    shuffled, noise = np.empty_like(x), np.empty((n, config.latent_dim))
    batches = [(shuffled[start:start + config.batch_size],
                noise[start:start + config.batch_size])
               for start in range(0, n, config.batch_size)]
    work = {rows: _step_buffers(rows, x.shape[1], config.hidden_dim, config.latent_dim)
            for rows in {len(batch) for batch, _ in batches}}
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        rng.standard_normal(out=noise)
        np.take(x, order, axis=0, out=shuffled)
        for step, (batch, batch_noise) in enumerate(batches):
            value = _elbo_step(p, batch, batch_noise, optimizer.grad_views,
                               work[len(batch)])
            if not math.isfinite(value):
                raise VaeError(f"non-finite loss {value!r} at epoch {epoch} step {step}")
            optimizer.step_flat()
            losses.append(value)
    return vae, losses


def embed_statistics(vae: StatVae, x: np.ndarray) -> np.ndarray:
    """Deterministic embedding: the posterior mean, no sampling.

    Takes a (rows, n) batch and returns (rows, latent_dim) float64. Only
    the mean head runs; its hidden layer is the step's, ReLU included.
    The rows run in `np.array_split` blocks of at most EMBED_BLOCK_ROWS,
    each written into the result, with the bits of the whole batch at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != vae.input_dim:
        raise VaeError(f"expected a (rows, {vae.input_dim}) statistics batch, "
                       f"got shape {x.shape}")
    p = {name: t.values for name, t in vae.params.items()}
    out = np.empty((len(x), vae.latent_dim))
    blocks = max(1, -(-len(x) // EMBED_BLOCK_ROWS))
    for rows, dest in zip(np.array_split(x, blocks), np.array_split(out, blocks)):
        hidden = _relu(_affine(_standardize(vae, rows), p["enc_w"], p["enc_b"]))
        _affine(hidden, p["mu_w"], p["mu_b"], dest)
    return out


def save_stat_vae(vae: StatVae, path: str | Path) -> None:
    arrays = {name: t.values for name, t in vae.params.items()}
    arrays["in_mean"] = vae.in_mean
    arrays["in_std"] = vae.in_std
    save_table(path, arrays, meta={"latent_dim": str(vae.latent_dim)})


def save_embedding_cache(path: str | Path, embeddings: np.ndarray) -> None:
    """Per-message embedding table; row i belongs to message id i, and the
    ids are stored alongside. `model.ckpt` records the file's digest."""
    save_table(path, {
        "message_ids": np.arange(len(embeddings), dtype=np.int64),
        "embeddings": np.asarray(embeddings, dtype=np.float64),
    })


def load_embedding_cache(path: str | Path) -> np.ndarray:
    """(N, latent_dim) embeddings indexed by message id."""
    arrays = load_table(path)[0]
    try:
        ids, vecs = arrays["message_ids"], arrays["embeddings"]
    except KeyError as exc:
        raise VaeError(f"{path}: embedding cache has no {exc.args[0]!r} tensor") from None
    if not np.array_equal(ids, np.arange(len(vecs))):
        raise VaeError(f"{path}: message ids are not 0..{len(vecs) - 1} in order")
    return vecs

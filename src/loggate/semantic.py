"""Semantic side of the model: token encoder and information projection.

The encoder maps a padded message (token ids, mask) to an m x d feature
map. The projection maps that feature map into the shared information
space and scores each entry's confidence. The statistics side of the
fusion reuses the same affine projection class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .corpus import PAD_ID


def pad_tokens(token_ids, m_fixed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad or truncate ids to length m_fixed; mask flags real positions.

    An empty message keeps one active pad slot so downstream softmax
    always has at least one valid position.
    """
    if m_fixed < 1:
        raise ValueError(f"m_fixed must be >= 1, got {m_fixed}")
    kept = list(token_ids)[:m_fixed]
    ids = np.full(m_fixed, PAD_ID)
    ids[:len(kept)] = kept
    return ids, np.arange(m_fixed) < max(len(kept), 1)


@lru_cache(maxsize=8)
def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Fixed sine/cosine position table, (length, dim), read-only."""
    pos = np.arange(length)[:, None]
    idx = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    table.setflags(write=False)
    return table


class AttentionEncoder:
    """Trainable embeddings + positions + one attention and one FFN block.

    Scaled dot-product self-attention (1/sqrt(d)) over non-pad keys,
    residual connections around both blocks. Pad rows produce values but
    every consumer masks them out.
    """

    def __init__(self, vocab_size: int, d_model: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.ffn_dim = ffn_dim = 2 * d_model
        d = d_model
        self.params = {
            "tok_emb": ad.glorot(rng, vocab_size, d),
            "wq": ad.glorot(rng, d, d), "bq": ad.zeros(d),
            "wk": ad.glorot(rng, d, d), "bk": ad.zeros(d),
            "wv": ad.glorot(rng, d, d), "bv": ad.zeros(d),
            "wo": ad.glorot(rng, d, d), "bo": ad.zeros(d),
            "ffn_w1": ad.glorot(rng, d, ffn_dim), "ffn_b1": ad.zeros(ffn_dim),
            "ffn_w2": ad.glorot(rng, ffn_dim, d), "ffn_b2": ad.zeros(d),
        }

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.params)

    def encode(self, ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """(..., m, d) features for (..., m) ids and their key mask."""
        p = self.params
        m = ids.shape[-1]
        x = ad.embedding(p["tok_emb"], ids) + sinusoidal_positions(m, self.d_model)
        q = ad.matmul(x, p["wq"]) + p["bq"]
        k = ad.matmul(x, p["wk"]) + p["bk"]
        v = ad.matmul(x, p["wv"]) + p["bv"]
        scores = ad.matmul(q, k.T) * (1.0 / np.sqrt(self.d_model))
        weights = ad.softmax_rows(scores, valid=mask[..., None, :])
        attended = ad.matmul(ad.matmul(weights, v), p["wo"]) + p["bo"]
        x = x + attended
        hidden = ad.relu(ad.matmul(x, p["ffn_w1"]) + p["ffn_b1"])
        return x + ad.matmul(hidden, p["ffn_w2"]) + p["ffn_b2"]


def encode_message(encoder: AttentionEncoder, token_ids,
                   m_fixed: int) -> tuple[Tensor, np.ndarray]:
    """Feature map for one message: (m_fixed, d) tensor plus its mask."""
    ids, mask = pad_tokens(token_ids, m_fixed)
    feats = encoder.encode(ids, mask)
    if feats.shape != (m_fixed, encoder.d_model):
        raise ShapeError(
            f"encoder produced {feats.shape}, expected "
            f"({m_fixed}, {encoder.d_model})")
    return feats, mask


@dataclass
class InfoProjection:
    """Affine map into the information space, d_model wide.

    Holds both projections of the fusion: the square one over the token
    features and the one from the statistics latent space.
    """

    weight: Tensor
    bias: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, fan_in: int,
               d_model: int) -> "InfoProjection":
        return cls(ad.glorot(rng, fan_in, d_model), ad.zeros(d_model))

    def parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


def project_info(proj: InfoProjection, feats: Tensor) -> tuple[Tensor, Tensor]:
    """Affine map per token row, plus sigmoid confidence of each entry.

    `proj` is square; its weight applies transposed. Returns (info_map,
    confidence), both shaped like `feats`.
    """
    d = proj.weight.shape[0]
    if feats.shape[-1] != d:
        raise ShapeError(
            f"project_info: feature dim {feats.shape[-1]} != projection {d}")
    info_map = ad.matmul(feats, proj.weight.T) + proj.bias
    return info_map, ad.sigmoid(info_map)

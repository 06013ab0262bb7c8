"""Gated fusion of statistical and semantic features, plus the classifier.

The statistics embedding is projected into the semantic information
space, admitted entrywise wherever the semantic confidence sits in a
band around 0.5, attended over token positions, pooled and classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .semantic import AttentionEncoder, InfoProjection, encode_message, project_info
from .serialize import load_table, save_table

MODES = ("full", "stats_only", "semantic_only", "no_gate")


class FusionError(ValueError):
    pass


def project_stats(proj: InfoProjection, stat_embedding: np.ndarray) -> Tensor:
    """Statistics row in the information space, shape (1, d_model)."""
    vec = np.asarray(stat_embedding, dtype=np.float64).reshape(1, -1)
    if vec.shape[1] != proj.weight.shape[0]:
        raise ShapeError(
            f"project_stats: embedding dim {vec.shape[1]} != "
            f"projection input {proj.weight.shape[0]}")
    return ad.matmul(Tensor(vec), proj.weight) + proj.bias


def ada_sem_gate(info_map: Tensor, confidence: Tensor, stat_info: Tensor,
                 epsilon: float) -> Tensor:
    """Activated semantic map plus band-gated statistical information.

    Band membership is a hard selector: no gradient through the
    threshold itself, but inside the band gradients flow through both
    the confidence factor and the statistics row.
    """
    if confidence.shape != info_map.shape:
        raise ShapeError(
            f"ada_sem_gate: confidence {confidence.shape} != map {info_map.shape}")
    band = (np.abs(confidence.values - 0.5) <= epsilon).astype(np.float64)
    return ad.relu(info_map) + confidence * Tensor(band) * stat_info


def global_attention(fused: Tensor, feats: Tensor,
                     mask: np.ndarray) -> Tensor:
    """Row-stochastic attention of the fused map over token features.

    Scores are the raw dot products (no scaling); pad positions are
    excluded as keys and receive exactly zero weight.
    """
    if fused.shape != feats.shape:
        raise ShapeError(
            f"global_attention: fused {fused.shape} != features {feats.shape}")
    scores = ad.matmul(fused, feats.T)
    weights = ad.softmax_rows(scores, valid=mask)
    return ad.matmul(weights, feats)


@dataclass
class ClassifierHead:
    """Masked mean pool then two fully-connected layers to label logits."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, d_model: int,
               n_labels: int) -> "ClassifierHead":
        return cls(ad.glorot(rng, d_model, d_model), ad.zeros(d_model),
                   ad.glorot(rng, d_model, n_labels), ad.zeros(n_labels))

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def classify(head: ClassifierHead, attended: Tensor,
             mask: np.ndarray) -> Tensor:
    """Logits (1, n_labels) from a masked mean over token positions."""
    mask = np.asarray(mask, dtype=np.float64).reshape(1, -1)
    if mask.shape[1] != attended.shape[0]:
        raise ShapeError(
            f"classify: mask length {mask.shape[1]} != rows {attended.shape[0]}")
    pooled = ad.matmul(Tensor(mask / mask.sum()), attended)
    return _head_logits(head, pooled)


def _head_logits(head: ClassifierHead, pooled: Tensor) -> Tensor:
    hidden = ad.relu(ad.matmul(pooled, head.w1) + head.b1)
    return ad.matmul(hidden, head.w2) + head.b2


@dataclass
class DiagnosisModel:
    """All trainable pieces of the classifier plus its fixed settings.

    Every mode builds every component in the same order from the same
    stream, so ablations differ only in which path the forward pass
    takes, never in initialization.
    """

    encoder: AttentionEncoder
    info: InfoProjection
    stats: InfoProjection
    head: ClassifierHead
    m_fixed: int
    latent_dim: int
    n_labels: int
    epsilon: float
    mode: str

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix, group in (("sem", self.encoder.parameters()),
                              ("info", self.info.parameters()),
                              ("stats", self.stats.parameters()),
                              ("head", self.head.parameters())):
            for name, tensor in group.items():
                out[f"{prefix}.{name}"] = tensor
        return out


def build_model(vocab_size: int, n_labels: int, d_model: int, latent_dim: int,
                m_fixed: int, epsilon: float, mode: str,
                rng: np.random.Generator) -> DiagnosisModel:
    if mode not in MODES:
        raise FusionError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not 0.0 <= epsilon <= 0.5:
        raise FusionError(f"epsilon must lie in [0, 0.5], got {epsilon}")
    encoder = AttentionEncoder(vocab_size, d_model, rng)
    info = InfoProjection.create(rng, d_model, d_model)
    stats = InfoProjection.create(rng, latent_dim, d_model)
    head = ClassifierHead.create(rng, d_model, n_labels)
    return DiagnosisModel(encoder, info, stats, head, m_fixed, latent_dim,
                          n_labels, epsilon, mode)


def forward(model: DiagnosisModel, token_ids,
            stat_embedding: np.ndarray | None) -> Tensor:
    """Logits (1, n_labels) for one message under the model's mode."""
    needs_stats = model.mode != "semantic_only"
    if needs_stats and stat_embedding is None:
        raise FusionError(
            "no statistics embedding for this message; run preprocessing "
            "(statistics dictionary + VAE embedding cache) before the classifier")
    if model.mode == "stats_only":
        return _head_logits(model.head, project_stats(model.stats, stat_embedding))
    feats, mask = encode_message(model.encoder, token_ids, model.m_fixed)
    info_map, confidence = project_info(model.info, feats)
    if model.mode == "semantic_only":
        fused = ad.relu(info_map)
    elif model.mode == "no_gate":
        fused = ad.relu(info_map) + project_stats(model.stats, stat_embedding)
    else:
        stat_info = project_stats(model.stats, stat_embedding)
        fused = ada_sem_gate(info_map, confidence, stat_info, model.epsilon)
    attended = global_attention(fused, feats, mask)
    return classify(model.head, attended, mask)


def save_model(model: DiagnosisModel, path: str | Path,
               extra_meta: dict[str, str] | None = None) -> None:
    arrays = {name: t.values for name, t in model.parameters().items()}
    meta = {
        "vocab_size": str(model.encoder.vocab_size),
        "d_model": str(model.encoder.d_model),
        "ffn_dim": str(model.encoder.ffn_dim),
        "latent_dim": str(model.latent_dim),
        "n_labels": str(model.n_labels),
        "m_fixed": str(model.m_fixed),
        "epsilon": repr(model.epsilon),
        "mode": model.mode,
    }
    if extra_meta:
        meta.update(extra_meta)
    save_table(path, arrays, meta=meta)


def load_model(path: str | Path) -> tuple[DiagnosisModel, dict[str, str]]:
    arrays, meta = load_table(path)
    rng = np.random.Generator(np.random.PCG64(0))
    model = build_model(
        vocab_size=int(meta["vocab_size"]), n_labels=int(meta["n_labels"]),
        d_model=int(meta["d_model"]), latent_dim=int(meta["latent_dim"]),
        m_fixed=int(meta["m_fixed"]), epsilon=float(meta["epsilon"]),
        mode=meta["mode"], rng=rng)
    params = model.parameters()
    missing = sorted(set(params) ^ set(arrays))
    if missing:
        raise FusionError(f"checkpoint parameter names do not match: {missing}")
    for name, tensor in params.items():
        if tensor.values.shape != arrays[name].shape:
            raise FusionError(
                f"checkpoint shape mismatch for {name}: "
                f"{arrays[name].shape} vs {tensor.values.shape}")
        tensor.values = arrays[name].astype(np.float64)
    return model, meta

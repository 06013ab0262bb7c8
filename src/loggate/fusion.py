"""Gated fusion of statistical and semantic features, plus the classifier.

The statistics embedding is projected into the semantic information
space, admitted entrywise wherever the semantic confidence sits in a
band around 0.5, attended over token positions, pooled and classified.

Training and scoring run `batch_forward` and `batch_backward`, plain
numpy. `forward` and the block functions build the same model as an
autodiff graph, the oracle the tests hold those two to. `batch_forward`
works in place in the arrays it makes, which keeps the graph's bits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
# encode_message stays importable here: perfbench traces it under this name.
from .semantic import (AttentionEncoder, InfoProjection, encode_message,  # noqa: F401
                       pad_tokens, project_info, sinusoidal_positions)
from .serialize import load_table, save_table

MODES = ("full", "stats_only", "semantic_only", "no_gate")
# The parameter groups each mode's forward pass reads, the only ones it
# trains. A mode without "stats" reads no statistics embedding.
TRAINED_GROUPS = {"full": ("sem", "info", "stats", "head"),
                  "stats_only": ("stats", "head"),
                  "semantic_only": ("sem", "info", "head"),
                  "no_gate": ("sem", "info", "stats", "head")}


class FusionError(ValueError):
    pass


def project_stats(proj: InfoProjection, stat_embedding: np.ndarray) -> Tensor:
    """Statistics row(s) in the information space: (1, d_model) for a
    (latent,) embedding, (B, 1, d_model) for a (B, latent) batch. Like
    any plain array operand, the rows take the projection's precision."""
    vec = np.asarray(stat_embedding)[..., None, :]
    if vec.shape[-1] != proj.weight.shape[0]:
        raise ShapeError(
            f"project_stats: embedding dim {vec.shape[-1]} != "
            f"projection input {proj.weight.shape[0]}")
    return ad.matmul(vec, proj.weight) + proj.bias


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
    band = np.abs(confidence.values - 0.5) <= epsilon
    return ad.relu(info_map) + confidence * band * stat_info


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
    weights = ad.softmax_rows(scores, valid=np.asarray(mask)[..., None, :])
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
    """Logits (B, n_labels) from a masked mean over token positions."""
    mask = np.asarray(mask)[..., None, :]
    if mask.shape[-1] != attended.shape[-2]:
        raise ShapeError(
            f"classify: mask length {mask.shape[-1]} != rows {attended.shape[-2]}")
    pooled = ad.matmul(mask / mask.sum(axis=-1, keepdims=True), attended)
    return _head_logits(head, pooled)


def _head_logits(head: ClassifierHead, pooled: Tensor) -> Tensor:
    pooled = ad.reshape(pooled, (-1, pooled.shape[-1]))
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

    def trained_parameters(self) -> dict[str, Tensor]:
        """The parameters the mode's forward pass reads, in `parameters` order."""
        groups = TRAINED_GROUPS[self.mode]
        return {name: tensor for name, tensor in self.parameters().items()
                if name.split(".")[0] in groups}


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


def constant_copy(model: DiagnosisModel, dtype) -> DiagnosisModel:
    """A copy of `model` whose parameters are `dtype` constants.

    No parameter of the copy requires grad, so a forward pass through it
    records no graph. `model` itself is not touched.
    """
    # deepcopy puts whatever its memo already maps an object to in place
    # of that object
    memo = {id(t): Tensor(t.values.astype(dtype))
            for t in model.parameters().values()}
    return copy.deepcopy(model, memo)


def forward(model: DiagnosisModel, token_ids,
            stat_embedding: np.ndarray | None) -> Tensor:
    """Logits (B, n_labels) for a batch of B messages under the model's mode.

    `token_ids` is a sequence of B id lists, each truncated to `m_fixed`
    and padded by `pad_tokens` to the batch's longest message;
    `stat_embedding` is (B, latent_dim), or None in `semantic_only` mode.
    The batch is one autodiff graph.
    """
    if not len(token_ids):
        raise FusionError("forward: the batch has no messages")
    expected = (len(token_ids), model.latent_dim)
    if model.mode != "semantic_only" and np.shape(stat_embedding) != expected:
        raise FusionError(
            f"no statistics embeddings of shape {expected} for this batch (got "
            f"{np.shape(stat_embedding)}); run preprocessing (statistics "
            "dictionary + VAE embedding cache) before the classifier")
    if model.mode == "stats_only":
        return _head_logits(model.head, project_stats(model.stats, stat_embedding))
    # pad positions get zero attention and zero pooling weight, so padding
    # past the longest message changes nothing but the order of float sums
    width = min(model.m_fixed, max(1, max(len(t) for t in token_ids)))
    ids, mask = (np.stack(parts) for parts in
                 zip(*(pad_tokens(t, width) for t in token_ids)))
    feats = model.encoder.encode(ids, mask)
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


def batch_rows(ids: np.ndarray, slots: np.ndarray,
               rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows `rows` of padded messages, cut to the batch's longest message.

    Each row of `ids` is one message as `pad_tokens` pads it, and
    `slots` counts each row's key positions. Returns the batch's
    (B, width) ids and key mask: the arrays `forward` pads that batch to.
    """
    slots = slots[rows]
    width = int(slots.max())
    return ids[rows, :width], np.arange(width) < slots[:, None]


def _softmax_keys(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`ad.softmax_rows(scores, valid=mask[:, None, :])` on plain arrays.

    Works in place: pad keys of `scores` become -inf and then the
    weights, which are returned. Every step is the graph op's, on the
    same operands, so the weights keep its bits.
    """
    np.copyto(scores, -np.inf, where=~mask[:, None, :])
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _swap(a: np.ndarray) -> np.ndarray:
    """The last two axes swapped into a fresh array, as `ad.transpose` makes."""
    return np.swapaxes(a, -1, -2).copy()


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """`x @ weight + bias` in a fresh array, the bias added in place."""
    out = np.matmul(x, weight)
    out += bias
    return out


def _relu(a: np.ndarray) -> np.ndarray:
    """`a` with every entry not above zero set to +0.0, in place.

    Bit for bit `np.where(a > 0, a, 0)` for every value but NaN, which
    stays NaN instead of becoming 0.
    """
    return np.maximum(a, 0, out=a)


def batch_forward(model: DiagnosisModel, ids: np.ndarray, mask: np.ndarray,
                  stat_rows: np.ndarray) -> tuple[np.ndarray, dict]:
    """Logits (B, n_labels) of a padded batch, plus what `batch_backward` needs.

    `ids` and `mask` are (B, width) as `batch_rows` makes them;
    `stat_rows` is (B, latent_dim) and ignored in `semantic_only` mode.
    Plain numpy: every operation, operand pair and cast is the one in
    the graph `forward` builds for the same batch, so the logits are
    bit-equal to `forward`'s, in float64 and float32 alike, unless a NaN
    appears. Biases, residual sums, ReLUs and softmaxes are written in
    place into arrays this call made, and a sum may take its two
    operands in the other order; neither changes a bit. Every constant
    (positions, pool weights, statistics rows) takes the parameters'
    dtype.

    A ReLU here passes a NaN on where `ad.relu` zeroes it, so a NaN
    parameter makes the logits, and a training step's loss, NaN.
    `saved` holds no ReLU masks: `batch_backward` reads them off the
    outputs `hidden`, `ffn` and `info`.
    """
    p = {name: t.values for name, t in model.parameters().items()}
    dtype = p["head.w1"].dtype
    d = p["head.w1"].shape[0]
    saved: dict[str, np.ndarray] = {}
    if model.mode != "semantic_only":
        stat_in = np.asarray(stat_rows, dtype=dtype)[:, None, :]
        stat = _affine(stat_in, p["stats.weight"], p["stats.bias"])
        saved.update(stat_in=stat_in, stat=stat)
    if model.mode == "stats_only":
        pooled = stat.reshape(-1, d)
    else:
        # encoder
        x0 = p["sem.tok_emb"][ids]
        x0 += np.asarray(sinusoidal_positions(ids.shape[1], d), dtype=dtype)
        q = _affine(x0, p["sem.wq"], p["sem.bq"])
        k = _affine(x0, p["sem.wk"], p["sem.bk"])
        v = _affine(x0, p["sem.wv"], p["sem.bv"])
        scores = np.matmul(q, _swap(k))
        scores *= np.asarray(1.0 / np.sqrt(d), dtype=dtype)
        self_weights = _softmax_keys(scores, mask)
        mixed = np.matmul(self_weights, v)
        x1 = _affine(mixed, p["sem.wo"], p["sem.bo"])
        x1 += x0
        ffn = _relu(_affine(x1, p["sem.ffn_w1"], p["sem.ffn_b1"]))
        feats = np.matmul(ffn, p["sem.ffn_w2"])
        feats += x1
        feats += p["sem.ffn_b2"]
        # information projection, gate and global attention
        info = _affine(feats, _swap(p["info.weight"]), p["info.bias"])
        fused = np.maximum(info, 0)  # not in place: the backward reads info
        if model.mode == "no_gate":
            fused += stat
        elif model.mode == "full":
            e = np.exp(-np.abs(info))
            total = 1.0 + e
            conf = np.where(info >= 0, 1.0 / total, e / total)
            band = np.asarray(np.abs(conf - 0.5) <= model.epsilon, dtype=dtype)
            gated = conf * band
            fused += gated * stat
            saved.update(conf=conf, band=band, gated=gated)
        global_weights = _softmax_keys(np.matmul(fused, _swap(feats)), mask)
        attended = np.matmul(global_weights, feats)
        mask3 = mask[:, None, :]
        pool = np.asarray(mask3 / mask3.sum(axis=-1, keepdims=True), dtype=dtype)
        pooled = np.matmul(pool, attended).reshape(-1, d)
        saved.update(ids=ids, x0=x0, q=q, k=k, v=v, self_weights=self_weights,
                     mixed=mixed, x1=x1, ffn=ffn, feats=feats, info=info,
                     fused=fused, global_weights=global_weights, pool=pool)
    hidden = _relu(_affine(pooled, p["head.w1"], p["head.b1"]))
    logits = _affine(hidden, p["head.w2"], p["head.b2"])
    saved.update(pooled=pooled, hidden=hidden)
    return logits, saved


def _affine_grads(grads: dict, weight: str, bias: str, inputs: np.ndarray,
                  g: np.ndarray) -> None:
    """Write the weight and bias gradients of `inputs @ W + b`: one GEMM over all rows."""
    g = g.reshape(-1, g.shape[-1])
    np.matmul(inputs.reshape(-1, inputs.shape[-1]).T, g, out=grads[weight])
    g.sum(axis=0, out=grads[bias])


def _softmax_grad(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    return weights * (g - (g * weights).sum(axis=-1, keepdims=True))


def _rows_times(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`g @ w` over the last axis of any-rank `g`, as one 2-D GEMM."""
    return (g.reshape(-1, g.shape[-1]) @ w).reshape(*g.shape[:-1], w.shape[1])


def batch_backward(model: DiagnosisModel, logits: np.ndarray, saved: dict,
                   labels: np.ndarray, grads: dict[str, np.ndarray]) -> float:
    """Mean cross-entropy of `logits` against `labels`; a finite loss also fills `grads`.

    `logits` and `saved` come from `batch_forward`. `grads` maps each name
    of `model.trained_parameters()` to an array of its shape: its view of
    the flat gradient vector (`optim.Adam.grad_views`). Each of those gradients
    is written over its array in place; any other array is left as it is.
    Each weight gradient is one GEMM over the batch's B * width rows, so
    the sums run in another order than the graph's per-message stack.
    """
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    norm = weights.sum(axis=1, keepdims=True)
    loss = float((np.log(norm[:, 0]) - shifted[np.arange(b), labels]).mean())
    if not np.isfinite(loss):
        return loss
    p = {name: t.values for name, t in model.parameters().items()}
    s = saved
    g = weights / norm
    g[np.arange(b), labels] -= 1.0
    g /= b
    _affine_grads(grads, "head.w2", "head.b2", s["hidden"], g)
    g = (g @ p["head.w2"].T) * (s["hidden"] > 0)
    _affine_grads(grads, "head.w1", "head.b1", s["pooled"], g)
    g_pooled = g @ p["head.w1"].T
    if model.mode == "stats_only":
        g_stat = g_pooled
    else:
        # pool, global attention (keys and values are the features)
        g_attended = np.swapaxes(s["pool"], 1, 2) * g_pooled[:, None, :]
        feats, fused, attention = s["feats"], s["fused"], s["global_weights"]
        g_scores = _softmax_grad(attention, np.matmul(g_attended, _swap(feats)))
        g_fused = np.matmul(g_scores, feats)
        g_feats = (np.matmul(_swap(attention), g_attended)
                   + np.matmul(_swap(g_scores), fused))
        # gate and information projection
        g_info = g_fused * (s["info"] > 0)
        if model.mode == "full":
            conf = s["conf"]
            g_info = g_info + g_fused * s["stat"] * s["band"] * conf * (1.0 - conf)
            g_stat = (g_fused * s["gated"]).sum(axis=1)
        elif model.mode == "no_gate":
            g_stat = g_fused.sum(axis=1)
        g_rows = g_info.reshape(-1, g_info.shape[-1])
        np.matmul(g_rows.T, feats.reshape(-1, feats.shape[-1]),
                  out=grads["info.weight"])
        g_rows.sum(axis=0, out=grads["info.bias"])
        g_feats += _rows_times(g_info, p["info.weight"])
        # encoder: FFN block, then the self-attention block
        _affine_grads(grads, "sem.ffn_w2", "sem.ffn_b2", s["ffn"], g_feats)
        g = _rows_times(g_feats, p["sem.ffn_w2"].T) * (s["ffn"] > 0)
        _affine_grads(grads, "sem.ffn_w1", "sem.ffn_b1", s["x1"], g)
        g_x1 = g_feats + _rows_times(g, p["sem.ffn_w1"].T)
        _affine_grads(grads, "sem.wo", "sem.bo", s["mixed"], g_x1)
        g_mixed = _rows_times(g_x1, p["sem.wo"].T)
        attention, q, k, v = s["self_weights"], s["q"], s["k"], s["v"]
        g_scores = _softmax_grad(attention, np.matmul(g_mixed, _swap(v))) * (
            1.0 / np.sqrt(q.shape[-1]))
        g_x0 = g_x1
        for name, g in (("q", np.matmul(g_scores, k)),
                        ("k", np.matmul(_swap(g_scores), q)),
                        ("v", np.matmul(_swap(attention), g_mixed))):
            _affine_grads(grads, f"sem.w{name}", f"sem.b{name}", s["x0"], g)
            g_x0 = g_x0 + _rows_times(g, p[f"sem.w{name}"].T)
        table = grads["sem.tok_emb"]
        table[...] = 0.0
        np.add.at(table, s["ids"], g_x0)
    if model.mode != "semantic_only":
        _affine_grads(grads, "stats.weight", "stats.bias", s["stat_in"], g_stat)
    return loss


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
    """The model a checkpoint holds, and its meta. A meta value that is missing
    or cannot build a model fails naming the file and the key."""
    arrays, meta = load_table(path)
    shape = {}
    size = (int, lambda value: value >= 1, "a positive int")
    for key, (cast, fits, wanted) in (
            ("vocab_size", size), ("n_labels", size), ("d_model", size),
            ("latent_dim", size), ("m_fixed", size),
            ("epsilon", (float, lambda value: 0.0 <= value <= 0.5, "in [0, 0.5]")),
            ("mode", (str, MODES.__contains__, f"one of {MODES}"))):
        if key not in meta:
            raise FusionError(f"{path}: checkpoint has no {key!r} meta key")
        try:
            shape[key] = cast(meta[key])
            if not fits(shape[key]):
                raise ValueError
        except ValueError:
            raise FusionError(f"{path}: checkpoint meta key {key!r} holds "
                              f"{meta[key]!r}, not {wanted}") from None
    model = build_model(**shape, rng=np.random.Generator(np.random.PCG64(0)))
    params = model.parameters()
    missing = sorted(set(params) ^ set(arrays))
    if missing:
        raise FusionError(f"{path}: checkpoint parameter names do not match: {missing}")
    for name, tensor in params.items():
        if tensor.values.shape != arrays[name].shape:
            raise FusionError(
                f"{path}: checkpoint shape mismatch for {name}: "
                f"{arrays[name].shape} vs {tensor.values.shape}")
        tensor.values[...] = arrays[name]
    return model, meta

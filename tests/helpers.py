"""Shared oracles for the test suite.

Everything here is written deliberately as plain loops or a second,
independent derivation (finite differences, Monte Carlo, brute-force
counting) so library results are checked against code that shares no
logic with the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from loggate import autodiff as ad
from loggate.autodiff import Tensor
from loggate.fusion import (DiagnosisModel, ada_sem_gate, classify,
                            global_attention, project_stats)
from loggate.optim import BETA1, BETA2, EPS
from loggate.semantic import InfoProjection, encode_message, project_info
from loggate.statvae import StatVae, VaeError
from loggate.wordstats import StatDictionary, message_stats


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-4, abs(analytic) + abs(numeric))


def check_gradients(params: dict[str, Tensor], build_loss, eps: float = 1e-6,
                    max_coords: int | None = None,
                    rng: np.random.Generator | None = None) -> float:
    """Max relative error between backward() and central differences.

    `build_loss` must rebuild the scalar loss from the live parameter
    tensors so in-place perturbation is observed. When `max_coords` is
    set, that many coordinates per tensor are sampled with `rng`.
    """
    for t in params.values():
        t.zero_grad()
    build_loss().backward()
    grads = {name: (t.grad.copy() if t.grad is not None
                    else np.zeros_like(t.values))
             for name, t in params.items()}
    worst = 0.0
    for name, t in params.items():
        flat = t.values.reshape(-1)
        if max_coords is not None and flat.size > max_coords:
            coords = sorted(rng.choice(flat.size, size=max_coords, replace=False))
        else:
            coords = range(flat.size)
        flat_grad = grads[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            plus = float(build_loss().values)
            flat[i] = orig - eps
            minus = float(build_loss().values)
            flat[i] = orig
            worst = max(worst, rel_err(flat_grad[i], (plus - minus) / (2 * eps)))
    return worst


def _away_from_kink(rng, shape, low=0.2, high=1.5):
    """Values with |x| in [low, high]: safe for relu/band finite differences."""
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return signs * rng.uniform(low, high, size=shape)


def op_cases(rng: np.random.Generator):
    """(name, params, build_loss) triples covering every differentiable op."""
    cases = []

    def scaled(expr_fn, *tensors, shape):
        const = Tensor(rng.standard_normal(shape))
        return lambda: ad.total(ad.mul(expr_fn(), const))

    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal(4))
    cases.append(("add-broadcast", {"a": a, "b": b},
                  scaled(lambda: ad.add(a, b), shape=(3, 4))))

    c = ad.parameter(rng.standard_normal((3, 4)))
    d = ad.parameter(rng.standard_normal((3, 1)))
    cases.append(("mul-broadcast", {"c": c, "d": d},
                  scaled(lambda: ad.mul(c, d), shape=(3, 4))))

    e = ad.parameter(rng.standard_normal((3, 4)))
    f = ad.parameter(rng.standard_normal((4, 2)))
    cases.append(("matmul", {"e": e, "f": f},
                  scaled(lambda: ad.matmul(e, f), shape=(3, 2))))

    e3 = ad.parameter(rng.standard_normal((2, 3, 4)))
    f3 = ad.parameter(rng.standard_normal((4, 2)))
    cases.append(("matmul-batched", {"e3": e3, "f3": f3},
                  scaled(lambda: ad.matmul(e3, f3), shape=(2, 3, 2))))

    g = ad.parameter(rng.standard_normal((2, 5)))
    cases.append(("transpose", {"g": g},
                  scaled(lambda: ad.transpose(g), shape=(5, 2))))

    g3 = ad.parameter(rng.standard_normal((2, 3, 5)))
    cases.append(("transpose-batched", {"g3": g3},
                  scaled(lambda: ad.transpose(g3), shape=(2, 5, 3))))

    k = ad.parameter(rng.standard_normal((2, 1, 3)))
    cases.append(("reshape", {"k": k},
                  scaled(lambda: ad.reshape(k, (-1, 3)), shape=(2, 3))))

    h = ad.parameter(_away_from_kink(rng, (4, 3)))
    cases.append(("relu", {"h": h}, scaled(lambda: ad.relu(h), shape=(4, 3))))

    i = ad.parameter(rng.standard_normal((4, 3)))
    cases.append(("sigmoid", {"i": i}, scaled(lambda: ad.sigmoid(i), shape=(4, 3))))

    j = ad.parameter(rng.uniform(-1.0, 1.0, (3, 3)))
    cases.append(("exp", {"j": j}, scaled(lambda: ad.exp(j), shape=(3, 3))))

    l = ad.parameter(rng.standard_normal((3, 3)))
    cases.append(("square", {"l": l}, scaled(lambda: ad.square(l), shape=(3, 3))))

    m = ad.parameter(rng.standard_normal((2, 3)))
    cases.append(("total", {"m": m}, lambda: ad.total(ad.square(m))))

    n1 = ad.parameter(rng.standard_normal((2, 3)))
    n2 = ad.parameter(rng.standard_normal((1, 3)))
    n3 = ad.parameter(rng.standard_normal((3, 3)))
    cases.append(("concat-rows", {"n1": n1, "n2": n2, "n3": n3},
                  scaled(lambda: ad.concat_rows([n1, n2, n3]), shape=(6, 3))))

    table = ad.parameter(rng.standard_normal((7, 4)))
    ids = rng.integers(0, 7, size=6)
    ids[1] = ids[0]  # force a repeated row: backward must scatter-add
    cases.append(("embedding", {"table": table},
                  scaled(lambda: ad.embedding(table, ids), shape=(6, 4))))
    ids2 = ids.reshape(2, 3)
    cases.append(("embedding-2d", {"table": table},
                  scaled(lambda: ad.embedding(table, ids2), shape=(2, 3, 4))))

    o = ad.parameter(rng.standard_normal((3, 5)))
    valid = np.ones(5, dtype=bool)
    valid[rng.integers(0, 5)] = False
    cases.append(("softmax-masked", {"o": o},
                  scaled(lambda: ad.softmax_rows(o, valid=valid), shape=(3, 5))))

    o3 = ad.parameter(rng.standard_normal((2, 3, 5)))
    valid3 = rng.random((2, 1, 5)) < 0.6
    valid3[:, 0, rng.integers(0, 5)] = True  # every row keeps a column
    cases.append(("softmax-batch-mask", {"o3": o3},
                  scaled(lambda: ad.softmax_rows(o3, valid=valid3), shape=(2, 3, 5))))

    p = ad.parameter(rng.standard_normal((3, 5)))
    cases.append(("softmax", {"p": p},
                  scaled(lambda: ad.softmax_rows(p), shape=(3, 5))))

    q = ad.parameter(rng.standard_normal((5, 3)))
    labels = rng.integers(0, 3, size=5)
    cases.append(("cross-entropy", {"q": q},
                  lambda: ad.cross_entropy(q, labels)))

    r = ad.parameter(rng.standard_normal((2, 4)))
    s = ad.parameter(rng.standard_normal((4, 4)))
    cases.append(("sigmoid-of-matmul", {"r": r, "s": s},
                  lambda: ad.total(ad.square(ad.sigmoid(ad.matmul(r, s)) - 0.3))))

    return cases


def per_message_forward(model: DiagnosisModel, token_ids,
                        stat_embedding: np.ndarray | None) -> Tensor:
    """Logits (1, n_labels) for one message, built block by block.

    This is the one-message forward pass that the batched
    `fusion.forward` replaced; stacking its rows is the oracle for a
    batch.
    """
    if model.mode == "stats_only":
        head = model.head
        stat_info = project_stats(model.stats, stat_embedding)
        hidden = ad.relu(ad.matmul(stat_info, head.w1) + head.b1)
        return ad.matmul(hidden, head.w2) + head.b2
    feats, mask = encode_message(model.encoder, token_ids, model.m_fixed)
    info_map, confidence = project_info(model.info, feats)
    if model.mode == "semantic_only":
        fused = ad.relu(info_map)
    elif model.mode == "no_gate":
        fused = ad.relu(info_map) + project_stats(model.stats, stat_embedding)
    else:
        stat_info = project_stats(model.stats, stat_embedding)
        fused = ada_sem_gate(info_map, confidence, stat_info, model.epsilon)
    return classify(model.head, global_attention(fused, feats, mask), mask)


@dataclass
class LatentCode:
    """Posterior mean and log-variance of a batch, as graph tensors."""

    mu: Tensor
    log_var: Tensor


def graph_encode(vae: StatVae, x: np.ndarray, noise: np.ndarray | None = None
                 ) -> tuple[LatentCode, Tensor | None]:
    """Posterior of a batch on the autodiff graph, and with `noise` the
    reparameterized sample mu + exp(log_var / 2) * noise.

    This and `decode`, `kl_divergence` and `elbo_loss` are the VAE loss
    as the graph builds it; `graph_elbo_step` runs it in place of the
    closed-form step of `statvae.pretrain`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    p = vae.params
    inputs = Tensor((x - vae.in_mean) / vae.in_std)
    hidden = ad.relu(ad.matmul(inputs, p["enc_w"]) + p["enc_b"])
    mu = ad.matmul(hidden, p["mu_w"]) + p["mu_b"]
    log_var = ad.matmul(hidden, p["logvar_w"]) + p["logvar_b"]
    sample = None
    if noise is not None:
        if noise.shape != mu.values.shape:
            raise VaeError(f"noise shape {noise.shape} != posterior {mu.values.shape}")
        sample = mu + ad.exp(log_var * 0.5) * Tensor(noise)
    return LatentCode(mu, log_var), sample


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


def graph_elbo(vae: StatVae, batch: np.ndarray, noise: np.ndarray) -> Tensor:
    """Negated ELBO of one raw batch under frozen noise, as a graph."""
    code, sample = graph_encode(vae, batch, noise=noise)
    target = (batch - vae.in_mean) / vae.in_std
    return elbo_loss(target, code, decode(vae, sample))


def graph_elbo_step(vae: StatVae, batch: np.ndarray, noise: np.ndarray) -> float:
    """The closed-form step's contract on the graph: loss, and every `.grad`."""
    for t in vae.params.values():
        t.zero_grad()
    loss = graph_elbo(vae, batch, noise)
    loss.backward()
    return float(loss.values)


def random_text(rng: np.random.Generator, alphabet: str, low: int,
                high: int) -> str:
    """`low` to `high` characters drawn uniformly from `alphabet`."""
    size = int(rng.integers(low, high + 1))
    return "".join(rng.choice(list(alphabet), size=size))


def gate_value(alpha: float, epsilon: float) -> float:
    """Scalar gate: pass alpha inside the closed band around 0.5, else 0."""
    return alpha if abs(alpha - 0.5) <= epsilon else 0.0


def identity_projection(d_model: int) -> InfoProjection:
    """Fixed identity map: projected features equal the input exactly."""
    return InfoProjection(ad.parameter(np.eye(d_model)), ad.zeros(d_model))


def total_tokens(stats: StatDictionary) -> int:
    """Token occurrences summed over every word and label."""
    return int(sum(int(v.sum()) for v in stats.counts.values()))


def monte_carlo_kl(mu: np.ndarray, log_var: np.ndarray, n_samples: int,
                   rng: np.random.Generator) -> float:
    """Sampled KL(q || standard normal) for a diagonal Gaussian q."""
    std = np.exp(0.5 * log_var)
    z = mu + std * rng.standard_normal((n_samples, mu.size))
    log_q = -0.5 * (((z - mu) / std) ** 2 + log_var + np.log(2 * np.pi)).sum(axis=1)
    log_p = -0.5 * (z ** 2 + np.log(2 * np.pi)).sum(axis=1)
    return float(np.mean(log_q - log_p))


def fused_attention_oracle(info_map, confidence, stat_embedding, weight, bias,
                           feats, mask, epsilon) -> np.ndarray:
    """Scalar-loop reference for projection, gating and attention."""
    m, d = info_map.shape
    dz = stat_embedding.shape[0]
    stat_info = [sum(stat_embedding[i] * weight[i][j] for i in range(dz)) + bias[j]
                 for j in range(d)]
    fused = [[(info_map[p][j] if info_map[p][j] > 0.0 else 0.0)
              + (confidence[p][j] if abs(confidence[p][j] - 0.5) <= epsilon else 0.0)
              * stat_info[j]
              for j in range(d)]
             for p in range(m)]
    out = np.zeros((m, d))
    for p in range(m):
        scores = [sum(fused[p][j] * feats[q][j] for j in range(d)) for q in range(m)]
        highest = max(scores[q] for q in range(m) if mask[q])
        weights = [math.exp(scores[q] - highest) if mask[q] else 0.0
                   for q in range(m)]
        norm = sum(weights)
        for j in range(d):
            out[p][j] = sum(weights[q] / norm * feats[q][j] for q in range(m))
    return out


def brute_force_metrics(true_ids, pred_ids, n_labels: int):
    """Loop-based P/R/F1: returns (precision, recall, f1, macro, micro)."""
    precision, recall, f1 = [], [], []
    for label in range(n_labels):
        tp = sum(1 for t, p in zip(true_ids, pred_ids) if t == label and p == label)
        fp = sum(1 for t, p in zip(true_ids, pred_ids) if t != label and p == label)
        fn = sum(1 for t, p in zip(true_ids, pred_ids) if t == label and p != label)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    correct = sum(1 for t, p in zip(true_ids, pred_ids) if t == p)
    micro = correct / len(true_ids) if len(true_ids) else 0.0
    return precision, recall, f1, sum(f1) / n_labels, micro


def brute_force_profile(path) -> dict:
    """Independent whitespace word counting for the profiler oracle."""
    path = Path(path)
    counts: dict[str, int] = {}
    total_lines = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        total_lines += 1
        for word in line.split():
            counts[word] = counts.get(word, 0) + 1
    values = list(counts.values())
    return {
        "dataset_size_bytes": path.stat().st_size,
        "total_lines": total_lines,
        "distinct_words": len(counts),
        "count_appearing_once": sum(1 for v in values if v == 1),
        "count_below_5": sum(1 for v in values if v < 5),
        "count_below_10": sum(1 for v in values if v < 10),
        "count_below_20": sum(1 for v in values if v < 20),
        "count_at_least_once_per_10000_lines":
            sum(1 for v in values if v >= total_lines / 10000.0),
        "count_at_least_once_per_1000_lines":
            sum(1 for v in values if v >= total_lines / 1000.0),
    }


def brute_force_stat_counts(records, n_labels: int) -> dict[str, list[int]]:
    """Independent per-label token counting for the dictionary oracle."""
    counts: dict[str, list[int]] = {}
    for record in records:
        for token in record.tokens:
            counts.setdefault(token, [0] * n_labels)[record.label_id] += 1
    return counts


class ReferenceAdam:
    """The per-parameter Adam loop, one parameter's moments at a time.

    Same contract as `optim.Adam`; its moments are kept per parameter
    in `m[name]` and `v[name]`.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.values) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        c1 = 1.0 - BETA1 ** self.step_count
        c2 = 1.0 - BETA2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def reference_pooled_stats(stats: StatDictionary, records, m_fixed: int) -> np.ndarray:
    """`pooled_stats` as one `message_stats` call per record."""
    return np.stack([message_stats(stats, rec, m_fixed).normalized
                     for rec in records])


def reference_accumulate(self: Tensor, grad: np.ndarray) -> None:
    """`Tensor._accumulate` copying every first gradient into a float64 array."""
    if self.grad is None:
        self.grad = grad.astype(np.float64, copy=True)
    else:
        self.grad = self.grad + grad

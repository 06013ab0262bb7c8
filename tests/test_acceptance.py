"""Release gate: one test per shipped guarantee, one PASS/FAIL line each.

Each check re-derives its expected values independently (finite
differences, Monte Carlo sampling, scalar loops, brute-force counting)
and runs at the tolerance the guarantee states.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate.autodiff import Tensor
from loggate.corpus import SplitSpec, load_dataset, profile_corpus
from loggate.fusion import (ada_sem_gate, build_model, forward,
                            global_attention, project_stats)
from loggate.pipeline import RunConfig, collect_logits, train
from loggate.semantic import InfoProjection, project_info
from loggate.statvae import VaeConfig, pretrain
from loggate.synth import generate_synthetic, make_default_spec, make_joint_spec, \
    make_stats_spec
from loggate.wordstats import build_stat_dictionary, message_stats

from helpers import (LatentCode, brute_force_profile, brute_force_stat_counts,
                     check_gradients, fused_attention_oracle, gate_value,
                     identity_projection, kl_divergence, monte_carlo_kl,
                     op_cases)

MINI_CORPUS = Path(__file__).resolve().parent / "data" / "mini_corpus.tsv"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def latent_code(mu, log_var):
    return LatentCode(Tensor(np.atleast_2d(mu)), Tensor(np.atleast_2d(log_var)))


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    worst = 0.0
    for instance in range(20):
        rng = np.random.Generator(np.random.PCG64([100, instance]))
        for name, params, build_loss in op_cases(rng):
            err = check_gradients(params, build_loss, eps=1e-6)
            worst = max(worst, err)
    # full forward path: encoder, projections, gate, attention, classifier,
    # on batches of 2-4 messages that mix lengths
    for instance in range(20):
        rng = np.random.Generator(np.random.PCG64([200, instance]))
        model = build_model(vocab_size=9, n_labels=3, d_model=4, latent_dim=2,
                            m_fixed=4, epsilon=float(rng.uniform(0.05, 0.45)),
                            mode="full", rng=rng)
        lengths = rng.integers(0, 7, size=int(rng.integers(2, 5)))
        lengths[:2] = 0, 6  # an empty message and one longer than m_fixed
        batch = [rng.integers(2, 9, size=n).tolist() for n in lengths]
        emb = rng.standard_normal((len(batch), 2))
        labels = rng.integers(0, 3, size=len(batch))

        def build_loss():
            return ad.cross_entropy(forward(model, batch, emb), labels)

        err = check_gradients(model.parameters(), build_loss, eps=1e-6,
                              max_coords=3, rng=rng)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    report(1, "gradient suite", worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_gate_semantics():
    rng = np.random.Generator(np.random.PCG64(300))
    alphas = rng.uniform(0.0, 1.0, 100_000)
    epsilons = rng.uniform(0.0, 0.5, 100_000)
    wider = epsilons + rng.uniform(0.0, 1.0, 100_000) * (0.5 - epsilons)
    ok = True
    for alpha, eps, eps2 in zip(alphas, epsilons, wider):
        out = gate_value(float(alpha), float(eps))
        ok &= out in (float(alpha), 0.0)
        if out != 0.0:  # pass-band grows with epsilon
            ok &= gate_value(float(alpha), float(eps2)) == float(alpha)
        ok &= gate_value(float(alpha), 0.5) == float(alpha)
        if alpha != 0.5:
            ok &= gate_value(float(alpha), 0.0) == 0.0
        if not ok:
            break
    report(2, "gate semantics", ok, "100000 (alpha, epsilon) pairs")


def test_criterion_3_zero_band_reduction(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    generate_synthetic(make_default_spec(50), 7, corpus)
    base = RunConfig(dataset=str(corpus), m_fixed=10, d_model=16, latent_dim=4,
                     epsilon=0.0, vae_epochs=3, classifier_epochs=3, seed=7)
    full = train(base, tmp_path / "full")
    sem = train(replace(base, mode="semantic_only"), tmp_path / "sem")
    test_rows = full.dataset.table.split_rows("test")
    logits_full = collect_logits(full.model, full.dataset.table, test_rows,
                                 full.embeddings)
    logits_sem = collect_logits(sem.model, sem.dataset.table, test_rows,
                                sem.embeddings)
    gap = float(np.abs(logits_full - logits_sem).max())

    # identity projection with nonnegative features: attention must equal
    # plain self-attention
    rng = np.random.Generator(np.random.PCG64(301))
    ident_gap = 0.0
    for _ in range(20):
        m, d = int(rng.integers(1, 8)), int(rng.integers(2, 8))
        feats_np = np.abs(rng.standard_normal((m, d))) + 0.05
        info_map, _ = project_info(identity_projection(d), Tensor(feats_np))
        attended = global_attention(ad.relu(info_map), Tensor(feats_np),
                                    np.ones(m, dtype=bool)).values
        scores = feats_np @ feats_np.T
        expw = np.exp(scores - scores.max(axis=1, keepdims=True))
        reference = (expw / expw.sum(axis=1, keepdims=True)) @ feats_np
        ident_gap = max(ident_gap, float(np.abs(attended - reference).max()))
    report(3, "zero-band reduction", gap < 1e-9 and ident_gap < 1e-12,
           f"logit gap {gap:.2e}, identity-attention gap {ident_gap:.2e}")


def test_criterion_4_vae_correctness(tmp_path):
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(400))
    worst_rel = 0.0
    for _ in range(10):
        mu = rng.uniform(0.8, 1.6, 6)
        log_var = rng.uniform(-1.0, 0.5, 6)
        closed = float(kl_divergence(latent_code(mu, log_var)).values)
        sampled = monte_carlo_kl(mu, log_var, 1_000_000, rng)
        worst_rel = max(worst_rel, abs(closed - sampled) / closed)
    exact_zero = float(kl_divergence(latent_code(np.zeros(4),
                                                 np.zeros(4))).values) == 0.0

    corpus = tmp_path / "stats.tsv"
    generate_synthetic(make_stats_spec(50), 7, corpus)  # 200 messages
    dataset = load_dataset(corpus, SplitSpec(1.0, 0.0, 0.0, seed=7))
    stats = build_stat_dictionary(dataset)
    vectors = np.stack([message_stats(stats, rec, 16).normalized
                        for rec in dataset.records])
    _, losses = pretrain(vectors, VaeConfig(latent_dim=3, hidden_dim=32,
                                            epochs=50, batch_size=32, seed=7))
    smoothed = np.convolve(losses, np.ones(10) / 10.0, mode="valid")
    decreased = smoothed[-1] < smoothed[0]
    elapsed = time.perf_counter() - started
    ok = worst_rel < 0.01 and exact_zero and decreased and elapsed < 120.0
    report(4, "VAE correctness", ok,
           f"KL rel err {worst_rel:.4f}, KL(0,1)=0 {exact_zero}, "
           f"ELBO {smoothed[0]:.3f}->{smoothed[-1]:.3f}, {elapsed:.1f}s")


def test_criterion_5_statistics_oracle(tmp_path):
    profile = profile_corpus(MINI_CORPUS)
    oracle = brute_force_profile(MINI_CORPUS)
    profile_ok = all(getattr(profile, name) == value
                     for name, value in oracle.items())

    dataset = load_dataset(MINI_CORPUS, SplitSpec(0.8, 0.1, 0.1, seed=7))
    stats = build_stat_dictionary(dataset)
    counted = brute_force_stat_counts(dataset.split_records("train"),
                                      dataset.label_vocab.size)
    dict_ok = set(stats.vocab) == set(counted) and all(
        stats.lookup(word).tolist() == counts
        for word, counts in counted.items())

    rng = np.random.Generator(np.random.PCG64(500))
    monotone_ok = True
    for trial in range(10):
        lines = [" ".join(f"w{rng.integers(0, 60)}"
                          for _ in range(rng.integers(1, 9)))
                 for _ in range(int(rng.integers(1, 500)))]
        path = tmp_path / f"r{trial}.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        p = profile_corpus(path)
        monotone_ok &= (p.count_appearing_once <= p.count_below_5
                        <= p.count_below_10 <= p.count_below_20
                        <= p.distinct_words)
    ok = profile_ok and dict_ok and monotone_ok
    report(5, "statistics oracle", ok,
           f"profile exact {profile_ok}, dictionary exact {dict_ok}, "
           f"buckets monotone {monotone_ok}")


def test_criterion_6_end_to_end_regression(tmp_path):
    started = time.perf_counter()
    corpus = tmp_path / "default.tsv"
    generate_synthetic(make_default_spec(500), 7, corpus)  # 2000 messages
    config = RunConfig(dataset=str(corpus), seed=7)
    first = train(config, tmp_path / "run1")
    elapsed = time.perf_counter() - started
    second = train(config, tmp_path / "run2")
    identical = all(
        (tmp_path / "run1" / name).read_bytes()
        == (tmp_path / "run2" / name).read_bytes()
        for name in ("model.ckpt", "metrics.tsv", "train_log.tsv",
                     "embeddings.tbl"))
    ok = (first.report.macro_f1 >= 0.95 and elapsed < 300.0 and identical
          and second.report.macro_f1 == first.report.macro_f1)
    report(6, "end-to-end regression", ok,
           f"macro-F1 {first.report.macro_f1:.4f}, {elapsed:.1f}s, "
           f"rerun identical {identical}")


def test_criterion_7_ablation_ordering(tmp_path):
    corpus = tmp_path / "joint.tsv"
    generate_synthetic(make_joint_spec(500), 11, corpus)  # 2000 messages
    base = RunConfig(dataset=str(corpus), classifier_epochs=4, seed=7)
    scores = {}
    for mode in ("full", "stats_only", "semantic_only"):
        result = train(replace(base, mode=mode), tmp_path / mode)
        scores[mode] = result.report.macro_f1
    margin_stats = scores["full"] - scores["stats_only"]
    margin_sem = scores["full"] - scores["semantic_only"]
    ok = margin_stats >= 0.03 and margin_sem >= 0.03
    report(7, "ablation ordering", ok,
           f"full {scores['full']:.4f}, stats_only {scores['stats_only']:.4f}, "
           f"semantic_only {scores['semantic_only']:.4f}, "
           f"margins +{margin_stats:.4f}/+{margin_sem:.4f}")


def test_criterion_8_attention_normalization():
    rng = np.random.Generator(np.random.PCG64(800))
    sums_ok = True
    pads_ok = True
    for _ in range(50):
        m = int(rng.integers(1, 10))
        d = int(rng.integers(1, 8))
        fused = rng.standard_normal((m, d)) * 3.0
        feats = rng.standard_normal((m, d)) * 3.0
        mask = rng.random(m) < 0.6
        mask[int(rng.integers(0, m))] = True
        weights = ad.softmax_rows(ad.matmul(Tensor(fused), Tensor(feats).T),
                                  valid=mask).values
        sums_ok &= bool(np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12)
        pads_ok &= bool((weights[:, ~mask] == 0.0).all())
    feats = np.random.Generator(np.random.PCG64(801)).standard_normal((1, 5))
    single = global_attention(Tensor(np.ones((1, 5))), Tensor(feats),
                              np.array([True])).values
    identity_ok = bool(np.array_equal(single, feats))
    ok = sums_ok and pads_ok and identity_ok
    report(8, "attention normalization", ok,
           f"row sums {sums_ok}, pad mass {pads_ok}, m=1 identity {identity_ok}")


def test_criterion_9_entrywise_oracle():
    rng = np.random.Generator(np.random.PCG64(900))
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        d = int(rng.integers(1, 9))
        dz = int(rng.integers(1, 9))
        info = rng.standard_normal((m, d))
        conf = rng.uniform(0.01, 0.99, (m, d))
        emb = rng.standard_normal(dz)
        weight = rng.standard_normal((dz, d))
        bias = rng.standard_normal(d)
        feats = rng.standard_normal((m, d))
        mask = rng.random(m) < 0.7
        mask[int(rng.integers(0, m))] = True
        epsilon = float(rng.uniform(0.0, 0.5))
        proj = InfoProjection(ad.parameter(weight), ad.parameter(bias))
        fused = ada_sem_gate(Tensor(info), Tensor(conf),
                             project_stats(proj, emb), epsilon)
        out = global_attention(fused, Tensor(feats), mask).values
        oracle = fused_attention_oracle(info, conf, emb, weight, bias,
                                        feats, mask, epsilon)
        worst = max(worst, float(np.abs(out - oracle).max()))
    report(9, "entrywise oracle", worst <= 1e-12,
           f"100 instances, max abs diff {worst:.2e}")

"""Confidence gate, fused attention, classifier head and model modes."""

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate.autodiff import ShapeError, Tensor
from loggate.fusion import (MODES, ClassifierHead, DiagnosisModel, FusionError,
                            ada_sem_gate, build_model, classify, forward,
                            global_attention, load_model, project_stats,
                            save_model)
from loggate.semantic import InfoProjection, project_info

from helpers import (check_gradients, fused_attention_oracle, gate_value,
                     identity_projection, per_message_forward)


# -- scalar gate ---------------------------------------------------------------


def test_gate_examples():
    assert gate_value(0.5, 0.0) == 0.5
    assert gate_value(0.3, 0.2) == 0.3   # band edge is inclusive
    assert gate_value(0.7, 0.2) == 0.7
    assert gate_value(0.29, 0.2) == 0.0
    assert gate_value(0.71, 0.2) == 0.0
    assert gate_value(0.499, 0.0) == 0.0


def test_gate_output_is_alpha_or_zero():
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(500):
        alpha = float(rng.uniform(0.0, 1.0))
        epsilon = float(rng.uniform(0.0, 0.5))
        assert gate_value(alpha, epsilon) in (alpha, 0.0)


def test_gate_passband_monotone_in_epsilon():
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(500):
        alpha = float(rng.uniform(0.0, 1.0))
        e1, e2 = sorted(rng.uniform(0.0, 0.5, size=2))
        if gate_value(alpha, float(e1)) != 0.0:
            assert gate_value(alpha, float(e2)) == alpha


def test_gate_extreme_widths():
    rng = np.random.Generator(np.random.PCG64(43))
    for _ in range(200):
        alpha = float(rng.uniform(0.001, 0.999))
        assert gate_value(alpha, 0.5) == alpha  # widest band admits everything
        if alpha != 0.5:
            assert gate_value(alpha, 0.0) == 0.0


# -- banded fusion -------------------------------------------------------------


def test_ada_sem_gate_elementwise_formula():
    rng = np.random.Generator(np.random.PCG64(44))
    info = rng.standard_normal((4, 3))
    conf = rng.uniform(0.05, 0.95, (4, 3))
    stat = rng.standard_normal((1, 3))
    epsilon = 0.2
    out = ada_sem_gate(Tensor(info), Tensor(conf), Tensor(stat), epsilon).values
    for p in range(4):
        for j in range(3):
            expect = max(info[p][j], 0.0)
            if abs(conf[p][j] - 0.5) <= epsilon:
                expect += conf[p][j] * stat[0][j]
            assert out[p][j] == pytest.approx(expect, abs=1e-15)


def test_ada_sem_gate_shape_mismatch():
    with pytest.raises(ShapeError, match="ada_sem_gate"):
        ada_sem_gate(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))),
                     Tensor(np.zeros((1, 2))), 0.1)


def test_widest_band_admits_every_entry():
    rng = np.random.Generator(np.random.PCG64(45))
    info = rng.standard_normal((5, 4))
    conf = rng.uniform(0.001, 0.999, (5, 4))
    stat = rng.standard_normal((1, 4))
    out = ada_sem_gate(Tensor(info), Tensor(conf), Tensor(stat), 0.5).values
    expect = np.maximum(info, 0.0) + conf * stat
    np.testing.assert_allclose(out, expect, rtol=0, atol=0)


def test_zero_band_passes_semantics_unchanged():
    rng = np.random.Generator(np.random.PCG64(46))
    info = rng.standard_normal((5, 4))
    conf = rng.uniform(0.05, 0.95, (5, 4))  # never exactly 0.5
    stat = rng.standard_normal((1, 4))
    out = ada_sem_gate(Tensor(info), Tensor(conf), Tensor(stat), 0.0).values
    np.testing.assert_array_equal(out, np.maximum(info, 0.0))


def test_fused_attention_matches_scalar_oracle():
    rng = np.random.Generator(np.random.PCG64(47))
    for trial in range(10):
        m, d, dz = (int(rng.integers(1, 7)) for _ in range(3))
        info = rng.standard_normal((m, d))
        conf = rng.uniform(0.02, 0.98, (m, d))
        emb = rng.standard_normal(dz)
        weight = rng.standard_normal((dz, d))
        bias = rng.standard_normal(d)
        feats = rng.standard_normal((m, d))
        mask = rng.random(m) < 0.7
        mask[int(rng.integers(0, m))] = True  # at least one real position
        epsilon = float(rng.uniform(0.0, 0.5))
        proj = InfoProjection(ad.parameter(weight), ad.parameter(bias))
        stat_info = project_stats(proj, emb)
        fused = ada_sem_gate(Tensor(info), Tensor(conf), stat_info, epsilon)
        out = global_attention(fused, Tensor(feats), mask).values
        oracle = fused_attention_oracle(info, conf, emb, weight, bias,
                                        feats, mask, epsilon)
        np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-12)


def test_gate_gradients_inside_band():
    # straight-through band: confidences sit well away from the band edge
    # so finite differences never flip membership
    rng = np.random.Generator(np.random.PCG64(48))
    feats = Tensor(rng.standard_normal((4, 3)))
    info_proj = InfoProjection(ad.parameter(rng.standard_normal((3, 3)) * 0.3),
                               ad.parameter(rng.standard_normal(3) * 0.1))
    stat_proj = InfoProjection(ad.parameter(rng.standard_normal((2, 3))),
                               ad.parameter(rng.standard_normal(3)))
    emb = rng.standard_normal(2)
    probe = Tensor(rng.standard_normal((4, 3)))
    epsilon = 0.2

    def build_loss():
        info_map = ad.matmul(feats, info_proj.weight.T) + info_proj.bias
        conf = ad.sigmoid(info_map)
        fused = ada_sem_gate(info_map, conf, project_stats(stat_proj, emb), epsilon)
        return ad.total(ad.mul(fused, probe))

    info_map = (feats.values @ info_proj.weight.values.T) + info_proj.bias.values
    conf = 1.0 / (1.0 + np.exp(-info_map))
    edge_gap = np.abs(np.abs(conf - 0.5) - epsilon).min()
    assert edge_gap > 1e-3  # margin so the 1e-6 probes stay on one side
    params = {"iw": info_proj.weight, "ib": info_proj.bias,
              "sw": stat_proj.weight, "sb": stat_proj.bias}
    assert check_gradients(params, build_loss, eps=1e-6) < 1e-4


# -- attention over tokens -------------------------------------------------------


def test_attention_rows_are_convex_mixtures():
    rng = np.random.Generator(np.random.PCG64(49))
    fused = rng.standard_normal((5, 4))
    feats = rng.standard_normal((5, 4))
    mask = np.array([True, True, True, False, False])
    weights = ad.softmax_rows(ad.matmul(Tensor(fused), Tensor(feats).T),
                              valid=mask).values
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)
    assert (weights[:, ~mask] == 0.0).all()
    assert (weights >= 0.0).all()


def test_attention_single_position_is_identity():
    rng = np.random.Generator(np.random.PCG64(50))
    feats = rng.standard_normal((1, 6))
    out = global_attention(Tensor(rng.standard_normal((1, 6))),
                           Tensor(feats), np.array([True])).values
    np.testing.assert_array_equal(out, feats)


def test_attention_ignores_pad_features_for_real_rows():
    rng = np.random.Generator(np.random.PCG64(51))
    fused = rng.standard_normal((4, 3))
    feats = rng.standard_normal((4, 3))
    mask = np.array([True, True, False, False])
    base = global_attention(Tensor(fused), Tensor(feats), mask).values
    poked = feats.copy()
    poked[2:] = 1e6  # huge pad rows must carry exactly zero weight
    out = global_attention(Tensor(fused), Tensor(poked), mask).values
    np.testing.assert_array_equal(out[:2], base[:2])


def test_attention_shape_mismatch():
    with pytest.raises(ShapeError, match="global_attention"):
        global_attention(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))),
                         np.array([True, True]))


def test_identity_projection_reduces_to_self_attention():
    # nonnegative features + identity projection: the fused map is the
    # feature map itself, so attention must equal plain self-attention
    rng = np.random.Generator(np.random.PCG64(52))
    feats_np = np.abs(rng.standard_normal((5, 4))) + 0.1
    feats = Tensor(feats_np)
    info_map, _ = project_info(identity_projection(4), feats)
    fused = ad.relu(info_map)
    mask = np.ones(5, dtype=bool)
    out = global_attention(fused, feats, mask).values
    scores = feats_np @ feats_np.T
    expw = np.exp(scores - scores.max(axis=1, keepdims=True))
    reference = (expw / expw.sum(axis=1, keepdims=True)) @ feats_np
    np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)


# -- classifier head -------------------------------------------------------------


def head_fixture(seed=53, d=4, n=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ClassifierHead.create(rng, d, n), rng


def test_classify_masked_mean_pool():
    head, rng = head_fixture()
    attended = rng.standard_normal((4, 4))
    mask = np.array([True, True, False, False])
    logits = classify(head, Tensor(attended), mask).values
    pooled = attended[:2].mean(axis=0, keepdims=True)
    hidden = np.maximum(pooled @ head.w1.values + head.b1.values, 0.0)
    expect = hidden @ head.w2.values + head.b2.values
    np.testing.assert_allclose(logits, expect, rtol=0, atol=1e-12)
    assert logits.shape == (1, 3)


def test_classify_ignores_pad_rows():
    head, rng = head_fixture(seed=54)
    attended = rng.standard_normal((5, 4))
    mask = np.array([True, False, True, False, False])
    base = classify(head, Tensor(attended), mask).values
    poked = attended.copy()
    poked[[1, 3, 4]] = 1e9
    np.testing.assert_array_equal(classify(head, Tensor(poked), mask).values, base)


def test_classify_mask_length_mismatch():
    head, _ = head_fixture()
    with pytest.raises(ShapeError, match="classify"):
        classify(head, Tensor(np.zeros((3, 4))), np.array([True, True]))


# -- whole model ------------------------------------------------------------------


def make_model(mode="full", epsilon=0.2, seed=60, vocab=11, n_labels=3,
               d_model=4, latent=2, m_fixed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    return build_model(vocab, n_labels, d_model, latent, m_fixed, epsilon,
                       mode, rng)


def test_build_model_validates_inputs():
    with pytest.raises(FusionError, match="unknown mode"):
        make_model(mode="bogus")
    with pytest.raises(FusionError, match="epsilon"):
        make_model(epsilon=0.6)
    with pytest.raises(FusionError, match="epsilon"):
        make_model(epsilon=-0.1)


def test_modes_share_initialization():
    # ablations must differ only in the forward path, never in weights
    weights = {}
    for mode in MODES:
        model = make_model(mode=mode, seed=61)
        weights[mode] = {k: t.values.copy() for k, t in model.parameters().items()}
    for mode in MODES[1:]:
        assert weights[mode].keys() == weights[MODES[0]].keys()
        for name in weights[mode]:
            np.testing.assert_array_equal(weights[mode][name],
                                          weights[MODES[0]][name])


def test_forward_requires_stats_when_mode_uses_them():
    for mode in ("full", "stats_only", "no_gate"):
        model = make_model(mode=mode)
        with pytest.raises(FusionError, match="no statistics embedding"):
            forward(model, [[1, 2]], None)
    out = forward(make_model(mode="semantic_only"), [[1, 2]], None)
    assert out.values.shape == (1, 3)


def test_zero_band_equals_semantic_only():
    rng = np.random.Generator(np.random.PCG64(62))
    full = make_model(mode="full", epsilon=0.0, seed=63)
    sem = make_model(mode="semantic_only", epsilon=0.0, seed=63)
    for _ in range(10):
        ids = rng.integers(0, 11, size=int(rng.integers(1, 5))).tolist()
        emb = rng.standard_normal(2)
        a = forward(full, [ids], emb[None]).values
        b = forward(sem, [ids], None).values
        assert np.abs(a - b).max() < 1e-9


def test_stats_only_ignores_tokens():
    model = make_model(mode="stats_only", seed=64)
    rng = np.random.Generator(np.random.PCG64(65))
    emb = rng.standard_normal(2)
    a = forward(model, [[1, 2, 3]], emb[None]).values
    b = forward(model, [[9, 9]], emb[None]).values
    np.testing.assert_array_equal(a, b)
    stat_info = emb @ model.stats.weight.values + model.stats.bias.values
    hidden = np.maximum(stat_info @ model.head.w1.values + model.head.b1.values, 0.0)
    expect = hidden @ model.head.w2.values + model.head.b2.values
    np.testing.assert_allclose(a, np.atleast_2d(expect), rtol=0, atol=1e-12)


def test_no_gate_adds_raw_stat_row():
    # no_gate bypasses the confidence factor entirely
    seed = 66
    ng = make_model(mode="no_gate", seed=seed)
    full = make_model(mode="full", epsilon=0.5, seed=seed)
    rng = np.random.Generator(np.random.PCG64(67))
    ids = [3, 8, 1]
    emb = rng.standard_normal(2)
    a = forward(ng, [ids], emb[None]).values
    b = forward(full, [ids], emb[None]).values
    assert not np.allclose(a, b)


def test_forward_full_gradients():
    model = make_model(mode="full", epsilon=0.35, seed=68)
    ids = [4, 2, 4]
    emb = np.random.Generator(np.random.PCG64(69)).standard_normal(2)
    label = np.array([1])

    def build_loss():
        return ad.cross_entropy(forward(model, [ids], emb[None]), label)

    worst = check_gradients(model.parameters(), build_loss, eps=1e-6,
                            max_coords=3, rng=np.random.Generator(np.random.PCG64(70)))
    assert worst < 1e-4


def _grads(model, loss):
    for tensor in model.parameters().values():
        tensor.zero_grad()
    loss.backward()
    return {name: np.zeros_like(t.values) if t.grad is None else t.grad
            for name, t in model.parameters().items()}


def test_batched_forward_matches_per_message_oracle():
    # batches of 1..n messages, one empty and one longer than m_fixed,
    # against the rows of the one-message forward pass stacked by concat_rows
    rng = np.random.Generator(np.random.PCG64(74))
    n = 7
    messages = [rng.integers(0, 11, size=int(rng.integers(1, 5))).tolist()
                for _ in range(n)]
    messages[1] = []
    messages[4] = rng.integers(0, 11, size=9).tolist()  # m_fixed is 5
    embs = rng.standard_normal((n, 2))
    labels = rng.integers(0, 3, size=n)
    for mode in MODES:
        model = make_model(mode=mode, epsilon=0.3, seed=75)
        for size in range(1, n + 1):
            batch, emb = messages[:size], embs[:size]
            batched = forward(model, batch, emb)
            oracle = ad.concat_rows([per_message_forward(model, ids, row)
                                     for ids, row in zip(batch, emb)])
            assert batched.shape == (size, 3)
            gap = np.abs(batched.values - oracle.values).max()
            assert gap <= 1e-12, f"{mode} batch {size}: logit gap {gap:.2e}"
            got = _grads(model, ad.cross_entropy(batched, labels[:size]))
            want = _grads(model, ad.cross_entropy(oracle, labels[:size]))
            # relative to the largest gradient entry: some true gradients
            # (the key bias's) are exactly zero and hold only roundoff
            scale = max(np.abs(g).max() for g in want.values())
            err = max(np.abs(got[k] - want[k]).max() for k in want) / scale
            assert err <= 1e-12, f"{mode} batch {size}: gradient rel err {err:.2e}"


def test_forward_rejects_embeddings_that_do_not_match_the_batch():
    model = make_model(mode="full")
    for emb in (np.zeros((1, 2)), np.zeros(2), np.zeros((2, 3))):
        with pytest.raises(FusionError, match=r"shape \(2, 2\) for this batch"):
            forward(model, [[1], [2]], emb)


def test_model_save_load_roundtrip(tmp_path):
    model = make_model(mode="full", epsilon=0.25, seed=71)
    emb = np.random.Generator(np.random.PCG64(72)).standard_normal(2)
    before = forward(model, [[1, 5, 2]], emb[None]).values
    path = tmp_path / "model.table"
    save_model(model, path, extra_meta={"note": "x"})
    loaded, meta = load_model(path)
    assert meta["mode"] == "full"
    assert meta["note"] == "x"
    assert loaded.epsilon == 0.25
    assert loaded.m_fixed == model.m_fixed
    after = forward(loaded, [[1, 5, 2]], emb[None]).values
    np.testing.assert_array_equal(after, before)


def test_load_model_rejects_mismatched_checkpoint(tmp_path):
    model = make_model(seed=73)
    path = tmp_path / "model.table"
    save_model(model, path)
    from loggate.serialize import load_table, save_table
    arrays, meta = load_table(path)
    arrays.pop("head.w2")
    bad = tmp_path / "bad.table"
    save_table(bad, arrays, meta=meta)
    with pytest.raises(FusionError, match="parameter names"):
        load_model(bad)

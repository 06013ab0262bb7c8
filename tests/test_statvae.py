"""VAE over pooled statistics: KL, ELBO, pretraining, embeddings."""

import re

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate import statvae
from loggate.autodiff import Tensor
from loggate.optim import Adam
from loggate.serialize import load_table, save_table
from loggate.fusion import _relu
from loggate.statvae import (EMBED_BLOCK_ROWS, VaeConfig, VaeError, _affine, _elbo_step,
                             _standardize, embed_statistics, init_stat_vae,
                             load_embedding_cache, pretrain, save_embedding_cache,
                             save_stat_vae)

from helpers import (LatentCode, check_gradients, elbo_loss, fresh_buffers,
                     graph_elbo, graph_elbo_step, graph_encode, kl_divergence,
                     load_stat_vae, monte_carlo_kl, reference_pretrain, rel_err)


def code_from(mu, log_var):
    return LatentCode(Tensor(np.atleast_2d(np.asarray(mu, dtype=np.float64))),
                      Tensor(np.atleast_2d(np.asarray(log_var, dtype=np.float64))))


# -- KL term -----------------------------------------------------------------


def test_kl_zero_at_prior_exactly():
    kl = kl_divergence(code_from([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
    assert float(kl.values) == 0.0


def test_kl_hand_computed_values():
    # -1/2 sum(1 + log s^2 - mu^2 - s^2); mu=1, s=1 gives 1/2 per component
    kl = kl_divergence(code_from([1.0, 0.0], [0.0, 0.0]))
    assert float(kl.values) == pytest.approx(0.5, abs=1e-15)
    # log_var = log(4): -1/2 (1 + log 4 - 0 - 4)
    kl = kl_divergence(code_from([0.0], [np.log(4.0)]))
    assert float(kl.values) == pytest.approx(0.5 * (3.0 - np.log(4.0)), abs=1e-12)


def test_kl_batch_mean_over_rows():
    single = float(kl_divergence(code_from([1.0, 2.0], [0.3, -0.2])).values)
    batch = kl_divergence(code_from([[1.0, 2.0], [0.0, 0.0]],
                                    [[0.3, -0.2], [0.0, 0.0]]))
    assert float(batch.values) == pytest.approx(single / 2.0, rel=1e-12)


def test_kl_nonnegative_on_random_posteriors():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(50):
        mu = rng.standard_normal(4) * 2.0
        log_var = rng.uniform(-3.0, 2.0, 4)
        assert float(kl_divergence(code_from(mu, log_var)).values) >= 0.0


def test_kl_matches_monte_carlo_sampling():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(3):
        mu = rng.uniform(-1.5, 1.5, 3)
        log_var = rng.uniform(-1.5, 1.0, 3)
        closed = float(kl_divergence(code_from(mu, log_var)).values)
        sampled = monte_carlo_kl(mu, log_var, 200_000, rng)
        assert closed == pytest.approx(sampled, rel=0.03, abs=0.01)


# -- ELBO --------------------------------------------------------------------


def test_elbo_reconstruction_only():
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    recon = Tensor(np.array([[1.5, 2.0], [0.0, 0.0]]))
    code = code_from([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])  # KL = 0
    loss = elbo_loss(x, code, recon)
    # 1/2 * (0.25 + 1.0) / 2 rows
    assert float(loss.values) == pytest.approx(0.3125, abs=1e-15)


def test_elbo_adds_weighted_kl():
    x = np.array([[1.0, 2.0]])
    recon = Tensor(np.array([[1.0, 2.0]]))
    code = code_from([[1.0, 0.0]], [[0.0, 0.0]])  # KL = 0.5, unit weight
    assert float(elbo_loss(x, code, recon).values) == pytest.approx(0.5, abs=1e-15)


def test_elbo_rejects_shape_mismatch():
    x = np.ones((2, 3))
    recon = Tensor(np.ones((2, 2)))
    with pytest.raises(VaeError, match="reconstruction shape"):
        elbo_loss(x, code_from([[0.0]], [[0.0]]), recon)


# -- encoder/decoder ---------------------------------------------------------


def small_vae(seed=3, input_dim=5, hidden=8, latent=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    config = VaeConfig(latent_dim=latent, hidden_dim=hidden, seed=seed)
    return init_stat_vae(input_dim, config, rng)


def test_encode_shapes_and_sample_formula():
    vae = small_vae()
    rng = np.random.Generator(np.random.PCG64(4))
    x = rng.uniform(0.0, 3.0, (4, 5))
    noise = rng.standard_normal((4, 3))
    code, sample = graph_encode(vae, x, noise=noise)
    assert code.mu.values.shape == (4, 3)
    assert code.log_var.values.shape == (4, 3)
    np.testing.assert_array_equal(embed_statistics(vae, x), code.mu.values)
    expect = code.mu.values + np.exp(0.5 * code.log_var.values) * noise
    np.testing.assert_allclose(sample.values, expect, rtol=0, atol=0)


def test_encode_rejects_wrong_width():
    vae = small_vae()
    for shape in [(2, 4), (6,), (5,), (1, 2, 5), ()]:
        with pytest.raises(VaeError, match=rf"expected a \(rows, 5\) statistics "
                                           rf"batch, got shape {re.escape(str(shape))}"):
            embed_statistics(vae, np.ones(shape))


def test_encode_rejects_wrong_noise_shape():
    vae = small_vae()
    with pytest.raises(VaeError, match="noise shape"):
        graph_encode(vae, np.ones((2, 5)), noise=np.zeros((2, 2)))


def test_vae_loss_gradients_with_frozen_noise():
    vae = small_vae(seed=17)
    rng = np.random.Generator(np.random.PCG64(18))
    x = rng.uniform(0.5, 3.0, (3, 5))
    noise = rng.standard_normal((3, 3))

    def build_loss():
        return graph_elbo(vae, x, noise)

    worst = check_gradients(vae.params, build_loss, eps=1e-6,
                            max_coords=5, rng=np.random.Generator(np.random.PCG64(19)))
    assert worst < 1e-4


# -- the closed-form training step --------------------------------------------


def standardized_vae(n_rows=40, seed=23):
    """An untrained VAE standardized like `pretrain` does, with its vectors.

    Column 2 never varies, so its `in_std` is floored to 1.
    """
    vectors = training_vectors(n_rows, 5, seed=seed)
    vectors[:, 2] = 1.75
    vae, _ = pretrain(vectors, VaeConfig(latent_dim=3, hidden_dim=8, epochs=0,
                                         seed=seed))
    assert vae.in_std[2] == 1.0
    return vae, vectors


def step_inputs(vae, batch):
    """`_elbo_step`'s operands for a raw batch: the parameter arrays, the
    standardized batch, and fresh arrays to receive the gradients."""
    p = {name: t.values for name, t in vae.params.items()}
    grads = {name: np.full_like(t.values, np.nan) for name, t in vae.params.items()}
    return p, statvae._standardize(vae, batch), grads


@pytest.mark.parametrize("rows", [1, 7, 32])
def test_closed_form_step_is_bit_equal_to_the_graph(rows):
    for seed in range(5):
        vae, vectors = standardized_vae(seed=30 + seed)
        rng = np.random.Generator(np.random.PCG64([rows, seed]))
        batch = vectors[rng.permutation(len(vectors))[:rows]]
        noise = rng.standard_normal((rows, vae.latent_dim))
        p, x, grads = step_inputs(vae, batch)
        loss = _elbo_step(p, x, noise, grads, fresh_buffers(p, x))
        _, _, graph_grads = step_inputs(vae, batch)
        assert graph_elbo_step(p, x, noise, graph_grads) == loss
        assert len(grads) == 10
        for name in vae.params:
            assert np.array_equal(grads[name], graph_grads[name]), (seed, name)


@pytest.mark.parametrize("rows", [1, 7, 32])
def test_closed_form_step_leaves_its_inputs_as_they_were(rows):
    # The step may write only into `grads` and its buffers, also when the
    # batch and the noise are views into larger blocks, as pretrain passes them.
    vae, vectors = standardized_vae(seed=50)
    rng = np.random.Generator(np.random.PCG64([rows, 50]))
    p, block, grads = step_inputs(vae, vectors[rng.permutation(len(vectors))])
    noise_block = rng.standard_normal((len(vectors), vae.latent_dim))
    x, noise = block[3:3 + rows], noise_block[3:3 + rows]
    before = {name: values.copy() for name, values in p.items()}
    kept = block.copy(), noise_block.copy()
    for _ in range(2):
        loss = _elbo_step(p, x, noise, grads, fresh_buffers(p, x))
        for name, values in p.items():
            assert np.array_equal(values, before[name]), name
        assert np.array_equal(block, kept[0]) and np.array_equal(noise_block, kept[1])
        assert all(np.isfinite(g).all() for g in grads.values())
    _, _, again = step_inputs(vae, vectors)
    assert _elbo_step(p, x, noise, again, fresh_buffers(p, x)) == loss
    for name, g in grads.items():
        assert np.array_equal(again[name], g), name


def test_one_workspace_gives_the_bits_of_fresh_steps():
    # Batches of 16, 8 and 16 rows through one buffer set per size: the
    # second 16-row step reuses the buffers the first one wrote, after the
    # 8-row step used its own.
    vae, vectors = standardized_vae(seed=60)
    rng = np.random.Generator(np.random.PCG64(60))
    p, block, grads = step_inputs(vae, vectors[rng.permutation(len(vectors))])
    work = {rows: fresh_buffers(p, block[:rows]) for rows in (16, 8)}
    start = 0
    for rows in (16, 8, 16):
        x = block[start:start + rows]
        noise = rng.standard_normal((rows, vae.latent_dim))
        _, _, fresh = step_inputs(vae, vectors)
        assert (_elbo_step(p, x, noise, grads, work[rows])
                == _elbo_step(p, x, noise, fresh, fresh_buffers(p, x)))
        for name, g in fresh.items():
            assert grads[name].tobytes() == g.tobytes(), (rows, name)
        start += rows


def test_a_nan_weight_stops_pretraining(monkeypatch):
    # The masked ReLU would zero the NaN hidden unit and train on; the
    # step's ReLU passes it on, so step 0's loss is NaN.
    def poisoned(*args, **kwargs):
        vae = init_stat_vae(*args, **kwargs)
        vae.params["enc_w"].values[0, 0] = np.nan
        return vae

    monkeypatch.setattr(statvae, "init_stat_vae", poisoned)
    config = VaeConfig(latent_dim=2, hidden_dim=8, epochs=2, batch_size=16, seed=4)
    with pytest.raises(VaeError, match=r"non-finite loss nan at epoch 0 step 0"):
        pretrain(training_vectors(40, 5), config)


@pytest.mark.parametrize("rows", [1, 7])
def test_closed_form_step_matches_finite_differences(rows):
    vae, vectors = standardized_vae()
    rng = np.random.Generator(np.random.PCG64(rows))
    batch = vectors[rng.permutation(len(vectors))[:rows]]
    noise = rng.standard_normal((rows, vae.latent_dim))
    p, x, grads = step_inputs(vae, batch)
    _elbo_step(p, x, noise, grads, fresh_buffers(p, x))
    scratch = {name: np.empty_like(g) for name, g in grads.items()}
    eps = 1e-6
    worst = 0.0
    for name, values in p.items():
        flat = values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = _elbo_step(p, x, noise, scratch, fresh_buffers(p, x))
            flat[i] = orig - eps
            minus = _elbo_step(p, x, noise, scratch, fresh_buffers(p, x))
            flat[i] = orig
            numeric = (plus - minus) / (2 * eps)
            worst = max(worst, rel_err(grads[name].reshape(-1)[i], numeric))
    assert worst < 1e-4


# -- pretraining -------------------------------------------------------------


def training_vectors(n=80, dim=6, seed=21):
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.log1p(rng.integers(0, 40, size=(n, dim)).astype(np.float64))


def test_pretrain_loss_decreases():
    config = VaeConfig(latent_dim=3, hidden_dim=16, epochs=12, batch_size=16,
                       learning_rate=3e-3, seed=5)
    _, losses = pretrain(training_vectors(), config)
    assert len(losses) == 12 * 5  # 80 vectors / batch 16
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_pretrain_deterministic():
    config = VaeConfig(latent_dim=3, hidden_dim=8, epochs=3, batch_size=32, seed=9)
    vectors = training_vectors(40, 5)
    vae_a, losses_a = pretrain(vectors, config)
    vae_b, losses_b = pretrain(vectors, config)
    assert losses_a == losses_b
    for name in vae_a.params:
        np.testing.assert_array_equal(vae_a.params[name].values,
                                      vae_b.params[name].values)


def test_pretrain_standardization_floor():
    vectors = training_vectors(30, 4)
    vectors[:, 2] = 1.75  # constant component: unit scale, no divide blowup
    config = VaeConfig(latent_dim=2, hidden_dim=8, epochs=2, seed=3)
    vae, losses = pretrain(vectors, config)
    assert vae.in_std[2] == 1.0
    assert vae.in_mean[2] == pytest.approx(1.75)
    assert np.isfinite(losses).all()


def test_pretrain_on_the_graph_step_is_identical(monkeypatch):
    vectors = training_vectors(40, 5)
    vectors[:, 3] = 0.5
    config = VaeConfig(latent_dim=3, hidden_dim=8, epochs=3, batch_size=16, seed=8)
    vae, losses = pretrain(vectors, config)
    calls = []

    def counted_graph_step(p, x, noise, grads, work):
        calls.append(x.shape[0])
        return graph_elbo_step(p, x, noise, grads)

    monkeypatch.setattr(statvae, "_elbo_step", counted_graph_step)
    graph_vae, graph_losses = pretrain(vectors, config)
    assert calls == [16, 16, 8] * 3
    assert losses == graph_losses
    for name, t in vae.params.items():
        np.testing.assert_array_equal(t.values, graph_vae.params[name].values)


@pytest.mark.parametrize("rows, sizes", [(48, [16]), (41, [9, 16]), (9, [9])])
def test_pretrain_allocates_one_buffer_set_per_batch_size(monkeypatch, rows, sizes):
    allocated = []

    def counted_buffers(batch_rows, *shape):
        allocated.append(batch_rows)
        return step_buffers(batch_rows, *shape)

    step_buffers = statvae._step_buffers
    monkeypatch.setattr(statvae, "_step_buffers", counted_buffers)
    config = VaeConfig(latent_dim=2, hidden_dim=6, epochs=3, batch_size=16, seed=13)
    pretrain(training_vectors(rows, 5), config)
    assert sorted(allocated) == sizes


REFERENCE_CASES = {
    "whole_batches": (48, VaeConfig(latent_dim=3, hidden_dim=8, epochs=3,
                                    batch_size=16, seed=12)),
    "short_last_batch": (41, VaeConfig(latent_dim=2, hidden_dim=6, epochs=3,
                                       batch_size=16, seed=13)),
    "batch_over_rows": (9, VaeConfig(latent_dim=4, hidden_dim=5, epochs=4,
                                     batch_size=32, seed=14)),
    "one_row": (1, VaeConfig(latent_dim=2, hidden_dim=4, epochs=5,
                             batch_size=8, seed=15)),
    "no_epochs": (20, VaeConfig(latent_dim=3, hidden_dim=8, epochs=0, seed=16)),
    "constant_column": (30, VaeConfig(latent_dim=3, hidden_dim=8, epochs=3,
                                      batch_size=7, learning_rate=3e-3, seed=17)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_pretrain_is_bit_equal_to_the_per_batch_loop(case):
    rows, config = REFERENCE_CASES[case]
    vectors = training_vectors(rows, 5, seed=40 + rows)
    if case == "constant_column":
        vectors[:, 1] = 2.25
    vae, losses = pretrain(vectors, config)
    ref, ref_losses = reference_pretrain(vectors, config)
    assert losses == ref_losses
    assert len(losses) == config.epochs * -(-rows // config.batch_size)
    assert np.array_equal(vae.in_mean, ref.in_mean)
    assert np.array_equal(vae.in_std, ref.in_std)
    for name, t in ref.params.items():
        assert np.array_equal(vae.params[name].values, t.values), name


@pytest.mark.parametrize("n, b, latent", [(10, 5, 3), (11, 4, 2), (3, 8, 4),
                                          (1, 1, 1), (37, 16, 16)])
def test_one_noise_block_reads_the_per_batch_stream(n, b, latent):
    """pretrain draws each epoch's noise as one block, into the same array
    every epoch; the stream must be the per-batch draws', short last batch
    included."""
    block = np.random.Generator(np.random.PCG64(np.random.SeedSequence(n * b)))
    loop = np.random.Generator(np.random.PCG64(np.random.SeedSequence(n * b)))
    noise = np.empty((n, latent))
    for _ in range(2):
        assert np.array_equal(block.permutation(n), loop.permutation(n))
        block.standard_normal(out=noise)
        for start in range(0, n, b):
            rows = min(b, n - start)
            assert np.array_equal(noise[start:start + b],
                                  loop.standard_normal((rows, latent)))


def test_pretrain_takes_no_per_tensor_step_and_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pretrain left the flat path")

    monkeypatch.setattr(Adam, "step", refuse)
    monkeypatch.setattr(Tensor, "backward", refuse)
    _, losses = pretrain(training_vectors(40, 5),
                         VaeConfig(latent_dim=3, hidden_dim=8, epochs=2,
                                   batch_size=16, seed=3))
    assert len(losses) == 6


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -3), ("latent_dim", 0), ("latent_dim", -1),
    ("hidden_dim", 0), ("hidden_dim", -2), ("epochs", -1)])
def test_pretrain_refuses_bad_config(field, value):
    config = VaeConfig(latent_dim=3, hidden_dim=8, epochs=1, batch_size=8, seed=2)
    setattr(config, field, value)
    with pytest.raises(VaeError, match=rf"VaeConfig\.{field} must .*got {value}"):
        pretrain(training_vectors(20, 5), config)


def test_pretrain_rejects_empty():
    with pytest.raises(VaeError, match="empty"):
        pretrain(np.zeros((0, 4)), VaeConfig())


def test_pretrain_stops_at_first_non_finite_loss():
    vectors = training_vectors(40, 5)
    vectors[7, 1] = np.nan  # poisons the standardization, so step 0 is NaN
    config = VaeConfig(latent_dim=2, hidden_dim=8, epochs=2, batch_size=16, seed=4)
    with pytest.raises(VaeError, match=r"non-finite loss nan at epoch 0 step 0"):
        pretrain(vectors, config)


# -- embeddings --------------------------------------------------------------


def test_embed_is_posterior_mean_no_sampling():
    config = VaeConfig(latent_dim=3, hidden_dim=8, epochs=2, seed=2)
    vae, _ = pretrain(training_vectors(30, 5), config)
    x = training_vectors(4, 5, seed=33)
    out = embed_statistics(vae, x)
    assert out.shape == (4, 3)
    np.testing.assert_array_equal(out, graph_encode(vae, x)[0].mu.values)
    np.testing.assert_array_equal(out, embed_statistics(vae, x))  # repeatable


@pytest.mark.parametrize("rows", [1, 2, EMBED_BLOCK_ROWS - 1, EMBED_BLOCK_ROWS,
                                  EMBED_BLOCK_ROWS + 1, 2 * EMBED_BLOCK_ROWS + 1])
def test_blocked_embedding_has_the_whole_batch_bits(rows):
    # A one-row block would be a gemv product, which rounds differently.
    rng = np.random.Generator(np.random.PCG64(rows))
    vae = init_stat_vae(6, VaeConfig(), rng)
    vae.in_mean, vae.in_std = rng.standard_normal(6), rng.uniform(0.5, 2.0, 6)
    x = rng.uniform(0.0, 4.0, (rows, 6))
    p = {name: t.values for name, t in vae.params.items()}
    hidden = _relu(_affine(_standardize(vae, x), p["enc_w"], p["enc_b"]))
    np.testing.assert_array_equal(embed_statistics(vae, x),
                                  _affine(hidden, p["mu_w"], p["mu_b"]))


def test_embed_does_not_touch_weights():
    vae = small_vae()
    before = {name: t.values.copy() for name, t in vae.params.items()}
    embed_statistics(vae, np.ones((6, 5)))
    for name, t in vae.params.items():
        np.testing.assert_array_equal(t.values, before[name])
        assert t.grad is None or not t.grad.any()


# -- persistence -------------------------------------------------------------


def test_vae_save_load_roundtrip(tmp_path):
    config = VaeConfig(latent_dim=3, hidden_dim=8, epochs=2, seed=6)
    vae, _ = pretrain(training_vectors(30, 5), config)
    path = tmp_path / "vae.table"
    save_stat_vae(vae, path)
    loaded = load_stat_vae(path)
    assert loaded.latent_dim == 3
    x = training_vectors(5, 5, seed=44)
    np.testing.assert_array_equal(embed_statistics(loaded, x),
                                  embed_statistics(vae, x))


def test_vae_save_byte_stable(tmp_path):
    vae = small_vae()
    a, b = tmp_path / "a.table", tmp_path / "b.table"
    save_stat_vae(vae, a)
    save_stat_vae(vae, b)
    assert a.read_bytes() == b.read_bytes()


def test_embedding_cache_roundtrip(tmp_path):
    vecs = np.arange(9, dtype=np.float64).reshape(3, 3)
    path = tmp_path / "cache.table"
    save_embedding_cache(path, vecs)
    arrays, meta = load_table(path)
    np.testing.assert_array_equal(arrays["message_ids"], [0, 1, 2])
    assert meta == {}
    np.testing.assert_array_equal(load_embedding_cache(path), vecs)


@pytest.mark.parametrize("ids", [[3, 11, 7], [0, 2, 1], [0, 1]])
def test_embedding_cache_refuses_ids_other_than_0_to_n(tmp_path, ids):
    path = tmp_path / "cache.table"
    save_table(path, {"message_ids": np.array(ids, dtype=np.int64),
                      "embeddings": np.zeros((3, 2))})
    with pytest.raises(VaeError, match="message ids"):
        load_embedding_cache(path)

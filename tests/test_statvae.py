"""VAE over pooled statistics: KL, ELBO, pretraining, embeddings."""

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate import statvae
from loggate.autodiff import Tensor
from loggate.serialize import load_table, save_table
from loggate.statvae import (VaeConfig, VaeError, _elbo_step, embed_statistics,
                             init_stat_vae, load_embedding_cache, load_stat_vae,
                             pretrain, save_embedding_cache, save_stat_vae)

from helpers import (LatentCode, check_gradients, elbo_loss, graph_elbo,
                     graph_elbo_step, graph_encode, kl_divergence,
                     monte_carlo_kl, rel_err)


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
    with pytest.raises(VaeError, match="expected statistics dimension 5, got 4"):
        embed_statistics(vae, np.ones((2, 4)))
    with pytest.raises(VaeError, match="expected statistics dimension 5, got 6"):
        embed_statistics(vae, np.ones(6))


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


@pytest.mark.parametrize("rows", [1, 7, 32])
def test_closed_form_step_is_bit_equal_to_the_graph(rows):
    for seed in range(5):
        vae, vectors = standardized_vae(seed=30 + seed)
        rng = np.random.Generator(np.random.PCG64([rows, seed]))
        batch = vectors[rng.permutation(len(vectors))[:rows]]
        noise = rng.standard_normal((rows, vae.latent_dim))
        loss = _elbo_step(vae, batch, noise)
        grads = {name: t.grad for name, t in vae.params.items()}
        assert graph_elbo_step(vae, batch, noise) == loss
        assert len(grads) == 10
        for name, t in vae.params.items():
            assert np.array_equal(grads[name], t.grad), (seed, name)


@pytest.mark.parametrize("rows", [1, 7])
def test_closed_form_step_matches_finite_differences(rows):
    vae, vectors = standardized_vae()
    rng = np.random.Generator(np.random.PCG64(rows))
    batch = vectors[rng.permutation(len(vectors))[:rows]]
    noise = rng.standard_normal((rows, vae.latent_dim))
    _elbo_step(vae, batch, noise)
    grads = {name: t.grad.copy() for name, t in vae.params.items()}
    eps = 1e-6
    worst = 0.0
    for name, t in vae.params.items():
        flat = t.values.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = _elbo_step(vae, batch, noise)
            flat[i] = orig - eps
            minus = _elbo_step(vae, batch, noise)
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
    monkeypatch.setattr(statvae, "_elbo_step", graph_elbo_step)
    graph_vae, graph_losses = pretrain(vectors, config)
    assert losses == graph_losses
    for name, t in vae.params.items():
        np.testing.assert_array_equal(t.values, graph_vae.params[name].values)


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
    single = embed_statistics(vae, x[0])
    assert single.shape == (3,)
    # single-row matmul may take a different BLAS path than the batch
    np.testing.assert_allclose(single, out[0], rtol=0, atol=1e-12)


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
    save_embedding_cache(path, vecs, dict_hash="abc123")
    arrays, _ = load_table(path)
    np.testing.assert_array_equal(arrays["message_ids"], [0, 1, 2])
    table, digest = load_embedding_cache(path)
    assert digest == "abc123"
    np.testing.assert_array_equal(table, vecs)


@pytest.mark.parametrize("ids", [[3, 11, 7], [0, 2, 1], [0, 1]])
def test_embedding_cache_refuses_ids_other_than_0_to_n(tmp_path, ids):
    path = tmp_path / "cache.table"
    save_table(path, {"message_ids": np.array(ids, dtype=np.int64),
                      "embeddings": np.zeros((3, 2))}, meta={"dict_hash": "x"})
    with pytest.raises(VaeError, match="message ids"):
        load_embedding_cache(path)

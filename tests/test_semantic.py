"""Token padding, position table, attention encoder, info projection."""

import numpy as np
import pytest

from loggate import autodiff as ad
from loggate.autodiff import ShapeError, Tensor
from loggate.corpus import PAD_ID
from loggate.semantic import (AttentionEncoder, InfoProjection, encode_message,
                              pad_tokens, project_info, sinusoidal_positions)

from helpers import check_gradients, identity_projection


# -- padding -----------------------------------------------------------------


def test_pad_tokens_pads_and_masks():
    ids, mask = pad_tokens([5, 9, 3], 5)
    assert ids.tolist() == [5, 9, 3, PAD_ID, PAD_ID]
    assert mask.tolist() == [True, True, True, False, False]


def test_pad_tokens_truncates():
    ids, mask = pad_tokens([4, 5, 6, 7], 2)
    assert ids.tolist() == [4, 5]
    assert mask.all()


def test_pad_tokens_empty_message_keeps_one_slot():
    ids, mask = pad_tokens([], 4)
    assert ids.tolist() == [PAD_ID] * 4
    assert mask.tolist() == [True, False, False, False]


def test_pad_tokens_rejects_zero_width():
    with pytest.raises(ValueError, match="m_fixed"):
        pad_tokens([1], 0)


# -- position table ----------------------------------------------------------


def test_positions_formula():
    table = sinusoidal_positions(6, 8)
    assert table.shape == (6, 8)
    for pos in range(6):
        for j in range(8):
            angle = pos / 10000.0 ** (2.0 * (j // 2) / 8)
            expect = np.sin(angle) if j % 2 == 0 else np.cos(angle)
            assert table[pos, j] == pytest.approx(expect, abs=1e-12)


def test_positions_first_row_and_range():
    table = sinusoidal_positions(10, 6)
    np.testing.assert_array_equal(table[0], [0.0, 1.0] * 3)
    assert np.abs(table).max() <= 1.0


def test_positions_cached_and_frozen():
    a = sinusoidal_positions(5, 4)
    assert sinusoidal_positions(5, 4) is a
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


# -- attention encoder -------------------------------------------------------


def make_encoder(seed=11, vocab=12, d=6, ffn=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return AttentionEncoder(vocab, d, rng, ffn_dim=ffn)


def test_encoder_shapes_and_defaults():
    enc = make_encoder(d=6)
    assert enc.feature_dim == 6
    assert enc.ffn_dim == 12
    ids, mask = pad_tokens([3, 1, 4], 5)
    feats = enc.encode(ids, mask)
    assert feats.shape == (5, 6)
    assert set(enc.parameters()) == {
        "tok_emb", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
        "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"}


def test_encoder_deterministic():
    ids, mask = pad_tokens([2, 7, 7, 1], 6)
    a = make_encoder(seed=5).encode(ids, mask).values
    b = make_encoder(seed=5).encode(ids, mask).values
    np.testing.assert_array_equal(a, b)


def test_encoder_real_rows_ignore_pad_content():
    # ids at masked positions must not leak into real rows: padded keys
    # and values carry zero attention weight
    enc = make_encoder(seed=8, vocab=10, d=4)
    mask = np.array([True, True, False, False])
    base = enc.encode(np.array([3, 6, 0, 0]), mask).values
    poked = enc.encode(np.array([3, 6, 9, 2]), mask).values
    np.testing.assert_array_equal(base[:2], poked[:2])
    assert not np.array_equal(base[2:], poked[2:])  # pad rows themselves differ


def test_encoder_gradients():
    enc = make_encoder(seed=23, vocab=9, d=4, ffn=6)
    ids, mask = pad_tokens([4, 2, 4], 5)  # repeated id: scatter-add path
    probe = Tensor(np.random.Generator(np.random.PCG64(24)).standard_normal((5, 4)))

    def build_loss():
        return ad.total(ad.mul(enc.encode(ids, mask), probe))

    worst = check_gradients(enc.parameters(), build_loss, eps=1e-6,
                            max_coords=4, rng=np.random.Generator(np.random.PCG64(25)))
    assert worst < 1e-4


def test_encode_message_returns_mask_and_checks_shape():
    enc = make_encoder()
    feats, mask = encode_message(enc, [1, 2], 4)
    assert feats.shape == (4, enc.feature_dim)
    assert mask.tolist() == [True, True, False, False]

    class Broken:
        feature_dim = 6

        def encode(self, ids, mask):
            return Tensor(np.zeros((2, 6)))

    with pytest.raises(ShapeError, match="encoder produced"):
        encode_message(Broken(), [1, 2], 4)


# -- info projection ---------------------------------------------------------


def test_identity_projection_passes_features_through():
    feats = Tensor(np.random.Generator(np.random.PCG64(31)).standard_normal((4, 5)))
    info, conf = project_info(identity_projection(5), feats)
    np.testing.assert_allclose(info.values, feats.values, rtol=0, atol=1e-15)
    expect = 1.0 / (1.0 + np.exp(-feats.values))
    np.testing.assert_allclose(conf.values, expect, rtol=1e-15, atol=0)


def test_projection_confidence_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(32))
    proj = InfoProjection.create(rng, 6, 6)
    feats = Tensor(rng.standard_normal((8, 6)) * 4.0)
    _, conf = project_info(proj, feats)
    assert ((conf.values > 0.0) & (conf.values < 1.0)).all()


def test_projection_rejects_dim_mismatch():
    proj = identity_projection(5)
    with pytest.raises(ShapeError, match="project_info"):
        project_info(proj, Tensor(np.zeros((3, 4))))


def test_projection_gradients():
    rng = np.random.Generator(np.random.PCG64(33))
    proj = InfoProjection.create(rng, 4, 4)
    feats = Tensor(rng.standard_normal((3, 4)))
    probe = Tensor(rng.standard_normal((3, 4)))

    def build_loss():
        info, conf = project_info(proj, feats)
        return ad.total(ad.mul(info, probe)) + ad.total(ad.square(conf))

    assert check_gradients(proj.parameters(), build_loss, eps=1e-6) < 1e-4

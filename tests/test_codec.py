import numpy as np
import pytest

from servopb import autodiff as ad
from servopb.codec import CodecConfig, ConvAutoencoder, frames_to_float, train_codec
from servopb.nn import params_to_arrays


TINY = CodecConfig(height=16, width=16, channels=3, latent_dim=4,
                   conv_channels=(4, 8, 8, 8, 8), fc_hidden=16)


def make_frames(n, h, w, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, h, w, 3)).astype(np.uint8)


def test_spatial_chain_full_resolution():
    model = ConvAutoencoder(CodecConfig(height=96, width=128))
    assert model.sizes == [(96, 128), (48, 64), (24, 32), (12, 16), (6, 8), (3, 4)]
    assert model.flat_dim == 64 * 3 * 4


def test_spatial_chain_default_resolution():
    model = ConvAutoencoder(CodecConfig())
    assert model.sizes[-1] == (2, 2)
    assert model.flat_dim == 256


def test_frames_to_float_layout_and_range():
    frames = make_frames(2, 8, 6, 0)
    x = frames_to_float(frames)
    assert x.shape == (2, 3, 8, 6)
    assert x.min() >= 0.0 and x.max() <= 1.0
    np.testing.assert_allclose(x[1, 2, 4, 3], frames[1, 4, 3, 2] / 255.0)


def test_encode_decode_shapes_and_ranges():
    res = train_codec(make_frames(6, 16, 16, 1), TINY, seed=0, epochs=1, batch_size=4)
    z = res.model.encode(make_frames(3, 16, 16, 2))
    assert z.shape == (3, 4)
    assert np.all(z > 0.0) and np.all(z < 1.0)
    y = res.model.decode(z)
    assert y.shape == (3, 16, 16, 3)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_encode_is_pure_in_eval_mode():
    res = train_codec(make_frames(6, 16, 16, 3), TINY, seed=0, epochs=1, batch_size=4)
    frames = make_frames(4, 16, 16, 4)
    a = res.model.encode(frames)
    b = res.model.encode(frames)
    np.testing.assert_array_equal(a, b)
    # batch size must not matter in eval mode
    c = res.model.encode(frames, batch=1)
    np.testing.assert_allclose(a, c, atol=1e-12)


def test_training_reduces_reconstruction_error():
    frames = make_frames(12, 16, 16, 5)
    res = train_codec(frames, TINY, seed=1, epochs=8, batch_size=6, lr=3e-3)
    assert res.losses[-1] < res.losses[0]


def test_training_is_bit_deterministic():
    frames = make_frames(8, 16, 16, 6)
    a = train_codec(frames, TINY, seed=7, epochs=2, batch_size=4)
    b = train_codec(frames, TINY, seed=7, epochs=2, batch_size=4)
    pa, pb = params_to_arrays(a.model.params), params_to_arrays(b.model.params)
    assert set(pa) == set(pb)
    for k in pa:
        np.testing.assert_array_equal(pa[k], pb[k])
    assert a.losses == b.losses
    c = train_codec(frames, TINY, seed=8, epochs=2, batch_size=4)
    assert c.losses != a.losses


def test_save_load_roundtrip_preserves_encoding(tmp_path):
    frames = make_frames(8, 16, 16, 9)
    res = train_codec(frames, TINY, seed=2, epochs=2, batch_size=4)
    res.model.save(tmp_path / "codec.bin")
    loaded = ConvAutoencoder.load(tmp_path / "codec.bin")
    probe = make_frames(3, 16, 16, 10)
    np.testing.assert_array_equal(res.model.encode(probe), loaded.encode(probe))


def test_non_finite_gradient_raises(monkeypatch):
    # one parameter's gradient turns NaN: the step must raise, not be skipped
    real = ad.backward

    def one_nan(tape, loss):
        acc = dict(real(tape, loss)._acc)
        uid = min(acc)
        acc[uid] = np.full_like(acc[uid], np.nan)
        return ad.Gradients(acc)

    monkeypatch.setattr(ad, "backward", one_nan)
    with pytest.raises(FloatingPointError):
        train_codec(make_frames(4, 16, 16, 5), TINY, seed=0, epochs=1, batch_size=4)

import numpy as np
import pytest

from servopb import autodiff as ad
from servopb import model as model_mod
from servopb.autodiff import Tape, Tensor, backward, recording
from servopb.model import (Normalizer, VsnpbConfig, VsnpbModel, VsnpbNet,
                           _gather_pb, sequence_error, train_vsnpb)
from servopb.rng import substream
from servopb.toy import fit_regime_gains, make_toy_dataset


class TestNormalizer:
    def test_fit_maps_range_to_headroom(self):
        rng = substream(1, "norm")
        data = rng.uniform(-3, 7, (200, 4))
        norm = Normalizer.fit(data)
        y = norm.normalize(data)
        assert y.min() == pytest.approx(-0.9, abs=1e-12)
        assert y.max() == pytest.approx(0.9, abs=1e-12)
        assert np.all(y >= -1.0) and np.all(y <= 1.0)

    def test_constant_dimension_degenerates_gracefully(self):
        data = np.ones((50, 3)) * [2.0, -1.0, 0.5]
        norm = Normalizer.fit(data)
        np.testing.assert_array_equal(norm.scale, np.ones(3))
        np.testing.assert_array_equal(norm.shift, [2.0, -1.0, 0.5])
        np.testing.assert_array_equal(norm.normalize(data[0]), np.zeros(3))

    def test_normalize_denormalize_identity(self):
        rng = substream(2, "norm")
        data = rng.uniform(-5, 5, (100, 6))
        norm = Normalizer.fit(data)
        x = rng.uniform(-5, 5, 6)
        np.testing.assert_allclose(norm.normalize(norm.denormalize(x)), x,
                                   atol=1e-12)
        np.testing.assert_allclose(norm.denormalize(norm.normalize(x)), x,
                                   atol=1e-12)

    def test_clipping_flags_out_of_range(self):
        data = np.linspace(0, 1, 11)[:, None]
        norm = Normalizer.fit(data)
        y, clipped = norm.normalize_clipped(np.array([0.5]))
        assert not clipped
        y, clipped = norm.normalize_clipped(np.array([2.0]))
        assert clipped and y[0] == pytest.approx(0.9)

    def test_constant_dimension_clamped_but_not_flagged(self):
        data = np.stack([np.linspace(0, 1, 11), np.zeros(11)], axis=1)
        norm = Normalizer.fit(data)
        y, clipped = norm.normalize_clipped(np.array([0.5, 0.3]))
        assert not clipped
        np.testing.assert_array_equal(norm.denormalize(y), [0.5, 0.0])
        y, clipped = norm.normalize_clipped(np.array([2.0, 0.3]))
        assert clipped
        np.testing.assert_allclose(norm.denormalize(y), [1.0, 0.0])

    def test_array_roundtrip(self):
        norm = Normalizer.fit(np.random.default_rng(0).uniform(0, 1, (20, 3)))
        back = Normalizer.from_arrays(norm.arrays("n"), "n")
        x = np.array([0.2, 0.4, 0.8])
        np.testing.assert_array_equal(back.normalize(x), norm.normalize(x))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Normalizer(np.zeros(2), np.array([1.0, 0.0]))


class TestNetShape:
    def test_default_schedule(self):
        cfg = VsnpbConfig()
        assert cfg.schedule == (24, 300, 150, 50, 50, 50, 50, 150, 300, 22)
        assert cfg.input_dim == 24 and cfg.output_dim == 22

    def test_step_shapes_and_determinism(self):
        cfg = VsnpbConfig(n_s=3, n_u=2, n_p=2)
        net = VsnpbNet(cfg)
        params = net.init_params(substream(0, "init"))
        s = Tensor(np.ones((4, 3)) * 0.1)
        u = Tensor(np.ones((4, 2)) * 0.2)
        p = Tensor(np.zeros((4, 2)))
        h = net.zero_hidden(4)
        s1, u1, h1 = net.step(params, s, u, p, h)
        s2, u2, _ = net.step(params, s, u, p, h)
        assert s1.shape == (4, 3) and u1.shape == (4, 2)
        np.testing.assert_array_equal(s1.data, s2.data)
        np.testing.assert_array_equal(u1.data, u2.data)

    def test_step_rejects_wrong_dims(self):
        cfg = VsnpbConfig(n_s=3, n_u=2, n_p=2)
        net = VsnpbNet(cfg)
        params = net.init_params(substream(0, "init"))
        with pytest.raises(ValueError):
            net.step(params, Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2))),
                     Tensor(np.zeros((1, 2))), net.zero_hidden(1))


class TestPbGradientMasking:
    def test_only_touched_rows_get_gradient(self):
        cfg = VsnpbConfig(n_s=2, n_u=1, n_p=2)
        net = VsnpbNet(cfg)
        params = net.init_params(substream(3, "mask"))
        pb = Tensor(np.zeros((4, 2)), requires_grad=True)
        rng = substream(3, "mask", "data")
        s = rng.uniform(-0.5, 0.5, (3, 5, 2))
        u = rng.uniform(-0.5, 0.5, (3, 5, 1))
        rows = np.array([0, 2, 2])
        tape = Tape()
        with recording(tape):
            p_rows = _gather_pb(pb, rows)
            hidden = net.zero_hidden(3)
            outs = []
            for t in range(4):
                sp, up, hidden = net.step(params, Tensor(s[:, t]),
                                          Tensor(u[:, t]), p_rows, hidden)
                outs.append(ad.concat([sp, up], axis=1))
            pred = ad.stack(outs)
            tgt = Tensor(np.concatenate([s[:, 1:], u[:, 1:]], axis=2)
                         .transpose(1, 0, 2))
            loss = ad.mean(ad.square(ad.sub(pred, tgt)))
        grads = backward(tape, loss)
        g = grads.get(pb)
        assert np.any(g[0] != 0.0)
        assert np.any(g[2] != 0.0)
        np.testing.assert_array_equal(g[1], np.zeros(2))
        np.testing.assert_array_equal(g[3], np.zeros(2))


def toy_model(epochs=60, gains=(0.5, 1.3), n_per=3, ticks=10, seed=9):
    s, u, k, names = make_toy_dataset(gains=gains, n_per_regime=n_per,
                                      ticks=ticks, seed=seed)
    return train_vsnpb(s, u, k, names, seed=seed, epochs=epochs, batch_size=6,
                       lr=3e-3), (s, u, k)


class TestTraining:
    def test_validation_errors(self):
        s = np.zeros((0, 5, 1))
        with pytest.raises(ValueError):
            train_vsnpb(s, np.zeros((0, 5, 1)), np.zeros(0), ["a"])
        with pytest.raises(ValueError):
            train_vsnpb(np.zeros((2, 1, 1)), np.zeros((2, 1, 1)),
                        np.zeros(2, dtype=int), ["a"])
        with pytest.raises(ValueError):
            train_vsnpb(np.zeros((2, 5, 1)), np.zeros((2, 5, 1)),
                        np.array([0, 3]), ["a", "b"])

    def test_pb_starts_at_zero_and_moves(self):
        result, _ = toy_model(epochs=8)
        np.testing.assert_array_equal(result.pb_history[0], np.zeros((2, 2)))
        assert np.any(result.pb_history[-1] != 0.0)
        assert result.pb_history.shape == (9, 2, 2)

    def test_loss_decreases(self):
        result, _ = toy_model(epochs=40)
        assert result.losses[-1] < result.losses[0] * 0.5

    def test_deterministic_given_seed(self):
        r1, _ = toy_model(epochs=5)
        r2, _ = toy_model(epochs=5)
        np.testing.assert_array_equal(r1.model.pb_table, r2.model.pb_table)
        for k in r1.model.params:
            np.testing.assert_array_equal(r1.model.params[k].data,
                                          r2.model.params[k].data)

    def test_non_finite_gradient_raises(self, monkeypatch):
        real = model_mod.backward

        def all_nan(tape, loss):
            return ad.Gradients({k: np.full_like(g, np.nan)
                                 for k, g in real(tape, loss)._acc.items()})

        monkeypatch.setattr(model_mod, "backward", all_nan)
        with pytest.raises(FloatingPointError):
            toy_model(epochs=1)

    def test_identical_data_under_two_labels_gets_identical_pb(self):
        rng = substream(4, "twin")
        s = rng.uniform(-0.5, 0.5, (1, 8, 1))
        u = rng.uniform(-0.5, 0.5, (1, 8, 1))
        s2 = np.concatenate([s, s])
        u2 = np.concatenate([u, u])
        result = train_vsnpb(s2, u2, np.array([0, 1]), ["a", "b"],
                             seed=1, epochs=15, batch_size=8, lr=3e-3)
        np.testing.assert_array_equal(result.model.pb_table[0],
                                      result.model.pb_table[1])


@pytest.fixture(scope="module")
def trained():
    result, data = toy_model(epochs=120, ticks=12, seed=5)
    return result, data


class TestTrainedModel:
    def test_prediction_depends_on_premise(self, trained):
        result, _ = trained
        model = result.model
        s = np.array([0.2])
        u = np.array([0.1])
        a1, b1, _, _ = model.predict(s, u, model.pb_table[0])
        a2, b2, _, _ = model.predict(s, u, model.pb_table[1])
        assert not np.array_equal(a1, a2)

    def test_own_premise_predicts_better(self, trained):
        result, (s, u, k) = trained
        model = result.model
        for ki in range(2):
            rows = np.nonzero(k == ki)[0]
            own = np.mean([sequence_error(model, s[r], u[r], model.pb_table[ki])
                           for r in rows])
            other = np.mean([sequence_error(model, s[r], u[r],
                                            model.pb_table[1 - ki])
                             for r in rows])
            assert own < other

    def test_shift_consistency_bitwise(self, trained):
        result, (s, u, _) = trained
        model = result.model
        p = model.pb_table[0]
        s_n = model.norm_s.normalize(s[0])[:, None]
        u_n = model.norm_u.normalize(u[0])[:, None]
        s_un, u_un = model.net.unroll(model.params, s_n, u_n, Tensor(p[None, :]))
        assert s_un.shape == (s.shape[1] - 1, 1, s.shape[2])
        hidden = model.zero_hidden()
        for t in range(s.shape[1] - 1):
            s_step, u_step, hidden, _ = model.predict(s[0, t], u[0, t], p, hidden)
            np.testing.assert_array_equal(
                s_step, model.norm_s.denormalize(s_un.data[t, 0]))
            np.testing.assert_array_equal(
                u_step, model.norm_u.denormalize(u_un.data[t, 0]))

    def test_predict_validates_dims(self, trained):
        result, _ = trained
        with pytest.raises(ValueError):
            result.model.predict(np.zeros(2), np.zeros(1), np.zeros(2))

    def test_save_load_roundtrip(self, trained, tmp_path):
        result, (s, u, _) = trained
        model = result.model
        path = tmp_path / "model.ckpt"
        model.save(path)
        back = VsnpbModel.load(path)
        np.testing.assert_array_equal(back.pb_table, model.pb_table)
        a1, b1, _, _ = model.predict(s[0, 0], u[0, 0], model.pb_table[0])
        a2, b2, _, _ = back.predict(s[0, 0], u[0, 0], back.pb_table[0])
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        assert back.state_names == model.state_names


class TestToyOracle:
    def test_least_squares_recovers_gains_exactly(self):
        s, u, k, _ = make_toy_dataset(gains=(0.5, 0.9, 1.3), seed=2)
        fit = fit_regime_gains(s, u, k, 3)
        np.testing.assert_allclose(fit, [0.5, 0.9, 1.3], atol=1e-12)

    def test_sequences_stay_bounded(self):
        s, _, _, _ = make_toy_dataset(gains=(1.3,), n_per_regime=5, ticks=30)
        assert np.abs(s).max() < 3.0

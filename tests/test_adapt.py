"""Online PB estimation: buffering, frozen weights, convergence."""

import hashlib

import numpy as np
import pytest

from servopb import adapt as adapt_mod
from servopb.adapt import (AdapterConfig, ObservationBuffer, PbAdapter,
                           stream_episode)
from servopb.autodiff import Gradients
from servopb.model import VsnpbConfig, VsnpbModel, train_vsnpb
from servopb.toy import make_toy_dataset


def weight_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].data.tobytes())
    for norm in (model.norm_s, model.norm_u):
        h.update(norm.shift.tobytes())
        h.update(norm.scale.tobytes())
    return h.hexdigest()


class TestBuffer:
    def test_fifo_eviction(self):
        buf = ObservationBuffer(3)
        for i in range(4):
            buf.push([float(i)], [0.0], tick=i)
        assert len(buf) == 3
        assert buf.ticks == [1, 2, 3]
        s, _ = buf.as_arrays()
        np.testing.assert_array_equal(s[:, 0], [1.0, 2.0, 3.0])

    def test_count_saturates_at_capacity(self):
        buf = ObservationBuffer(5)
        for i in range(9):
            buf.push([0.0], [0.0], tick=i)
            assert len(buf) == min(i + 1, 5)

    def test_insertion_order_kept(self):
        rng = np.random.default_rng(3)
        buf = ObservationBuffer(16)
        order = rng.permutation(12)
        for t in order:
            buf.push([float(t)], [0.0], tick=int(t))
        assert buf.ticks == [int(t) for t in order]

    def test_push_copies_input(self):
        buf = ObservationBuffer(2)
        s = np.array([1.0])
        buf.push(s, [0.0], tick=0)
        s[0] = 99.0
        arr, _ = buf.as_arrays()
        assert arr[0, 0] == 1.0

    def test_empty_arrays_rejected(self):
        with pytest.raises(ValueError):
            ObservationBuffer(3).as_arrays()
        with pytest.raises(ValueError):
            ObservationBuffer(0)


class TestConfig:
    def test_defaults(self):
        cfg = AdapterConfig()
        assert (cfg.n_thre, cfg.n_batch, cfg.n_epoch, cfg.n_max) == (10, 5, 3, 50)
        assert (cfg.lr, cfg.momentum) == (0.05, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdapterConfig(n_thre=1)
        with pytest.raises(ValueError):
            AdapterConfig(n_max=5, n_thre=10)
        with pytest.raises(ValueError):
            AdapterConfig(momentum=1.0)


@pytest.fixture(scope="module")
def toy_trained():
    s, u, k, names = make_toy_dataset(gains=(0.5, 1.3), n_per_regime=6,
                                      ticks=14, seed=11)
    result = train_vsnpb(s, u, k, names, seed=11, epochs=120, batch_size=6,
                         lr=3e-3)
    return result.model, (s, u, k, names)


def fresh_sequence(gain_index, seed, model, ticks=14):
    gains = (0.5, 1.3)
    s, u, _, _ = make_toy_dataset(gains=gains, n_per_regime=1, ticks=ticks,
                                  seed=seed)
    return s[gain_index], u[gain_index]


class TestUpdateGating:
    def test_no_update_below_threshold(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model, AdapterConfig(n_thre=10))
        s_seq, u_seq = fresh_sequence(0, 21, model)
        for t in range(9):
            assert ad.observe(s_seq[t], u_seq[t]) is False
        assert ad.log == []
        np.testing.assert_array_equal(ad.p, np.zeros(2))
        assert ad.update_pb() is False

    def test_update_fires_at_threshold(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model, AdapterConfig(n_thre=10))
        s_seq, u_seq = fresh_sequence(0, 21, model)
        fired = [ad.observe(s_seq[t], u_seq[t]) for t in range(12)]
        assert fired == [False] * 9 + [True] * 3
        assert [rec.tick for rec in ad.log] == [9, 10, 11]
        assert all(rec.epochs == 3 for rec in ad.log)

    def test_weights_frozen_bit_identical(self, toy_trained):
        model, _ = toy_trained
        before = weight_digest(model)
        ad = PbAdapter(model)
        s_seq, u_seq = fresh_sequence(1, 22, model)
        stream_episode(ad, s_seq, u_seq)
        assert len(ad.log) > 0
        assert weight_digest(model) == before

    def test_loaded_frozen_weights_adapt_bit_identically(self, toy_trained, tmp_path):
        # a loaded model's weights are constants: the tape skips their
        # gradients, and p must move exactly as with trainable weights
        model, _ = toy_trained
        model.save(tmp_path / "model.ckpt")
        loaded = VsnpbModel.load(tmp_path / "model.ckpt")
        assert any(t.requires_grad for t in model.params.values())
        assert not any(t.requires_grad for t in loaded.params.values())
        s_seq, u_seq = fresh_sequence(1, 24, model)
        adapters = [PbAdapter(m) for m in (model, loaded)]
        for ad in adapters:
            stream_episode(ad, s_seq, u_seq)
        trainable, frozen = adapters
        assert len(frozen.log) > 0
        np.testing.assert_array_equal(frozen.p, trainable.p)
        assert [r.loss for r in frozen.log] == [r.loss for r in trainable.log]
        assert [r.grad_norm for r in frozen.log] == [r.grad_norm for r in trainable.log]

    def test_p0_and_reset(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model, p0=[0.3, -0.2])
        np.testing.assert_array_equal(ad.p, [0.3, -0.2])
        ad.reset_pb()
        np.testing.assert_array_equal(ad.p, np.zeros(2))
        with pytest.raises(ValueError):
            PbAdapter(model, p0=[1.0, 2.0, 3.0])


class TestFixedPoint:
    def test_self_generated_buffer_is_fixed_point(self, toy_trained):
        # data the net itself produced under p* has zero loss gradient,
        # so an update must leave p essentially where it started
        model, _ = toy_trained
        p_star = model.pb_table[0]
        cfg = AdapterConfig(n_thre=10)
        ad = PbAdapter(model, cfg, p0=p_star)
        rng = np.random.default_rng(7)
        s = rng.uniform(-0.3, 0.3, size=1)
        hidden = None
        for t in range(cfg.n_thre):
            u = rng.uniform(-0.5, 0.5, size=1)
            ad.buffer.push(s, u, tick=t)
            s_next, _, hidden, _ = model.predict(s, u, p_star, hidden)
            s = s_next
        assert ad.update_pb() is True
        assert np.linalg.norm(ad.p - p_star) < 1e-6

    def test_step_norm_bounded_by_logged_gradients(self, toy_trained):
        model, _ = toy_trained
        cfg = AdapterConfig()
        ad = PbAdapter(model, cfg)
        s_seq, u_seq = fresh_sequence(0, 23, model)
        p_prev = ad.p.copy()
        for t in range(s_seq.shape[0]):
            updated = ad.observe(s_seq[t], u_seq[t])
            if updated:
                rec = ad.log[-1]
                step = np.linalg.norm(rec.p - p_prev)
                bound = cfg.lr * cfg.n_epoch * rec.grad_norm / (1 - cfg.momentum)
                assert step <= bound + 1e-12
            p_prev = ad.p.copy()


class TestConvergence:
    @pytest.mark.parametrize("regime", [0, 1])
    def test_adaptation_lands_nearest_true_regime(self, toy_trained, regime):
        model, _ = toy_trained
        ad = PbAdapter(model)
        for seed in (31, 32, 33):
            s_seq, u_seq = fresh_sequence(regime, seed, model)
            stream_episode(ad, s_seq, u_seq)
        assert ad.nearest_state() == model.state_names[regime]

    def test_p_persists_across_episodes(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model)
        s_seq, u_seq = fresh_sequence(1, 41, model)
        stream_episode(ad, s_seq, u_seq)
        p_after_first = ad.p.copy()
        assert np.any(p_after_first != 0.0)
        s2, u2 = fresh_sequence(1, 42, model)
        ad.observe(s2[0], u2[0])   # buffer already past threshold: updates
        assert not np.array_equal(ad.p, p_after_first)

    def test_deterministic(self, toy_trained):
        model, _ = toy_trained
        runs = []
        for _ in range(2):
            ad = PbAdapter(model)
            s_seq, u_seq = fresh_sequence(0, 51, model)
            stream_episode(ad, s_seq, u_seq)
            runs.append(ad.p.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestFailureHandling:
    def test_non_finite_stream_surfaces_and_preserves_p(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model, p0=[0.1, 0.1])
        s_seq, u_seq = fresh_sequence(0, 61, model)
        for t in range(9):
            ad.observe(s_seq[t], u_seq[t])
        p_before = ad.p.copy()
        # rejected before buffering, so the stream goes on unpoisoned
        for s_bad, u_bad in ((np.array([np.nan]), u_seq[9]),
                             (s_seq[9], np.full_like(u_seq[9], np.inf))):
            with pytest.raises(FloatingPointError):
                ad.observe(s_bad, u_bad)
            assert len(ad.buffer) == 9 and ad.log == []
            np.testing.assert_array_equal(ad.p, p_before)
        assert ad.observe(s_seq[9], u_seq[9]) is True
        assert len(ad.buffer) == 10 and len(ad.log) == 1
        assert not np.array_equal(ad.p, p_before)

    def test_non_finite_last_epoch_leaves_p_unchanged(self, toy_trained,
                                                      monkeypatch):
        model, _ = toy_trained
        ad = PbAdapter(model, AdapterConfig(n_epoch=3))
        s_seq, u_seq = fresh_sequence(0, 63, model)
        for t in range(9):
            ad.observe(s_seq[t], u_seq[t])
        real, calls = adapt_mod.backward, []

        def nan_on_third(tape, loss):
            calls.append(None)
            grads = real(tape, loss)
            if len(calls) < 3:
                return grads
            return Gradients({k: np.full_like(g, np.nan)
                              for k, g in grads._acc.items()})

        monkeypatch.setattr(adapt_mod, "backward", nan_on_third)
        p_before = ad.p.copy()
        with pytest.raises(FloatingPointError):
            ad.observe(s_seq[9], u_seq[9])
        assert len(calls) == 3 and ad.log == []
        np.testing.assert_array_equal(ad.p, p_before)

    def test_stream_length_mismatch(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model)
        with pytest.raises(ValueError):
            stream_episode(ad, np.zeros((4, 1)), np.zeros((3, 1)))


class TestWindows:
    def test_single_window_at_threshold_length(self, toy_trained):
        model, _ = toy_trained
        ad = PbAdapter(model, AdapterConfig(n_thre=10, n_batch=5))
        assert list(ad._window_starts(10)) == [0]
        assert list(ad._window_starts(50)) == [0, 10, 20, 30, 40]
        assert list(ad._window_starts(12)) == [0, 1, 2]

import numpy as np
import pytest

from servopb.data import (Episode, RawEpisode, load_episode, load_raw,
                          load_training_set, save_episode, save_raw)
from servopb.rng import substream


def make_episode(state="c1-j0", obj="L-25", trial=0, ticks=17, seed=11):
    rng = substream(seed, "test-episode", state, obj, str(trial))
    return Episode(object_name=obj, state_name=state, trial=trial,
                   latents=rng.uniform(0, 1, (ticks, 15)),
                   commands=rng.uniform(-1, 1, (ticks, 7)))


def save_all(directory, episodes):
    for ep in episodes:
        save_episode(directory / f"{ep.tag}.bin", ep)


class TestEpisodeFile:
    def test_roundtrip_exact(self, tmp_path):
        ep = make_episode()
        ep.latents[0, 0] = np.nextafter(0.1, 1.0)     # repr-hostile values
        ep.commands[1, 2] = -5e-324
        path = tmp_path / "ep.bin"
        save_episode(path, ep)
        back = load_episode(path)
        for name in ("latents", "commands"):
            a, b = getattr(back, name), getattr(ep, name)
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
        assert (back.object_name, back.state_name, back.trial) == \
            ("L-25", "c1-j0", 0)
        assert back.tag == ep.tag == "c1-j0__L-25__000"

    def test_length_mismatch_rejected(self, tmp_path):
        ep = make_episode()
        ep.commands = ep.commands[:-1]
        with pytest.raises(ValueError):
            save_episode(tmp_path / "bad.bin", ep)
        assert not (tmp_path / "bad.bin").exists()


class TestRawFile:
    def test_roundtrip(self, tmp_path):
        rng = substream(5, "raw")
        raw = RawEpisode(
            object_name="S-15", state_name="c2-j1", trial=3, seed=5,
            placement=(0.22, -0.05, -0.2), executed_placement=(0.221, -0.049, -0.2),
            frames=rng.integers(0, 256, (17, 48, 64, 3)).astype(np.uint8),
            commands=rng.uniform(-1, 1, (17, 7)),
            phases=["approach"] * 17,
            place_path=rng.uniform(0, 1, (17, 3)),
            pick_path=rng.uniform(0, 1, (17, 3)),
            outcome="Succeeded")
        path = tmp_path / "raw.ckpt"
        save_raw(path, raw)
        back = load_raw(path)
        np.testing.assert_array_equal(back.frames, raw.frames)
        np.testing.assert_array_equal(back.commands, raw.commands)
        assert back.tag == raw.tag == "c2-j1__S-15__003"


class TestTrainingSet:
    def test_arrays_sorted_and_indexed(self, tmp_path):
        eps = [make_episode(state=s, obj="L-25", trial=t)
               for s in ("c2-j0", "c1-j0") for t in (1, 0)]
        save_all(tmp_path, eps)
        s, u, k, states = load_training_set(tmp_path)
        assert s.shape == (4, 17, 15) and u.shape == (4, 17, 7)
        assert states == ["c1-j0", "c2-j0"]
        np.testing.assert_array_equal(k, [0, 0, 1, 1])
        in_tag_order = sorted(eps, key=lambda e: e.tag)
        for i, ep in enumerate(in_tag_order):
            np.testing.assert_array_equal(s[i], ep.latents)
            np.testing.assert_array_equal(u[i], ep.commands)

    def test_mixed_lengths_rejected(self, tmp_path):
        save_all(tmp_path, [make_episode(trial=0), make_episode(trial=1, ticks=16)])
        with pytest.raises(ValueError, match="mixed episode lengths"):
            load_training_set(tmp_path)

    def test_from_dir(self, tmp_path):
        save_all(tmp_path, [make_episode(trial=t) for t in range(3)])
        s, _, k, states = load_training_set(tmp_path)
        assert s.shape[0] == 3 and states == ["c1-j0"]
        np.testing.assert_array_equal(k, [0, 0, 0])
        with pytest.raises(FileNotFoundError):
            load_training_set(tmp_path / "nowhere")
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_training_set(tmp_path / "empty")

"""Convolutional autoencoder that compresses camera frames to a short
feature vector.

Encoder: five stride-2 3x3 convolutions, then two fully connected
layers down to the feature size.  Decoder mirrors it with transposed
convolutions back to the input resolution.  Every layer is followed by
batch norm and ReLU except the two terminal ones (feature head and
reconstruction head), which are sigmoid so both codes and pixels live
in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor, recording
from .checkpoint import load_arrays, save_arrays
from .nn import BatchNorm, Conv2d, ConvTranspose2d, Linear, arrays_to_params, params_to_arrays
from .optim import AdamState, adam_step
from .rng import substream

__all__ = ["CodecConfig", "ConvAutoencoder", "train_codec", "frames_to_float"]


@dataclass(frozen=True)
class CodecConfig:
    height: int = 48
    width: int = 64
    channels: int = 3
    latent_dim: int = 15
    conv_channels: tuple[int, ...] = (8, 16, 32, 64, 64)
    fc_hidden: int = 256

    def to_meta(self) -> dict:
        return {"height": self.height, "width": self.width, "channels": self.channels,
                "latent_dim": self.latent_dim, "conv_channels": list(self.conv_channels),
                "fc_hidden": self.fc_hidden}

    @classmethod
    def from_meta(cls, meta: dict) -> "CodecConfig":
        return cls(meta["height"], meta["width"], meta["channels"], meta["latent_dim"],
                   tuple(meta["conv_channels"]), meta["fc_hidden"])


def frames_to_float(frames: np.ndarray) -> np.ndarray:
    """uint8 HWC frames (N, H, W, C) -> float64 NCHW in [0, 1]."""
    if frames.dtype == np.uint8:
        frames = frames.astype(np.float64) / 255.0
    return np.ascontiguousarray(frames.transpose(0, 3, 1, 2))


class ConvAutoencoder:
    def __init__(self, config: CodecConfig):
        self.config = config
        c = config
        # spatial sizes after each stride-2 stage; fail early if the
        # image collapses before the last stage
        sizes = [(c.height, c.width)]
        for _ in c.conv_channels:
            h, w = sizes[-1]
            oh, ow = ad.conv_out_hw(h, w, 3, 2, 1)
            if oh < 1 or ow < 1:
                raise ShapeError(f"image {c.height}x{c.width} too small for "
                                 f"{len(c.conv_channels)} stride-2 stages")
            sizes.append((oh, ow))
        self.sizes = sizes
        fh, fw = sizes[-1]
        self.flat_dim = c.conv_channels[-1] * fh * fw

        chans = (c.channels,) + c.conv_channels
        self.enc_convs = [Conv2d(f"enc{i}", chans[i], chans[i + 1])
                          for i in range(len(c.conv_channels))]
        self.enc_bns = [BatchNorm(f"encbn{i}", ch) for i, ch in enumerate(c.conv_channels)]
        self.enc_fc1 = Linear("encfc1", self.flat_dim, c.fc_hidden)
        self.enc_fc1_bn = BatchNorm("encfc1bn", c.fc_hidden)
        self.enc_fc2 = Linear("encfc2", c.fc_hidden, c.latent_dim)

        self.dec_fc1 = Linear("decfc1", c.latent_dim, c.fc_hidden)
        self.dec_fc1_bn = BatchNorm("decfc1bn", c.fc_hidden)
        self.dec_fc2 = Linear("decfc2", c.fc_hidden, self.flat_dim)
        self.dec_fc2_bn = BatchNorm("decfc2bn", self.flat_dim)
        rev = tuple(reversed(chans))
        self.dec_convs = [ConvTranspose2d(f"dec{i}", rev[i], rev[i + 1])
                          for i in range(len(c.conv_channels))]
        self.dec_bns = [BatchNorm(f"decbn{i}", ch)
                        for i, ch in enumerate(rev[1:-1])]

        self.params: dict[str, Tensor] = {}

    # -- parameters ---------------------------------------------------

    def _layers(self):
        yield from self.enc_convs
        yield from self.enc_bns
        yield self.enc_fc1
        yield self.enc_fc1_bn
        yield self.enc_fc2
        yield self.dec_fc1
        yield self.dec_fc1_bn
        yield self.dec_fc2
        yield self.dec_fc2_bn
        yield from self.dec_convs
        yield from self.dec_bns

    def _bn_layers(self) -> list[BatchNorm]:
        return [ly for ly in self._layers() if isinstance(ly, BatchNorm)]

    def init(self, rng: np.random.Generator) -> None:
        params: dict[str, Tensor] = {}
        for layer in self._layers():
            params.update(layer.init(rng))
        self.params = params

    # -- forward ------------------------------------------------------

    def encode_t(self, params: dict[str, Tensor], x: Tensor, training: bool) -> Tensor:
        h = x
        for conv, bn in zip(self.enc_convs, self.enc_bns):
            h = ad.relu(bn(params, conv(params, h), training))
        h = ad.reshape(h, (h.shape[0], self.flat_dim))
        h = ad.relu(self.enc_fc1_bn(params, self.enc_fc1(params, h), training))
        return ad.sigmoid(self.enc_fc2(params, h))

    def decode_t(self, params: dict[str, Tensor], z: Tensor, training: bool) -> Tensor:
        h = ad.relu(self.dec_fc1_bn(params, self.dec_fc1(params, z), training))
        h = ad.relu(self.dec_fc2_bn(params, self.dec_fc2(params, h), training))
        fh, fw = self.sizes[-1]
        h = ad.reshape(h, (h.shape[0], self.config.conv_channels[-1], fh, fw))
        targets = list(reversed(self.sizes[:-1]))
        last = len(self.dec_convs) - 1
        for i, conv in enumerate(self.dec_convs):
            h = conv(params, h, targets[i])
            if i < last:
                h = ad.relu(self.dec_bns[i](params, h, training))
        return ad.sigmoid(h)

    # -- eval-mode numpy API -----------------------------------------

    def encode(self, frames: np.ndarray, batch: int = 64) -> np.ndarray:
        """Frames (N, H, W, C) uint8 or [0,1] float -> codes (N, latent)."""
        x = frames_to_float(frames)
        out = []
        for i in range(0, x.shape[0], batch):
            z = self.encode_t(self.params, Tensor(x[i : i + batch]), training=False)
            out.append(z.data)
        return np.concatenate(out, axis=0)

    def decode(self, codes: np.ndarray, batch: int = 64) -> np.ndarray:
        """Codes (N, latent) -> frames (N, H, W, C) float in [0, 1]."""
        out = []
        for i in range(0, codes.shape[0], batch):
            y = self.decode_t(self.params, Tensor(codes[i : i + batch]), training=False)
            out.append(y.data.transpose(0, 2, 3, 1))
        return np.concatenate(out, axis=0)

    # -- persistence --------------------------------------------------

    def save(self, path: str | Path) -> None:
        arrays = params_to_arrays(self.params)
        for bn in self._bn_layers():
            arrays.update(bn.stats_arrays())
        save_arrays(path, arrays, {"kind": "codec", "config": self.config.to_meta()})

    @classmethod
    def load(cls, path: str | Path) -> "ConvAutoencoder":
        arrays, meta = load_arrays(path)
        if meta.get("kind") != "codec":
            raise ValueError(f"{path} is not a codec checkpoint")
        model = cls(CodecConfig.from_meta(meta["config"]))
        stats = {k: v for k, v in arrays.items() if ".running_" in k}
        weights = {k: v for k, v in arrays.items() if ".running_" not in k}
        model.params = arrays_to_params(weights)
        for bn in model._bn_layers():
            bn.load_stats(stats)
        return model


@dataclass
class CodecTrainResult:
    model: ConvAutoencoder
    losses: list[float] = field(default_factory=list)


def train_codec(frames: np.ndarray, config: CodecConfig | None = None,
                seed: int = 0, epochs: int = 40, batch_size: int = 32,
                lr: float = 1e-3) -> CodecTrainResult:
    """Fit the autoencoder on raw frames by pixel reconstruction error.

    Shuffling and init draw from fixed substreams of `seed`, so a rerun
    with the same frames reproduces the same weights bit for bit.
    """
    config = config or CodecConfig()
    x_all = frames_to_float(frames)
    n = x_all.shape[0]
    model = ConvAutoencoder(config)
    model.init(substream(seed, "codec", "init"))
    params = model.params
    state = AdamState(lr=lr)
    losses: list[float] = []
    for epoch in range(epochs):
        order = substream(seed, "codec", "shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        nb = 0
        for i in range(0, n, batch_size):
            xb = Tensor(x_all[order[i : i + batch_size]])
            tape = Tape()
            with recording(tape):
                z = model.encode_t(params, xb, training=True)
                recon = model.decode_t(params, z, training=True)
                loss = ad.mean(ad.square(ad.sub(recon, xb)))
            grads = ad.backward(tape, loss)
            gdict = {k: grads.get(v) for k, v in params.items()}
            params, state = adam_step(params, gdict, state)
            epoch_loss += float(loss.data)
            nb += 1
        losses.append(epoch_loss / max(nb, 1))
    model.params = params
    return CodecTrainResult(model=model, losses=losses)

"""Recurrent next-step predictor conditioned on a parametric bias.

One network serves every body state: the weights carry the shared
visuomotor mapping, a small per-state bias vector p_k carries what
differs between states.  Training updates weights and all p_k
simultaneously by gradient descent; at run time p is the only thing
that changes, so premise identification reduces to moving a 2-vector.

`VsnpbNet.unroll` is the one teacher-forced pass over a sequence.
Training descends its error in weights and PB, online adaptation
(adapt.py) in p alone, and `sequence_error` reports it for one
episode: exactly the training loss of that episode.

predict() speaks denormalized quantities; min-max normalization to
[-0.9, 0.9] happens inside, fitted once over the whole training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, backward, recording
from .checkpoint import load_arrays, save_arrays
from .nn import Linear, Lstm
from .optim import AdamState, adam_step
from .rng import substream

__all__ = ["Normalizer", "TrainResult", "VsnpbConfig", "VsnpbModel", "VsnpbNet",
           "sequence_error", "train_vsnpb"]

ENCODER_UNITS = (300, 150, 50, 50)
LSTM_UNITS = (50, 50)
DECODER_UNITS = (150, 300)
HEADROOM = 0.9   # training data maps to +-this, leaving tanh margin


@dataclass(frozen=True)
class VsnpbConfig:
    n_s: int = 15
    n_u: int = 7
    n_p: int = 2

    @property
    def input_dim(self) -> int:
        return self.n_s + self.n_u + self.n_p

    @property
    def output_dim(self) -> int:
        return self.n_s + self.n_u

    @property
    def schedule(self) -> tuple[int, ...]:
        return (self.input_dim, *ENCODER_UNITS, *LSTM_UNITS, *DECODER_UNITS,
                self.output_dim)


class Normalizer:
    """Per-dimension affine map: normalized = (x - shift) / scale.

    Fitted min-max so the data range lands on [-HEADROOM, +HEADROOM];
    constant dimensions get scale 1 and shift equal to the constant.
    `limit` is where the training extremes land after mapping (0 for
    constants); normalize_clipped() clamps to it, and reports clipping
    only on dimensions that varied in training (a constant dimension is
    pinned to its constant by design).
    """

    def __init__(self, shift: np.ndarray, scale: np.ndarray, limit=HEADROOM):
        shift = np.asarray(shift, dtype=np.float64)
        scale = np.asarray(scale, dtype=np.float64)
        if shift.shape != scale.shape or shift.ndim != 1:
            raise ValueError("shift and scale must be equal-length vectors")
        if np.any(scale <= 0):
            raise ValueError("scale must be positive")
        self.shift = shift
        self.scale = scale
        self.limit = np.broadcast_to(np.asarray(limit, dtype=np.float64),
                                     shift.shape).copy()

    @classmethod
    def fit(cls, data: np.ndarray) -> "Normalizer":
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise ValueError("cannot fit a normalizer on empty data")
        flat = data.reshape(-1, data.shape[-1])
        lo = flat.min(axis=0)
        hi = flat.max(axis=0)
        span = hi - lo
        constant = span == 0
        scale = np.where(constant, 1.0, span / (2.0 * HEADROOM))
        shift = np.where(constant, lo, (lo + hi) / 2.0)
        return cls(shift, scale, np.where(constant, 0.0, HEADROOM))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.shift) / self.scale

    def denormalize(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) * self.scale + self.shift

    def normalize_clipped(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """Normalize and clamp into the fitted training range."""
        y = self.normalize(x)
        lim = self.limit
        clipped = bool(np.any(((y < -lim) | (y > lim)) & (lim > 0)))
        return np.clip(y, -lim, lim), clipped

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.shift": self.shift.copy(),
                f"{prefix}.scale": self.scale.copy(),
                f"{prefix}.limit": self.limit.copy()}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], prefix: str) -> "Normalizer":
        return cls(arrays[f"{prefix}.shift"], arrays[f"{prefix}.scale"],
                   arrays[f"{prefix}.limit"])


class VsnpbNet:
    """The layer stack; parameters live in a caller-owned dict."""

    def __init__(self, config: VsnpbConfig):
        self.config = config
        dims = (config.input_dim, *ENCODER_UNITS)
        self.encoders = [Linear(f"enc{i}", dims[i], dims[i + 1])
                         for i in range(len(ENCODER_UNITS))]
        lstm_in = (ENCODER_UNITS[-1], *LSTM_UNITS[:-1])
        self.lstms = [Lstm(f"lstm{i}", lstm_in[i], LSTM_UNITS[i])
                      for i in range(len(LSTM_UNITS))]
        dec_dims = (LSTM_UNITS[-1], *DECODER_UNITS)
        self.decoders = [Linear(f"dec{i}", dec_dims[i], dec_dims[i + 1])
                         for i in range(len(DECODER_UNITS))]
        self.head = Linear("head", DECODER_UNITS[-1], config.output_dim)

    def init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for layer in (*self.encoders, *self.lstms, *self.decoders, self.head):
            params.update(layer.init(rng))
        return params

    def zero_hidden(self, batch: int) -> list[tuple[Tensor, Tensor]]:
        return [lstm.zero_state(batch) for lstm in self.lstms]

    def step(self, params: dict[str, Tensor], s: Tensor, u: Tensor, p: Tensor,
             hidden: list[tuple[Tensor, Tensor]]):
        c = self.config
        if s.shape[1] != c.n_s or u.shape[1] != c.n_u or p.shape[1] != c.n_p:
            raise ValueError(
                f"dimension mismatch: got s{s.shape} u{u.shape} p{p.shape}, "
                f"expected (*,{c.n_s}) (*,{c.n_u}) (*,{c.n_p})")
        x = ad.concat([s, u, p], axis=1)
        for enc in self.encoders:
            x = ad.tanh(enc(params, x))
        new_hidden = []
        for lstm, state in zip(self.lstms, hidden):
            x, state = lstm(params, x, state)
            new_hidden.append(state)
        for dec in self.decoders:
            x = ad.tanh(dec(params, x))
        out = ad.tanh(self.head(params, x))
        s_pred = ad.narrow(out, 1, 0, c.n_s)
        u_pred = ad.narrow(out, 1, c.n_s, c.n_u)
        return s_pred, u_pred, new_hidden

    def unroll(self, params: dict[str, Tensor], s: np.ndarray, u: np.ndarray,
               p: Tensor) -> tuple[Tensor, Tensor]:
        """Teacher-forced pass from a zero hidden state.

        s (T,B,n_s) and u (T,B,n_u) are normalized, time-major sequences;
        p is the (B,n_p) premise.  Returns the stacked predictions
        (T-1,B,n_s) and (T-1,B,n_u) for ticks 1..T-1, each made from the
        observed pair one tick earlier.
        """
        hidden = self.zero_hidden(p.shape[0])
        s_out, u_out = [], []
        for t in range(s.shape[0] - 1):
            s_p, u_p, hidden = self.step(params, Tensor(s[t]), Tensor(u[t]),
                                         p, hidden)
            s_out.append(s_p)
            u_out.append(u_p)
        return ad.stack(s_out), ad.stack(u_out)


@dataclass
class VsnpbModel:
    """Trained predictor: weights, PB table, and normalization."""
    config: VsnpbConfig
    params: dict[str, Tensor]
    pb_table: np.ndarray          # (K, n_p)
    state_names: list[str]
    norm_s: Normalizer
    norm_u: Normalizer
    net: VsnpbNet = field(init=False, repr=False)

    def __post_init__(self):
        self.net = VsnpbNet(self.config)
        self.pb_table = np.asarray(self.pb_table, dtype=np.float64)
        if self.pb_table.shape != (len(self.state_names), self.config.n_p):
            raise ValueError("PB table shape does not match state labels")

    def pb_for(self, state_name: str) -> np.ndarray:
        return self.pb_table[self.state_names.index(state_name)].copy()

    def zero_hidden(self, batch: int = 1):
        return self.net.zero_hidden(batch)

    def predict(self, s: np.ndarray, u: np.ndarray, p: np.ndarray, hidden=None,
                clip: bool = False):
        """One denormalized step.  Returns (s_next, u_next, hidden, clipped)."""
        c = self.config
        s = np.asarray(s, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        if s.shape != (c.n_s,) or u.shape != (c.n_u,) or p.shape != (c.n_p,):
            raise ValueError(f"dimension mismatch: s{s.shape} u{u.shape} p{p.shape}")
        if hidden is None:
            hidden = self.zero_hidden(1)
        clipped = False
        if clip:
            sn, cs = self.norm_s.normalize_clipped(s)
            un, cu = self.norm_u.normalize_clipped(u)
            clipped = cs or cu
        else:
            sn = self.norm_s.normalize(s)
            un = self.norm_u.normalize(u)
        s_pred, u_pred, hidden = self.net.step(
            self.params, Tensor(sn[None, :]), Tensor(un[None, :]),
            Tensor(p[None, :]), hidden)
        s_next = self.norm_s.denormalize(s_pred.data[0])
        u_next = self.norm_u.denormalize(u_pred.data[0])
        return s_next, u_next, hidden, clipped

    def save(self, path) -> None:
        arrays = {f"param.{k}": v.data.copy() for k, v in self.params.items()}
        arrays["pb"] = self.pb_table.copy()
        arrays.update(self.norm_s.arrays("norm_s"))
        arrays.update(self.norm_u.arrays("norm_u"))
        meta = {"n_s": self.config.n_s, "n_u": self.config.n_u,
                "n_p": self.config.n_p, "states": list(self.state_names)}
        save_arrays(path, arrays, meta=meta)

    @classmethod
    def load(cls, path) -> "VsnpbModel":
        arrays, meta = load_arrays(path)
        config = VsnpbConfig(n_s=meta["n_s"], n_u=meta["n_u"], n_p=meta["n_p"])
        params = {k[len("param."):]: Tensor(v)
                  for k, v in arrays.items() if k.startswith("param.")}
        return cls(config=config, params=params, pb_table=arrays["pb"],
                   state_names=list(meta["states"]),
                   norm_s=Normalizer.from_arrays(arrays, "norm_s"),
                   norm_u=Normalizer.from_arrays(arrays, "norm_u"))


def _unroll_loss(net: VsnpbNet, params, s_n: np.ndarray, u_n: np.ndarray,
                 p: Tensor, target: Tensor) -> Tensor:
    """Training loss: MSE of both predicted streams against `target`."""
    s_pred, u_pred = net.unroll(params, s_n, u_n, p)
    pred = ad.concat([s_pred, u_pred], axis=2)             # (T-1, B, D_out)
    return ad.mean(ad.square(ad.sub(pred, target)))


def sequence_error(model: VsnpbModel, s_seq: np.ndarray, u_seq: np.ndarray,
                   p: np.ndarray) -> float:
    """Training loss of one raw (T, dim) episode under premise p.

    Normalized-space MSE of the teacher-forced predictions of both
    streams, computed exactly as train_vsnpb computes a batch's loss."""
    s_seq = np.asarray(s_seq, dtype=np.float64)
    u_seq = np.asarray(u_seq, dtype=np.float64)
    if s_seq.shape[0] != u_seq.shape[0] or s_seq.shape[0] < 2:
        raise ValueError("need equal-length sequences of at least 2 ticks")
    s_n = model.norm_s.normalize(s_seq)[:, None]
    u_n = model.norm_u.normalize(u_seq)[:, None]
    target = Tensor(np.concatenate([s_n[1:], u_n[1:]], axis=2))
    p_t = Tensor(np.asarray(p, dtype=np.float64)[None, :])
    return float(_unroll_loss(model.net, model.params, s_n, u_n, p_t,
                              target).data)


@dataclass
class TrainResult:
    model: VsnpbModel
    losses: np.ndarray        # per-epoch mean batch loss
    pb_history: np.ndarray    # (epochs+1, K, n_p) PB trajectory


def _gather_pb(pb: Tensor, idx: np.ndarray) -> Tensor:
    rows = [ad.narrow(pb, 0, int(k), 1) for k in idx]
    return ad.concat(rows, axis=0)


def train_vsnpb(latents: np.ndarray, commands: np.ndarray, state_idx: np.ndarray,
                state_names: list[str], *, config: VsnpbConfig | None = None,
                seed: int = 0, epochs: int = 300, batch_size: int = 8,
                lr: float = 1e-3, progress=None) -> TrainResult:
    """Joint optimization of weights and the per-state PB table.

    latents (B,T,n_s), commands (B,T,n_u) are raw (denormalized)
    sequences; state_idx (B,) maps each to its body-state row.  All
    p_k start at zero.  Loss is MSE over both predicted streams across
    the full unrolled episode.  `progress`, if given, receives one line
    per epoch.
    """
    s_all = np.asarray(latents, dtype=np.float64)
    u_all = np.asarray(commands, dtype=np.float64)
    k_all = np.asarray(state_idx, dtype=np.int64)
    if s_all.ndim != 3 or s_all.shape[0] == 0:
        raise ValueError("empty dataset")
    if s_all.shape[1] < 2:
        raise ValueError("single-step episodes carry no transition")
    if not (s_all.shape[0] == u_all.shape[0] == k_all.shape[0]):
        raise ValueError("episode count mismatch between inputs")
    n_states = len(state_names)
    if n_states == 0 or k_all.max(initial=0) >= n_states:
        raise ValueError("state_idx outside state_names")

    cfg = config or VsnpbConfig(n_s=s_all.shape[2], n_u=u_all.shape[2])
    if cfg.n_s != s_all.shape[2] or cfg.n_u != u_all.shape[2]:
        raise ValueError("config dims do not match data")
    net = VsnpbNet(cfg)
    norm_s = Normalizer.fit(s_all)
    norm_u = Normalizer.fit(u_all)
    s_n = norm_s.normalize(s_all)
    u_n = norm_u.normalize(u_all)
    target = np.concatenate([s_n[:, 1:], u_n[:, 1:]], axis=2)  # (B,T-1,D_out)

    params = net.init_params(substream(seed, "vsnpb", "init"))
    params["pb"] = Tensor(np.zeros((n_states, cfg.n_p)), requires_grad=True)
    opt = AdamState(lr=lr)
    n_ep = s_all.shape[0]
    losses = []
    pb_history = [params["pb"].data.copy()]
    for epoch in range(epochs):
        perm = substream(seed, "vsnpb", "perm", str(epoch)).permutation(n_ep)
        batch_losses = []
        for start in range(0, n_ep, batch_size):
            rows = perm[start:start + batch_size]
            tape = Tape()
            with recording(tape):
                p_rows = _gather_pb(params["pb"], k_all[rows])
                loss = _unroll_loss(net, params, s_n[rows].transpose(1, 0, 2),
                                    u_n[rows].transpose(1, 0, 2), p_rows,
                                    Tensor(target[rows].transpose(1, 0, 2)))
            grads = backward(tape, loss)
            gdict = {name: grads.get(t) for name, t in params.items()}
            params, opt = adam_step(params, gdict, opt)
            batch_losses.append(float(loss.data))
        losses.append(float(np.mean(batch_losses)))
        pb_history.append(params["pb"].data.copy())
        if progress is not None:
            progress(f"model epoch {epoch + 1}/{epochs} loss {losses[-1]:.5f}")

    pb_table = params.pop("pb").data.copy()
    model = VsnpbModel(config=cfg, params=params, pb_table=pb_table,
                       state_names=list(state_names), norm_s=norm_s,
                       norm_u=norm_u)
    return TrainResult(model=model, losses=np.array(losses),
                       pb_history=np.array(pb_history))

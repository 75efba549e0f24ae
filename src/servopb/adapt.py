"""Online premise estimation: move the 2-vector p, leave the weights alone.

A deployed controller does not know which body state it woke up in.
It does not need to relearn the visuomotor mapping to find out: the
shared weights stay frozen and gradient descent runs on the parametric
bias only, against the prediction error of the visual stream.  Command
prediction error is deliberately excluded from the loss because the
commands come from the controller itself.

Buffered steps are replayed as short teacher-forced windows through
`VsnpbNet.unroll`, the same pass training descends, re-run from a zero
hidden state on every epoch, which keeps the loss well defined while p
moves between epochs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward, recording
from .model import VsnpbModel
from .optim import MomentumState, momentum_sgd_step

__all__ = ["AdapterConfig", "AdaptRecord", "ObservationBuffer", "PbAdapter",
           "stream_episode"]


@dataclass(frozen=True)
class AdapterConfig:
    """Online-update knobs.  Windows are n_thre steps long, so the
    threshold doubles as the replay length."""
    n_thre: int = 10
    n_batch: int = 5
    n_epoch: int = 3
    n_max: int = 50
    lr: float = 0.05
    momentum: float = 0.9

    def __post_init__(self):
        if self.n_thre < 2:
            raise ValueError("n_thre must be at least 2 (one transition)")
        if self.n_max < self.n_thre:
            raise ValueError("n_max must be at least n_thre")
        if self.n_batch < 1 or self.n_epoch < 1:
            raise ValueError("n_batch and n_epoch must be positive")
        if not (0.0 <= self.momentum < 1.0) or self.lr <= 0.0:
            raise ValueError("need lr > 0 and momentum in [0, 1)")


class ObservationBuffer:
    """FIFO ring of (tick, s, u) steps; oldest evicted past capacity."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, s: np.ndarray, u: np.ndarray, tick: int) -> None:
        s = np.asarray(s, dtype=np.float64).copy()
        u = np.asarray(u, dtype=np.float64).copy()
        self._items.append((int(tick), s, u))

    @property
    def ticks(self) -> list[int]:
        return [t for t, _, _ in self._items]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._items:
            raise ValueError("buffer is empty")
        s = np.stack([s for _, s, _ in self._items])
        u = np.stack([u for _, _, u in self._items])
        return s, u


@dataclass(frozen=True)
class AdaptRecord:
    """One applied update: where it happened and what it did."""
    tick: int
    p: np.ndarray          # value after the update
    loss: float            # replay loss before the first epoch's step
    grad_norm: float       # largest per-epoch gradient norm in the call
    epochs: int


class PbAdapter:
    """Streams (s, u) pairs and descends the s-prediction error in p.

    The model's weights and normalizers are read, never written; the
    momentum velocity starts at zero on every update call, so one call
    moves p by at most lr * n_epoch * max_grad / (1 - momentum).
    `p` persists across episodes until reset_pb() is called.
    """

    def __init__(self, model: VsnpbModel, config: AdapterConfig | None = None,
                 p0: np.ndarray | None = None):
        self.model = model
        self.config = config or AdapterConfig()
        n_p = model.config.n_p
        if p0 is None:
            self.p = np.zeros(n_p)
        else:
            self.p = np.asarray(p0, dtype=np.float64).copy()
            if self.p.shape != (n_p,):
                raise ValueError(f"p0 must have shape ({n_p},)")
        self.buffer = ObservationBuffer(self.config.n_max)
        self.log: list[AdaptRecord] = []
        self._tick = 0

    def reset_pb(self, p: np.ndarray | None = None) -> None:
        n_p = self.model.config.n_p
        value = np.zeros(n_p) if p is None else np.asarray(p, dtype=np.float64)
        if value.shape != (n_p,):
            raise ValueError(f"p must have shape ({n_p},)")
        self.p = value.copy()

    def observe(self, s: np.ndarray, u: np.ndarray) -> bool:
        """Push one step; update p once the buffer reaches threshold.

        Returns True when an update ran.  A non-finite (s, u) raises
        FloatingPointError before it is buffered."""
        if not (np.isfinite(s).all() and np.isfinite(u).all()):
            raise FloatingPointError("non-finite observation; not buffered")
        self.buffer.push(s, u, self._tick)
        self._tick += 1
        return self.update_pb()

    def _window_starts(self, length: int) -> np.ndarray:
        # n_batch windows of n_thre steps, evenly spread over the buffer;
        # at length == n_thre they all collapse onto the full buffer
        cfg = self.config
        span = length - cfg.n_thre
        return np.unique(np.rint(np.linspace(0.0, span, cfg.n_batch)).astype(int))

    def update_pb(self) -> bool:
        """One adaptation call: n_epoch MomentumSGD steps on p only.

        No-op (returns False) below the buffer threshold.  The epochs
        step a local p and `self.p` is assigned once, after the last, so
        a FloatingPointError from a non-finite loss or step leaves p
        unchanged."""
        cfg = self.config
        if len(self.buffer) < cfg.n_thre:
            return False
        model = self.model
        s_raw, u_raw = self.buffer.as_arrays()
        s_n = model.norm_s.normalize(s_raw)
        u_n = model.norm_u.normalize(u_raw)
        starts = self._window_starts(len(self.buffer))
        # (n_thre, n_win, dim) time-major stacks of teacher-forcing windows
        s_win = np.stack([s_n[i:i + cfg.n_thre] for i in starts], axis=1)
        u_win = np.stack([u_n[i:i + cfg.n_thre] for i in starts], axis=1)
        target = Tensor(s_win[1:])
        n_win = len(starts)

        p = self.p
        mstate = MomentumState(lr=cfg.lr, momentum=cfg.momentum)
        first_loss = None
        grad_max = 0.0
        for _ in range(cfg.n_epoch):
            p_t = Tensor(p[None, :], requires_grad=True)
            tape = Tape()
            with recording(tape):
                p_rows = ad.concat([p_t] * n_win, axis=0)
                s_pred, _ = model.net.unroll(model.params, s_win, u_win, p_rows)
                loss = ad.mean(ad.square(ad.sub(s_pred, target)))
            if first_loss is None:
                first_loss = float(loss.data)
            grads = backward(tape, loss)
            g = grads.get(p_t)
            grad_max = max(grad_max, float(np.linalg.norm(g)))
            new, mstate = momentum_sgd_step({"p": p_t}, {"p": g}, mstate)
            p = new["p"].data[0]
        self.p = p.copy()
        self.log.append(AdaptRecord(tick=self.buffer.ticks[-1], p=self.p.copy(),
                                    loss=first_loss, grad_norm=grad_max,
                                    epochs=cfg.n_epoch))
        return True

    def nearest_state(self) -> str:
        """Trained body state whose p_k lies closest to the current p."""
        d = np.linalg.norm(self.model.pb_table - self.p[None, :], axis=1)
        return self.model.state_names[int(np.argmin(d))]


def stream_episode(adapter: PbAdapter, latents: np.ndarray,
                   commands: np.ndarray) -> int:
    """Feed one episode's (s, u) stream tick by tick; count updates."""
    latents = np.asarray(latents, dtype=np.float64)
    commands = np.asarray(commands, dtype=np.float64)
    if latents.shape[0] != commands.shape[0]:
        raise ValueError("latents and commands must have equal tick counts")
    updates = 0
    for t in range(latents.shape[0]):
        updates += bool(adapter.observe(latents[t], commands[t]))
    return updates

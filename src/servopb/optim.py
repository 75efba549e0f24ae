"""Functional optimizers over name-keyed parameter dicts.

Parameters are immutable tensors, so an update step returns a fresh
``{name: Tensor}`` dict plus a fresh optimizer state, and no success
flag.  A non-finite gradient gives a non-finite parameter, which the
fresh ``Tensor`` rejects with FloatingPointError; the inputs are never
changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "MomentumState", "adam_step", "momentum_sgd_step"]

Params = dict[str, Tensor]
Grads = dict[str, np.ndarray]


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class MomentumState:
    lr: float = 0.05
    momentum: float = 0.9
    velocity: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Params, grads: Grads, state: AdamState) -> tuple[Params, AdamState]:
    """One Adam update with bias correction.  Returns (params, state)."""
    t = state.t + 1
    new = AdamState(state.lr, state.beta1, state.beta2, state.eps, t, {}, {})
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    out: Params = {}
    for name, p in params.items():
        g = grads[name]
        m = b1 * state.m.get(name, 0.0) + (1.0 - b1) * g
        v = b2 * state.v.get(name, 0.0) + (1.0 - b2) * g * g
        new.m[name] = m
        new.v[name] = v
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        out[name] = Tensor(p.data - step, requires_grad=p.requires_grad)
    return out, new


def momentum_sgd_step(params: Params, grads: Grads,
                      state: MomentumState) -> tuple[Params, MomentumState]:
    """Classical momentum: v <- mu v - lr g, p <- p + v."""
    new = MomentumState(state.lr, state.momentum, {})
    out: Params = {}
    for name, p in params.items():
        g = grads[name]
        v = state.momentum * state.velocity.get(name, 0.0) - state.lr * g
        new.velocity[name] = np.asarray(v, dtype=np.float64)
        out[name] = Tensor(p.data + v, requires_grad=p.requires_grad)
    return out, new

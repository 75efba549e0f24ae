"""Functional optimizers over name-keyed parameter dicts.

Parameters are immutable tensors, so an update step returns a fresh
``{name: Tensor}`` dict plus a fresh optimizer state, and no success
flag.  A step that cannot be taken raises FloatingPointError naming the
parameter, and the inputs are never changed: a non-finite gradient
gives a non-finite parameter, which the fresh ``Tensor`` rejects, and a
finite gradient too large to square (|g| above about 1e154) overflows
Adam's second moment, which would otherwise turn every later step of
that element into 0.  Numpy's overflow and invalid-value warnings are
raised as that error instead of printed.
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


def _apply(kind: str, params: Params, update) -> Params:
    """{name: Tensor(update(name, p))}, or FloatingPointError naming the
    first parameter whose update overflowed or is not finite."""
    out: Params = {}
    with np.errstate(over="raise", invalid="raise"):
        for name, p in params.items():
            try:
                out[name] = Tensor(update(name, p), requires_grad=p.requires_grad)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"{kind} step on parameter {name!r}: {err}") from None
    return out


def adam_step(params: Params, grads: Grads, state: AdamState) -> tuple[Params, AdamState]:
    """One Adam update with bias correction.  Returns (params, state)."""
    t = state.t + 1
    new = AdamState(state.lr, state.beta1, state.beta2, state.eps, t, {}, {})
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t

    def update(name, p):
        g = grads[name]
        m = new.m[name] = b1 * state.m.get(name, 0.0) + (1.0 - b1) * g
        v = new.v[name] = b2 * state.v.get(name, 0.0) + (1.0 - b2) * g * g
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        return p.data - step

    return _apply("Adam", params, update), new


def momentum_sgd_step(params: Params, grads: Grads,
                      state: MomentumState) -> tuple[Params, MomentumState]:
    """Classical momentum: v <- mu v - lr g, p <- p + v."""
    new = MomentumState(state.lr, state.momentum, {})

    def update(name, p):
        v = state.momentum * state.velocity.get(name, 0.0) - state.lr * grads[name]
        new.velocity[name] = np.asarray(v, dtype=np.float64)
        return p.data + v

    return _apply("momentum", params, update), new

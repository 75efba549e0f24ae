"""Reverse-mode automatic differentiation over float64 numpy arrays.

Operations execute eagerly.  A primitive is a forward result plus one
vector-Jacobian product (vjp) per input, and it records itself through
one helper, :func:`_node`: while a :class:`Tape` is active (see
:func:`recording`) and at least one input is tracked, the output's
backward step is appended to the tape; it maps the output gradient
through each tracked input's vjp, in edge order.  :func:`backward`
replays the tape in reverse to accumulate gradients.  Because entries are
appended in execution order, every node is produced before it is consumed
and the reverse sweep needs no topological sort.

Tensors are immutable: the wrapped array is marked read-only at
construction.  Optimizers therefore return fresh tensors instead of
mutating (see :mod:`servopb.optim`).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Gradients",
    "ShapeError",
    "recording",
    "active_tape",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "scale",
    "tanh",
    "sigmoid",
    "relu",
    "square",
    "mean",
    "reshape",
    "concat",
    "stack",
    "narrow",
    "conv2d",
    "conv2d_transpose",
    "batch_norm",
    "BnStats",
    "conv_out_hw",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible.  Messages carry the
    offending node ids."""


_UID = itertools.count(1)


class Tensor:
    """Immutable float64 array with an identity used by the tape."""

    __slots__ = ("data", "requires_grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor rejected: non-finite entries")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_UID)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for freshly computed op outputs: no finite
        # check, no copy.  `arr` must not be aliased elsewhere.
        t = object.__new__(cls)
        if not isinstance(arr, np.ndarray):
            arr = np.asarray(arr)
        arr.flags.writeable = False
        t.data = arr
        t.requires_grad = False
        t.uid = next(_UID)
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, uid={self.uid})"


class Tape:
    """Ordered record of executed primitives, replayable in reverse."""

    __slots__ = ("_entries", "_live")

    def __init__(self):
        self._entries: list[tuple[int, Callable]] = []
        self._live: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def tracked(self, t: Tensor) -> bool:
        return t.requires_grad or t.uid in self._live

    def _push(self, out_uid: int, bw: Callable) -> None:
        self._entries.append((out_uid, bw))
        self._live.add(out_uid)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def recording(tape: Tape):
    """Record every primitive executed inside the block onto `tape`."""
    _TAPE_STACK.append(tape)
    try:
        yield tape
    finally:
        _TAPE_STACK.pop()


class Gradients:
    """Gradient lookup by tensor.  Untouched tensors get zeros."""

    def __init__(self, acc: dict[int, np.ndarray]):
        self._acc = acc

    def get(self, t: Tensor) -> np.ndarray:
        g = self._acc.get(t.uid)
        if g is None:
            return np.zeros_like(t.data)
        return g

    def has(self, t: Tensor) -> bool:
        return t.uid in self._acc


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Accumulate d(loss)/d(tensor) for every tracked tensor on `tape`.

    `loss` must be scalar-sized and produced under the tape.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape} (node {loss.uid})")
    if not np.isfinite(loss.data).all():
        raise ValueError("loss is non-finite")
    acc: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    for out_uid, bw in reversed(tape._entries):
        g = acc.pop(out_uid, None)
        if g is not None:
            bw(g, acc)
    return Gradients(acc)


def _acc_into(acc: dict[int, np.ndarray], uid: int, g: np.ndarray) -> None:
    prev = acc.get(uid)
    acc[uid] = g if prev is None else prev + g


def _node(data: np.ndarray, *edges: tuple[Tensor, Callable],
          pre: Callable | None = None) -> Tensor:
    """Wrap `data` as an op output and record its backward step.

    Each edge is ``(input, vjp)``; ``vjp`` maps the output gradient to that
    input's gradient.  Only the edges of tracked inputs are kept, and with
    none left nothing is recorded.  The backward step applies `pre` to the
    output gradient once (work its vjps share), then accumulates the vjps
    in edge order.
    """
    out = Tensor._wrap(data)
    tape = active_tape()
    if tape is not None:
        live = [(t.uid, vjp) for t, vjp in edges if tape.tracked(t)]
        if live:
            def bw(g, acc):
                if pre is not None:
                    g = pre(g)
                for uid, vjp in live:
                    _acc_into(acc, uid, vjp(g))

            tape._push(out.uid, bw)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul mismatch {a.data.shape} @ {b.data.shape} (nodes {a.uid}, {b.uid})"
        )
    ad, bd = a.data, b.data
    return _node(ad @ bd, (a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g))


def _pairwise(fwd, a: Tensor, b: Tensor, name: str) -> np.ndarray:
    try:
        return fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name} mismatch {a.data.shape}, {b.data.shape} "
                         f"(nodes {a.uid}, {b.uid})") from exc


def add(a: Tensor, b: Tensor) -> Tensor:
    ash, bsh = a.data.shape, b.data.shape
    return _node(_pairwise(np.add, a, b, "add"),
                 (a, lambda g: _unbroadcast(g, ash)),
                 (b, lambda g: _unbroadcast(g, bsh)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    ash, bsh = a.data.shape, b.data.shape
    return _node(_pairwise(np.subtract, a, b, "sub"),
                 (a, lambda g: _unbroadcast(g, ash)),
                 (b, lambda g: _unbroadcast(-g, bsh)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, ash, bsh = a.data, b.data, a.data.shape, b.data.shape
    return _node(_pairwise(np.multiply, a, b, "mul"),
                 (a, lambda g: _unbroadcast(g * bd, ash)),
                 (b, lambda g: _unbroadcast(g * ad, bsh)))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(x.data * c, (x, lambda g: g * c))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _node(y, (x, lambda g: g * (1.0 - y * y)))


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))
    return _node(y, (x, lambda g: g * y * (1.0 - y)))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return _node(np.where(mask, x.data, 0.0), (x, lambda g: g * mask))


def square(x: Tensor) -> Tensor:
    xd = x.data
    return _node(xd * xd, (x, lambda g: g * (2.0 * xd)))


def mean(x: Tensor) -> Tensor:
    size, shape = x.data.size, x.data.shape
    return _node(x.data.mean(), (x, lambda g: np.full(shape, float(g) / size)))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    old = x.data.shape
    return _node(x.data.reshape(shape).copy(), (x, lambda g: g.reshape(old)))


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    edges, lo = [], 0
    for p in parts:
        hi = lo + p.data.shape[axis]
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(lo, hi)
        edges.append((p, itemgetter(tuple(sl))))
        lo = hi
    return _node(data, *edges)


def stack(parts: Iterable[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    parts = list(parts)
    return _node(np.stack([p.data for p in parts], axis=0),
                 *[(p, itemgetter(i)) for i, p in enumerate(parts)])


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    if not (0 <= start and start + length <= x.data.shape[axis]):
        raise ShapeError(
            f"narrow [{start}:{start + length}) outside axis {axis} of shape "
            f"{x.data.shape} (node {x.uid})"
        )
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    xsh = x.data.shape

    def vjp(g):
        full = np.zeros(xsh)
        full[sl] = g
        return full

    return _node(x.data[sl].copy(), (x, vjp))


# ---------------------------------------------------------------------------
# convolution


def conv_out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    return (
        (h + 2 * padding - kernel) // stride + 1,
        (w + 2 * padding - kernel) // stride + 1,
    )


def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int,
            oh: int, ow: int) -> np.ndarray:
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, oh, ow))
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride,
                                  j : j + stride * ow : stride]
    return cols.reshape(n, c * kernel * kernel, oh * ow)


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kernel: int, stride: int,
            padding: int, oh: int, ow: int) -> np.ndarray:
    n, c, h, w = x_shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    cols6 = cols.reshape(n, c, kernel, kernel, oh, ow)
    for i in range(kernel):
        for j in range(kernel):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[:, :, i, j]
    if padding:
        return xp[:, :, padding : padding + h, padding : padding + w].copy()
    return xp


def conv2d(x: Tensor, w: Tensor, stride: int = 2, padding: int = 1) -> Tensor:
    """2-D convolution, NCHW input, weight (out_ch, in_ch, k, k)."""
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[1] \
            or w.data.shape[2] != w.data.shape[3]:
        raise ShapeError(
            f"conv2d mismatch x{x.data.shape} w{w.data.shape} (nodes {x.uid}, {w.uid})"
        )
    n, c, h, wd = x.data.shape
    f, _, k, _ = w.data.shape
    oh, ow = conv_out_hw(h, wd, k, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d output collapsed for input {x.data.shape} (node {x.uid})")
    cols = _im2col(x.data, k, stride, padding, oh, ow)
    w2 = w.data.reshape(f, c * k * k)
    xsh, wsh = x.data.shape, w.data.shape
    return _node(
        np.matmul(w2, cols).reshape(n, f, oh, ow),
        (w, lambda g3: np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wsh)),
        (x, lambda g3: _col2im(np.matmul(w2.T, g3), xsh, k, stride, padding, oh, ow)),
        pre=lambda g: g.reshape(n, f, oh * ow),
    )


def conv2d_transpose(x: Tensor, w: Tensor, out_hw: tuple[int, int],
                     stride: int = 2, padding: int = 1) -> Tensor:
    """Transposed 2-D convolution mapping (n, f, h, w) -> (n, c, *out_hw).

    Weight layout matches :func:`conv2d` with roles reversed: (f, c, k, k).
    `out_hw` must be a spatial size whose forward convolution yields the
    input's spatial size.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(
            f"conv2d_transpose mismatch x{x.data.shape} w{w.data.shape} "
            f"(nodes {x.uid}, {w.uid})"
        )
    n, f, h, wd = x.data.shape
    _, c, k, _ = w.data.shape
    th, tw = out_hw
    if conv_out_hw(th, tw, k, stride, padding) != (h, wd):
        raise ShapeError(
            f"conv2d_transpose target {out_hw} inconsistent with input "
            f"{x.data.shape} (node {x.uid})"
        )
    w2 = w.data.reshape(f, c * k * k)
    x3 = x.data.reshape(n, f, h * wd)
    cols = np.matmul(w2.T, x3)
    wsh = w.data.shape
    return _node(
        _col2im(cols, (n, c, th, tw), k, stride, padding, h, wd),
        (x, lambda gcols: np.matmul(w2, gcols).reshape(n, f, h, wd)),
        (w, lambda gcols: np.matmul(x3, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(wsh)),
        pre=lambda g: _im2col(g, k, stride, padding, h, wd),
    )


# ---------------------------------------------------------------------------
# batch normalization


class BnStats:
    """Running statistics for one batch-norm layer (not differentiated)."""

    def __init__(self, dim: int, momentum: float = 0.99, eps: float = 1e-5):
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.momentum = float(momentum)
        self.eps = float(eps)

    def copy(self) -> "BnStats":
        other = BnStats(self.mean.size, self.momentum, self.eps)
        other.mean = self.mean.copy()
        other.var = self.var.copy()
        return other


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, stats: BnStats,
               training: bool) -> Tensor:
    """Normalize per feature (axis 1 for 4-D input, last axis for 2-D).

    Training mode uses batch statistics and folds them into `stats` with
    its momentum; eval mode is a pure function of `stats`.
    """
    xd = x.data
    if xd.ndim == 4:
        axes, bshape = (0, 2, 3), (1, -1, 1, 1)
    elif xd.ndim == 2:
        axes, bshape = (0,), (1, -1)
    else:
        raise ShapeError(f"batch_norm expects 2-D or 4-D input, got {xd.shape} (node {x.uid})")
    dim = xd.shape[1]
    if gamma.data.shape != (dim,) or beta.data.shape != (dim,):
        raise ShapeError(
            f"batch_norm scale/shift shape {gamma.data.shape}/{beta.data.shape} "
            f"does not match feature dim {dim} (nodes {gamma.uid}, {beta.uid})"
        )
    gmm = gamma.data.reshape(bshape)
    bet = beta.data.reshape(bshape)
    if training:
        mu = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        m = stats.momentum
        stats.mean = m * stats.mean + (1.0 - m) * mu
        stats.var = m * stats.var + (1.0 - m) * var
    else:
        mu, var = stats.mean, stats.var
    istd = 1.0 / np.sqrt(var + stats.eps)
    xhat = (xd - mu.reshape(bshape)) * istd.reshape(bshape)
    istd_b = istd.reshape(bshape)
    count = xd.size // dim

    def vjp_x(g):
        if not training:
            return g * gmm * istd_b
        gsum = g.sum(axis=axes).reshape(bshape)
        gxhat = (g * xhat).sum(axis=axes).reshape(bshape)
        return (gmm * istd_b / count) * (count * g - gsum - xhat * gxhat)

    return _node(gmm * xhat + bet,
                 (gamma, lambda g: (g * xhat).sum(axis=axes)),
                 (beta, lambda g: g.sum(axis=axes)),
                 (x, vjp_x))

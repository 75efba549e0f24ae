import gc
import weakref

import numpy as np
import pytest

from servopb import autodiff as ad
from servopb.autodiff import (
    BnStats,
    Gradients,
    ShapeError,
    Tape,
    Tensor,
    backward,
    recording,
)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn of one array."""
    g = np.zeros_like(x)
    flat = x.copy().reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(flat.reshape(x.shape))
        flat[i] = orig - eps
        lo = fn(flat.reshape(x.shape))
        flat[i] = orig
        g.reshape(-1)[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(build, x0: np.ndarray, tol: float = 1e-6):
    """build(Tensor) -> scalar Tensor; compares tape grad to numeric grad."""
    x = Tensor(x0, requires_grad=True)
    tape = Tape()
    with recording(tape):
        loss = build(x)
    g = backward(tape, loss).get(x)
    gn = numeric_grad(lambda a: float(build(Tensor(a)).data), x0)
    np.testing.assert_allclose(g, gn, atol=tol, rtol=1e-5)


def test_mean_square_gradient_known_value():
    # d/dx mean(x^2) = 2x/n; at [1, -1] that is exactly [1, -1]
    x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    tape = Tape()
    with recording(tape):
        loss = ad.mean(ad.square(x))
    g = backward(tape, loss).get(x)
    np.testing.assert_array_equal(g, np.array([1.0, -1.0]))


def test_tensor_is_immutable():
    t = Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        t.data[0] = 1.0


def test_tensor_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        Tensor(np.array([1.0, np.nan]))


def test_backward_rejects_nonfinite_loss():
    x = Tensor(np.array([1e200]), requires_grad=True)
    tape = Tape()
    with recording(tape), np.errstate(over="ignore"):
        loss = ad.mean(ad.square(x))
    with pytest.raises(FloatingPointError):
        backward(tape, loss)


def test_unused_parameter_gets_zero_gradient():
    x = Tensor(np.ones(4), requires_grad=True)
    unused = Tensor(np.ones(7), requires_grad=True)
    tape = Tape()
    with recording(tape):
        loss = ad.mean(ad.square(x))
    grads = backward(tape, loss)
    assert not grads.has(unused)
    np.testing.assert_array_equal(grads.get(unused), np.zeros(7))


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    tape = Tape()
    with recording(tape):
        y = ad.square(x)
    with pytest.raises(ShapeError):
        backward(tape, y)


def test_reuse_accumulates():
    # y = x*x + x => dy/dx = 2x + 1
    x = Tensor(np.array([3.0]), requires_grad=True)
    tape = Tape()
    with recording(tape):
        loss = ad.mean(ad.add(ad.mul(x, x), x))
    g = backward(tape, loss).get(x)
    np.testing.assert_allclose(g, [7.0])


def test_matmul_shape_error_carries_node_ids():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError) as exc:
        ad.matmul(a, b)
    assert str(a.uid) in str(exc.value)
    assert str(b.uid) in str(exc.value)


@pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.square])
def test_elementwise_gradients(op):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(3, 5))
        check_grad(lambda x: ad.mean(op(x)), x0)


def test_relu_gradient_off_kink():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        x0 = rng.normal(size=(4, 4))
        x0[np.abs(x0) < 1e-3] = 0.5
        check_grad(lambda x: ad.mean(ad.relu(x)), x0)


def test_matmul_gradients_both_sides():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3, 5))
    b = Tensor(b0)
    check_grad(lambda x: ad.mean(ad.square(ad.matmul(x, b))), a0)
    a = Tensor(a0)
    check_grad(lambda x: ad.mean(ad.square(ad.matmul(a, x))), b0)


def test_add_broadcast_bias_gradient():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(6, 3)))
    b0 = rng.normal(size=(3,))
    check_grad(lambda b: ad.mean(ad.square(ad.add(x, b))), b0)


def test_sub_mul_scale_gradients():
    rng = np.random.default_rng(12)
    y = Tensor(rng.normal(size=(2, 4)))
    x0 = rng.normal(size=(2, 4))
    check_grad(lambda x: ad.mean(ad.square(ad.sub(x, y))), x0)
    check_grad(lambda x: ad.mean(ad.mul(x, y)), x0)
    check_grad(lambda x: ad.mean(ad.scale(x, -2.5)), x0)


def test_reshape_concat_narrow_stack_gradients():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(2, 6))

    def via_reshape(x):
        return ad.mean(ad.square(ad.reshape(x, (3, 4))))

    check_grad(via_reshape, x0)

    other = Tensor(rng.normal(size=(2, 2)))
    check_grad(lambda x: ad.mean(ad.square(ad.concat([x, other], axis=1))), x0)
    check_grad(lambda x: ad.mean(ad.square(ad.narrow(x, 1, 2, 3))), x0)

    y0 = rng.normal(size=(4,))
    ref = Tensor(rng.normal(size=(4,)))
    check_grad(lambda x: ad.mean(ad.square(ad.stack([x, ref]))), y0)


def test_narrow_out_of_range():
    x = Tensor(np.ones((2, 5)))
    with pytest.raises(ShapeError):
        ad.narrow(x, 1, 3, 4)


def conv_naive(x, w, stride, padding):
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, oh, ow))
    for b in range(n):
        for o in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[b, o, i, j] = np.sum(patch * w[o])
    return out


def test_conv2d_matches_naive_loop():
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        got = ad.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        np.testing.assert_allclose(got, conv_naive(x, w, 2, 1), atol=1e-12)


def test_conv2d_output_shape_chain():
    # stride-2 k3 p1 halves (rounding up) each spatial dim
    assert ad.conv_out_hw(128, 96, 3, 2, 1) == (64, 48)
    assert ad.conv_out_hw(64, 48, 3, 2, 1) == (32, 24)
    assert ad.conv_out_hw(5, 5, 3, 2, 1) == (3, 3)


def test_conv2d_gradients():
    rng = np.random.default_rng(31)
    x0 = rng.normal(size=(2, 2, 6, 6))
    w0 = rng.normal(size=(3, 2, 3, 3))
    w = Tensor(w0)
    check_grad(lambda x: ad.mean(ad.square(ad.conv2d(x, w))), x0, tol=1e-5)
    x = Tensor(x0)
    check_grad(lambda v: ad.mean(ad.square(ad.conv2d(x, v))), w0, tol=1e-5)


def test_conv2d_transpose_is_adjoint_of_conv2d():
    # <conv(x), y> == <x, conv_T(y)> for shared weights
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        x = rng.normal(size=(2, 3, 8, 6))
        w = rng.normal(size=(5, 3, 3, 3))
        fwd = ad.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        y = rng.normal(size=fwd.shape)
        back = ad.conv2d_transpose(Tensor(y), Tensor(w), out_hw=(8, 6),
                                   stride=2, padding=1).data
        np.testing.assert_allclose(np.sum(fwd * y), np.sum(x * back), rtol=1e-10)


def test_conv2d_transpose_gradients():
    rng = np.random.default_rng(50)
    x0 = rng.normal(size=(1, 4, 3, 3))
    w0 = rng.normal(size=(4, 2, 3, 3))
    w = Tensor(w0)
    check_grad(lambda x: ad.mean(ad.square(
        ad.conv2d_transpose(x, w, out_hw=(5, 5)))), x0, tol=1e-5)
    x = Tensor(x0)
    check_grad(lambda v: ad.mean(ad.square(
        ad.conv2d_transpose(x, v, out_hw=(5, 5)))), w0, tol=1e-5)


def test_conv2d_transpose_rejects_inconsistent_target():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((2, 1, 3, 3)))
    with pytest.raises(ShapeError):
        ad.conv2d_transpose(x, w, out_hw=(20, 20))


def test_batch_norm_train_normalizes_batch():
    rng = np.random.default_rng(60)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
    stats = BnStats(5)
    out = ad.batch_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)),
                        stats, training=True)
    np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(5), atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=0), np.ones(5), atol=1e-3)


def test_batch_norm_eval_is_pure():
    rng = np.random.default_rng(61)
    stats = BnStats(3)
    for _ in range(5):
        ad.batch_norm(Tensor(rng.normal(size=(8, 3))), Tensor(np.ones(3)),
                      Tensor(np.zeros(3)), stats, training=True)
    mean_before = stats.mean.copy()
    x = Tensor(rng.normal(size=(4, 3)))
    a = ad.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, training=False)
    b = ad.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), stats, training=False)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(stats.mean, mean_before)


def test_batch_norm_gradients_train_and_eval():
    rng = np.random.default_rng(62)
    x0 = rng.normal(size=(6, 4))
    g0 = rng.normal(size=(4,)) + 1.0
    b0 = rng.normal(size=(4,))

    def run_train(x):
        return ad.mean(ad.square(ad.batch_norm(
            x, Tensor(g0), Tensor(b0), BnStats(4), training=True)))

    check_grad(run_train, x0, tol=1e-5)

    frozen = BnStats(4)
    frozen.mean = rng.normal(size=(4,))
    frozen.var = rng.uniform(0.5, 2.0, size=(4,))

    def run_eval(x):
        return ad.mean(ad.square(ad.batch_norm(
            x, Tensor(g0), Tensor(b0), frozen, training=False)))

    check_grad(run_eval, x0)

    x = Tensor(x0)
    check_grad(lambda g: ad.mean(ad.square(ad.batch_norm(
        x, g, Tensor(b0), frozen, training=False))), g0)
    check_grad(lambda b: ad.mean(ad.square(ad.batch_norm(
        x, Tensor(g0), b, frozen, training=False))), b0)


def test_batch_norm_4d_gradcheck():
    rng = np.random.default_rng(63)
    x0 = rng.normal(size=(2, 3, 4, 4))
    check_grad(lambda x: ad.mean(ad.square(ad.batch_norm(
        x, Tensor(np.ones(3)), Tensor(np.zeros(3)), BnStats(3), training=True))),
        x0, tol=1e-5)


def test_lstm_style_chain_gradcheck():
    # deep composite touching most primitives at once
    rng = np.random.default_rng(70)
    w1 = Tensor(rng.normal(size=(6, 8)) * 0.3)
    w2 = Tensor(rng.normal(size=(8, 2)) * 0.3)
    x0 = rng.normal(size=(3, 6))

    def run(x):
        h = ad.tanh(ad.matmul(x, w1))
        gate = ad.sigmoid(ad.matmul(x, w1))
        y = ad.matmul(ad.mul(h, gate), w2)
        return ad.mean(ad.square(y))

    check_grad(run, x0, tol=1e-5)


def test_no_tape_records_nothing():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    tape = Tape()
    ad.square(x)  # outside any recording block
    assert len(tape) == 0
    with recording(tape):
        ad.mean(ad.square(x))
    assert len(tape) == 2


def test_gradients_are_fresh_zeros_not_shared():
    x = Tensor(np.ones(2), requires_grad=True)
    grads = Gradients({})
    a = grads.get(x)
    a += 5.0
    np.testing.assert_array_equal(grads.get(x), np.zeros(2))


def test_tape_frees_arrays_no_backward_step_needs():
    # add needs only its operands' shapes, so once the caller drops the
    # matmul's output nothing on the tape may keep that array alive.
    rng = np.random.default_rng(80)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    tape = Tape()
    with recording(tape):
        h = ad.matmul(x, w)
        loss = ad.mean(ad.add(h, b))
    freed = weakref.ref(h.data)
    del h
    gc.collect()
    assert freed() is None
    grads = backward(tape, loss)
    np.testing.assert_allclose(grads.get(b), np.full(5, 1.0 / 5.0))
    np.testing.assert_allclose(grads.get(x), np.tile(w.data.sum(axis=1) / 20.0, (4, 1)))


def _raising_vjp(g):
    raise AssertionError("vjp of an untracked input called")


def test_node_skips_untracked_edges():
    x = Tensor(np.arange(3.0), requires_grad=True)
    c = Tensor(np.ones(3))
    tape = Tape()
    with recording(tape):
        y = ad._node(x.data * 2.0, (c, _raising_vjp), (x, lambda g: 2.0 * g))
        loss = ad.mean(y)
    np.testing.assert_allclose(backward(tape, loss).get(x), np.full(3, 2.0 / 3.0))


def test_node_without_tracked_input_records_nothing():
    c = Tensor(np.ones(3))
    tape = Tape()
    with recording(tape):
        out = ad._node(c.data + 1.0, (c, _raising_vjp))
    assert len(tape) == 0
    assert not tape.tracked(out)


def test_node_pre_runs_once_per_backward_step():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.full(2, 3.0), requires_grad=True)
    calls = []

    def pre(g):
        calls.append(g.copy())
        return 10.0 * g

    tape = Tape()
    with recording(tape):
        y = ad._node(a.data + b.data, (a, lambda g: g), (b, lambda g: -g), pre=pre)
        loss = ad.mean(y)
    grads = backward(tape, loss)
    assert len(calls) == 1
    np.testing.assert_allclose(grads.get(a), np.full(2, 5.0))
    np.testing.assert_allclose(grads.get(b), np.full(2, -5.0))

import numpy as np
import pytest

from servopb.autodiff import Tensor
from servopb.optim import AdamState, MomentumState, adam_step, momentum_sgd_step


def test_adam_first_step_matches_hand_calc():
    # grad 1, lr 1e-3: m_hat=1, v_hat=1 => step = lr/(1+eps) ~= 1e-3
    params = {"w": Tensor(np.array([0.0]))}
    grads = {"w": np.array([1.0])}
    new, state = adam_step(params, grads, AdamState(lr=1e-3))
    np.testing.assert_allclose(new["w"].data, [-1e-3 / (1 + 1e-8)], rtol=1e-12)
    assert state.t == 1


def test_adam_matches_reference_loop():
    # independent reference implementation, scalar per-element
    rng = np.random.default_rng(0)
    p = rng.normal(size=(4,))
    params = {"w": Tensor(p)}
    state = AdamState(lr=0.01)
    m = np.zeros(4)
    v = np.zeros(4)
    ref = p.copy()
    for t in range(1, 8):
        g = rng.normal(size=(4,))
        params, state = adam_step(params, {"w": g}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(params["w"].data, ref, rtol=1e-12)


def test_momentum_two_steps_hand_calc():
    # lr 0.1, mu 0.9, grad stuck at 1:
    #   v1 = -0.1        p1 = -0.1
    #   v2 = -0.19       p2 = -0.29
    params = {"w": Tensor(np.array([0.0]))}
    state = MomentumState(lr=0.1, momentum=0.9)
    params, state = momentum_sgd_step(params, {"w": np.array([1.0])}, state)
    np.testing.assert_allclose(params["w"].data, [-0.1], rtol=1e-14)
    params, state = momentum_sgd_step(params, {"w": np.array([1.0])}, state)
    np.testing.assert_allclose(params["w"].data, [-0.29], rtol=1e-14)


def test_nonfinite_gradient_rejects_step():
    # the non-finite parameter is rejected by Tensor; no input is touched
    params = {"b": Tensor(np.array([3.0])), "w": Tensor(np.array([1.0, 2.0]))}
    state = AdamState(lr=0.1, t=4, m={"w": np.ones(2), "b": np.ones(1)},
                      v={"w": np.ones(2), "b": np.ones(1)})
    mstate = MomentumState(velocity={"b": np.ones(1)})
    for bad in (np.nan, np.inf, -np.inf):
        grads = {"b": np.array([1.0]), "w": np.array([bad, 0.0])}
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            adam_step(params, grads, state)
        with pytest.raises(FloatingPointError):
            momentum_sgd_step(params, grads, mstate)
    assert state.t == 4
    for name in ("w", "b"):
        np.testing.assert_array_equal(state.m[name], 1.0)
        np.testing.assert_array_equal(state.v[name], 1.0)
    assert list(mstate.velocity) == ["b"]
    np.testing.assert_array_equal(mstate.velocity["b"], 1.0)
    np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])
    np.testing.assert_array_equal(params["b"].data, [3.0])


def test_steps_do_not_mutate_inputs():
    p0 = np.array([1.0, -1.0])
    params = {"w": Tensor(p0)}
    state = AdamState()
    adam_step(params, {"w": np.array([0.5, 0.5])}, state)
    np.testing.assert_array_equal(params["w"].data, p0)
    assert state.t == 0 and not state.m


@pytest.mark.parametrize("seed", range(3))
def test_momentum_descends_quadratic(seed):
    # f(p) = 0.5 |p - target|^2 converges under momentum
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(5,))
    params = {"p": Tensor(rng.normal(size=(5,)))}
    state = MomentumState(lr=0.05, momentum=0.9)
    for _ in range(400):
        g = params["p"].data - target
        params, state = momentum_sgd_step(params, {"p": g}, state)
    np.testing.assert_allclose(params["p"].data, target, atol=1e-6)


def test_adam_preserves_requires_grad_flag():
    params = {"w": Tensor(np.zeros(2), requires_grad=True)}
    params, _ = adam_step(params, {"w": np.ones(2)}, AdamState())
    assert params["w"].requires_grad

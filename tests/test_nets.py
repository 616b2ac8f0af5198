import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthflow.nets import (
    NonFiniteError,
    build_mlp,
    mlp_forward,
    mlp_input_grad,
    mlp_param_grad,
    penalty_param_grad,
    rmsprop_state,
    rmsprop_step,
)

from helpers import fd_input_grad, fd_param_grad, mlp, random_net_and_batch, rel_err


def linear_net(weights, bias=None):
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=float)
    return mlp((w, b))


def relu_then_identity():
    """A ReLU [[1.0]] layer followed by a linear [[1.0]] head."""
    one = np.array([[1.0]])
    return mlp((one, np.zeros(1)), (one, np.zeros(1)))


# ---------------------------------------------------------------- forward

def test_forward_identity_linear():
    net = linear_net([[1.0]])
    y, _ = mlp_forward(net, [[3.0]])
    assert y == np.array([[3.0]])


def test_forward_relu_clamps_negative():
    net = relu_then_identity()
    y, _ = mlp_forward(net, [[-2.0]])
    assert y == np.array([[0.0]])


def test_forward_two_layer_composition():
    net = mlp((np.array([[2.0]]), np.zeros(1)), (np.array([[-1.0]]), np.zeros(1)))
    y, _ = mlp_forward(net, [[3.0]])
    assert y == np.array([[-6.0]])


def test_forward_rejects_nonfinite_input():
    net = linear_net([[1.0]])
    with pytest.raises(NonFiniteError):
        mlp_forward(net, [[np.nan]])


# ---------------------------------------------------------- parameter grads

def test_param_grad_linear_layer_hand_case():
    net = linear_net([[1.0]])
    _, cache = mlp_forward(net, np.array([[3.0]]))
    grads = mlp_param_grad(net, cache, np.array([[1.0]]))
    assert grads[0] == np.array([[3.0]])
    assert grads[1] == np.array([1.0])


def test_param_grad_dead_relu_is_zero():
    net = relu_then_identity()
    _, cache = mlp_forward(net, np.array([[-2.0]]))
    grads = mlp_param_grad(net, cache, np.array([[5.0]]))
    assert grads[0] == np.array([[0.0]])
    assert grads[1] == np.array([0.0])


def test_param_grad_matches_finite_differences():
    for seed in range(5):
        net, x = random_net_and_batch(seed)
        weighting = np.random.default_rng(seed).normal(size=(x.shape[0], 1))
        _, cache = mlp_forward(net, x)
        analytic = mlp_param_grad(net, cache, weighting)
        oracle = fd_param_grad(
            net, lambda: float((mlp_forward(net, x)[0] * weighting).sum())
        )
        assert rel_err(analytic, oracle) < 1e-5


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(-3, 3, allow_nan=False),
    beta=st.floats(-3, 3, allow_nan=False),
)
def test_param_grad_linear_in_upstream(seed, alpha, beta):
    net, x = random_net_and_batch(seed)
    rng = np.random.default_rng(seed + 1)
    u = rng.normal(size=(x.shape[0], 1))
    v = rng.normal(size=(x.shape[0], 1))
    _, cache = mlp_forward(net, x)
    combined = mlp_param_grad(net, cache, alpha * u + beta * v)
    separate = alpha * mlp_param_grad(net, cache, u) + beta * mlp_param_grad(net, cache, v)
    assert rel_err(combined, separate) < 1e-12


# ---------------------------------------------------------------- input grads

def test_input_grad_linear_critic():
    net = linear_net([[2.0, 3.0]])
    g = mlp_input_grad(net, [[0.4, 0.6], [5.0, -1.0]])
    assert np.array_equal(g, np.array([[2.0, 3.0], [2.0, 3.0]]))


def test_input_grad_dead_relu_zero():
    net = relu_then_identity()
    g = mlp_input_grad(net, [[-1.5]])
    assert g == np.array([[0.0]])


def test_input_grad_matches_finite_differences():
    for seed in range(5):
        net, x = random_net_and_batch(seed + 50)
        analytic = mlp_input_grad(net, x)
        assert rel_err(analytic, fd_input_grad(net, x)) < 1e-5


# ------------------------------------------------------------ penalty grads

def test_penalty_zero_on_unit_norm_linear_critic():
    net = linear_net([[0.6, 0.8]])
    penalty, grads = penalty_param_grad(net, np.array([[0.1, 0.2], [0.5, 0.5]]), 10.0)
    assert penalty == 0.0
    assert all(np.all(g == 0.0) for g in grads)


def test_penalty_closed_form_linear_critic():
    net = linear_net([[2.0]])
    penalty, grads = penalty_param_grad(net, np.array([[0.3]]), 10.0)
    assert penalty == 10.0
    assert grads[0] == np.array([[20.0]])
    assert grads[1] == np.array([0.0])


def test_penalty_zero_gradient_norm_uses_zero_subgradient():
    net = linear_net([[0.0]])
    penalty, grads = penalty_param_grad(net, np.array([[0.7]]), 10.0)
    assert penalty == 10.0
    assert grads[0] == np.array([[0.0]])


def test_penalty_grad_matches_finite_differences():
    for seed in range(5):
        net, x_hat = random_net_and_batch(seed + 200)
        penalty, analytic = penalty_param_grad(net, x_hat, 10.0)
        assert penalty >= 0.0
        oracle = fd_param_grad(net, lambda: penalty_param_grad(net, x_hat, 10.0)[0])
        assert rel_err(analytic, oracle) < 1e-4


# ------------------------------------------------------------------- rmsprop

def test_rmsprop_zero_gradient_keeps_param_and_decays_cache():
    params = np.array([2.0])
    state = rmsprop_state(params, lr=0.001, rho=0.9, epsilon=1e-6)
    state.cache[:] = 0.5
    rmsprop_step(params, np.array([0.0]), state)
    assert params[0] == 2.0
    assert state.cache[0] == 0.45


def test_rmsprop_first_step_hand_case():
    params = np.array([1.0])
    state = rmsprop_state(params, lr=0.001, rho=0.9, epsilon=1e-6)
    rmsprop_step(params, np.array([1.0]), state)
    assert abs(state.cache[0] - 0.1) < 1e-15
    expected_delta = -0.001 / (math.sqrt(0.1) + 1e-6)
    assert abs(params[0] - (1.0 + expected_delta)) < 1e-12


def test_rmsprop_second_identical_step():
    params = np.array([1.0])
    state = rmsprop_state(params, lr=0.001, rho=0.9, epsilon=1e-6)
    rmsprop_step(params, np.array([1.0]), state)
    first = params[0]
    rmsprop_step(params, np.array([1.0]), state)
    assert abs(state.cache[0] - 0.19) < 1e-15
    expected_delta = -0.001 / (math.sqrt(0.19) + 1e-6)
    assert abs(params[0] - (first + expected_delta)) < 1e-15


def test_rmsprop_nonfinite_gradient_names_parameter():
    params = np.array([1.0, 2.0])
    state = rmsprop_state(params, lr=0.001, rho=0.9, epsilon=1e-6)
    with pytest.raises(NonFiniteError, match="parameter 1"):
        rmsprop_step(params, np.array([0.0, np.inf]), state)


def test_rmsprop_failed_step_changes_nothing():
    params = np.array([1.0, 2.0])
    state = rmsprop_state(params, lr=0.001, rho=0.9, epsilon=1e-6)
    with pytest.raises(NonFiniteError, match="parameter 1"):
        rmsprop_step(params, np.array([1.0, np.inf]), state)
    assert params.tolist() == [1.0, 2.0]
    assert state.cache.tolist() == [0.0, 0.0]


@settings(deadline=None, max_examples=50)
@given(
    grads=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
    rho=st.floats(0.01, 0.99),
)
def test_rmsprop_cache_stays_nonnegative(grads, rho):
    params = np.zeros(len(grads))
    state = rmsprop_state(params, lr=0.001, rho=rho, epsilon=1e-6)
    for _ in range(3):
        rmsprop_step(params, np.array(grads), state)
        assert (state.cache >= 0.0).all()


@pytest.mark.parametrize("size", [1, 2, 1217, 86_273])
def test_rmsprop_in_two_halves_matches_one_call(size):
    rng = np.random.default_rng(size)
    whole, grads = rng.normal(size=size), rng.normal(size=(4, size))
    halves = whole.copy()
    parts = slice(None, size // 2), slice(size // 2, None)
    state = rmsprop_state(whole, lr=0.001, rho=0.9, epsilon=1e-6)
    part_states = [rmsprop_state(halves[p], lr=0.001, rho=0.9, epsilon=1e-6) for p in parts]
    for grad in grads:
        rmsprop_step(whole, grad, state)
        for part, part_state in zip(parts, part_states):
            rmsprop_step(halves[part], grad[part], part_state)
    assert halves.tobytes() == whole.tobytes()
    assert np.concatenate([s.cache for s in part_states]).tobytes() == state.cache.tobytes()


def test_training_steps_are_seed_deterministic():
    def run():
        rng = np.random.default_rng(1234)
        net = build_mlp([2, 4, 1], rng)
        state = rmsprop_state(net.vector, lr=0.001, rho=0.9, epsilon=1e-6)
        for _ in range(10):
            x = rng.normal(size=(5, 2))
            _, cache = mlp_forward(net, x)
            grad = mlp_param_grad(net, cache, np.ones((5, 1)) / 5)
            rmsprop_step(net.vector, grad, state)
        return net

    assert np.array_equal(run().vector, run().vector)


# ------------------------------------------------------------------ builder

def test_build_mlp_shapes_and_zero_bias():
    net = build_mlp([3, 5, 2], np.random.default_rng(0))
    assert [l.weights.shape for l in net.layers] == [(5, 3), (2, 5)]
    assert all(np.all(l.bias == 0.0) for l in net.layers)


def test_layers_are_views_into_the_vector_in_layout_order():
    net = build_mlp([3, 5, 2], np.random.default_rng(0))
    w0, b0, w1, b1 = (p for layer in net.layers for p in (layer.weights, layer.bias))
    assert net.vector.tolist() == [*w0.ravel(), *b0, *w1.ravel(), *b1]
    net.vector[:] = np.arange(net.vector.size)
    assert w0[0, 1] == 1.0 and b0[0] == 15.0 and w1[0, 0] == 20.0 and b1[1] == 31.0


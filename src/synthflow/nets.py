"""Dense ReLU networks with hand-derived gradients.

The adversarial trainer needs three flavours of derivative from the same
small multilayer perceptron: parameter gradients of a scalar loss, the
gradient of a scalar-output network with respect to its input, and the
parameter gradient of the interpolation gradient-norm penalty, which
differentiates through the input gradient itself (double backprop). Every
network is ReLU on all layers but the last, which is linear, so all of this
is exact almost everywhere: the activation's second derivative vanishes
away from the kink, where the ReLU subgradient is taken as 0.

Batches are plain float64 numpy arrays, one sample per row. Weights follow
the (out_dim, in_dim) convention, so a layer computes ``x @ W.T + b``.

Callers (``gan``) lay out networks by :func:`layer_shapes`, so layer sizes
chain, and pass finite float64 batches of the network's width and, for
input gradients and the penalty, a scalar-output network; nothing here
re-checks that. The only checks are the two ``TrainingDiverged`` rests on:
a non-finite network output and a non-finite gradient. RMSProp keeps one
accumulator per parameter vector (:class:`RmsPropState`) and updates both in place.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


class NonFiniteError(ValueError):
    """A value that must be finite is NaN or infinite."""


@dataclass
class DenseLayer:
    """One affine map; weights are (out_dim, in_dim)."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class MlpNetwork:
    """One or more dense layers with a ReLU between each pair.

    Every parameter lives in the one float64 ``vector``; the layers' weights
    and biases are views into it (see :func:`networks`), so an in-place
    update of the vector is an update of the layers.
    """

    layers: list[DenseLayer]
    vector: np.ndarray

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [layer.weights.shape for layer in self.layers]


def layer_shapes(sizes) -> list[tuple[int, int]]:
    """Each layer's (out_dim, in_dim) for ``sizes = [in_dim, h1, ..., out_dim]``."""
    return [(fan_out, fan_in) for fan_in, fan_out in zip(sizes, sizes[1:])]


def parameter_count(shapes) -> int:
    """Parameters of a network whose layers have these (out_dim, in_dim)."""
    return sum(out_dim * in_dim + out_dim for out_dim, in_dim in shapes)


def _layer_views(shapes, vector: np.ndarray) -> list[DenseLayer]:
    """Layers over consecutive stretches of ``vector``: W0, b0, W1, b1, ...,
    each W row-major (out_dim, in_dim)."""
    layers = []
    offset = 0
    for out_dim, in_dim in shapes:
        end = offset + out_dim * in_dim
        weights = vector[offset:end].reshape(out_dim, in_dim)
        offset = end + out_dim
        layers.append(DenseLayer(weights, vector[end:offset]))
    return layers


def networks(shapes, vector: np.ndarray) -> list[MlpNetwork]:
    """Networks whose parameters are views into ``vector``, one network's
    after another; ``shapes`` holds each network's layer shapes.

    This is the one parameter layout: the gradients, RMSProp and the
    checkpoint all use it, so a network's vector is its checkpoint bytes.
    """
    out = []
    start = 0
    for net_shapes in shapes:
        end = start + parameter_count(net_shapes)
        part = vector[start:end]
        out.append(MlpNetwork(_layer_views(net_shapes, part), part))
        start = end
    return out


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations for one batch.

    Invalid after any parameter mutation, which nothing detects.
    """

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def build_mlp(layer_sizes, rng: np.random.Generator) -> MlpNetwork:
    """Initialize a dense network.

    ``layer_sizes`` is ``[in_dim, h1, ..., out_dim]``. Weights are uniform in
    ``[-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]``, drawn layer
    by layer, and biases start at zero.
    """
    shapes = layer_shapes(layer_sizes)
    (net,) = networks([shapes], np.zeros(parameter_count(shapes)))
    for layer in net.layers:
        limit = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        layer.weights[...] = rng.uniform(-limit, limit, size=layer.weights.shape)
    return net


def _layer_values(net: MlpNetwork, x) -> Iterator[np.ndarray]:
    """Run the network on a batch, yielding each layer's input and then its
    pre-activation, layer by layer; the last value is the output.

    The output alone is checked: a non-finite one raises NonFiniteError
    after the last value is taken, so a caller must exhaust the iterator.
    Only the caller keeps earlier values alive.
    """
    a = x
    for k, layer in enumerate(net.layers):
        if k:
            a = np.maximum(a, 0.0)  # ReLU between layers; the last stays linear
        yield a
        a = a @ layer.weights.T
        a += layer.bias
        yield a
    if not np.isfinite(a).all():
        raise NonFiniteError("forward pass produced non-finite values")


def mlp_forward(net: MlpNetwork, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch, returning outputs and a backprop cache."""
    values = list(_layer_values(net, x))
    return values[-1], ForwardCache(values[0::2], values[1::2])


def mlp_output(net: MlpNetwork, x) -> np.ndarray:
    """Run the network on a batch, keeping no backprop cache: at most one
    layer's input and pre-activation are alive at a time."""
    for out in _layer_values(net, x):
        pass
    return out


def mlp_param_grad(net: MlpNetwork, cache: ForwardCache, upstream) -> np.ndarray:
    """Reverse pass: d(loss)/d(parameters) for the cached batch.

    ``upstream`` is d(loss)/d(outputs), one row per sample. There is no
    implicit batch scaling; a batch-mean loss is obtained by passing an
    upstream that already carries the 1/n factor. Returns one gradient
    vector laid out like ``net.vector``.
    """
    grad = np.empty_like(net.vector)
    views = _layer_views(net.shapes, grad)
    delta = upstream  # the last layer is linear
    for k in range(len(net.layers) - 1, -1, -1):
        np.matmul(delta.T, cache.inputs[k], out=views[k].weights)
        delta.sum(axis=0, out=views[k].bias)
        if k:
            delta = (delta @ net.layers[k].weights) * (cache.preacts[k - 1] > 0.0)
    return grad


def _input_grad_deltas(
    net: MlpNetwork, cache: ForwardCache
) -> tuple[list[np.ndarray], np.ndarray]:
    """Backward pass of a scalar-output network with unit upstream.

    Returns the per-layer deltas and the per-row input gradient. The deltas
    are re-used by the penalty double backprop.
    """
    n_layers = len(net.layers)
    deltas: list[np.ndarray] = [np.empty(0)] * n_layers
    delta = np.ones_like(cache.preacts[-1])
    deltas[-1] = delta
    for k in range(n_layers - 2, -1, -1):
        delta = (delta @ net.layers[k + 1].weights) * (cache.preacts[k] > 0.0)
        deltas[k] = delta
    grad = delta @ net.layers[0].weights
    return deltas, grad


def mlp_input_grad(net: MlpNetwork, x) -> np.ndarray:
    """Per-row gradient of a scalar-output network w.r.t. its input.

    Exact almost everywhere for ReLU networks; at a kink the subgradient 0
    is used.
    """
    _, cache = mlp_forward(net, x)
    _, grad = _input_grad_deltas(net, cache)
    return grad


def penalty_param_grad(
    net: MlpNetwork, x_hat, weight: float
) -> tuple[float, np.ndarray]:
    """Gradient-norm penalty and its parameter gradient vector.

    penalty = weight * mean_i (||grad_x f(x_hat_i)||_2 - 1)^2

    The parameter gradient differentiates through the input gradient. ReLU
    masks are held fixed, which is exact almost everywhere since the
    activation's second derivative is zero away from the kink. Rows whose
    input gradient is exactly zero use subgradient 0 for the norm. Bias
    gradients are identically zero: the input gradient of a ReLU network
    depends on biases only through the masks.
    """
    _, cache = mlp_forward(net, x_hat)
    deltas, grad = _input_grad_deltas(net, cache)

    n = x_hat.shape[0]
    norms = np.linalg.norm(grad, axis=1)
    penalty = weight * float(np.mean((norms - 1.0) ** 2))

    coef = np.zeros(n)
    nonzero = norms > 0.0
    coef[nonzero] = (2.0 * weight / n) * (norms[nonzero] - 1.0) / norms[nonzero]
    # adjoint of the penalty w.r.t. the input gradient
    adj = grad * coef[:, None]

    n_layers = len(net.layers)
    grad_params = np.zeros_like(net.vector)
    views = _layer_views(net.shapes, grad_params)

    # grad = deltas[0] @ W0, then deltas[k] = (deltas[k+1] @ W_{k+1}) * mask_k;
    # walk that chain in reverse, accumulating each W occurrence.
    views[0].weights += deltas[0].T @ adj
    e = adj @ net.layers[0].weights.T
    for k in range(n_layers - 1):
        q = e * (cache.preacts[k] > 0.0)
        views[k + 1].weights += deltas[k + 1].T @ q
        if k + 1 < n_layers - 1:
            e = q @ net.layers[k + 1].weights.T
    return penalty, grad_params


@dataclass
class RmsPropState:
    """One parameter vector's accumulator and the hyperparameters, checked by
    whoever builds the state."""

    lr: float
    rho: float
    epsilon: float
    cache: np.ndarray


def rmsprop_state(params: np.ndarray, lr: float, rho: float, epsilon: float) -> RmsPropState:
    """Fresh optimizer state with a zeroed accumulator matching ``params``."""
    return RmsPropState(lr, rho, epsilon, np.zeros_like(params))


def check_gradient(grad: np.ndarray) -> None:
    """Raise NonFiniteError naming the first non-finite entry of ``grad``."""
    if not np.isfinite(grad).all():
        i = np.flatnonzero(~np.isfinite(grad))[0]
        raise NonFiniteError(f"non-finite gradient for parameter {i}")


def rmsprop_step(
    params: np.ndarray, grad: np.ndarray, state: RmsPropState, checked: bool = False
) -> None:
    """One in-place update: cache <- rho*cache + (1-rho)*g^2, then
    params <- params - lr*g/(sqrt(cache) + epsilon).

    The gradient is checked (:func:`check_gradient`) before anything is
    mutated, so a failed update leaves the parameters and the accumulator as
    they were; ``checked`` says the caller already checked it. Every
    operation is elementwise: updating the two halves of a vector in two
    calls gives the bits of one call.
    """
    if not checked:
        check_gradient(grad)
    state.cache *= state.rho
    state.cache += ((1.0 - state.rho) * grad) * grad
    params -= (state.lr * grad) / (np.sqrt(state.cache) + state.epsilon)

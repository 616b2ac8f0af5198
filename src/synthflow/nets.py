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
Parameter lists everywhere are interleaved ``[W0, b0, W1, b1, ...]``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class NonFiniteError(ValueError):
    """A value that must be finite is NaN or infinite."""


def as_batch(x) -> np.ndarray:
    """Coerce to a float64 one-sample-per-row matrix."""
    out = np.asarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-d batch, got shape {out.shape}")
    return out


@dataclass
class DenseLayer:
    """One affine map; weights are (out_dim, in_dim)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-d, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_dim "
                f"{self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NonFiniteError("layer parameters must be finite")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class MlpNetwork:
    """Dense layers with a ReLU between each pair; dimensions must chain."""

    layers: list[DenseLayer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for k, (prev, nxt) in enumerate(zip(self.layers, self.layers[1:])):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer {k} output dim {prev.out_dim} feeds layer {k + 1} "
                    f"expecting in_dim {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[np.ndarray]:
        """Live references to all parameter arrays, interleaved [W, b, ...]."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out


@dataclass
class ForwardCache:
    """Per-layer inputs and pre-activations for one batch.

    Invalid after any parameter mutation; the gradient routines check shapes
    but cannot detect value staleness.
    """

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def build_mlp(layer_sizes, rng: np.random.Generator) -> MlpNetwork:
    """Initialize a dense network.

    ``layer_sizes`` is ``[in_dim, h1, ..., out_dim]``. Weights are uniform in
    ``[-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]`` and biases
    start at zero.
    """
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and an output dim")
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out)))
    return MlpNetwork(layers)


def _layer_values(net: MlpNetwork, x) -> Iterator[np.ndarray]:
    """Run the network on a batch, yielding each layer's input and then its
    pre-activation, layer by layer; the last value is the output.

    The batch is checked before the first layer and the output after the
    last value is taken, so a caller must exhaust the iterator. Only the
    caller keeps earlier values alive.
    """
    a = as_batch(x)
    if a.shape[1] != net.in_dim:
        raise ShapeError(
            f"input has {a.shape[1]} columns, network expects {net.in_dim}"
        )
    if not np.isfinite(a).all():
        raise NonFiniteError("forward input contains non-finite values")
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


def _check_cache(net: MlpNetwork, cache: ForwardCache) -> None:
    if len(cache.inputs) != len(net.layers) or len(cache.preacts) != len(net.layers):
        raise ShapeError("cache does not match network depth (stale cache?)")
    for k, layer in enumerate(net.layers):
        if cache.inputs[k].shape[1] != layer.in_dim:
            raise ShapeError(
                f"cached input for layer {k} has {cache.inputs[k].shape[1]} "
                f"columns, layer expects {layer.in_dim} (stale cache?)"
            )
        if cache.preacts[k].shape[1] != layer.out_dim:
            raise ShapeError(
                f"cached pre-activation for layer {k} has "
                f"{cache.preacts[k].shape[1]} columns, layer produces "
                f"{layer.out_dim} (stale cache?)"
            )


def mlp_param_grad(
    net: MlpNetwork, cache: ForwardCache, upstream
) -> list[np.ndarray]:
    """Reverse pass: d(loss)/d(parameters) for the cached batch.

    ``upstream`` is d(loss)/d(outputs), one row per sample. There is no
    implicit batch scaling; a batch-mean loss is obtained by passing an
    upstream that already carries the 1/n factor. Returns gradients
    interleaved like :meth:`MlpNetwork.parameters`.
    """
    _check_cache(net, cache)
    up = as_batch(upstream)
    if up.shape != cache.preacts[-1].shape:
        raise ShapeError(
            f"upstream shape {up.shape} does not match cached output shape "
            f"{cache.preacts[-1].shape}"
        )
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(net.layers))
    delta = up  # the last layer is linear
    for k in range(len(net.layers) - 1, -1, -1):
        grads[2 * k] = delta.T @ cache.inputs[k]
        grads[2 * k + 1] = delta.sum(axis=0)
        if k:
            delta = (delta @ net.layers[k].weights) * (cache.preacts[k - 1] > 0.0)
    return grads


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
    if net.out_dim != 1:
        raise ShapeError(
            f"input gradients need a scalar-output network, got out_dim "
            f"{net.out_dim}"
        )
    _, cache = mlp_forward(net, x)
    _, grad = _input_grad_deltas(net, cache)
    return grad


def penalty_param_grad(
    net: MlpNetwork, x_hat, weight: float
) -> tuple[float, list[np.ndarray]]:
    """Gradient-norm penalty and its parameter gradients.

    penalty = weight * mean_i (||grad_x f(x_hat_i)||_2 - 1)^2

    The parameter gradient differentiates through the input gradient. ReLU
    masks are held fixed, which is exact almost everywhere since the
    activation's second derivative is zero away from the kink. Rows whose
    input gradient is exactly zero use subgradient 0 for the norm. Bias
    gradients are identically zero: the input gradient of a ReLU network
    depends on biases only through the masks.
    """
    if net.out_dim != 1:
        raise ShapeError(
            f"penalty needs a scalar-output network, got out_dim {net.out_dim}"
        )
    xh = as_batch(x_hat)
    if xh.shape[0] == 0:
        raise ValueError("penalty batch must be nonempty")
    _, cache = mlp_forward(net, xh)
    deltas, grad = _input_grad_deltas(net, cache)

    n = xh.shape[0]
    norms = np.linalg.norm(grad, axis=1)
    penalty = weight * float(np.mean((norms - 1.0) ** 2))

    coef = np.zeros(n)
    nonzero = norms > 0.0
    coef[nonzero] = (2.0 * weight / n) * (norms[nonzero] - 1.0) / norms[nonzero]
    # adjoint of the penalty w.r.t. the input gradient
    adj = grad * coef[:, None]

    n_layers = len(net.layers)
    grads: list[np.ndarray] = []
    for layer in net.layers:
        grads.append(np.zeros_like(layer.weights))
        grads.append(np.zeros_like(layer.bias))

    # grad = deltas[0] @ W0, then deltas[k] = (deltas[k+1] @ W_{k+1}) * mask_k;
    # walk that chain in reverse, accumulating each W occurrence.
    grads[0] += deltas[0].T @ adj
    e = adj @ net.layers[0].weights.T
    for k in range(n_layers - 1):
        q = e * (cache.preacts[k] > 0.0)
        grads[2 * (k + 1)] += deltas[k + 1].T @ q
        if k + 1 < n_layers - 1:
            e = q @ net.layers[k + 1].weights.T
    return penalty, grads


@dataclass
class RmsPropState:
    """Per-parameter accumulator cache plus hyperparameters."""

    lr: float
    rho: float
    epsilon: float
    cache: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 < self.rho < 1:
            raise ValueError(f"rho must be in (0, 1), got {self.rho}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if any((c < 0).any() for c in self.cache):
            raise ValueError("accumulator cache entries must be nonnegative")


def rmsprop_state(
    params: list[np.ndarray],
    lr: float = 1e-3,
    rho: float = 0.9,
    epsilon: float = 1e-6,
) -> RmsPropState:
    """Fresh optimizer state with zeroed accumulators matching ``params``."""
    return RmsPropState(lr, rho, epsilon, [np.zeros_like(p) for p in params])


def rmsprop_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: RmsPropState
) -> None:
    """One in-place update: cache <- rho*cache + (1-rho)*g^2, then
    param <- param - lr*g/(sqrt(cache) + epsilon).

    Every shape and gradient is checked before anything is mutated, so a
    failed update leaves parameters and accumulators as they were.
    """
    if not (len(params) == len(grads) == len(state.cache)):
        raise ShapeError(
            f"params/grads/state lengths differ: {len(params)}/{len(grads)}/"
            f"{len(state.cache)}"
        )
    for i, (p, g, c) in enumerate(zip(params, grads, state.cache)):
        if p.shape != g.shape or p.shape != c.shape:
            raise ShapeError(
                f"parameter {i}: shapes {p.shape}/{g.shape}/{c.shape} disagree"
            )
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {i}")
    for p, g, c in zip(params, grads, state.cache):
        c *= state.rho
        c += (1.0 - state.rho) * g * g
        p -= state.lr * g / (np.sqrt(c) + state.epsilon)

"""Minimal differentiable dense-network engine.

Sequential stacks of fully-connected layers over float64 numpy arrays, with
reverse-mode gradients taken with respect to the network input and,
optionally, the parameters. No graph construction: a network is a plain
list of layers, :func:`forward_trace` keeps each layer's activations, and
:func:`vjp` is a hand-rolled chain-rule sweep over that trace, which keeps
every gradient auditable against finite differences.

Each loop lives once, in a private batch kernel that checks nothing
(``_trace_layers`` forward, ``_pull_back`` in reverse); :func:`forward_trace`
and :func:`vjp` wrap them with the shape and finite checks, and the latent
search calls the kernels directly after checking its shapes once.

Shapes follow the convention weights[out, in], bias[out]. Inputs may be a
single vector [d] or a batch [n, d]; outputs mirror that choice. Parameter
gradients are summed over the batch dimension.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericalError

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid", "softmax")

# Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] before any log.
PROB_FLOOR = 1e-12


def _clamp_probabilities(p):
    # The same bits as np.clip, without the fixed cost of its wrapper.
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


@dataclass
class Layer:
    """One dense layer: x -> activation(weights @ x + bias)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    @property
    def out_dim(self):
        return self.weights.shape[0]

    @property
    def in_dim(self):
        return self.weights.shape[1]


class DenseNetwork:
    """An ordered stack of dense layers with chained dimensions.

    Softmax is only permitted on the final layer; every parameter is a
    finite float64. Validation happens at construction; an in-place
    update via :func:`sgd_step` changes only values, and re-checks that
    they stay finite.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self.validate()

    @property
    def input_dim(self):
        return self.layers[0].in_dim

    @property
    def output_dim(self):
        return self.layers[-1].out_dim

    def validate(self):
        if not self.layers:
            raise ConfigurationError("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ConfigurationError(f"unknown activation {layer.activation!r}")
            if layer.weights.ndim != 2 or layer.bias.ndim != 1:
                raise DimensionError(f"layer {i}: weights must be 2-D and bias 1-D")
            if layer.weights.shape[0] != layer.bias.shape[0]:
                raise DimensionError(
                    f"layer {i}: bias length {layer.bias.shape[0]} does not match "
                    f"output dim {layer.weights.shape[0]}"
                )
            if layer.activation == "softmax" and i != len(self.layers) - 1:
                raise ConfigurationError("softmax is only permitted as the final activation")
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
                raise NumericalError(f"layer {i}: non-finite parameter")
        for i in range(len(self.layers) - 1):
            if self.layers[i].out_dim != self.layers[i + 1].in_dim:
                raise DimensionError(
                    f"layer {i} output dim {self.layers[i].out_dim} does not feed "
                    f"layer {i + 1} input dim {self.layers[i + 1].in_dim}"
                )
        if sum(l.weights.size + l.bias.size for l in self.layers) == 0:
            raise ConfigurationError("network has no parameters")

    def copy(self):
        return DenseNetwork(
            Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in self.layers
        )


@dataclass
class GradientTape:
    """Gradients from one backward sweep.

    param_grads holds one (d_weights, d_bias) pair per layer, in layer
    order; input_grad matches the shape of the input the sweep saw. Either
    is None when the sweep skipped it.
    """

    param_grads: list | None
    input_grad: np.ndarray


@dataclass
class Trace:
    """What one forward pass keeps for :func:`vjp`.

    layers holds one (input, pre-activation, output) triple of batches per
    layer; single records that the caller passed one vector, not a batch.
    """

    layers: list
    single: bool


def build_network(dims, activations, rng):
    """Construct a network with fan-scaled uniform weights and zero biases.

    dims is the full chain [in, hidden..., out]; activations has one entry
    per layer (len(dims) - 1).
    """
    if len(activations) != len(dims) - 1:
        raise ConfigurationError(
            f"{len(dims) - 1} layers need {len(dims) - 1} activations, got {len(activations)}"
        )
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(Layer(weights, np.zeros(fan_out), act))
    return DenseNetwork(layers)


def _apply_activation(name, pre):
    if name == "identity":
        return pre
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        # e = exp(-|pre|) never overflows; the output is 1 / (1 + e) where
        # pre >= 0 and e / (1 + e) elsewhere, worked in place on one array.
        out = np.abs(pre)
        np.negative(out, out=out)
        np.exp(out, out=out)
        den = out + 1.0
        np.divide(out, den, out=out)
        np.divide(1.0, den, out=out, where=pre >= 0)
        return out
    if name == "softmax":
        # The ufunc reductions ndarray.max and .sum call, without their wrappers.
        ex = np.exp(pre - np.maximum.reduce(pre, axis=1, keepdims=True))
        return ex / np.add.reduce(ex, axis=1, keepdims=True)
    raise ConfigurationError(f"unknown activation {name!r}")


def _activation_vjp(name, pre, post, grad):
    """Pull an output-side gradient back through one activation."""
    if name == "identity":
        return grad
    if name == "relu":
        return grad * (pre > 0)
    if name == "tanh":
        return grad * (1.0 - post * post)
    if name == "sigmoid":
        return grad * post * (1.0 - post)
    if name == "softmax":
        # Row-wise Jacobian-vector product: p * (g - <g, p>).
        inner = np.add.reduce(grad * post, axis=1, keepdims=True)
        return post * (grad - inner)
    raise ConfigurationError(f"unknown activation {name!r}")


def _as_batch(x, expected_dim, what):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != expected_dim:
        raise DimensionError(f"{what} has shape {x.shape}, expected [{expected_dim}] rows")
    return batch, single


def _check_finite(arr, what):
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values in {what}")


def _trace_layers(layers, batch):
    """The forward loop over a float64 batch [n, d] of the first layer's
    width: (output batch, one (input, pre-activation, output) per layer)."""
    records = []
    h = batch
    for layer in layers:
        pre = h @ layer.weights.T
        pre += layer.bias
        post = _apply_activation(layer.activation, pre)
        records.append((h, pre, post))
        h = post
    return h, records


def _pull_back(layers, records, grad, with_params, with_input):
    """The reverse loop over _trace_layers' records from an output-gradient
    batch of the output's shape: (param_grads, input_grad), None if off."""
    param_grads = [None] * len(layers) if with_params else None
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        h_in, pre, post = records[i]
        d_pre = _activation_vjp(layer.activation, pre, post, grad)
        if with_params:
            param_grads[i] = (d_pre.T @ h_in, d_pre.sum(axis=0))
        if i == 0 and not with_input:
            return param_grads, None
        grad = d_pre @ layer.weights
    return param_grads, grad


def forward_trace(net, x):
    """Evaluate the network on a vector [d] or batch [n, d], keeping a trace.

    Returns (output, trace); the output mirrors the input's shape and is
    checked finite. Pass the trace to :func:`vjp` to pull gradients back
    through this evaluation without running the network again.
    """
    batch, single = _as_batch(x, net.input_dim, "input")
    h, records = _trace_layers(net.layers, batch)
    _check_finite(h, "forward output")
    return (h[0] if single else h), Trace(records, single)


def forward(net, x):
    """Evaluate the network on a vector [d] or batch [n, d]."""
    return forward_trace(net, x)[0]


def vjp(net, trace, out_grad, with_params=True, with_input=True):
    """Reverse-mode sweep over a trace from ``forward_trace(net, x)``.

    out_grad is the loss gradient at the network output and must match the
    output shape for that input. Returns a GradientTape. Its input_grad
    matches the input's shape and is checked finite; its param_grads are
    summed over the batch. Either is None, and never built, when its flag
    is off: a search needs no parameter gradients and training no input
    gradient of its data; turning both off is a ConfigurationError.
    Parameter gradients are checked where they are applied: :func:`sgd_step`
    rejects an update that leaves any parameter non-finite.
    """
    if not (with_params or with_input):
        raise ConfigurationError("vjp needs with_params or with_input")
    out_grad = np.asarray(out_grad, dtype=np.float64)
    grad = out_grad[None, :] if trace.single else out_grad
    out_shape = trace.layers[-1][2].shape
    if grad.shape != out_shape:
        raise DimensionError(
            f"output gradient has shape {out_grad.shape}, expected "
            f"{out_shape[1:] if trace.single else out_shape}"
        )
    param_grads, grad = _pull_back(net.layers, trace.layers, grad, with_params, with_input)
    if grad is None:
        return GradientTape(param_grads, None)
    _check_finite(grad, "input gradient")
    return GradientTape(param_grads, grad[0] if trace.single else grad)


def backward(net, x, out_grad):
    """Gradients w.r.t. every parameter and the input, from (net, x).

    Shorthand for ``vjp(net, forward_trace(net, x)[1], out_grad)`` for
    callers that did not keep the trace of their own evaluation, except that
    the parameter gradients it returns are checked finite too.
    """
    tape = vjp(net, forward_trace(net, x)[1], out_grad)
    for d_weights, d_bias in tape.param_grads:
        _check_finite(d_weights, "parameter gradient")
        _check_finite(d_bias, "parameter gradient")
    return tape


def sgd_step(net, tape, lr):
    """Apply one plain gradient-descent update, in place.

    lr == 0 is a permitted no-op; negative lr is rejected. An update that
    leaves a parameter non-finite raises NumericalError. Returns the
    updated network for call chaining.
    """
    if lr < 0:
        raise ConfigurationError(f"learning rate must be non-negative, got {lr}")
    if tape.param_grads is None or len(tape.param_grads) != len(net.layers):
        raise DimensionError("gradient tape does not match network layer count")
    for layer, (d_weights, d_bias) in zip(net.layers, tape.param_grads):
        if d_weights.shape != layer.weights.shape or d_bias.shape != layer.bias.shape:
            raise DimensionError("gradient tape shapes do not match network parameters")
        layer.weights -= lr * d_weights
        layer.bias -= lr * d_bias
        _check_finite(layer.weights, "updated weights")
        _check_finite(layer.bias, "updated bias")
    return net


def cross_entropy(predicted, target):
    """Cross-entropy of a probability vector against a one-hot target.

    Returns (value, gradient w.r.t. predicted). Probabilities are clamped
    to [1e-12, 1 - 1e-12] before the log; the gradient is the gradient of
    the clamped value, so it stays consistent with finite differences. On
    one-hot targets the two-class case coincides with the usual binary
    formula.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape or predicted.ndim != 1:
        raise DimensionError(
            f"predicted {predicted.shape} and target {target.shape} must be equal 1-D shapes"
        )
    clamped = _clamp_probabilities(predicted)
    value = float(-(target * np.log(clamped)).sum())
    grad = -target / clamped
    # The clamp makes the loss flat outside the open interval.
    grad[(predicted < PROB_FLOOR) | (predicted > 1.0 - PROB_FLOOR)] = 0.0
    return value, grad


def l2_distance(u, v):
    """Euclidean distance with its gradient w.r.t. the first argument.

    The gradient at u == v is defined as the zero vector (a subgradient
    choice), so optimization can start exactly at the reference point.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    diff = u - v
    dist = float(np.sqrt((diff * diff).sum()))
    if dist == 0.0:
        return 0.0, np.zeros_like(u)
    return dist, diff / dist


def mean_cross_entropy(predicted, target):
    """Batched cross-entropy, averaged over rows. Internal training helper."""
    clamped = _clamp_probabilities(predicted)
    n = predicted.shape[0]
    value = float(-(target * np.log(clamped)).sum() / n)
    return value, -target / clamped / n


def mean_binary_cross_entropy(predicted, target):
    """Per-attribute binary cross-entropy, summed over columns, averaged over rows."""
    clamped = _clamp_probabilities(predicted)
    n = predicted.shape[0]
    value = float(-(target * np.log(clamped) + (1.0 - target) * np.log1p(-clamped)).sum() / n)
    grad = (-target / clamped + (1.0 - target) / (1.0 - clamped)) / n
    return value, grad


def parameter_digest(*nets):
    """SHA-256 over layer shapes, activations, and raw parameter bytes.

    A stable fingerprint of trained models, compared across searches,
    saves, loads and reruns (acceptance criterion 9).
    """
    h = hashlib.sha256()
    for net in nets:
        for layer in net.layers:
            h.update(layer.activation.encode())
            h.update(np.asarray(layer.weights.shape, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    return h.hexdigest()

"""Minimal differentiable dense-network engine.

Sequential stacks of fully-connected layers over float64 numpy arrays, with
reverse-mode gradients taken with respect to the network input and,
optionally, the parameters. No graph construction: a network is a plain
list of layers, :func:`forward_trace` keeps each layer's activations, and
:func:`vjp` is a hand-rolled chain-rule sweep over that trace, which keeps
every gradient auditable against finite differences.

Each activation is implemented once, as a (forward, vjp) kernel pair in one
table (``_KERNELS``). ``_bind`` binds a layer list to those kernels once and
returns its two loops as closures: the forward pass, keeping each layer's
(input, pre-activation, output) and checking its output finite, and the
reverse sweep, which checks nothing and writes parameter gradients into
arrays its caller passes. A caller that runs one layer list many times
keeps the bound pair: the engine's search binds the decoder and the
classifier once per search, and the trainers in ``models`` bind each
network once per training run, on networks whose shapes they checked or
built. :func:`forward_trace` and :func:`vjp` bind and run once, with the
shape checks and the input-gradient check. A trainer moves the parameters
of every network it updates into one flat buffer (``_FlatParams``) before
it binds, so a training step is one update and one finite check.

Shapes follow the convention weights[out, in], bias[out]. Inputs may be a
single vector [d] or a batch [n, d]; outputs mirror that choice. Parameter
gradients are summed over the batch dimension.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericalError

# Softmax only ends a network; the others may also sit on a hidden layer.
HIDDEN_ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid")
ACTIVATIONS = HIDDEN_ACTIVATIONS + ("softmax",)

# Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] before any log.
PROB_FLOOR = 1e-12

# Rows per block of a pass over many rows that has no batch size of its own.
_BLOCK_ROWS = 256


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
    update, by a trainer's ``_FlatParams.step``, changes only values, and
    re-checks that they stay finite.
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


def _sigmoid(pre):
    # e = exp(-|pre|) never overflows; the output is 1 / (1 + e) where
    # pre >= 0 and e / (1 + e) elsewhere. As 0 <= e <= 1, and e == 1 at
    # pre == +-0, the numerator is max(e, sign(pre)): no masked ufunc loop,
    # and two arrays the shape of pre, the numerator and e, then 1 + e.
    out = np.sign(pre)
    e = np.abs(pre)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def _softmax(pre):
    # The ufunc reductions ndarray.max and .sum call, without their wrappers.
    ex = np.exp(pre - np.maximum.reduce(pre, axis=1, keepdims=True))
    return ex / np.add.reduce(ex, axis=1, keepdims=True)


def _softmax_vjp(pre, post, grad):
    # Row-wise Jacobian-vector product: p * (g - <g, p>).
    inner = np.add.reduce(grad * post, axis=1, keepdims=True)
    return post * (grad - inner)


# Each activation's one implementation: name -> (forward(pre), vjp(pre,
# post, grad)), the vjp pulling an output-side gradient back through it.
_KERNELS = {
    "identity": (lambda pre: pre, lambda pre, post, grad: grad),
    "relu": (lambda pre: np.maximum(pre, 0.0), lambda pre, post, grad: grad * (pre > 0)),
    "tanh": (np.tanh, lambda pre, post, grad: grad * (1.0 - post * post)),
    "sigmoid": (_sigmoid, lambda pre, post, grad: grad * post * (1.0 - post)),
    "softmax": (_softmax, _softmax_vjp),
}


def _as_batch(x, expected_dim, what):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != expected_dim:
        raise DimensionError(f"{what} has shape {x.shape}, expected [{expected_dim}] rows")
    return batch, single


def _check_finite(arr, what):
    # The reduction ndarray.all calls, without its wrapper.
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericalError(f"non-finite values in {what}")


def _bind(layers):
    """Bind a layer list to its kernels once: (trace, pull), closures over
    per-layer (weights.T, bias, forward) and (weights, vjp) tuples. Bind
    again after a layer's arrays are replaced (an in-place update needs no
    rebinding).

    trace(batch) is the forward loop over a float64 batch [n, d] of the
    first layer's width: (output batch, one (input, pre-activation, output)
    per layer). It raises NumericalError("non-finite values in forward
    output") before it returns a non-finite output; an empty layer list
    checks its input. pull(records, grad, param_out=None, with_input=True)
    is the reverse loop over those records from an output-gradient batch of
    the output's shape, and checks nothing. param_out is None (or False) to
    skip the parameter gradients, or one (d_weights, d_bias) pair of arrays
    per layer to write them into, summed over the batch. It returns the
    input gradient, None when with_input is off.
    """
    forward = [(l.weights.T, l.bias, _KERNELS[l.activation][0]) for l in layers]
    backward = [(l.weights, _KERNELS[l.activation][1]) for l in layers]

    def trace(h):
        records = []
        for weights_t, bias, activation in forward:
            pre = h @ weights_t
            pre += bias
            post = activation(pre)
            records.append((h, pre, post))
            h = post
        _check_finite(h, "forward output")
        return h, records

    def pull(records, grad, param_out=None, with_input=True):
        for i in range(len(backward) - 1, -1, -1):
            weights, vjp = backward[i]
            h_in, pre, post = records[i]
            d_pre = vjp(pre, post, grad)
            if param_out:
                d_weights, d_bias = param_out[i]
                np.matmul(d_pre.T, h_in, out=d_weights)
                np.add.reduce(d_pre, axis=0, out=d_bias)
            if i == 0 and not with_input:
                return None
            grad = d_pre @ weights
        return grad

    return trace, pull


def forward_trace(net, x):
    """Evaluate the network on a vector [d] or batch [n, d], keeping a trace.

    Returns (output, trace); the output mirrors the input's shape and is
    checked finite. Pass the trace to :func:`vjp` to pull gradients back
    through this evaluation without running the network again.
    """
    batch, single = _as_batch(x, net.input_dim, "input")
    h, records = _bind(net.layers)[0](batch)
    return (h[0] if single else h), Trace(records, single)


def forward(net, x):
    """Evaluate the network on a vector [d] or batch [n, d]."""
    return forward_trace(net, x)[0]


def _by_rows(fn, arrays, size=_BLOCK_ROWS):
    """Run fn(*blocks) on consecutive blocks of at most size rows of arrays
    and concatenate each per-row array it returns over the blocks (zero rows
    make one empty block). A whole-split pass then holds one block's
    temporaries; its caller reduces the per-row values once, at the end.
    """
    starts = range(0, len(arrays[0]), size) or (0,)
    blocks = [fn(*(a[s : s + size] for a in arrays)) for s in starts]
    return [np.concatenate(parts) for parts in zip(*blocks)]


def vjp(net, trace, out_grad, with_params=True, with_input=True):
    """Reverse-mode sweep over a trace from ``forward_trace(net, x)``.

    out_grad is the loss gradient at the network output and must match the
    output shape for that input. Returns a GradientTape. Its input_grad
    matches the input's shape and is checked finite; its param_grads are
    summed over the batch. Either is None, and never built, when its flag
    is off: a search needs no parameter gradients and training no input
    gradient of its data; turning both off is a ConfigurationError.
    Parameter gradients are checked where they are applied: a trainer's
    ``_FlatParams.step`` rejects an update that leaves any parameter
    non-finite.
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
    param_grads = (
        [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in net.layers]
        if with_params else None
    )
    grad = _bind(net.layers)[1](trace.layers, grad, param_grads, with_input)
    if grad is None:
        return GradientTape(param_grads, None)
    _check_finite(grad, "input gradient")
    return GradientTape(param_grads, grad[0] if trace.single else grad)


class _FlatParams:
    """The parameters of one or more networks moved into one contiguous
    float64 buffer.

    From construction on, each layer's weights and bias are views into
    ``params``, the networks' layers in argument order. ``grad_out`` holds
    the matching (d_weights, d_bias) views of the twin buffer ``grads``, one
    pair per layer in that order, to pass, a network's slice of it each, to
    bound pulls (``_bind``) as their parameter output, so one :meth:`step`
    updates and checks every network a trainer updates.
    """

    def __init__(self, *nets):
        self.layers = [l for net in nets for l in net.layers]
        arrays = [a for l in self.layers for a in (l.weights, l.bias)]
        self.params = np.concatenate([a.ravel() for a in arrays])
        self.grads = np.empty_like(self.params)
        ends = np.cumsum([a.size for a in arrays])

        def views(buffer):
            v = [buffer[e - a.size : e].reshape(a.shape) for a, e in zip(arrays, ends)]
            return list(zip(v[0::2], v[1::2]))

        for layer, (w, b) in zip(self.layers, views(self.params)):
            layer.weights, layer.bias = w, b
        self.grad_out = views(self.grads)

    def step(self, lr):
        """params -= lr * grads, then one finite check over the buffer; a
        failure raises NumericalError("non-finite values in updated weights")
        or "... updated bias" for the first non-finite layer parameter in
        layer order."""
        self.params -= lr * self.grads
        if not np.isfinite(self.params).all():
            for layer in self.layers:
                _check_finite(layer.weights, "updated weights")
                _check_finite(layer.bias, "updated bias")


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

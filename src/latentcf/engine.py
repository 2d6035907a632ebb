"""Counterfactual search.

The main routine walks a latent point downhill on a two-part loss: cross
entropy pulling the decoded instance toward the desired class, plus a
weighted distance term anchoring the point to its encoding of the original
instance. Both the latent code and the attribute vector move, each with its
own geometrically decaying step size, and the classifier plus the
autoencoder stay frozen throughout (checked against an exact parameter
snapshot taken before each search). Shapes are checked once per search;
each evaluation then runs ``nn``'s bare layer kernels, still checking every
output and input gradient finite.

Three baselines share the result type so they can run under one benchmark
harness. The random-direction walk runs the very loop the gradient search
runs (``_latent_walk``: encode, evaluate, stop, step, result, frozen-model
check) with its own step rule, so the two differ only in how a step is
chosen. A one-shot signed-gradient attack and an iterative descent work in
instance space and keep loops of their own. Results serialize to JSON
lines; square instances can be dumped as PGM images for eyeballing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .container import is_int, is_number_list, require_field
from .errors import (
    ConfigurationError, DimensionError, FormatError, InvariantViolation, NumericalError,
)
from .models import LatentPoint, encode
from .nn import (
    PROB_FLOOR, _check_finite, _clamp_probabilities, _pull_back, _trace_layers, cross_entropy,
    forward, forward_trace, l2_distance, vjp,
)


@dataclass
class PerturbConfig:
    """Search knobs.

    code_step and attr_step are the initial step sizes for the latent code
    and the attribute vector; both shrink by step_decay after every update.
    Zero steps are allowed (the search then just re-checks the start point);
    negative values are rejected. clip, when set, is an (lo, hi) pair
    applied to instance-space iterates only.
    """

    distance_weight: float = 0.8
    code_step: float = 1.0
    attr_step: float = 2.0
    step_decay: float = 0.95
    max_iters: int = 300
    desired: int | None = None
    optimize_attributes: bool = True
    clip: tuple | None = None

    @classmethod
    def text_defaults(cls, **overrides):
        """Defaults tuned for tabular data: the field defaults above."""
        return _replace(cls(), overrides)

    @classmethod
    def image_defaults(cls, **overrides):
        """Defaults tuned for grid data, with iterates clipped to [0, 1]."""
        cfg = cls(
            distance_weight=1.5,
            code_step=2.0,
            attr_step=3.0,
            step_decay=0.9,
            max_iters=500,
            clip=(0.0, 1.0),
        )
        return _replace(cfg, overrides)

    def validate(self):
        if self.distance_weight < 0:
            raise ConfigurationError("distance_weight must be non-negative")
        if self.code_step < 0 or self.attr_step < 0:
            raise ConfigurationError("step sizes must be non-negative")
        if not 0 < self.step_decay <= 1:
            raise ConfigurationError("step_decay must lie in (0, 1]")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be non-negative")
        if self.clip is not None and self.clip[0] >= self.clip[1]:
            raise ConfigurationError("clip bounds must satisfy lo < hi")


def _replace(cfg, overrides):
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigurationError(f"unknown config field {key!r}")
        setattr(cfg, key, value)
    return cfg


@dataclass
class CounterfactualLoss:
    """One evaluation of the search objective at a latent point."""

    total: float
    prediction_term: float
    distance_term: float
    probabilities: np.ndarray
    sample: np.ndarray
    code_grad: np.ndarray | None = None
    attr_grad: np.ndarray | None = None


@dataclass
class CounterfactualResult:
    """Outcome of one search, shared across all methods.

    loss_trace holds one (total, prediction term, distance term) triple per
    objective evaluation; wall_time_micros is the whole-search wall time at
    microsecond resolution.
    """

    sample: np.ndarray
    latent: LatentPoint
    origin: LatentPoint
    flipped: bool
    iterations: int
    predicted_class: int
    desired_class: int
    loss_trace: list
    wall_time_micros: int
    method: str
    query_index: int = -1


def _micros_since(t0):
    return max(1, int((time.perf_counter_ns() - t0) // 1000))


def step_size(initial, decay, n):
    """The exact step size used at iteration n: initial * decay**n."""
    return initial * decay**n


def _latent_vector(gen, point, what):
    """point as one fresh float64 vector [code, attributes], its widths
    checked against the generative model's."""
    code = np.asarray(point.code, dtype=np.float64)
    attributes = np.asarray(point.attributes, dtype=np.float64)
    if code.shape != (gen.latent_dim,) or attributes.shape != (gen.attribute_dim,):
        raise DimensionError(
            f"{what} code {code.shape} and attributes {attributes.shape}, expected "
            f"({gen.latent_dim},) and ({gen.attribute_dim},)"
        )
    return np.concatenate([code, attributes])


def _objective(target, gen, origin, desired, distance_weight):
    """The search objective around one origin, its shapes checked once.

    Returns (evaluate, u0), u0 being the origin as one vector [code,
    attributes] that the caller must not write to. ``evaluate(u)``, for a
    float64 vector of u0's shape, runs decoder and classifier once on the
    bare layer kernels, checks both outputs finite, and returns (total,
    prediction term, distance term, probabilities, sample, grads); grads()
    pulls the loss back, input only and checked finite, to (code_grad,
    attr_grad), so a caller that stops at the value pays for no backward.
    """
    dec_layers, tgt_layers = gen.decoder.layers, target.network.layers
    k = gen.latent_dim
    u0 = _latent_vector(gen, origin, "origin")
    if u0.size != gen.decoder.input_dim or gen.decoder.output_dim != target.network.input_dim:
        raise DimensionError(
            f"a {u0.size}-entry latent point, decoder [{gen.decoder.input_dim} -> "
            f"{gen.decoder.output_dim}] and classifier input {target.network.input_dim} "
            "do not chain"
        )
    onehot = np.zeros(target.network.output_dim)
    onehot[desired] = 1.0

    def evaluate(u):
        samples, dec_records = _trace_layers(dec_layers, u[None, :])
        _check_finite(samples, "forward output")
        probs, tgt_records = _trace_layers(tgt_layers, samples)
        _check_finite(probs, "forward output")
        probs = probs[0]
        clamped = _clamp_probabilities(probs)
        pred_term = float(-(onehot * np.log(clamped)).sum())
        diff = u - u0
        code_diff, attr_diff = diff[:k], diff[k:]
        code_dist, attr_dist = _norm(code_diff), _norm(attr_diff)
        dist_term = code_dist + attr_dist

        def grads():
            # nn.cross_entropy's gradient: flat outside the clamp.
            g = -onehot / clamped
            g[(probs < PROB_FLOOR) | (probs > 1.0 - PROB_FLOOR)] = 0.0
            g = _pull_back(tgt_layers, tgt_records, g[None, :], False, True)[1]
            _check_finite(g, "input gradient")
            g = _pull_back(dec_layers, dec_records, g, False, True)[1]
            _check_finite(g, "input gradient")
            g = g[0]
            return (
                g[:k] + distance_weight * _unit(code_diff, code_dist),
                g[k:] + distance_weight * _unit(attr_diff, attr_dist),
            )

        return (pred_term + distance_weight * dist_term, pred_term, dist_term, probs,
                samples[0], grads)

    return evaluate, u0


def _norm(diff):
    # nn.l2_distance's value, from a difference already taken.
    return float(np.sqrt((diff * diff).sum()))


def _unit(diff, dist):
    # nn.l2_distance's gradient: the zero vector at zero distance.
    return diff / dist if dist != 0.0 else np.zeros(diff.shape)


def counterfactual_loss(target, gen, point, origin, desired, distance_weight, with_grads=True):
    """Evaluate the search objective, optionally with gradients.

    The prediction term is cross entropy of the classifier on the decoded
    instance against the desired class; the distance term is the euclidean
    distance of the code plus that of the attributes from their origin,
    scaled by distance_weight. Gradients chain through the classifier and
    the decoder back to the code and the attribute vector.
    """
    evaluate, _ = _objective(target, gen, origin, desired, distance_weight)
    total, pred_term, dist_term, probs, sample, grads = evaluate(
        _latent_vector(gen, point, "point")
    )
    loss = CounterfactualLoss(total, pred_term, dist_term, probs, sample)
    if with_grads:
        loss.code_grad, loss.attr_grad = grads()
    return loss


def _require_desired(target, config):
    if config.desired is None:
        raise ConfigurationError("config.desired must name the class to reach")
    if not 0 <= config.desired < target.network.output_dim:
        raise ConfigurationError(
            f"desired class {config.desired} out of range for "
            f"{target.network.output_dim} classes"
        )
    return config.desired


def _frozen_snapshot(target, gen):
    """An exact record of the target, encoder and decoder.

    Per layer: the activation, the dtype and shape of the weights and the
    bias, and a copy of their bytes, so any changed bit counts, a 0.0 to
    -0.0 flip included. It sees every change ``nn.parameter_digest`` sees,
    and copying plus comparing costs a fraction of hashing the same bytes.
    Every search takes one before it starts and checks it after its last
    model call, the encodes that fill in a baseline's latent fields included.
    """
    return [
        [
            (
                layer.activation,
                layer.weights.dtype,
                layer.weights.shape,
                layer.bias.dtype,
                layer.bias.shape,
                layer.weights.tobytes(),
                layer.bias.tobytes(),
            )
            for layer in net.layers
        ]
        for net in (target.network, gen.encoder, gen.decoder)
    ]


def _check_frozen(before, target, gen, method):
    if _frozen_snapshot(target, gen) != before:
        raise InvariantViolation(f"{method} modified frozen model parameters")


def _latent_walk(target, gen, x0, a0, config, method, query_index, step):
    """The loop of both latent searches: evaluate, stop, else step(point, n,
    grads) moves the point in place, where grads() is the evaluation's
    lazy backward to the code and the attribute vector. The iterate is one
    [code, attributes] buffer; point.code and point.attributes are views
    into it, so a step moves what the next evaluation reads."""
    config.validate()
    desired = _require_desired(target, config)
    frozen = _frozen_snapshot(target, gen)
    t0 = time.perf_counter_ns()
    origin = encode(gen, x0, a0)
    evaluate, u0 = _objective(target, gen, origin, desired, config.distance_weight)
    u = u0.copy()
    point = LatentPoint(u[: gen.latent_dim], u[gen.latent_dim :])
    trace = []
    n = 0
    while True:
        total, pred_term, dist_term, probs, sample, grads = evaluate(u)
        trace.append((total, pred_term, dist_term))
        predicted = int(probs.argmax())
        if predicted == desired or n >= config.max_iters:
            break
        step(point, n, grads)
        n += 1
    elapsed = _micros_since(t0)
    result = CounterfactualResult(
        sample=sample,
        latent=point,
        origin=origin,
        flipped=predicted == desired,
        iterations=n,
        predicted_class=predicted,
        desired_class=desired,
        loss_trace=trace,
        wall_time_micros=elapsed,
        method=method,
        query_index=query_index,
    )
    _check_frozen(frozen, target, gen, method)
    return result


def latent_descent(target, gen, x0, a0, config, query_index=-1, method="latent-descent"):
    """Gradient search in the latent space.

    Each iteration evaluates the objective once; the evaluation doubles as
    the stopping check (decoded instance already classified as desired) and
    as the gradient source for the update, whose backward sweep runs only
    once the check has failed. Step sizes decay after every
    update, so iterate n moves by step * decay**n. The loss trace holds one
    entry per evaluation, so a search that flips immediately has a single
    entry and zero iterations.
    """

    def step(point, n, grads):
        code_grad, attr_grad = grads()
        point.code -= step_size(config.code_step, config.step_decay, n) * code_grad
        if config.optimize_attributes:
            point.attributes -= step_size(config.attr_step, config.step_decay, n) * attr_grad

    return _latent_walk(target, gen, x0, a0, config, method, query_index, step)


def latent_random_search(target, gen, x0, a0, config, rng=None, query_index=-1):
    """Baseline: random unit directions under the same schedule and stopping.

    Each update draws one unit-norm direction over the whole latent point;
    the code block and the attribute block of that direction are scaled by
    their respective current step sizes. No gradients are computed, which
    is the point of the comparison.
    """
    if rng is None:
        rng = np.random.default_rng()
    with_attrs = config.optimize_attributes and gen.attribute_dim > 0
    k = gen.latent_dim

    def step(point, n, grads):
        direction = _unit_direction(rng, k + gen.attribute_dim if with_attrs else k)
        point.code += step_size(config.code_step, config.step_decay, n) * direction[:k]
        if with_attrs:
            point.attributes += step_size(config.attr_step, config.step_decay, n) * direction[k:]

    return _latent_walk(target, gen, x0, a0, config, "latent-random", query_index, step)


def _unit_direction(rng, dim):
    v = rng.standard_normal(dim)
    norm = np.sqrt((v * v).sum())
    while norm == 0.0:
        v = rng.standard_normal(dim)
        norm = np.sqrt((v * v).sum())
    return v / norm


def gradient_sign_attack(target, gen, x0, a0, epsilon, desired=None, clip=None, query_index=-1):
    """Baseline: one signed-gradient step on the instance itself.

    Moves every feature by epsilon against the sign of the cross-entropy
    gradient toward the desired class. epsilon == 0 returns the instance
    unchanged. The timed region covers only the attack; the latent fields
    are filled in afterwards by encoding, so latent-space bookkeeping does
    not distort the speed comparison.
    """
    if epsilon < 0:
        raise ConfigurationError("epsilon must be non-negative")
    x0 = np.asarray(x0, dtype=np.float64)
    frozen = _frozen_snapshot(target, gen)
    t0 = time.perf_counter_ns()
    probs, probs_trace = forward_trace(target.network, x0)
    if desired is None:
        if target.network.output_dim != 2:
            raise ConfigurationError("desired class is required beyond two classes")
        desired = 1 - int(np.argmax(probs))
    onehot = np.zeros(target.network.output_dim)
    onehot[desired] = 1.0
    loss_before, g_probs = cross_entropy(probs, onehot)
    g_x = vjp(target.network, probs_trace, g_probs, with_params=False).input_grad
    x_adv = x0 - epsilon * np.sign(g_x)
    if clip is not None:
        x_adv = np.clip(x_adv, clip[0], clip[1])
    probs_after = forward(target.network, x_adv)
    loss_after, _ = cross_entropy(probs_after, onehot)
    elapsed = _micros_since(t0)
    predicted = int(np.argmax(probs_after))
    result = CounterfactualResult(
        sample=x_adv,
        latent=encode(gen, x_adv, a0),
        origin=encode(gen, x0, a0),
        flipped=predicted == desired,
        iterations=1,
        predicted_class=predicted,
        desired_class=desired,
        loss_trace=[(loss_before, loss_before, 0.0), (loss_after, loss_after, 0.0)],
        wall_time_micros=elapsed,
        method="gradient-sign",
        query_index=query_index,
    )
    _check_frozen(frozen, target, gen, "gradient-sign")
    return result


def input_space_descent(target, gen, x0, a0, config, query_index=-1):
    """Baseline: the same descent run directly on instance features.

    Uses code_step as its step size with the shared decay and stopping
    rule; the distance term anchors to the original instance. The latent
    fields come from encoding outside the timed region.
    """
    config.validate()
    desired = _require_desired(target, config)
    x0 = np.asarray(x0, dtype=np.float64)
    frozen = _frozen_snapshot(target, gen)
    t0 = time.perf_counter_ns()
    onehot = np.zeros(target.network.output_dim)
    onehot[desired] = 1.0
    x = x0.copy()
    trace = []
    n = 0
    while True:
        probs, probs_trace = forward_trace(target.network, x)
        pred_term, g_probs = cross_entropy(probs, onehot)
        dist, g_dist = l2_distance(x, x0)
        trace.append((pred_term + config.distance_weight * dist, pred_term, dist))
        if int(np.argmax(probs)) == desired or n >= config.max_iters:
            break
        g_x = vjp(target.network, probs_trace, g_probs, with_params=False).input_grad
        x -= step_size(config.code_step, config.step_decay, n) * (
            g_x + config.distance_weight * g_dist
        )
        if config.clip is not None:
            x = np.clip(x, config.clip[0], config.clip[1])
        n += 1
    elapsed = _micros_since(t0)
    predicted = int(np.argmax(probs))
    result = CounterfactualResult(
        sample=x,
        latent=encode(gen, x, a0),
        origin=encode(gen, x0, a0),
        flipped=predicted == desired,
        iterations=n,
        predicted_class=predicted,
        desired_class=desired,
        loss_trace=trace,
        wall_time_micros=elapsed,
        method="input-descent",
        query_index=query_index,
    )
    _check_frozen(frozen, target, gen, "input-descent")
    return result


def attribute_preservation(disc, results, exclude=()):
    """How well counterfactuals keep the attribute profile of their origin.

    For each flipped result, the discriminator reads attributes off the
    counterfactual instance and compares them to the origin's binarized
    attributes, skipping indices in exclude (typically the attributes that
    drive the label, which a successful flip is expected to change).
    Returns (fraction of flipped results fully preserved, per-attribute
    match rates over flipped results).
    """
    flipped = [r for r in results if r.flipped]
    if not flipped:
        return 0.0, []
    t = disc.network.output_dim
    kept = np.ones(t, dtype=bool)
    for j in exclude:
        if not 0 <= j < t:
            raise ConfigurationError(f"excluded attribute {j} out of range")
        kept[j] = False
    matches = np.zeros((len(flipped), t))
    for i, r in enumerate(flipped):
        read = disc.predict(r.sample)
        matches[i] = read == (r.origin.attributes >= 0.5)
    per_attr = matches.mean(axis=0)
    full = float(np.mean(matches[:, kept].all(axis=1))) if kept.any() else 1.0
    return full, per_attr.tolist()


# --- result serialization --------------------------------------------------


def result_to_dict(result):
    return {
        "method": result.method,
        "query_index": result.query_index,
        "desired_class": result.desired_class,
        "predicted_class": result.predicted_class,
        "flipped": result.flipped,
        "iterations": result.iterations,
        "wall_time_micros": result.wall_time_micros,
        "sample": result.sample.tolist(),
        "code": result.latent.code.tolist(),
        "attributes": result.latent.attributes.tolist(),
        "origin_code": result.origin.code.tolist(),
        "origin_attributes": result.origin.attributes.tolist(),
        "loss_trace": [[float(v) for v in entry] for entry in result.loss_trace],
    }


def result_from_dict(d):
    return CounterfactualResult(
        sample=np.asarray(d["sample"], dtype=np.float64),
        latent=LatentPoint(
            np.asarray(d["code"], dtype=np.float64),
            np.asarray(d["attributes"], dtype=np.float64),
        ),
        origin=LatentPoint(
            np.asarray(d["origin_code"], dtype=np.float64),
            np.asarray(d["origin_attributes"], dtype=np.float64),
        ),
        flipped=d["flipped"],
        iterations=d["iterations"],
        predicted_class=d["predicted_class"],
        desired_class=d["desired_class"],
        loss_trace=[tuple(entry) for entry in d["loss_trace"]],
        wall_time_micros=d["wall_time_micros"],
        method=d["method"],
        query_index=d["query_index"],
    )


def write_results_jsonl(path, results):
    """One JSON object per result, keys sorted, floats at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(result_to_dict(r), sort_keys=True))
            fh.write("\n")


# Each field of a results-JSONL record, with what it must be.
_RESULT_FIELDS = {
    "method": ("a string", lambda v: isinstance(v, str)),
    "flipped": ("a boolean", lambda v: isinstance(v, bool)),
    **dict.fromkeys(
        ("query_index", "desired_class", "predicted_class", "iterations", "wall_time_micros"),
        ("an integer", is_int),
    ),
    **dict.fromkeys(
        ("sample", "code", "attributes", "origin_code", "origin_attributes"),
        ("an array of numbers", is_number_list),
    ),
    "loss_trace": (
        "a list of number arrays",
        lambda v: isinstance(v, list) and all(map(is_number_list, v)),
    ),
}


def read_results_jsonl(path):
    """Read results back; a line that is not a JSON object holding every
    _RESULT_FIELDS field with its type raises FormatError("path:line: ...")."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{number}"
            record = json.loads(line)
            if not isinstance(record, dict):
                raise FormatError(f"{where}: a result must be a JSON object")
            for key, (what, ok) in _RESULT_FIELDS.items():
                require_field(record, key, what, ok, f"{where}: result")
            for key in ("code", "attributes"):
                if len(record[key]) != len(record[f"origin_{key}"]):
                    raise FormatError(f"{where}: {key!r} and 'origin_{key}' differ in length")
            out.append(result_from_dict(record))
    return out


def write_pgm(path, flat, lo=0.0, hi=1.0):
    """Dump a square instance as an ASCII PGM image for quick inspection.

    Values map linearly from [lo, hi] to grey levels 0-255, clipped; the
    range must be finite with lo < hi, and every value finite.
    """
    flat = np.asarray(flat, dtype=np.float64)
    side = isqrt(flat.size)
    if side * side != flat.size:
        raise ConfigurationError(f"instance of length {flat.size} is not square")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigurationError(f"grey range must be finite with lo < hi, got [{lo}, {hi}]")
    if not np.isfinite(flat).all():
        raise NumericalError("non-finite values in a PGM instance")
    levels = np.clip((flat - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.round(levels * 255).astype(int).reshape(side, side)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{side} {side}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row))
            fh.write("\n")

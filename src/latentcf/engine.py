"""Counterfactual search.

The main routine walks a latent point downhill on a two-part loss: cross
entropy pulling the decoded instance toward the desired class, plus a
weighted distance term anchoring the point to its encoding of the original
instance. Both the latent code and the attribute vector move, each with its
own geometrically decaying step size, and the classifier plus the
autoencoder stay frozen throughout (checked against an exact parameter
snapshot taken before each search). Shapes are checked and the decoder and
the classifier bound to ``nn``'s layer kernels once per search
(``nn._bind``); each evaluation then runs the bound kernels, whose traces
check both outputs finite, and its backward checks the gradient reaching
the latent point finite once, after both pulls.

Three baselines share the result type so they can run under one benchmark
harness. Every search runs one loop (``_search``: evaluate, stop, step,
result, frozen-model check) and differs from the others only in its frame
and its step rule. The random-direction walk steps the same latent point at
random; the input-space descent walks the instance itself, with no decoder
in the objective, and encodes its latent fields after the clock; the
signed-gradient attack is that walk cut to one step along the gradient's
sign. Every result keeps its loss trace, one (total, prediction term,
distance term) row per evaluation, as a read-only (n, 3) float64 array
(``LossTrace``): 24 bytes an evaluation, where a list of float tuples took
144. Results serialize to JSON lines; square instances can be dumped
as PGM images for eyeballing.

Both files are rewritten in place (container._rewrite_text): opened without
O_TRUNC, overwritten, then cut to the new length. On ext4 with
auto_da_alloc, truncating a file that still holds data to zero length makes
its close force block allocation and writeback, and that flush cost an
`explain --out` more than its search.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .container import _json_errors, _rewrite_text, is_int, is_number_list, require_field
from .errors import (
    ConfigurationError, DimensionError, FormatError, InvariantViolation, NumericalError,
    require_finite,
)
from .models import LatentPoint, encode
from .nn import _bind, _check_finite, _clamp_probabilities


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
        """``PerturbConfig()``, with each override checked to name a field."""
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
        for name in ("distance_weight", "code_step", "attr_step"):
            require_finite(name, getattr(self, name))
        if not 0 < self.step_decay <= 1:
            raise ConfigurationError("step_decay must lie in (0, 1]")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ConfigurationError(
                f"max_iters must be a non-negative integer, got {self.max_iters!r}"
            )
        # Written as `not lo < hi` so that NaN bounds fail it too.
        if self.clip is not None and not self.clip[0] < self.clip[1]:
            raise ConfigurationError("clip bounds must satisfy lo < hi")


# The step schedule: the PerturbConfig fields that a comparison method's
# params and a manifest's perturb_profiles record.
SCHEDULE_FIELDS = ("distance_weight", "code_step", "attr_step", "step_decay", "max_iters")


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


class LossTrace(np.ndarray):
    """A read-only (n, 3) float64 array, one (total, prediction term, distance
    term) row per objective evaluation. Its truth value says whether it has
    rows, and a ufunc over it (``==`` included) gives a plain array, so that
    comparing two traces never yields a truthy trace."""

    @classmethod
    def of(cls, entries):
        """A read-only copy of entries, triples or an (n, 3) array; ValueError otherwise."""
        trace = np.asarray(entries, dtype=np.float64)
        if trace.shape[1:] != (3,) and trace.shape != (0,):
            raise ValueError(f"a loss trace entry holds 3 numbers, got shape {trace.shape}")
        trace = trace.reshape(-1, 3).view(cls).copy()
        trace.setflags(write=False)
        return trace

    def __bool__(self):
        return len(self) > 0

    def __array_wrap__(self, out, context=None, return_scalar=False):
        return out[()] if return_scalar else out.view(np.ndarray)


@dataclass
class CounterfactualResult:
    """Outcome of one search, shared across all methods.

    loss_trace holds one (total, prediction term, distance term) row per
    objective evaluation: a read-only (n, 3) ``LossTrace`` from a search or
    from ``read_results_jsonl``, though ``result_to_dict`` takes any
    sequence of triples, a plain list included. wall_time_micros is the
    whole-search wall time at microsecond resolution.
    """

    sample: np.ndarray
    latent: LatentPoint
    origin: LatentPoint
    flipped: bool
    iterations: int
    predicted_class: int
    desired_class: int
    loss_trace: LossTrace
    wall_time_micros: int
    method: str
    query_index: int = -1


def _micros_since(t0):
    return max(1, int((time.perf_counter_ns() - t0) // 1000))


def step_size(initial, decay, n):
    """The exact step size used at iteration n: initial * decay**n."""
    return initial * decay**n


def _latent_vector(target, gen, point, what):
    """point as one fresh float64 vector [code, attributes], its widths
    checked against the generative model's, and the decoder checked to
    chain from them into the classifier."""
    code = np.asarray(point.code, dtype=np.float64)
    attributes = np.asarray(point.attributes, dtype=np.float64)
    if code.shape != (gen.latent_dim,) or attributes.shape != (gen.attribute_dim,):
        raise DimensionError(
            f"{what} code {code.shape} and attributes {attributes.shape}, expected "
            f"({gen.latent_dim},) and ({gen.attribute_dim},)"
        )
    width = code.size + attributes.size
    if width != gen.decoder.input_dim or gen.decoder.output_dim != target.network.input_dim:
        raise DimensionError(
            f"a {width}-entry latent point, decoder [{gen.decoder.input_dim} -> "
            f"{gen.decoder.output_dim}] and classifier input {target.network.input_dim} "
            "do not chain"
        )
    return np.concatenate([code, attributes])


def _objective(target, layers, u0, k, desired, distance_weight):
    """The search objective around the origin vector u0, code in its first
    k entries and attributes after, which the caller has checked to chain
    through layers (the decoder's, or none) into the classifier and must
    not write to. Both layer lists are bound to their kernels once, here.
    ``evaluate(u)``, for a float64 vector of u0's shape, runs the layers and
    the classifier once over the bound kernels, which check both outputs
    finite, and returns (total, prediction term, distance term, probabilities,
    sample, grads); grads() pulls the loss back through both, input only,
    checks the gradient reaching u finite and returns (code_grad,
    attr_grad), so a caller that stops at the value pays for no backward.
    grads() is valid until the next evaluate().
    """
    dec_trace, dec_pull = _bind(layers)
    tgt_trace, tgt_pull = _bind(target.network.layers)
    # nn.cross_entropy's gradient, -onehot / clamped, from one negated row.
    neg_onehot = np.zeros((1, target.network.output_dim))
    neg_onehot[0, desired] = -1.0

    def evaluate(u):
        samples, dec_records = dec_trace(u[None, :])
        probs, tgt_records = tgt_trace(samples)
        clamped = _clamp_probabilities(probs)
        # nn.cross_entropy's value: the one-hot sum adds only signed zeros.
        pred_term = -float(np.log(clamped)[0, desired])
        # nn.l2_distance's value for each block, from one squared difference.
        diff = u - u0
        sq = diff * diff
        code_dist = math.sqrt(np.add.reduce(sq[:k]))
        attr_dist = math.sqrt(np.add.reduce(sq[k:]))
        dist_term = code_dist + attr_dist

        def grads():
            # Flat outside the clamp; probs is finite, so the clamp moved
            # exactly the entries outside it.
            g = neg_onehot / clamped
            g[clamped != probs] = 0.0
            # One finite check covers both sweeps: a non-finite classifier
            # input gradient stays non-finite through the decoder's.
            g = dec_pull(dec_records, tgt_pull(tgt_records, g))
            _check_finite(g, "input gradient")
            g = g[0]
            return (
                g[:k] + distance_weight * _unit(diff[:k], code_dist),
                g[k:] + distance_weight * _unit(diff[k:], attr_dist),
            )

        return (pred_term + distance_weight * dist_term, pred_term, dist_term, probs[0],
                samples[0], grads)

    return evaluate


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
    u0 = _latent_vector(target, gen, origin, "origin")
    evaluate = _objective(target, gen.decoder.layers, u0, gen.latent_dim, desired, distance_weight)
    total, pred_term, dist_term, probs, sample, grads = evaluate(
        _latent_vector(target, gen, point, "point")
    )
    loss = CounterfactualLoss(total, pred_term, dist_term, probs, sample)
    if with_grads:
        loss.code_grad, loss.attr_grad = grads()
    return loss


def desired_class(target, predicted, desired=None):
    """desired when given; else, for a two-class target, the class not
    predicted (elementwise for an array). ConfigurationError otherwise."""
    if desired is None and target.network.output_dim != 2:
        raise ConfigurationError(
            f"a {target.network.output_dim}-class target needs a desired class; "
            "only two classes default to the class not predicted"
        )
    return 1 - predicted if desired is None else desired


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


def _search(target, gen, x0, a0, config, method, query_index, start, step):
    """The loop of every iterative search.

    The config and the desired class are checked and the frozen snapshot
    taken before the clock starts. start(target, gen, x0, a0) then returns
    (layers, u0, k, finish): the frame of ``_objective``, and finish(code,
    attributes), which after the clock gives the result's (latent, origin)
    points. The iterate starts as a copy of u0, its code and attribute
    blocks views into that one buffer. Each round evaluates it and stops
    once it is classified as desired or the budget is spent; otherwise
    step(code, attributes, n, grads) moves the blocks in place, grads()
    being the evaluation's lazy backward. Each evaluation's three loss
    values go onto one flat ``array('d')`` through its bound append, copied
    once into the result's ``LossTrace`` after the clock. The frozen-model
    check follows finish, the last model call.
    """
    config.validate()
    desired = _require_desired(target, config)
    frozen = _frozen_snapshot(target, gen)
    t0 = time.perf_counter_ns()
    layers, u0, k, finish = start(target, gen, x0, a0)
    evaluate = _objective(target, layers, u0, k, desired, config.distance_weight)
    u = u0.copy()
    code, attributes = u[:k], u[k:]
    flat = array("d")
    push = flat.append
    n = 0
    while True:
        total, pred_term, dist_term, probs, sample, grads = evaluate(u)
        push(total)
        push(pred_term)
        push(dist_term)
        predicted = int(probs.argmax())
        if predicted == desired or n >= config.max_iters:
            break
        step(code, attributes, n, grads)
        n += 1
    elapsed = _micros_since(t0)
    latent, origin = finish(code, attributes)
    result = CounterfactualResult(
        sample=sample,
        latent=latent,
        origin=origin,
        flipped=predicted == desired,
        iterations=n,
        predicted_class=predicted,
        desired_class=desired,
        loss_trace=LossTrace.of(np.frombuffer(flat).reshape(-1, 3)),
        wall_time_micros=elapsed,
        method=method,
        query_index=query_index,
    )
    _check_frozen(frozen, target, gen, method)
    return result


def _latent_start(target, gen, x0, a0):
    """A latent search's frame: the origin is the encoding of (x0, a0), and
    the result's latent point holds the iterate's two blocks."""
    origin = encode(gen, x0, a0)
    u0 = _latent_vector(target, gen, origin, "origin")
    return gen.decoder.layers, u0, gen.latent_dim, lambda *point: (LatentPoint(*point), origin)


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

    def step(code, attributes, n, grads):
        code_grad, attr_grad = grads()
        code -= step_size(config.code_step, config.step_decay, n) * code_grad
        if config.optimize_attributes:
            attributes -= step_size(config.attr_step, config.step_decay, n) * attr_grad

    return _search(target, gen, x0, a0, config, method, query_index, _latent_start, step)


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

    def step(code, attributes, n, grads):
        direction = _unit_direction(rng, k + gen.attribute_dim if with_attrs else k)
        code += step_size(config.code_step, config.step_decay, n) * direction[:k]
        if with_attrs:
            attributes += step_size(config.attr_step, config.step_decay, n) * direction[k:]

    return _search(target, gen, x0, a0, config, "latent-random", query_index, _latent_start, step)


def _unit_direction(rng, dim):
    v = rng.standard_normal(dim)
    norm = np.sqrt((v * v).sum())
    while norm == 0.0:
        v = rng.standard_normal(dim)
        norm = np.sqrt((v * v).sum())
    return v / norm


def gradient_sign_attack(target, gen, x0, a0, epsilon, desired=None, clip=None, query_index=-1):
    """Baseline: one signed-gradient step on the instance itself.

    Input-space descent cut to one step with no distance term: the step
    moves every feature by epsilon against the sign of the cross-entropy
    gradient toward the desired class, then clips when clip is set. An
    instance already classified as desired comes back unchanged with zero
    iterations; epsilon == 0 returns it unchanged too. desired, when None,
    defaults as ``desired_class`` says.
    """
    require_finite("epsilon", epsilon)
    if desired is None:
        x0 = _instance_start(target, gen, x0, a0)[1]
        desired = desired_class(target, target.predict(x0))
    config = PerturbConfig(distance_weight=0.0, code_step=epsilon, step_decay=1.0, max_iters=1,
                           desired=desired, clip=clip)
    return _search(target, gen, x0, a0, config, "gradient-sign", query_index, _instance_start,
                   _instance_step(config, np.sign))


def _instance_start(target, gen, x0, a0):
    """The instance-space frame: no decoder, the instance (checked to be a
    vector of the target's input width) as the iterate, and encodings for
    the latent fields."""
    x0 = np.asarray(x0, dtype=np.float64)
    d = target.network.input_dim
    if x0.shape != (d,):
        raise DimensionError(f"instance has shape {x0.shape}, expected ({d},)")
    return [], x0, x0.size, lambda x, _: (encode(gen, x, a0), encode(gen, x0, a0))


def _instance_step(config, direction):
    """The instance-space step rule: x moves by the step size against
    direction(gradient), then is clipped when config.clip is set."""

    def step(x, _, n, grads):
        x -= step_size(config.code_step, config.step_decay, n) * direction(grads()[0])
        if config.clip is not None:
            np.clip(x, config.clip[0], config.clip[1], out=x)

    return step


def input_space_descent(target, gen, x0, a0, config, query_index=-1):
    """Baseline: the same descent run directly on instance features.

    The loop of the latent searches with no decoder: the iterate is the
    instance, all of it code, so code_step sets its steps under the shared
    decay and stopping rule, and the distance term anchors it to the
    original instance. With config.clip set, every step ends by clipping
    the iterate. The latent fields come from encoding after the clock.
    """
    step = _instance_step(config, lambda g: g)
    return _search(target, gen, x0, a0, config, "input-descent", query_index, _instance_start, step)


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
        "loss_trace": np.asarray(result.loss_trace, dtype=np.float64).tolist(),
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
        loss_trace=LossTrace.of(d["loss_trace"]),
        wall_time_micros=d["wall_time_micros"],
        method=d["method"],
        query_index=d["query_index"],
    )


def write_results_jsonl(path, results):
    """One JSON object per result, keys sorted, floats at full precision.

    The file is rewritten in place (container._rewrite_text), not truncated:
    on ext4 with auto_da_alloc, truncating a file that holds data makes its
    close flush, which cost an explain --out more than its search. A symlink
    is written through and the file keeps its inode and mode.
    """
    _rewrite_text(path, "".join(json.dumps(result_to_dict(r), sort_keys=True) + "\n"
                                for r in results))


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
        "a non-empty list of 3-number arrays",
        lambda v: isinstance(v, list) and len(v) > 0
        and all(is_number_list(e) and len(e) == 3 for e in v),
    ),
}


def read_results_jsonl(path):
    """Read results back; a line that is not UTF-8, nests deeper than the
    recursion limit, or is not a JSON object holding every _RESULT_FIELDS
    field with its type, raises FormatError("path:line: ...")."""
    out = []
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            where = f"{path}:{number}"
            with _json_errors(where):
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
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
    rows = "".join(" ".join(str(v) for v in row) + "\n" for row in pixels)
    _rewrite_text(path, f"P2\n{side} {side}\n255\n{rows}", encoding="ascii")

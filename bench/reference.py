"""Reference computations that check latentcf's outputs from outside.

Plain numpy, hashlib and struct only: nothing here imports latentcf, so a
fault in the package's forward pass, decoder, digest or container reader
cannot vouch for itself. A network is a list of (weights, bias, activation)
triples; `layers_of` reads them off any object with a `.layers` list.

Every check returns a list of error strings; an empty list means the output
agrees with the reference.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

# Same clamp as the objective's log, so the recomputed loss is comparable.
PROB_FLOOR = 1e-12
# Relative tolerance for recomputed float64 values; the reference and the
# package differ only in summation order and the sigmoid formula.
RTOL = 1e-9
ATOL = 1e-12

LATENT_METHODS = ("latent-descent", "latent-descent-frozen", "latent-random")


def layers_of(net):
    return [(np.asarray(l.weights), np.asarray(l.bias), l.activation) for l in net.layers]


def activate(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.where(z > 0.0, z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        # tanh form rather than the package's split exp form.
        return 0.5 * (1.0 + np.tanh(0.5 * z))
    if name == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    raise ValueError(f"unknown activation {name!r}")


def dense_forward(layers, x):
    """Evaluate a dense stack on a vector [d] or a batch [n, d]."""
    h = np.asarray(x, dtype=np.float64)
    for weights, bias, act in layers:
        h = activate(act, np.einsum("...i,oi->...o", h, weights) + bias)
    return h


def param_digest(*networks):
    """SHA-256 over each layer's activation, shapes and parameter bytes."""
    h = hashlib.sha256()
    for layers in networks:
        for weights, bias, act in layers:
            h.update(act.encode())
            h.update(repr((weights.shape, bias.shape)).encode())
            h.update(np.ascontiguousarray(weights, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(bias, dtype="<f8").tobytes())
    return h.hexdigest()


def read_lcfc(path):
    """Parse an .lcfc container: (kind, meta, {name: array})."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"LCFC":
        raise ValueError(f"{path}: bad magic")
    (header_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + header_len])
    payload = 16 + header_len
    arrays = {}
    for entry in header["arrays"]:
        start = payload + entry["offset"]
        raw = blob[start : start + entry["nbytes"]]
        arrays[entry["name"]] = np.frombuffer(raw, dtype=np.dtype(entry["dtype"])).reshape(
            entry["shape"]
        )
    return header["kind"], header["meta"], arrays


def layers_from_lcfc(meta, arrays, act_key="activations", prefix=""):
    return [
        (arrays[f"{prefix}w{i}"], arrays[f"{prefix}b{i}"], act)
        for i, act in enumerate(meta[act_key])
    ]


class RefStack:
    """Target, encoder and decoder parameters, held as plain arrays."""

    def __init__(self, target, encoder, decoder, latent_dim, disc=None):
        self.target = target
        self.encoder = encoder
        self.decoder = decoder
        self.latent_dim = latent_dim
        self.disc = disc

    @classmethod
    def from_models(cls, target, disc, gen):
        return cls(
            layers_of(target.network),
            layers_of(gen.encoder),
            layers_of(gen.decoder),
            gen.latent_dim,
            layers_of(disc.network),
        )

    @classmethod
    def from_files(cls, target_path, disc_path, gen_path):
        _, tmeta, tarr = read_lcfc(target_path)
        _, dmeta, darr = read_lcfc(disc_path)
        _, gmeta, garr = read_lcfc(gen_path)
        return cls(
            layers_from_lcfc(tmeta, tarr),
            layers_from_lcfc(gmeta, garr, "encoder_activations", "enc_"),
            layers_from_lcfc(gmeta, garr, "decoder_activations", "dec_"),
            gmeta["latent_dim"],
            layers_from_lcfc(dmeta, darr),
        )

    def digest(self):
        return param_digest(self.target, self.encoder, self.decoder)

    def accuracy(self, x, onehot):
        pred = np.argmax(dense_forward(self.target, x), axis=1)
        return float(np.mean(pred == np.argmax(onehot, axis=1)))

    def attribute_consistency(self, x, attrs):
        """Share of attribute bits the discriminator reads back off the
        reconstruction of x under its own attributes."""
        codes = dense_forward(self.encoder, x)
        recon = dense_forward(self.decoder, np.concatenate([codes, attrs], axis=1))
        read = dense_forward(self.disc, recon) >= 0.5
        return float(np.mean(read == (attrs == 1.0)))


def _close(a, b):
    return np.allclose(a, b, rtol=RTOL, atol=ATOL)


def check_result(r, ref, x0, a0, desired, distance_weight, max_iters,
                 epsilon=None, clip=None):
    """Check one CounterfactualResult (or an equivalent record) against the
    reference. `r` needs sample, latent/origin (code, attributes), flipped,
    iterations, predicted_class, desired_class, loss_trace and method."""
    errors = []
    method = r.method
    sample = np.asarray(r.sample, dtype=np.float64)
    probs = dense_forward(ref.target, sample)
    pred = int(np.argmax(probs))
    if bool(r.flipped) != (pred == desired):
        errors.append(f"{method}: flipped={r.flipped} but reference class is {pred}")
    if r.predicted_class != pred:
        errors.append(f"{method}: predicted_class {r.predicted_class} != reference {pred}")
    if r.desired_class != desired:
        errors.append(f"{method}: desired_class {r.desired_class} != {desired}")
    code = np.asarray(r.latent.code)
    attrs = np.asarray(r.latent.attributes)
    ocode = np.asarray(r.origin.code)
    oattrs = np.asarray(r.origin.attributes)
    if not _close(ocode, dense_forward(ref.encoder, x0)):
        errors.append(f"{method}: origin code differs from the reference encoding")
    if not np.array_equal(oattrs, a0):
        errors.append(f"{method}: origin attributes differ from the query's")
    pred_term = float(-np.log(np.clip(probs[desired], PROB_FLOOR, 1.0 - PROB_FLOOR)))
    trace = r.loss_trace
    if method == "gradient-sign":
        step = np.abs(sample - x0)
        if r.iterations != 1 or len(trace) != 2:
            errors.append(f"{method}: expected one step and two trace entries")
        if np.any(step > epsilon * (1 + RTOL) + ATOL):
            errors.append(f"{method}: a feature moved further than epsilon")
        if clip is not None and (sample.min() < clip[0] or sample.max() > clip[1]):
            errors.append(f"{method}: sample leaves the clip range")
        if not _close(code, dense_forward(ref.encoder, sample)):
            errors.append(f"{method}: latent code differs from the reference encoding")
        if trace and not _close(trace[-1][0], pred_term):
            errors.append(f"{method}: last loss {trace[-1][0]!r} != reference {pred_term!r}")
        return errors
    if method in LATENT_METHODS:
        decoded = dense_forward(ref.decoder, np.concatenate([code, attrs]))
        if not _close(sample, decoded):
            errors.append(f"{method}: sample differs from the reference decode")
        dist = float(np.linalg.norm(code - ocode) + np.linalg.norm(attrs - oattrs))
        if method == "latent-descent-frozen" and not np.array_equal(attrs, oattrs):
            errors.append(f"{method}: frozen attributes moved")
    else:
        if not _close(code, dense_forward(ref.encoder, sample)):
            errors.append(f"{method}: latent code differs from the reference encoding")
        dist = float(np.linalg.norm(sample - x0))
    if not r.flipped and r.iterations != max_iters:
        errors.append(f"{method}: not flipped after {r.iterations} of {max_iters} steps")
    if len(trace) != r.iterations + 1:
        errors.append(f"{method}: {len(trace)} trace entries for {r.iterations} steps")
    total = pred_term + distance_weight * dist
    if trace and not (
        _close(trace[-1][0], total) and _close(trace[-1][1], pred_term) and _close(trace[-1][2], dist)
    ):
        errors.append(f"{method}: last trace entry {tuple(trace[-1])} != reference "
                      f"({total!r}, {pred_term!r}, {dist!r})")
    return errors

"""Model training: target classifier, attribute discriminator, autoencoder.

All three ride on the dense-network engine and one minibatch SGD loop,
``_fit``, which steps one flat buffer (``nn._FlatParams``) of every network
the trainer updates, encoder and decoder together, once per batch. Each
trainer supplies only a batch closure giving its loss and a fill of the
buffer's gradients; it runs nn's bound kernels, whose traces check their
outputs finite, and checks each input gradient it pulls finite.

The target classifier is the black box under explanation; after training it
is only ever queried forward, and its gradients are used solely through the
counterfactual loss. The discriminator maps instances to per-attribute
probabilities and stays frozen while the generative model trains: its
gradient signal flows into the decoder, its parameters never move.

The generative model is a deterministic autoencoder whose decoder consumes
the latent code concatenated with the attribute vector. Training minimizes
mean reconstruction distance plus a weighted attribute-consistency term
scored by the frozen discriminator on the reconstruction.

Trainers copy one batch at a time out of the read-only split views, and
whole-split passes (accuracies, the final reconstruction error and attribute
consistency) run in row blocks of the config's batch_size, reducing their
per-row values once: working memory does not grow with the number of rows.

Checkpoints (container kinds in _CHECKPOINTS) store a network field's layer
i as arrays ``{prefix}w{i}``/``{prefix}b{i}`` and its activations as the meta
list ``activations``, or ``{field}_activations`` when prefixed (the encoder's
``enc_``, the decoder's ``dec_``); a list field is a 1-D float64 array of
its own name, read bit for bit with no decimal parsing; every other field is
a meta value. Loading raises FormatError, naming file and field, when meta
is not an object, an activations list, an array or a meta field is missing,
a list array is not 1-D float64, a value has the wrong JSON type for its
annotation, or a generative model's latent_dim and attribute_dim disagree
with its encoder output and decoder input widths.

The stack manifest is this module's alone: save_stack writes it, with the
checkpoints; load_manifest and retrain_config read it.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .container import (
    _rewrite_text, is_int, is_number, read_container, read_json, require_field, write_container,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    TrainingError,
    TrainingQualityWarning,
    require_finite,
)
from .nn import (
    HIDDEN_ACTIVATIONS,
    DenseNetwork,
    Layer,
    _check_finite,
    _bind,
    _by_rows,
    _FlatParams,
    build_network,
    forward,
    mean_binary_cross_entropy,
    mean_cross_entropy,
)


@dataclass
class TrainConfig:
    """Shared knobs for classifier and discriminator training."""

    epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden_dims: tuple = (32,)
    hidden_activation: str = "tanh"
    seed: int = 0
    accuracy_floor: float = 0.85

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be at least 1")
        require_finite("learning_rate", self.learning_rate, positive=True)
        require_finite("seed", self.seed)
        _require_hidden(self)
        if not 0 <= self.accuracy_floor <= 1:
            raise ConfigurationError("accuracy_floor must lie in [0, 1]")


def _require_hidden(config):
    if any(width < 1 for width in config.hidden_dims):
        raise ConfigurationError(f"hidden_dims must all be at least 1, got {config.hidden_dims}")
    name = config.hidden_activation
    if name not in HIDDEN_ACTIVATIONS:
        raise ConfigurationError(
            f"hidden_activation must be one of {', '.join(HIDDEN_ACTIVATIONS)}, got {name!r}"
        )


@dataclass
class GenerativeConfig:
    """Knobs for autoencoder training.

    disc_weight scales the attribute-consistency term; output_activation is
    identity for unbounded features and sigmoid for [0, 1] grids.
    """

    latent_dim: int
    epochs: int = 60
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden_dims: tuple = (32,)
    hidden_activation: str = "tanh"
    output_activation: str = "identity"
    disc_weight: float = 1.0
    seed: int = 0
    consistency_floor: float = 0.85

    def validate(self):
        if self.latent_dim < 1:
            raise ConfigurationError("latent_dim must be at least 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be at least 1")
        require_finite("learning_rate", self.learning_rate, positive=True)
        require_finite("disc_weight", self.disc_weight)
        require_finite("seed", self.seed)
        _require_hidden(self)
        if self.output_activation not in ("identity", "sigmoid"):
            raise ConfigurationError("output_activation must be identity or sigmoid")


@dataclass
class TargetModel:
    """The classifier under explanation, with its training record."""

    network: DenseNetwork
    train_accuracy: float
    dev_accuracy: float
    test_accuracy: float
    loss_history: list = field(default_factory=list)

    def predict_proba(self, x):
        return forward(self.network, x)

    def predict(self, x):
        probs = self.predict_proba(x)
        return int(np.argmax(probs)) if probs.ndim == 1 else np.argmax(probs, axis=1)


@dataclass
class Discriminator:
    """Instance -> per-attribute probabilities, sigmoid outputs."""

    network: DenseNetwork
    attribute_accuracy: list = field(default_factory=list)

    def predict_proba(self, x):
        return forward(self.network, x)

    def predict(self, x):
        return (self.predict_proba(x) >= 0.5).astype(np.float64)


@dataclass
class LatentPoint:
    """A position in the search space: latent code plus attribute vector."""

    code: np.ndarray
    attributes: np.ndarray

    def copy(self):
        return LatentPoint(self.code.copy(), self.attributes.copy())


@dataclass
class GenerativeModel:
    """Encoder/decoder pair trained against a frozen discriminator."""

    encoder: DenseNetwork
    decoder: DenseNetwork
    latent_dim: int
    attribute_dim: int
    final_recon_error: float
    attribute_consistency: float
    loss_history: list = field(default_factory=list)


def encode(model, x, attributes):
    """Project an instance into the search space, keeping its attributes."""
    x = np.asarray(x, dtype=np.float64)
    attributes = np.asarray(attributes, dtype=np.float64)
    if attributes.shape != (model.attribute_dim,):
        raise DimensionError(
            f"attributes have shape {attributes.shape}, expected ({model.attribute_dim},)"
        )
    return LatentPoint(forward(model.encoder, x), attributes.copy())


def decode(model, point):
    """Map a latent point back to instance space."""
    if point.code.shape != (model.latent_dim,):
        raise DimensionError(
            f"code has shape {point.code.shape}, expected ({model.latent_dim},)"
        )
    return forward(model.decoder, np.concatenate([point.code, point.attributes]))


def _mlp(in_dim, out_dim, config, head, rng):
    """A dense network: config's hidden layers, then a head-activated output."""
    hidden = config.hidden_dims
    return build_network(
        [in_dim, *hidden, out_dim], [config.hidden_activation] * len(hidden) + [head], rng
    )


def _fit(config, n, rng, flat, batch, what):
    """Minibatch SGD over n rows; returns the per-epoch mean losses.

    Each epoch visits the rows in batches of an rng permutation. batch(idx)
    returns the batch's mean loss and fill, which writes flat's gradients;
    flat is then stepped once. A non-finite loss raises TrainingError naming
    what before fill runs, so no update is applied from a diverged batch.
    """
    history = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, fill = batch(idx)
            if not np.isfinite(loss):
                raise TrainingError(f"{what} loss diverged at epoch {epoch}")
            fill()
            flat.step(config.learning_rate)
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / n)
    return history


def _supervised(config, rng, net, x, y, loss_fn, what):
    """Fit net directly to targets y; returns the per-epoch mean losses."""
    flat = _FlatParams(net)
    # Bound after _FlatParams moved the parameters; steps update them in place.
    trace, pull = _bind(net.layers)

    def batch(idx):
        out, records = trace(x[idx])
        loss, grad = loss_fn(out, y[idx])
        return loss, lambda: pull(records, grad, flat.grad_out, False)

    return _fit(config, len(x), rng, flat, batch, what)


def _parts(dataset, *names):
    """Each named part of dataset; ConfigurationError for one with no rows."""
    parts = [dataset.part(name) for name in names]
    for name, (x, _, _) in zip(names, parts):
        if len(x) == 0:
            raise ConfigurationError(f"dataset has no {name} rows")
    return parts


def _warn_below(value, floor, what):
    if value < floor:
        warnings.warn(f"{what} {value:.3f} below floor {floor}", TrainingQualityWarning)


def _accuracy(network, x, onehot, size):
    """Share of rows whose argmax prediction is their one-hot class."""
    (hits,) = _by_rows(
        lambda xb, yb: (np.argmax(forward(network, xb), axis=1) == np.argmax(yb, axis=1),),
        (x, onehot), size,
    )
    return float(np.mean(hits))


def train_target(dataset, config):
    """Fit the classifier on the train split; accuracies on all three splits.

    An empty train, dev or test part raises ConfigurationError before
    training. A non-finite batch loss aborts with TrainingError. Dev
    accuracy below the configured floor emits TrainingQualityWarning but
    still returns the model, leaving the call site to decide whether it is
    usable.
    """
    config.validate()
    (x_train, _, y_train), (x_dev, _, y_dev), (x_test, _, y_test) = _parts(
        dataset, "train", "dev", "test"
    )
    rng = np.random.default_rng(config.seed)
    net = _mlp(dataset.n_features, dataset.n_classes, config, "softmax", rng)
    history = _supervised(config, rng, net, x_train, y_train, mean_cross_entropy, "classifier")
    model = TargetModel(
        network=net,
        train_accuracy=_accuracy(net, x_train, y_train, config.batch_size),
        dev_accuracy=_accuracy(net, x_dev, y_dev, config.batch_size),
        test_accuracy=_accuracy(net, x_test, y_test, config.batch_size),
        loss_history=history,
    )
    _warn_below(model.dev_accuracy, config.accuracy_floor, "classifier dev accuracy")
    return model


def train_discriminator(dataset, config):
    """Fit per-attribute probes with a shared trunk and sigmoid heads; an
    empty train or dev part raises ConfigurationError before training."""
    config.validate()
    if dataset.n_attributes == 0:
        raise ConfigurationError("dataset has no attributes to discriminate")
    (x_train, a_train, _), (x_dev, a_dev, _) = _parts(dataset, "train", "dev")
    for j in range(dataset.n_attributes):
        col = a_train[:, j]
        if col.min() == col.max():
            warnings.warn(
                f"attribute {j} is constant on the train split; its probe "
                "cannot learn anything",
                TrainingQualityWarning,
            )
    rng = np.random.default_rng(config.seed)
    net = _mlp(dataset.n_features, dataset.n_attributes, config, "sigmoid", rng)
    _supervised(config, rng, net, x_train, a_train, mean_binary_cross_entropy, "discriminator")
    (preds,) = _by_rows(lambda xb: (forward(net, xb) >= 0.5,), (x_dev,), config.batch_size)
    per_attr = [float(np.mean(preds[:, j] == (a_dev[:, j] == 1.0))) for j in range(dataset.n_attributes)]
    _warn_below(float(np.mean(per_attr)), config.accuracy_floor,
                "mean per-attribute dev accuracy")
    return Discriminator(network=net, attribute_accuracy=per_attr)


def _row_distances(xhat, x):
    """xhat - x and its row-wise euclidean norms."""
    diff = xhat - x
    return diff, np.sqrt((diff * diff).sum(axis=1))


def _recon_grad(xhat, x):
    """Mean row-wise euclidean distance and its gradient w.r.t. xhat; a
    zero-distance row gets a zero gradient row."""
    diff, dists = _row_distances(xhat, x)
    grad = np.zeros_like(diff)
    np.divide(diff, dists[:, None], out=grad, where=dists[:, None] > 0)
    grad /= len(dists)
    return float(dists.mean()), grad


def train_generative(dataset, discriminator, config):
    """Fit the autoencoder against the frozen discriminator.

    Objective per batch: mean reconstruction distance plus disc_weight
    times the binary cross-entropy between discriminator outputs on the
    reconstruction and the true attributes. The discriminator contributes
    gradients through its input but is never updated here. An empty train
    part raises ConfigurationError before training.
    """
    config.validate()
    x_train, a_train, _ = _parts(dataset, "train")[0]
    if discriminator.network.output_dim != dataset.n_attributes:
        raise DimensionError("discriminator output does not match dataset attributes")
    d = dataset.n_features
    t = dataset.n_attributes
    k = config.latent_dim
    rng = np.random.default_rng(config.seed)
    encoder = _mlp(d, k, config, "identity", rng)
    decoder = _mlp(k + t, d, config, config.output_activation, rng)
    disc_net = discriminator.network
    # Decoder first: a failed step names a bad decoder parameter first.
    flat = _FlatParams(decoder, encoder)
    n_dec = len(decoder.layers)
    dec_grads, enc_grads = flat.grad_out[:n_dec], flat.grad_out[n_dec:]
    # Bound after _FlatParams moved the parameters; steps update them in place.
    enc_trace, enc_pull = _bind(encoder.layers)
    dec_trace, dec_pull = _bind(decoder.layers)
    disc_trace, disc_pull = _bind(disc_net.layers)

    def batch(idx):
        xb, ab = x_train[idx], a_train[idx]
        codes, enc_records = enc_trace(xb)
        xhat, dec_records = dec_trace(np.concatenate([codes, ab], axis=1))
        loss, g_xhat = _recon_grad(xhat, xb)
        if config.disc_weight > 0:
            probs, disc_records = disc_trace(xhat)
            bce, g_probs = mean_binary_cross_entropy(probs, ab)
            loss += config.disc_weight * bce
            g_disc_in = disc_pull(disc_records, g_probs)
            _check_finite(g_disc_in, "input gradient")
            g_xhat = g_xhat + config.disc_weight * g_disc_in

        def fill():
            g_in = dec_pull(dec_records, g_xhat, dec_grads)
            _check_finite(g_in, "input gradient")
            enc_pull(enc_records, g_in[:, :k], enc_grads, False)

        return loss, fill

    history = _fit(config, len(x_train), rng, flat, batch, "autoencoder")

    def final(xb, ab):
        xhat = forward(decoder, np.concatenate([forward(encoder, xb), ab], axis=1))
        return _row_distances(xhat, xb)[1], (forward(disc_net, xhat) >= 0.5) == (ab == 1.0)

    dists, reads = _by_rows(final, (x_train, a_train), config.batch_size)
    recon_final = float(dists.mean())
    consistency = float(np.mean(reads)) if t > 0 else 1.0
    model = GenerativeModel(
        encoder=encoder,
        decoder=decoder,
        latent_dim=k,
        attribute_dim=t,
        final_recon_error=recon_final,
        attribute_consistency=consistency,
        loss_history=history,
    )
    _warn_below(consistency, config.consistency_floor, "attribute consistency")
    return model


# --- checkpoint io ---------------------------------------------------------


# Each checkpoint kind: its model class and the array-name prefix of each of
# its network fields. Every other field of the class but a list is metadata.
_CHECKPOINTS = {
    "target-model": (TargetModel, {"network": ""}),
    "discriminator": (Discriminator, {"network": ""}),
    "generative-model": (GenerativeModel, {"encoder": "enc_", "decoder": "dec_"}),
}

# What a metadata field's annotation asks of its JSON value.
_META_TYPES = {
    "float": ("a number", is_number),
    "int": ("an integer", is_int),
}


def _activations_key(name, prefix):
    return f"{name}_activations" if prefix else "activations"


def _save_model(path, kind, model):
    cls, networks = _CHECKPOINTS[kind]
    meta, arrays = {}, {}
    for f in fields(cls):
        value = getattr(model, f.name)
        prefix = networks.get(f.name)
        if f.type == "list":
            arrays[f.name] = np.array(value, dtype=np.float64)
            continue
        if prefix is None:
            meta[f.name] = value
            continue
        meta[_activations_key(f.name, prefix)] = [l.activation for l in value.layers]
        for i, layer in enumerate(value.layers):
            arrays[f"{prefix}w{i}"] = layer.weights
            arrays[f"{prefix}b{i}"] = layer.bias
    write_container(path, kind=kind, meta=meta, arrays=arrays)


def _load_model(path, kind):
    cls, networks = _CHECKPOINTS[kind]
    _, meta, arrays = read_container(path, expected_kind=kind)
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: {kind} meta must be a JSON object")
    where = f"{path}: {kind} meta"
    values = {}
    for f in fields(cls):
        prefix = networks.get(f.name)
        if f.type == "list":
            arr = arrays.get(f.name)
            if arr is None:
                raise FormatError(f"{path}: {kind} has no array {f.name!r}")
            if arr.ndim != 1 or arr.dtype != np.float64:
                raise FormatError(f"{path}: {kind} array {f.name!r} must be 1-D float64")
            values[f.name] = arr.tolist()
            continue
        if prefix is None:
            values[f.name] = require_field(meta, f.name, *_META_TYPES[f.type], where)
            continue
        activations = require_field(
            meta, _activations_key(f.name, prefix), "a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(a, str) for a in v), where,
        )
        try:
            layers = [Layer(arrays[f"{prefix}w{i}"], arrays[f"{prefix}b{i}"], act)
                      for i, act in enumerate(activations)]
        except KeyError as exc:
            raise FormatError(f"{path}: {kind} has no array {exc.args[0]!r}") from None
        values[f.name] = DenseNetwork(layers)
    model = cls(**values)
    # The search splits the decoder's input gradient at latent_dim, so the
    # recorded sizes must be the networks' own.
    if cls is GenerativeModel and not (
        model.latent_dim == model.encoder.output_dim
        and 0 <= model.attribute_dim == model.decoder.input_dim - model.latent_dim
    ):
        raise FormatError(
            f"{path}: latent_dim {model.latent_dim} and attribute_dim "
            f"{model.attribute_dim} disagree with encoder output "
            f"{model.encoder.output_dim} and decoder input {model.decoder.input_dim}"
        )
    return model


def save_target(path, model):
    _save_model(path, "target-model", model)


def load_target(path):
    return _load_model(path, "target-model")


def save_discriminator(path, model):
    _save_model(path, "discriminator", model)


def load_discriminator(path):
    return _load_model(path, "discriminator")


def save_generative(path, model):
    _save_model(path, "generative-model", model)


def load_generative(path):
    return _load_model(path, "generative-model")


# The manifest keys every command resolves to a file.
_MANIFEST_PATHS = ("dataset", "target", "discriminator", "generative")


# The ``train`` fields that rebuild a TrainConfig, each with what it must be.
_MANIFEST_TRAIN = {
    "epochs": ("an integer", is_int),
    "batch_size": ("an integer", is_int),
    "learning_rate": ("a number", is_number),
    "hidden_dims": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v))),
    "hidden_activation": ("a string", lambda v: isinstance(v, str)),
}


def save_stack(out_dir, data_path, target, discriminator, gen, train_config, gen_config):
    """Write the checkpoints, each as "<key>.lcfc", and manifest.json into
    out_dir, created here; returns the manifest's path. The manifest holds
    _MANIFEST_PATHS relative to out_dir, train_config's seed, and under
    ``train`` its _MANIFEST_TRAIN fields and gen_config's settings."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"dataset": os.path.relpath(os.path.abspath(data_path), os.path.abspath(out_dir))}
    saves = (save_target, save_discriminator, save_generative)
    for key, save, model in zip(_MANIFEST_PATHS[1:], saves, (target, discriminator, gen)):
        manifest[key] = f"{key}.lcfc"
        save(os.path.join(out_dir, manifest[key]), model)
    manifest["seed"] = train_config.seed
    manifest["train"] = {
        **{key: getattr(train_config, key) for key in _MANIFEST_TRAIN},
        "latent_dim": gen_config.latent_dim,
        "gen_epochs": gen_config.epochs,
        "gen_learning_rate": gen_config.learning_rate,
        "disc_weight": gen_config.disc_weight,
        "output_activation": gen_config.output_activation,
    }
    return save_manifest(os.path.join(out_dir, "manifest.json"), manifest)


def save_manifest(path, manifest):
    """Write a manifest object to path as JSON with sorted keys; returns path."""
    _rewrite_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def load_manifest(path):
    """Read a manifest, raising FormatError unless its shape is usable, and
    return it with each of _MANIFEST_PATHS joined to the manifest's directory.

    The top level must be a JSON object, each of _MANIFEST_PATHS a string,
    and ``train``, when present, an object whose _MANIFEST_TRAIN fields, when
    present, have the listed types. Other keys are ignored.
    """
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    where = f"{path}: manifest"
    base = os.path.dirname(os.path.abspath(path))
    for key in _MANIFEST_PATHS:
        require_field(manifest, key, "a path string", lambda v: isinstance(v, str), where)
        manifest[key] = os.path.join(base, manifest[key])
    train = manifest.get("train", {})
    if not isinstance(train, dict):
        raise FormatError(f"{where} 'train' must be a JSON object")
    for key, (what, ok) in _MANIFEST_TRAIN.items():
        if key in train:
            require_field(train, key, what, ok, f"{where} 'train'")
    return manifest


def retrain_config(manifest, path):
    """The TrainConfig that manifest's ``train`` fields rebuild, the rest at
    their defaults; ConfigurationError naming path unless it validates."""
    train = manifest.get("train", {})
    config = TrainConfig(**{key: train[key] for key in _MANIFEST_TRAIN if key in train})
    try:
        config.validate()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: manifest 'train': {exc}") from None
    return config

"""Training-layer checks: classifier, discriminator, autoencoder, checkpoints."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latentcf import models
from latentcf.container import read_container, write_container
from latentcf.datasets import AttributedDataset, SynthSpec, generate
from latentcf.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    NumericalError,
    TrainingError,
    TrainingQualityWarning,
)
from latentcf.models import (
    GenerativeConfig,
    TrainConfig,
    decode,
    encode,
    load_discriminator,
    load_generative,
    load_target,
    save_discriminator,
    save_generative,
    save_target,
    train_discriminator,
    train_generative,
    train_target,
)
from latentcf.nn import (
    HIDDEN_ACTIVATIONS,
    DenseNetwork,
    build_network,
    forward,
    forward_trace,
    mean_binary_cross_entropy,
    mean_cross_entropy,
    parameter_digest,
    vjp,
)
from latentcf.nn import _FlatParams
from test_nn import sgd_step


def small_spec(**overrides):
    base = dict(
        generator="blobs",
        n_features=16,
        n_attributes=3,
        n_samples=900,
        seed=5,
        noise=0.15,
        label_attributes=(0,),
        train_frac=0.8,
        dev_frac=0.1,
    )
    base.update(overrides)
    return SynthSpec(**base)


@pytest.fixture(scope="module")
def dataset():
    return generate(small_spec())


@pytest.fixture(scope="module")
def target(dataset):
    return train_target(
        dataset, TrainConfig(epochs=60, batch_size=64, learning_rate=0.05, seed=0)
    )


@pytest.fixture(scope="module")
def disc(dataset):
    return train_discriminator(
        dataset, TrainConfig(epochs=60, batch_size=64, learning_rate=0.05, seed=1)
    )


@pytest.fixture(scope="module")
def gen(dataset, disc):
    return train_generative(
        dataset,
        disc,
        GenerativeConfig(
            latent_dim=6,
            epochs=160,
            batch_size=64,
            learning_rate=0.05,
            seed=2,
            disc_weight=4.0,
        ),
    )


class TestTargetTraining:
    def test_fits_separable_data(self, target):
        assert target.train_accuracy == 1.0
        assert target.test_accuracy >= 0.95

    def test_accuracies_match_a_one_shot_recomputation(self, dataset, target):
        for part, got in zip(("train", "dev", "test"),
                             (target.train_accuracy, target.dev_accuracy, target.test_accuracy)):
            x, _, y = dataset.part(part)
            preds = np.argmax(forward(target.network, x), axis=1)
            assert got == float(np.mean(preds == np.argmax(y, axis=1)))

    def test_beats_the_class_prior(self, dataset, target):
        _, _, y_test = dataset.part("test")
        prior = max(np.mean(y_test[:, 1]), 1.0 - np.mean(y_test[:, 1]))
        assert target.test_accuracy > prior

    def test_loss_history_trends_down(self, target):
        h = np.asarray(target.loss_history)
        assert len(h) == 60
        assert h[-10:].mean() < h[:10].mean()

    def test_warns_when_labels_are_mostly_noise(self):
        ds = generate(small_spec(noise=3.0, seed=9))
        with pytest.warns(TrainingQualityWarning):
            train_target(
                ds, TrainConfig(epochs=5, batch_size=64, learning_rate=0.05, seed=0)
            )

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(accuracy_floor=1.5).validate()

    @pytest.mark.parametrize("activation", ["foo", "softmax", "Tanh"])
    def test_hidden_activation_must_be_a_hidden_one(self, activation):
        for cfg in (TrainConfig(hidden_activation=activation),
                    GenerativeConfig(latent_dim=2, hidden_activation=activation)):
            with pytest.raises(ConfigurationError, match="hidden_activation"):
                cfg.validate()
        for ok in HIDDEN_ACTIVATIONS:
            TrainConfig(hidden_activation=ok).validate()
            GenerativeConfig(latent_dim=2, hidden_activation=ok).validate()

    @pytest.mark.parametrize("widths", [(0,), (-3,), (8, 0)])
    def test_hidden_widths_must_be_at_least_one(self, widths):
        for cfg in (TrainConfig(hidden_dims=widths),
                    GenerativeConfig(latent_dim=2, hidden_dims=widths)):
            with pytest.raises(ConfigurationError, match="hidden_dims must all be at least 1"):
                cfg.validate()
        TrainConfig(hidden_dims=(1, 8)).validate()
        GenerativeConfig(latent_dim=2, hidden_dims=()).validate()

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate_is_refused(self, lr):
        with pytest.raises(ConfigurationError, match="learning_rate"):
            TrainConfig(learning_rate=lr).validate()

    def test_predict_matches_argmax_of_probabilities(self, dataset, target):
        x = dataset.instances[:7]
        assert np.array_equal(
            target.predict(x), np.argmax(target.predict_proba(x), axis=1)
        )


class TestDiscriminator:
    def test_reads_every_attribute(self, disc):
        assert all(a >= 0.85 for a in disc.attribute_accuracy)

    def test_dev_accuracy_matches_a_one_shot_recomputation(self, dataset, disc):
        x_dev, a_dev, _ = dataset.part("dev")
        reads = forward(disc.network, x_dev) >= 0.5
        assert disc.attribute_accuracy == [float(np.mean(reads[:, j] == (a_dev[:, j] == 1.0)))
                                           for j in range(dataset.n_attributes)]

    def test_constant_attribute_warns(self):
        rng = np.random.default_rng(0)
        n = 60
        attrs = rng.integers(0, 2, size=(n, 2)).astype(np.float64)
        attrs[:, 1] = 1.0
        ds = AttributedDataset(
            instances=rng.standard_normal((n, 4)) + attrs @ np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]]),
            attributes=attrs,
            labels=np.eye(2)[attrs[:, 0].astype(int)],
            split=np.array([0] * 40 + [1] * 10 + [2] * 10, dtype=np.int8),
        )
        with pytest.warns(TrainingQualityWarning, match="constant"):
            train_discriminator(ds, TrainConfig(epochs=1, batch_size=32, learning_rate=0.01))

    def test_no_attributes_rejected(self):
        rng = np.random.default_rng(1)
        n = 30
        ds = AttributedDataset(
            instances=rng.standard_normal((n, 4)),
            attributes=np.zeros((n, 0)),
            labels=np.eye(2)[rng.integers(0, 2, size=n)],
            split=np.array([0] * 20 + [1] * 5 + [2] * 5, dtype=np.int8),
        )
        with pytest.raises(ConfigurationError):
            train_discriminator(ds, TrainConfig(epochs=1))


class TestGenerative:
    def test_discriminator_stays_frozen(self, dataset, disc):
        before = parameter_digest(disc.network)
        train_generative(
            dataset,
            disc,
            GenerativeConfig(latent_dim=4, epochs=3, batch_size=64, learning_rate=0.05, seed=3),
        )
        assert parameter_digest(disc.network) == before

    def test_attribute_consistency_holds(self, gen):
        assert gen.attribute_consistency >= 0.85

    def test_toggling_an_attribute_moves_the_reconstruction(self, dataset, gen, disc):
        """Flip one attribute bit at decode time; the discriminator should
        read the flipped value off the new instance most of the time."""
        x_train, a_train, _ = dataset.part("train")
        codes = forward(gen.encoder, x_train)
        rng = np.random.default_rng(0)
        rows = rng.choice(len(x_train), size=150, replace=False)
        hits = total = 0
        for r in rows:
            for j in range(dataset.n_attributes):
                toggled = a_train[r].copy()
                toggled[j] = 1.0 - toggled[j]
                xt = forward(gen.decoder, np.concatenate([codes[r], toggled]))
                hits += int(disc.predict(xt)[j] == toggled[j])
                total += 1
        assert hits / total >= 0.8

    def test_reported_recon_error_matches_recomputation(self, dataset, gen):
        x_train, a_train, _ = dataset.part("train")
        codes = forward(gen.encoder, x_train)
        xhat = forward(gen.decoder, np.hstack([codes, a_train]))
        dists = np.sqrt(((xhat - x_train) ** 2).sum(axis=1))
        assert_allclose(gen.final_recon_error, dists.mean(), rtol=1e-12)

    def test_final_figures_reduce_their_per_row_values_once(self, dataset, disc, gen):
        """The rows are evaluated in blocks of batch_size (64 here) and each
        figure reduces the whole split's per-row values in one call. A
        block's per-row values can differ in the last bit from a one-shot
        pass, as BLAS picks its kernel by matrix size, so the one-shot
        comparison above keeps its tolerance."""
        x_train, a_train, _ = dataset.part("train")
        dists, reads = [], []
        for start in range(0, len(x_train), 64):
            xb, ab = x_train[start : start + 64], a_train[start : start + 64]
            xhat = forward(gen.decoder, np.hstack([forward(gen.encoder, xb), ab]))
            dists.append(np.sqrt(((xhat - xb) ** 2).sum(axis=1)))
            reads.append((forward(disc.network, xhat) >= 0.5) == (ab == 1.0))
        assert gen.final_recon_error.hex() == np.concatenate(dists).mean().hex()
        assert gen.attribute_consistency == float(np.mean(np.concatenate(reads)))
        codes = forward(gen.encoder, x_train)
        xhat = forward(gen.decoder, np.hstack([codes, a_train]))
        one_shot = (forward(disc.network, xhat) >= 0.5) == (a_train == 1.0)
        assert gen.attribute_consistency == float(np.mean(one_shot))

    def test_zero_disc_weight_still_trains(self, dataset, disc):
        model = train_generative(
            dataset,
            disc,
            GenerativeConfig(
                latent_dim=4, epochs=40, batch_size=64, learning_rate=0.05,
                seed=3, disc_weight=0.0, consistency_floor=0.0,
            ),
        )
        assert model.final_recon_error < 2.0

    def test_disc_shape_mismatch_rejected(self, dataset):
        other = generate(small_spec(n_attributes=2, n_features=16))
        with warnings.catch_warnings():
            # One epoch is deliberately undertrained; quality is not the point.
            warnings.simplefilter("ignore", TrainingQualityWarning)
            wrong = train_discriminator(other, TrainConfig(epochs=1, learning_rate=0.05))
        with pytest.raises(DimensionError):
            train_generative(dataset, wrong, GenerativeConfig(latent_dim=4, epochs=1))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GenerativeConfig(latent_dim=0).validate()
        with pytest.raises(ConfigurationError):
            GenerativeConfig(latent_dim=2, disc_weight=-1.0).validate()
        with pytest.raises(ConfigurationError):
            GenerativeConfig(latent_dim=2, output_activation="relu").validate()

    @pytest.mark.parametrize("field", ["learning_rate", "disc_weight"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_and_weight_are_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            GenerativeConfig(latent_dim=2, **{field: value}).validate()


class TestEncodeDecode:
    def test_encode_copies_attributes(self, dataset, gen):
        a0 = dataset.attributes[0].copy()
        point = encode(gen, dataset.instances[0], dataset.attributes[0])
        point.attributes[0] = 0.5
        assert dataset.attributes[0, 0] == a0[0]
        assert point.code.shape == (gen.latent_dim,)

    def test_decode_round_trip_shape(self, dataset, gen):
        point = encode(gen, dataset.instances[3], dataset.attributes[3])
        x = decode(gen, point)
        assert x.shape == (dataset.n_features,)

    def test_dimension_errors(self, dataset, gen):
        with pytest.raises(DimensionError):
            encode(gen, dataset.instances[0], np.zeros(99))
        point = encode(gen, dataset.instances[0], dataset.attributes[0])
        point.code = np.zeros(gen.latent_dim + 1)
        with pytest.raises(DimensionError):
            decode(gen, point)


class TestCheckpoints:
    def test_target_round_trip(self, target, tmp_path):
        path = tmp_path / "target.lcfc"
        save_target(path, target)
        back = load_target(path)
        assert parameter_digest(back.network) == parameter_digest(target.network)
        assert back.test_accuracy == target.test_accuracy
        assert hexes(back.loss_history) == hexes(target.loss_history)

    def test_discriminator_round_trip(self, disc, tmp_path):
        path = tmp_path / "disc.lcfc"
        save_discriminator(path, disc)
        back = load_discriminator(path)
        assert parameter_digest(back.network) == parameter_digest(disc.network)
        assert hexes(back.attribute_accuracy) == hexes(disc.attribute_accuracy)

    def test_generative_round_trip(self, gen, tmp_path):
        path = tmp_path / "gen.lcfc"
        save_generative(path, gen)
        back = load_generative(path)
        assert parameter_digest(back.encoder, back.decoder) == parameter_digest(
            gen.encoder, gen.decoder
        )
        assert back.latent_dim == gen.latent_dim
        assert back.attribute_dim == gen.attribute_dim
        assert hexes(back.loss_history) == hexes(gen.loss_history)

    def test_kind_mixups_rejected(self, target, tmp_path):
        path = tmp_path / "target.lcfc"
        save_target(path, target)
        with pytest.raises(FormatError):
            load_generative(path)

    def test_identical_saves_are_byte_identical(self, target, tmp_path):
        p1, p2 = tmp_path / "a.lcfc", tmp_path / "b.lcfc"
        save_target(p1, target)
        save_target(p2, target)
        assert p1.read_bytes() == p2.read_bytes()


# The checkpoint layout that bench/reference.py reads independently: the
# meta keys and, for one hidden layer, the array names of each kind.
CHECKPOINT_LAYOUT = {
    "target-model": (
        ["activations", "dev_accuracy", "test_accuracy", "train_accuracy"],
        ["w0", "b0", "w1", "b1", "loss_history"],
    ),
    "discriminator": (["activations"], ["w0", "b0", "w1", "b1", "attribute_accuracy"]),
    "generative-model": (
        [
            "attribute_consistency",
            "attribute_dim",
            "decoder_activations",
            "encoder_activations",
            "final_recon_error",
            "latent_dim",
        ],
        ["enc_w0", "enc_b0", "enc_w1", "enc_b1", "dec_w0", "dec_b0", "dec_w1", "dec_b1",
         "loss_history"],
    ),
}

# Each kind's list field, stored as a 1-D float64 array of its own name.
CHECKPOINT_LISTS = {
    "target-model": "loss_history",
    "discriminator": "attribute_accuracy",
    "generative-model": "loss_history",
}

CHECKPOINT_IO = {
    "target-model": (save_target, load_target),
    "discriminator": (save_discriminator, load_discriminator),
    "generative-model": (save_generative, load_generative),
}

# JSON values each annotation refuses; True stands for "a bool is not a number".
_NOT_A_NUMBER = ["0.9", True, None, [0.9]]
_NOT_AN_INT = [8.0, True, "8", None]
_NOT_ACTIVATIONS = ["tanh", ["tanh", 3], None, {"0": "tanh"}]

CHECKPOINT_META_REFUSES = {
    "target-model": {
        "activations": _NOT_ACTIVATIONS,
        "train_accuracy": _NOT_A_NUMBER,
        "dev_accuracy": _NOT_A_NUMBER,
        "test_accuracy": _NOT_A_NUMBER,
    },
    "discriminator": {"activations": _NOT_ACTIVATIONS},
    "generative-model": {
        "encoder_activations": _NOT_ACTIVATIONS,
        "decoder_activations": _NOT_ACTIVATIONS,
        "latent_dim": _NOT_AN_INT,
        "attribute_dim": _NOT_AN_INT,
        "final_recon_error": _NOT_A_NUMBER,
        "attribute_consistency": _NOT_A_NUMBER,
    },
}

# What each list array must not be, as an edit of (meta, arrays, name): a
# missing, 2-D or non-float64 array, or the list kept as meta text (the
# layout before list fields became arrays), which also holds a list that is
# not numbers. float32 and int64 are dtypes the container itself refuses.
LIST_ARRAY_REFUSES = {
    "missing": lambda m, a, name: (m, _without(a, name)),
    "2-D": lambda m, a, name: (m, {**a, name: a[name].reshape(1, -1)}),
    "int8": lambda m, a, name: (m, {**a, name: a[name].astype(np.int8)}),
    "float32": lambda m, a, name: (m, {**a, name: a[name].astype(np.float32)}),
    "int64": lambda m, a, name: (m, {**a, name: a[name].astype(np.int64)}),
    "meta-list": lambda m, a, name: ({**m, name: a[name].tolist()}, _without(a, name)),
    "meta-strings": lambda m, a, name: (
        {**m, name: ["forty", None, {"a": 1}]}, _without(a, name)),
}


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def malformed_checkpoints():
    """pytest params (kind, edit) for every malformation a checkpoint load
    must refuse; edit(meta, arrays) returns the malformed (meta, arrays)."""
    cases = []
    for kind, refuses in CHECKPOINT_META_REFUSES.items():
        w1 = "enc_w1" if kind == "generative-model" else "w1"
        cases.append(pytest.param(kind, lambda m, a: (list(m), a), id=f"{kind}-meta-is-a-list"))
        cases.append(
            pytest.param(kind, lambda m, a, w1=w1: (m, _without(a, w1)), id=f"{kind}-no-{w1}")
        )
        for key, values in refuses.items():
            cases.append(
                pytest.param(
                    kind, lambda m, a, key=key: (_without(m, key), a), id=f"{kind}-no-{key}"
                )
            )
            cases.extend(
                pytest.param(
                    kind,
                    lambda m, a, key=key, value=value: ({**m, key: value}, a),
                    id=f"{kind}-{key}={value!r}",
                )
                for value in values
            )
    for kind, name in CHECKPOINT_LISTS.items():
        cases.extend(
            pytest.param(kind, lambda m, a, name=name, edit=edit: edit(m, a, name),
                         id=f"{kind}-{name}-{case}")
            for case, edit in LIST_ARRAY_REFUSES.items()
        )
    # Sizes that still sum to the decoder input, but split it at the wrong index.
    cases.append(
        pytest.param(
            "generative-model",
            lambda m, a: ({**m, "latent_dim": m["latent_dim"] + 1,
                           "attribute_dim": m["attribute_dim"] - 1}, a),
            id="generative-model-latent_dim-shifted",
        )
    )
    cases.append(
        pytest.param(
            "generative-model",
            lambda m, a: ({**m, "attribute_dim": m["attribute_dim"] + 1}, a),
            id="generative-model-attribute_dim-too-large",
        )
    )
    return cases


def write_malformed(source, dest, edit):
    """The container at source, edited, written to dest. An array of a dtype
    the container cannot store goes in as int8 bytes of the same length
    whose dtype code (three characters, as '|i1' is) is then forged."""
    kind, meta, arrays = read_container(source)
    meta, arrays = edit(meta, arrays)
    storable = ("<f8", "|i1")
    forged = [arr.dtype.str for arr in arrays.values() if arr.dtype.str not in storable]
    arrays = {name: arr if arr.dtype.str in storable else arr.view(np.int8).ravel()
              for name, arr in arrays.items()}
    write_container(dest, kind=kind, meta=meta, arrays=arrays)
    if forged:
        (code,) = forged
        blob = dest.read_bytes().replace(b'"dtype":"|i1"', f'"dtype":"{code}"'.encode())
        dest.write_bytes(blob)


@pytest.fixture(scope="module")
def checkpoint_paths(tmp_path_factory, target, disc, gen):
    root = tmp_path_factory.mktemp("checkpoints")
    paths = {}
    for kind, model in (("target-model", target), ("discriminator", disc), ("generative-model", gen)):
        paths[kind] = root / f"{kind}.lcfc"
        CHECKPOINT_IO[kind][0](paths[kind], model)
    return paths


class TestCheckpointCodec:
    @pytest.mark.parametrize("kind", sorted(CHECKPOINT_LAYOUT))
    def test_layout_is_pinned(self, checkpoint_paths, kind):
        stored_kind, meta, arrays = read_container(checkpoint_paths[kind])
        assert stored_kind == kind
        assert sorted(meta) == CHECKPOINT_LAYOUT[kind][0]
        assert list(arrays) == CHECKPOINT_LAYOUT[kind][1]

    @pytest.mark.parametrize("kind", sorted(CHECKPOINT_LAYOUT))
    def test_round_trip_keeps_every_field(self, checkpoint_paths, kind):
        model = CHECKPOINT_IO[kind][1](checkpoint_paths[kind])
        _, meta, arrays = read_container(checkpoint_paths[kind])
        for key, value in meta.items():
            if not key.endswith("activations"):
                assert getattr(model, key) == value
        name = CHECKPOINT_LISTS[kind]
        assert hexes(getattr(model, name)) == hexes(arrays[name])

    @pytest.mark.parametrize("kind", sorted(CHECKPOINT_LAYOUT))
    @pytest.mark.parametrize("values", [[-0.0, 1e-310, 1e308, 0.1, -7.25e-5], []],
                             ids=["edge-floats", "empty"])
    def test_list_fields_round_trip_bit_for_bit(self, checkpoint_paths, tmp_path, kind, values):
        save, load = CHECKPOINT_IO[kind]
        model = load(checkpoint_paths[kind])
        name = CHECKPOINT_LISTS[kind]
        setattr(model, name, values)
        save(tmp_path / "m.lcfc", model)
        back = getattr(load(tmp_path / "m.lcfc"), name)
        assert all(type(v) is float for v in back)
        assert [v.hex() for v in back] == [v.hex() for v in values]

    @pytest.mark.parametrize("kind, edit", malformed_checkpoints())
    def test_malformed_checkpoint_is_a_format_error(self, checkpoint_paths, tmp_path, kind, edit):
        bad = tmp_path / "bad.lcfc"
        write_malformed(checkpoint_paths[kind], bad, edit)
        with pytest.raises(FormatError, match="bad.lcfc"):
            CHECKPOINT_IO[kind][1](bad)

    def test_errors_name_the_field(self, checkpoint_paths, tmp_path):
        bad = tmp_path / "bad.lcfc"
        write_malformed(
            checkpoint_paths["generative-model"], bad, lambda m, a: ({**m, "latent_dim": True}, a)
        )
        with pytest.raises(FormatError, match="'latent_dim' must be an integer"):
            load_generative(bad)
        write_malformed(checkpoint_paths["target-model"], bad, lambda m, a: (m, _without(a, "b1")))
        with pytest.raises(FormatError, match="no array 'b1'"):
            load_target(bad)
        write_malformed(checkpoint_paths["discriminator"], bad,
                        lambda m, a: (m, _without(a, "attribute_accuracy")))
        with pytest.raises(FormatError, match="no array 'attribute_accuracy'"):
            load_discriminator(bad)
        write_malformed(checkpoint_paths["generative-model"], bad,
                        lambda m, a: (m, {**a, "loss_history": a["loss_history"][:, None]}))
        with pytest.raises(FormatError, match="array 'loss_history' must be 1-D float64"):
            load_generative(bad)


# --- one training loop ------------------------------------------------------


def reference_epochs(config, n, rng):
    """Each epoch's minibatches, drawn as the trainers draw them."""
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        yield epoch, [perm[s : s + config.batch_size] for s in range(0, n, config.batch_size)]


def reference_mlp(in_dim, out_dim, config, head, rng):
    hidden = list(config.hidden_dims)
    return build_network([in_dim, *hidden, out_dim],
                         [config.hidden_activation] * len(hidden) + [head], rng)


def reference_supervised(x, y, config, head, loss_fn, out_dim):
    """A classifier or discriminator trained by its own loop over the public
    forward_trace, vjp and sgd_step: (network, per-epoch mean losses)."""
    rng = np.random.default_rng(config.seed)
    net = reference_mlp(x.shape[1], out_dim, config, head, rng)
    history = []
    for _, batches in reference_epochs(config, len(x), rng):
        epoch_loss = 0.0
        for idx in batches:
            out, trace = forward_trace(net, x[idx])
            loss, grad = loss_fn(out, y[idx])
            sgd_step(net, vjp(net, trace, grad, with_input=False), config.learning_rate)
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / len(x))
    return net, history


def reference_generative(x, a, disc_net, config):
    """The autoencoder trained by its own loop: (encoder, decoder, history)."""
    k = config.latent_dim
    rng = np.random.default_rng(config.seed)
    encoder = reference_mlp(x.shape[1], k, config, "identity", rng)
    decoder = reference_mlp(k + a.shape[1], x.shape[1], config, config.output_activation, rng)
    history = []
    for _, batches in reference_epochs(config, len(x), rng):
        epoch_loss = 0.0
        for idx in batches:
            xb, ab = x[idx], a[idx]
            codes, enc_trace = forward_trace(encoder, xb)
            xhat, dec_trace = forward_trace(decoder, np.concatenate([codes, ab], axis=1))
            diff = xhat - xb
            dists = np.sqrt((diff * diff).sum(axis=1))
            loss = float(dists.mean())
            g_xhat = np.zeros_like(diff)
            nz = dists > 0
            g_xhat[nz] = diff[nz] / dists[nz, None] / len(dists)
            if config.disc_weight > 0:
                probs, disc_trace = forward_trace(disc_net, xhat)
                bce, g_probs = mean_binary_cross_entropy(probs, ab)
                loss += config.disc_weight * bce
                g_in = vjp(disc_net, disc_trace, g_probs, with_params=False).input_grad
                g_xhat = g_xhat + config.disc_weight * g_in
            dec_tape = vjp(decoder, dec_trace, g_xhat)
            enc_tape = vjp(encoder, enc_trace, dec_tape.input_grad[:, :k], with_input=False)
            sgd_step(decoder, dec_tape, config.learning_rate)
            sgd_step(encoder, enc_tape, config.learning_rate)
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / len(x))
    return encoder, decoder, history


def net_bits(*nets):
    return [(l.activation, l.weights.tobytes(), l.bias.tobytes()) for n in nets for l in n.layers]


class TestBoundedMemory:
    """A trainer's working memory does not grow with the number of rows:
    one epoch on 6,900 glyph rows peaks within 0.5 MB of one on 2,300, over
    the dataset the trainer is given."""

    @staticmethod
    def glyphs(n_samples):
        return generate(SynthSpec(generator="glyphs", n_features=256, n_attributes=4,
                                  n_samples=n_samples, seed=1, noise=0.3,
                                  label_attributes=(0,), train_frac=1600 / 2300,
                                  dev_frac=100 / 2300))

    @staticmethod
    def peak_above_current(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_rows(self):
        cfg = TrainConfig(epochs=1, batch_size=128, learning_rate=0.1, hidden_dims=(32,),
                          accuracy_floor=0.0)
        gcfg = GenerativeConfig(latent_dim=8, epochs=1, batch_size=128, learning_rate=0.1,
                                hidden_dims=(32,), output_activation="sigmoid",
                                consistency_floor=0.0)
        peaks = {}
        for n in (2300, 6900):
            ds = self.glyphs(n)
            disc = train_discriminator(ds, dataclasses.replace(cfg, seed=1))
            peaks[n] = [
                self.peak_above_current(lambda: train_target(ds, cfg)),
                self.peak_above_current(lambda: train_discriminator(ds, cfg)),
                self.peak_above_current(lambda: train_generative(ds, disc, gcfg)),
            ]
        for small, large in zip(peaks[2300], peaks[6900]):
            assert abs(large - small) <= 0.5e6, peaks


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def parity_data():
    # 160 train rows: a batch of 48 leaves a short last batch of 16.
    return generate(small_spec(n_samples=200, seed=11))


def quiet_train(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TrainingQualityWarning)
        return fn(*args)


HIDDEN = ("identity", "relu", "tanh", "sigmoid")


class TestTrainingLoopParity:
    """The trainers match their own hand-written loops bit for bit."""

    def config(self, hidden, **kw):
        return TrainConfig(epochs=3, batch_size=48, learning_rate=0.1, hidden_dims=(7,),
                           hidden_activation=hidden, **kw)

    @pytest.mark.parametrize("hidden", HIDDEN)
    def test_target(self, parity_data, hidden):
        cfg = self.config(hidden, seed=4)
        model = quiet_train(train_target, parity_data, cfg)
        x, _, y = parity_data.part("train")
        net, history = reference_supervised(x, y, cfg, "softmax", mean_cross_entropy, y.shape[1])
        assert parameter_digest(model.network) == parameter_digest(net)
        assert net_bits(model.network) == net_bits(net)
        assert hexes(model.loss_history) == hexes(history) and len(history) == 3

    @pytest.mark.parametrize("hidden", HIDDEN)
    def test_discriminator(self, parity_data, hidden):
        cfg = self.config(hidden, seed=5)
        model = quiet_train(train_discriminator, parity_data, cfg)
        x, a, _ = parity_data.part("train")
        net, _ = reference_supervised(x, a, cfg, "sigmoid", mean_binary_cross_entropy,
                                      a.shape[1])
        assert net_bits(model.network) == net_bits(net)

    @pytest.mark.parametrize("hidden", HIDDEN)
    @pytest.mark.parametrize("disc_weight", [0.0, 1.5])
    @pytest.mark.parametrize("output", ["identity", "sigmoid"])
    def test_generative(self, parity_data, disc, hidden, disc_weight, output):
        cfg = GenerativeConfig(latent_dim=3, epochs=3, batch_size=48, learning_rate=0.05,
                               hidden_dims=(7,), hidden_activation=hidden,
                               output_activation=output, disc_weight=disc_weight, seed=6)
        before = parameter_digest(disc.network)
        model = quiet_train(train_generative, parity_data, disc, cfg)
        x, a, _ = parity_data.part("train")
        encoder, decoder, history = reference_generative(x, a, disc.network, cfg)
        assert parameter_digest(disc.network) == before
        assert net_bits(model.encoder, model.decoder) == net_bits(encoder, decoder)
        assert hexes(model.loss_history) == hexes(history) and len(history) == 3


def diverge_on_call(monkeypatch, name, nth, seen):
    """Make models.<name> return a NaN loss on its nth call (from 0); every
    network whose layers run through a trace that models._bind returns is
    recorded in seen, and their digest at the moment of the NaN is stored
    under seen["digest"]."""
    real, real_bind, calls = getattr(models, name), models._bind, [0]

    def bind(layers):
        real_trace, pull = real_bind(layers)

        def trace(batch):
            seen.setdefault("nets", {})[id(layers)] = DenseNetwork(layers)
            return real_trace(batch)

        return trace, pull

    def loss(*args):
        value, grad = real(*args)
        calls[0] += 1
        if calls[0] - 1 == nth:
            seen["digest"] = parameter_digest(*seen["nets"].values())
            return float("nan"), grad
        return value, grad

    monkeypatch.setattr(models, "_bind", bind)
    monkeypatch.setattr(models, name, loss)


class TestDivergence:
    """A non-finite batch loss raises TrainingError naming the model and the
    epoch, before that batch's update is applied."""

    # 160 train rows in batches of 48: four batches an epoch, so call 5 is
    # the second batch of epoch 1.
    NTH = 5

    def test_classifier(self, parity_data, monkeypatch):
        seen = {}
        diverge_on_call(monkeypatch, "mean_cross_entropy", self.NTH, seen)
        with pytest.raises(TrainingError, match=r"^classifier loss diverged at epoch 1$"):
            train_target(parity_data, TrainConfig(epochs=3, batch_size=48))
        assert parameter_digest(*seen["nets"].values()) == seen["digest"]

    def test_discriminator(self, parity_data, monkeypatch):
        seen = {}
        diverge_on_call(monkeypatch, "mean_binary_cross_entropy", self.NTH, seen)
        with pytest.raises(TrainingError, match=r"^discriminator loss diverged at epoch 1$"):
            train_discriminator(parity_data, TrainConfig(epochs=3, batch_size=48))
        assert parameter_digest(*seen["nets"].values()) == seen["digest"]

    @pytest.mark.parametrize("disc_weight", [0.0, 1.0])
    def test_autoencoder(self, parity_data, disc, monkeypatch, disc_weight):
        seen = {}
        diverge_on_call(monkeypatch, "_recon_grad", self.NTH, seen)
        before = parameter_digest(disc.network)
        cfg = GenerativeConfig(latent_dim=3, epochs=3, batch_size=48, disc_weight=disc_weight)
        with pytest.raises(TrainingError, match=r"^autoencoder loss diverged at epoch 1$"):
            train_generative(parity_data, disc, cfg)
        # The encoder and decoder, plus the frozen discriminator when it scores.
        assert len(seen["nets"]) == (3 if disc_weight else 2)
        assert parameter_digest(*seen["nets"].values()) == seen["digest"]
        assert parameter_digest(disc.network) == before

    def test_an_infinite_reconstruction_distance(self, parity_data, disc):
        """No patching: rows far enough out overflow the distance itself."""
        x = parity_data.instances.copy()
        x[:, 0] = 1e200
        huge = AttributedDataset(x, parity_data.attributes, parity_data.labels,
                                 parity_data.split)
        cfg = GenerativeConfig(latent_dim=3, epochs=2, batch_size=48, disc_weight=0.0,
                               hidden_activation="tanh")
        with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match=r"^autoencoder loss diverged at epoch 0$"
        ):
            train_generative(huge, disc, cfg)


class TestOverflowingUpdate:
    """An update that leaves a parameter non-finite raises NumericalError at
    the step, in every trainer. No patching: a feature column of 100 and a
    learning rate of 1e308 overflow the first update of networks without
    hidden layers (a hidden layer's saturation would hide it)."""

    @pytest.fixture(scope="class")
    def loud(self, parity_data):
        x = parity_data.instances.copy()
        x[:, 0] = 100.0
        return AttributedDataset(x, parity_data.attributes, parity_data.labels,
                                 parity_data.split)

    @pytest.mark.parametrize("trainer", ["target", "discriminator", "generative"])
    def test_updated_weights(self, loud, disc, trainer):
        knobs = dict(learning_rate=1e308, hidden_dims=())
        run = {
            "target": lambda: train_target(loud, TrainConfig(**knobs)),
            "discriminator": lambda: train_discriminator(loud, TrainConfig(**knobs)),
            "generative": lambda: train_generative(
                loud, disc, GenerativeConfig(latent_dim=3, **knobs)
            ),
        }[trainer]
        with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match=r"^non-finite values in updated weights$"
        ):
            run()


class TestOneStepPerBatch:
    def test_the_autoencoder_steps_one_buffer_for_both_networks(self, parity_data, disc,
                                                                 monkeypatch):
        sizes, real_step = [], _FlatParams.step

        def step(self, lr):
            sizes.append(self.params.size)
            real_step(self, lr)

        monkeypatch.setattr(_FlatParams, "step", step)
        cfg = GenerativeConfig(latent_dim=3, epochs=2, batch_size=48, consistency_floor=0.0)
        model = train_generative(parity_data, disc, cfg)
        both = sum(l.weights.size + l.bias.size
                   for net in (model.encoder, model.decoder) for l in net.layers)
        # 160 train rows in batches of 48: four batches an epoch.
        assert sizes == [both] * 8


def retagged(ds, part, to):
    """ds with every row of part retagged as part to, leaving part empty."""
    tags = {"train": 0, "dev": 1, "test": 2}
    split = ds.split.copy()
    split[split == tags[part]] = tags[to]
    return AttributedDataset(ds.instances, ds.attributes, ds.labels, split)


class TestEmptyParts:
    """A trainer refuses a part with no rows that it reads before it trains,
    and trains without the parts it does not read."""

    READS = {"target": ("train", "dev", "test"), "discriminator": ("train", "dev"),
             "generative": ("train",)}

    @pytest.mark.parametrize("part", ["train", "dev", "test"])
    @pytest.mark.parametrize("trainer", ["target", "discriminator", "generative"])
    def test_part(self, parity_data, disc, monkeypatch, trainer, part):
        ds = retagged(parity_data, part, "dev" if part == "train" else "train")
        cfg = TrainConfig(epochs=1, batch_size=48, accuracy_floor=0.0)
        run = {
            "target": lambda: train_target(ds, cfg),
            "discriminator": lambda: train_discriminator(ds, cfg),
            "generative": lambda: train_generative(
                ds, disc, GenerativeConfig(latent_dim=3, epochs=1, consistency_floor=0.0)
            ),
        }[trainer]
        if part not in self.READS[trainer]:
            run()
            return

        def untrained(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(models, "_fit", untrained)
        with pytest.raises(ConfigurationError, match=f"^dataset has no {part} rows$"):
            run()


def masked_recon_grad(xhat, x):
    """The reconstruction gradient written with boolean-mask copies."""
    diff = xhat - x
    dists = np.sqrt((diff * diff).sum(axis=1))
    grad = np.zeros_like(diff)
    nz = dists > 0
    grad[nz] = diff[nz] / dists[nz, None] / len(dists)
    return float(dists.mean()), grad


class TestReconGrad:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_masked_formula_with_a_zero_row(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(9, 5))
        xhat = x + rng.normal(scale=0.1, size=x.shape)
        xhat[seed] = x[seed]
        value, grad = models._recon_grad(xhat, x)
        ref_value, ref_grad = masked_recon_grad(xhat, x)
        assert (grad[seed] == 0.0).all()
        assert np.count_nonzero(np.all(grad == 0.0, axis=1)) == 1
        assert value.hex() == ref_value.hex()
        assert grad.tobytes() == ref_grad.tobytes()


class TestQualityWarnings:
    """The three quality-floor warnings keep their texts."""

    def messages(self, fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn(*args)
        return [str(w.message) for w in caught if w.category is TrainingQualityWarning]

    def test_texts(self, parity_data, disc):
        cfg = TrainConfig(epochs=1, batch_size=48, accuracy_floor=1.0)
        (text,) = self.messages(train_target, parity_data, cfg)
        assert re.fullmatch(r"classifier dev accuracy \d\.\d{3} below floor 1\.0", text)
        (text,) = self.messages(train_discriminator, parity_data, cfg)
        assert re.fullmatch(r"mean per-attribute dev accuracy \d\.\d{3} below floor 1\.0",
                            text)
        gcfg = GenerativeConfig(latent_dim=2, epochs=1, batch_size=48, consistency_floor=1.0)
        (text,) = self.messages(train_generative, parity_data, disc, gcfg)
        assert re.fullmatch(r"attribute consistency \d\.\d{3} below floor 1\.0", text)

"""Search-loop checks: objective, descent, baselines, result persistence."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latentcf import applications, cli, engine
from latentcf.datasets import AttributedDataset, SynthSpec, generate
from latentcf.engine import (
    LossTrace,
    PerturbConfig,
    attribute_preservation,
    counterfactual_loss,
    gradient_sign_attack,
    input_space_descent,
    latent_descent,
    latent_random_search,
    read_results_jsonl,
    step_size,
    write_pgm,
    write_results_jsonl,
)
from latentcf.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InvariantViolation,
    NumericalError,
)
from latentcf.metrics import build_methods, run_benchmark
from latentcf.models import (
    Discriminator,
    GenerativeConfig,
    GenerativeModel,
    LatentPoint,
    TargetModel,
    TrainConfig,
    decode,
    encode,
    save_manifest,
    train_discriminator,
    train_generative,
    train_target,
)
from latentcf.nn import (
    DenseNetwork,
    Layer,
    build_network,
    cross_entropy,
    forward,
    forward_trace,
    l2_distance,
    parameter_digest,
    vjp,
)


def identity_gen(d):
    """Encoder and decoder both the identity map, no attribute block."""
    eye = lambda: DenseNetwork([Layer(np.eye(d), np.zeros(d), "identity")])
    return GenerativeModel(
        encoder=eye(),
        decoder=eye(),
        latent_dim=d,
        attribute_dim=0,
        final_recon_error=0.0,
        attribute_consistency=1.0,
    )


def linear_target(weights, bias):
    net = DenseNetwork(
        [Layer(np.asarray(weights, dtype=np.float64), np.asarray(bias, dtype=np.float64), "softmax")]
    )
    return TargetModel(
        network=net, train_accuracy=1.0, dev_accuracy=1.0, test_accuracy=1.0
    )


def stubborn_target(d):
    """Two-class target whose prediction never leaves class 0 nearby."""
    return linear_target(np.vstack([np.zeros(d), 0.1 * np.ones(d)]), [8.0, -8.0])


@pytest.fixture(scope="module")
def dataset():
    return generate(
        SynthSpec(
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
    )


@pytest.fixture(scope="module")
def target(dataset):
    return train_target(
        dataset, TrainConfig(epochs=60, batch_size=64, learning_rate=0.05, seed=0)
    )


@pytest.fixture(scope="module")
def gen(dataset):
    disc = train_discriminator(
        dataset, TrainConfig(epochs=60, batch_size=64, learning_rate=0.05, seed=1)
    )
    return train_generative(
        dataset,
        disc,
        GenerativeConfig(
            latent_dim=6, epochs=120, batch_size=64, learning_rate=0.05, seed=2
        ),
    )


def first_query(dataset, target, predicted=0):
    test_idx = dataset.indices("test")
    preds = np.argmax(forward(target.network, dataset.instances[test_idx]), axis=1)
    row = test_idx[preds == predicted][0]
    return dataset.instances[row], dataset.attributes[row]


class TestPerturbConfig:
    def test_text_profile_values(self):
        cfg = PerturbConfig()
        assert (cfg.distance_weight, cfg.code_step, cfg.attr_step) == (0.8, 1.0, 2.0)
        assert (cfg.step_decay, cfg.max_iters) == (0.95, 300)

    def test_image_profile_values(self):
        cfg = PerturbConfig.image_defaults()
        assert (cfg.distance_weight, cfg.code_step, cfg.attr_step) == (1.5, 2.0, 3.0)
        assert (cfg.step_decay, cfg.max_iters) == (0.9, 500)
        assert cfg.clip == (0.0, 1.0)

    def test_override_hook_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            PerturbConfig.image_defaults(stepsize=1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PerturbConfig(distance_weight=-0.1).validate()
        with pytest.raises(ConfigurationError):
            PerturbConfig(code_step=-1.0).validate()
        with pytest.raises(ConfigurationError):
            PerturbConfig(step_decay=0.0).validate()
        with pytest.raises(ConfigurationError):
            PerturbConfig(clip=(1.0, 0.0)).validate()

    @pytest.mark.parametrize("field", ["distance_weight", "code_step", "attr_step"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_and_steps_are_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PerturbConfig(**{field: value}).validate()

    @pytest.mark.parametrize("clip", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_clip_bounds_are_refused(self, clip):
        with pytest.raises(ConfigurationError, match="clip"):
            PerturbConfig(clip=clip).validate()

    @pytest.mark.parametrize("max_iters", [2.5, np.inf, -1, "3"])
    def test_max_iters_must_be_a_non_negative_integer(self, max_iters):
        with pytest.raises(ConfigurationError, match="max_iters"):
            PerturbConfig(max_iters=max_iters).validate()

    def test_integer_max_iters_and_infinite_clip_bounds_pass(self):
        PerturbConfig(max_iters=np.int64(3), clip=(-np.inf, np.inf)).validate()

    def test_step_schedule_closed_form(self):
        assert step_size(2.0, 0.9, 0) == 2.0
        assert_allclose(step_size(2.0, 0.9, 3), 2.0 * 0.9**3, atol=0)
        assert step_size(1.5, 1.0, 100) == 1.5


class TestCounterfactualLoss:
    def test_distance_term_vanishes_at_origin(self):
        gen = identity_gen(3)
        target = stubborn_target(3)
        origin = encode(gen, np.array([0.3, -0.2, 1.0]), np.zeros(0))
        loss = counterfactual_loss(target, gen, origin.copy(), origin, 1, 5.0)
        assert loss.distance_term == 0.0
        assert loss.total == loss.prediction_term

    def test_distance_weight_inactive_at_origin(self):
        gen = identity_gen(3)
        target = stubborn_target(3)
        origin = encode(gen, np.array([0.3, -0.2, 1.0]), np.zeros(0))
        g0 = counterfactual_loss(target, gen, origin.copy(), origin, 1, 0.0).code_grad
        g5 = counterfactual_loss(target, gen, origin.copy(), origin, 1, 5.0).code_grad
        assert_allclose(g0, g5, atol=0)

    def test_decomposition_at_a_displaced_point(self):
        gen = identity_gen(2)
        target = stubborn_target(2)
        origin = encode(gen, np.array([0.5, 0.5]), np.zeros(0))
        point = LatentPoint(np.array([2.0, -1.5]), np.zeros(0))
        loss = counterfactual_loss(target, gen, point, origin, 1, 0.8)
        expected_dist = np.sqrt(1.5**2 + 2.0**2)
        assert_allclose(loss.distance_term, expected_dist, atol=1e-15)
        assert_allclose(
            loss.total, loss.prediction_term + 0.8 * loss.distance_term, atol=1e-15
        )

    def test_gradients_match_finite_differences(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        origin = encode(gen, x0, a0)
        point = origin.copy()
        point.code = point.code + 0.1
        point.attributes = point.attributes + 0.05
        loss = counterfactual_loss(target, gen, point, origin, 1, 0.8)

        def value():
            return counterfactual_loss(
                target, gen, point, origin, 1, 0.8, with_grads=False
            ).total

        h = 1e-5
        for label, vec, grad in (
            ("code", point.code, loss.code_grad),
            ("attrs", point.attributes, loss.attr_grad),
        ):
            for i in range(vec.size):
                old = vec[i]
                vec[i] = old + h
                fp = value()
                vec[i] = old - h
                fm = value()
                vec[i] = old
                fd = (fp - fm) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-7 + 1e-4 * abs(fd), label


class TestLatentDescent:
    def test_zero_iteration_when_already_desired(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target, predicted=0)
        recon = decode(gen, encode(gen, x0, a0))
        pred = int(np.argmax(forward(target.network, recon)))
        cfg = PerturbConfig(desired=pred, clip=None)
        res = latent_descent(target, gen, x0, a0, cfg)
        assert res.flipped and res.iterations == 0
        assert len(res.loss_trace) == 1
        assert_allclose(res.latent.code, res.origin.code, atol=0)
        assert_allclose(res.sample, recon, atol=0)

    @pytest.mark.parametrize(
        "search", [latent_descent, latent_random_search],
        ids=["latent_descent", "latent_random_search"],
    )
    def test_zero_steps_walk_nowhere(self, search):
        gen = identity_gen(2)
        target = stubborn_target(2)
        cfg = PerturbConfig(code_step=0.0, attr_step=0.0, max_iters=4, desired=1)
        res = search(target, gen, np.array([0.1, 0.2]), np.zeros(0), cfg)
        assert not res.flipped
        assert res.iterations == 4
        assert len(res.loss_trace) == 5
        assert_allclose(res.latent.code, res.origin.code, atol=0)

    def test_iterates_match_a_manual_replay(self):
        gen = identity_gen(2)
        target = stubborn_target(2)
        x0 = np.array([0.4, -0.7])
        cfg = PerturbConfig(
            distance_weight=0.8, code_step=0.5, step_decay=0.9, max_iters=3, desired=1
        )
        res = latent_descent(target, gen, x0, np.zeros(0), cfg)
        origin = encode(gen, x0, np.zeros(0))
        z = origin.code.copy()
        for n in range(3):
            loss = counterfactual_loss(
                target, gen, LatentPoint(z.copy(), np.zeros(0)), origin, 1, 0.8
            )
            z = z - 0.5 * 0.9**n * loss.code_grad
        assert res.iterations == 3
        assert_allclose(res.latent.code, z, atol=1e-15)

    def test_random_iterates_match_a_manual_replay(self):
        """The random walk draws one unit direction per step from the caller's
        rng, code block first, and scales each block by its own step size."""
        k, t = 2, 2
        eye = np.eye(k + t)
        gen = GenerativeModel(
            encoder=DenseNetwork([Layer(np.eye(k), np.zeros(k), "identity")]),
            decoder=DenseNetwork([Layer(eye[:k] + eye[k:], np.zeros(k), "identity")]),
            latent_dim=k,
            attribute_dim=t,
            final_recon_error=0.0,
            attribute_consistency=1.0,
        )
        target = stubborn_target(k)
        x0, a0 = np.array([0.4, -0.7]), np.array([1.0, 0.0])
        cfg = PerturbConfig(code_step=0.5, attr_step=0.3, step_decay=0.9, max_iters=4, desired=1)
        res = latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        z, a = x0.copy(), a0.copy()
        for n in range(4):
            v = rng.standard_normal(k + t)
            v = v / np.sqrt((v * v).sum())
            z = z + 0.5 * 0.9**n * v[:k]
            a = a + 0.3 * 0.9**n * v[k:]
        assert res.iterations == 4 and not res.flipped
        assert_allclose(res.latent.code, z, rtol=0, atol=0)
        assert_allclose(res.latent.attributes, a, rtol=0, atol=0)

    def test_attribute_freeze_keeps_attributes(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        cfg = PerturbConfig(desired=1, optimize_attributes=False)
        res = latent_descent(target, gen, x0, a0, cfg)
        assert np.array_equal(res.latent.attributes, a0)

    def test_models_stay_frozen(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        before = parameter_digest(target.network, gen.encoder, gen.decoder)
        latent_descent(target, gen, x0, a0, PerturbConfig(desired=1))
        assert parameter_digest(target.network, gen.encoder, gen.decoder) == before

    def test_desired_is_required_and_checked(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        with pytest.raises(ConfigurationError):
            latent_descent(target, gen, x0, a0, PerturbConfig())
        with pytest.raises(ConfigurationError):
            latent_descent(
                target, gen, x0, a0, PerturbConfig(desired=5)
            )

    def test_trace_is_consistent(self):
        gen = identity_gen(2)
        target = stubborn_target(2)
        cfg = PerturbConfig(distance_weight=0.8, max_iters=6, desired=1)
        res = latent_descent(target, gen, np.array([0.3, 0.3]), np.zeros(0), cfg)
        assert len(res.loss_trace) == res.iterations + 1
        for total, pred, dist in res.loss_trace:
            assert_allclose(total, pred + 0.8 * dist, atol=1e-12)
        assert res.wall_time_micros >= 1


def count_bound_kernels(monkeypatch):
    """Wrap engine._bind so that each bound trace and pull records its layer
    list when called: (bound, traced, pulled). bound gets each list bound,
    traced each list run forward, and pulled one (layers, with_params,
    with_input) per pull-back."""
    bound, traced, pulled = [], [], []
    real_bind = engine._bind

    def bind(layers):
        bound.append(layers)
        trace, pull = real_bind(layers)

        def counting_trace(batch):
            traced.append(layers)
            return trace(batch)

        def counting_pull(records, grad, param_out=None, with_input=True):
            pulled.append((layers, bool(param_out), with_input))
            return pull(records, grad, param_out, with_input)

        return counting_trace, counting_pull

    monkeypatch.setattr(engine, "_bind", bind)
    return bound, traced, pulled


class TestGradientWork:
    @pytest.mark.parametrize(
        "step, max_iters, flips", [(0.01, 50, True), (0.001, 5, False)],
        ids=["flips", "out-of-budget"],
    )
    def test_one_trace_per_network_and_input_only_vjps(
        self, target, gen, dataset, monkeypatch, step, max_iters, flips
    ):
        """The search binds the decoder and the target once; each evaluation
        then runs the bound forward kernels on decoder then target once;
        each step pulls back through both records without parameter
        gradients, and the final evaluation pays no backward at all."""
        bound, traced, pulled = count_bound_kernels(monkeypatch)
        x0, a0 = first_query(dataset, target)
        cfg = PerturbConfig(
            desired=1, code_step=step, attr_step=step, step_decay=1.0, max_iters=max_iters
        )
        res = latent_descent(target, gen, x0, a0, cfg)
        assert res.flipped == flips
        assert res.iterations >= 2
        evals = len(res.loss_trace)
        assert bound == [gen.decoder.layers, target.network.layers]
        assert traced == [gen.decoder.layers, target.network.layers] * evals
        assert pulled == [
            (target.network.layers, False, True), (gen.decoder.layers, False, True)
        ] * res.iterations

    @pytest.mark.parametrize(
        "method, step, max_iters, flips",
        [
            ("input-descent", 0.02, 50, True),
            ("input-descent", 0.001, 5, False),
            ("gradient-sign", 3.0, 1, True),
            ("gradient-sign", 0.001, 1, False),
        ],
        ids=["descent-flips", "descent-out-of-budget", "sign-flips", "sign-out-of-budget"],
    )
    def test_instance_searches_trace_the_target_alone(
        self, target, gen, dataset, monkeypatch, method, step, max_iters, flips
    ):
        """Input-space descent and the sign attack run the same loop with no
        decoder: per evaluation one bound target trace, per step one
        input-only pull-back through it, none after the last evaluation,
        and none of the checked nn wrappers, which engine does not even
        import."""
        for name in ("forward", "forward_trace", "vjp", "cross_entropy"):
            assert not hasattr(engine, name), name
        bound, traced, pulled = count_bound_kernels(monkeypatch)
        x0, a0 = first_query(dataset, target)
        if method == "gradient-sign":
            res = gradient_sign_attack(target, gen, x0, a0, step, desired=1)
        else:
            cfg = PerturbConfig(
                desired=1, code_step=step, step_decay=1.0, max_iters=max_iters
            )
            res = input_space_descent(target, gen, x0, a0, cfg)
        assert res.flipped == flips
        assert res.iterations >= min(2, max_iters)
        evals = len(res.loss_trace)
        assert bound == [[], target.network.layers]
        assert traced == [[], target.network.layers] * evals
        assert pulled == [(target.network.layers, False, True), ([], False, True)] * res.iterations


# --- the parent formulation, from public nn functions only ------------------


def reference_evaluate(target, gen, point, origin, desired, weight):
    """The objective as a plain composition of forward_trace, cross_entropy,
    l2_distance and vjp: (terms, probabilities, sample, grads)."""
    u = np.concatenate([point.code, point.attributes])
    sample, dec_trace = forward_trace(gen.decoder, u)
    probs, target_trace = forward_trace(target.network, sample)
    onehot = np.zeros(target.network.output_dim)
    onehot[desired] = 1.0
    pred, g_probs = cross_entropy(probs, onehot)
    code_dist, g_code = l2_distance(point.code, origin.code)
    attr_dist, g_attr = l2_distance(point.attributes, origin.attributes)
    dist = code_dist + attr_dist

    def grads():
        g_sample = vjp(target.network, target_trace, g_probs, with_params=False).input_grad
        g_u = vjp(gen.decoder, dec_trace, g_sample, with_params=False).input_grad
        k = gen.latent_dim
        return g_u[:k] + weight * g_code, g_u[k:] + weight * g_attr

    return (pred + weight * dist, pred, dist), probs, sample, grads


def reference_walk(target, gen, x0, a0, cfg, step):
    """The latent search loop over reference_evaluate: (sample, point,
    origin, loss trace, iterations, predicted class)."""
    origin = encode(gen, x0, a0)
    point = origin.copy()
    trace, n = [], 0
    while True:
        terms, probs, sample, grads = reference_evaluate(
            target, gen, point, origin, cfg.desired, cfg.distance_weight
        )
        trace.append(terms)
        if int(np.argmax(probs)) == cfg.desired or n >= cfg.max_iters:
            break
        step(point, n, grads)
        n += 1
    return sample, point, origin, trace, n, int(np.argmax(probs))


def reference_descent_step(cfg):
    def step(point, n, grads):
        code_grad, attr_grad = grads()
        point.code = point.code - cfg.code_step * cfg.step_decay**n * code_grad
        if cfg.optimize_attributes:
            point.attributes = point.attributes - cfg.attr_step * cfg.step_decay**n * attr_grad

    return step


def reference_random_step(cfg, rng):
    def step(point, n, grads):
        k, t = point.code.size, point.attributes.size
        v = rng.standard_normal(k + t)
        v = v / np.sqrt((v * v).sum())
        point.code = point.code + cfg.code_step * cfg.step_decay**n * v[:k]
        point.attributes = point.attributes + cfg.attr_step * cfg.step_decay**n * v[k:]

    return step


def reference_input_descent(target, x0, cfg):
    """Input-space descent as its own loop over forward_trace, cross_entropy,
    l2_distance and vjp: (sample, loss trace, iterations, predicted class)."""
    onehot = np.zeros(target.network.output_dim)
    onehot[cfg.desired] = 1.0
    x = x0.copy()
    trace, n = [], 0
    while True:
        probs, probs_trace = forward_trace(target.network, x)
        pred, g_probs = cross_entropy(probs, onehot)
        dist, g_dist = l2_distance(x, x0)
        trace.append((pred + cfg.distance_weight * dist, pred, dist))
        if int(np.argmax(probs)) == cfg.desired or n >= cfg.max_iters:
            break
        g_x = vjp(target.network, probs_trace, g_probs, with_params=False).input_grad
        x -= cfg.code_step * cfg.step_decay**n * (g_x + cfg.distance_weight * g_dist)
        if cfg.clip is not None:
            x = np.clip(x, cfg.clip[0], cfg.clip[1])
        n += 1
    return x, trace, n, int(np.argmax(probs))


def bits(*arrays):
    return [(np.asarray(a).dtype, np.asarray(a).shape, np.asarray(a).tobytes()) for a in arrays]


HIDDEN = ("identity", "relu", "tanh", "sigmoid")


def small_stack(hidden, seed, saturate=False, features=5, width=4, classes=3,
                decoder_out="identity", decoder_gain=1.0):
    """A seeded stack, 5 features by default: encoder to a 3-dim code,
    decoder from the code plus 2 attributes to the features through
    decoder_out, and a 3-class softmax target, each with one hidden layer
    of width units of the given activation and random biases. saturate
    scales the target's output layer until its probabilities sit at the
    clamp; decoder_gain scales every decoder weight."""
    rng = np.random.default_rng(seed)
    d, k, t = features, 3, 2

    def net(dims, out):
        built = build_network(dims, [hidden, out], rng)
        for layer in built.layers:
            layer.bias[:] = rng.uniform(-0.5, 0.5, layer.bias.shape)
        return built

    gen = GenerativeModel(
        encoder=net([d, width, k], "identity"),
        decoder=net([k + t, width, d], decoder_out),
        latent_dim=k,
        attribute_dim=t,
        final_recon_error=0.0,
        attribute_consistency=1.0,
    )
    for layer in gen.decoder.layers:
        layer.weights *= decoder_gain
    target_net = net([d, width, classes], "softmax")
    if saturate:
        target_net.layers[-1].weights *= 1e4
        target_net.layers[-1].bias *= 1e4
    target = TargetModel(target_net, 1.0, 1.0, 1.0)
    x0 = rng.uniform(-1.0, 1.0, d)
    a0 = rng.integers(0, 2, t).astype(np.float64)
    return target, gen, x0, a0


STACKS = {
    **{hidden: dict(hidden=hidden, seed=i) for i, hidden in enumerate(HIDDEN)},
    "tanh-saturated": dict(hidden="tanh", seed=2, saturate=True),
    # Glyph-shaped: a 144-pixel sigmoid-output decoder feeding a tanh
    # classifier. The gain makes its walks flip toward some classes, after
    # 1 to 34 steps, and run out of budget toward others.
    **{
        f"glyph-{classes}class": dict(hidden="tanh", seed=seed, features=144, width=32,
                                      classes=classes, decoder_out="sigmoid", decoder_gain=10.0)
        for classes, seed in ((2, 6), (3, 5))
    },
}


def walk_configs(target, gen, x0, a0, **overrides):
    """One walk config toward each class that the reconstruction of x0 is
    not classified as."""
    recon = decode(gen, encode(gen, x0, a0))
    predicted = int(np.argmax(forward(target.network, recon)))
    fields = dict(distance_weight=0.3, code_step=0.4, attr_step=0.3, step_decay=0.97,
                  max_iters=40)
    fields.update(overrides)
    return [PerturbConfig(desired=c, **fields)
            for c in range(target.network.output_dim) if c != predicted]


class TestParityWithThePublicComposition:
    """The searches and counterfactual_loss give the same bytes as the same
    objective composed from the public, checked nn functions."""

    @pytest.mark.parametrize("stack", list(STACKS))
    @pytest.mark.parametrize("frozen", [False, True], ids=["descent", "descent-frozen"])
    def test_latent_descent(self, stack, frozen):
        target, gen, x0, a0 = small_stack(**STACKS[stack])
        for cfg in walk_configs(target, gen, x0, a0, optimize_attributes=not frozen):
            res = latent_descent(target, gen, x0, a0, cfg)
            sample, point, origin, trace, n, predicted = reference_walk(
                target, gen, x0, a0, cfg, reference_descent_step(cfg)
            )
            assert res.iterations == n >= 1
            assert (res.predicted_class, res.flipped) == (predicted, predicted == cfg.desired)
            assert bits(res.sample, res.latent.code, res.latent.attributes, res.origin.code,
                        res.origin.attributes, res.loss_trace) == bits(
                sample, point.code, point.attributes, origin.code, origin.attributes, trace)

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_latent_random_search(self, stack):
        target, gen, x0, a0 = small_stack(**STACKS[stack])
        for cfg in walk_configs(target, gen, x0, a0):
            res = latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(3))
            sample, point, origin, trace, n, predicted = reference_walk(
                target, gen, x0, a0, cfg, reference_random_step(cfg, np.random.default_rng(3))
            )
            assert res.iterations == n >= 1
            assert res.predicted_class == predicted
            assert bits(res.sample, res.latent.code, res.latent.attributes,
                        res.loss_trace) == bits(sample, point.code, point.attributes, trace)

    @pytest.mark.parametrize("stack", list(STACKS))
    @pytest.mark.parametrize("where", ["origin", "code-only", "displaced"])
    def test_counterfactual_loss(self, stack, where):
        target, gen, x0, a0 = small_stack(**STACKS[stack])
        origin = encode(gen, x0, a0)
        rng = np.random.default_rng(11)
        point = origin.copy()
        if where != "origin":
            point.code = point.code + rng.normal(0.0, 0.5, point.code.shape)
        if where == "displaced":
            point.attributes = point.attributes + rng.normal(0.0, 0.5, point.attributes.shape)
        for desired in range(target.network.output_dim):
            loss = counterfactual_loss(target, gen, point, origin, desired, 0.7)
            (total, pred, dist), probs, sample, grads = reference_evaluate(
                target, gen, point, origin, desired, 0.7
            )
            code_grad, attr_grad = grads()
            assert bits(loss.total, loss.prediction_term, loss.distance_term) == bits(
                total, pred, dist)
            assert bits(loss.probabilities, loss.sample, loss.code_grad, loss.attr_grad) == bits(
                probs, sample, code_grad, attr_grad)
            if STACKS[stack].get("saturate"):
                # At the clamp the prediction term is flat.
                assert not (0.0 < probs[desired] < 1.0)
            if where == "origin":
                assert loss.distance_term == 0.0

    def test_length_mismatches_are_dimension_errors(self):
        target, gen, x0, a0 = small_stack("tanh", 0)
        origin = encode(gen, x0, a0)
        code, attrs = origin.code, origin.attributes
        for point in (
            # The same total width as the decoder's input, split differently.
            LatentPoint(np.append(code, 0.0), attrs[:-1]),
            LatentPoint(code[:-1], np.append(attrs, 0.0)),
            LatentPoint(code[:-1], attrs),
            LatentPoint(code, np.append(attrs, 0.0)),
        ):
            with pytest.raises(DimensionError):
                counterfactual_loss(target, gen, point, origin, 1, 0.7)

    def test_a_decoder_that_does_not_feed_the_classifier(self):
        target, gen, x0, a0 = small_stack("tanh", 0)
        origin = encode(gen, x0, a0)
        # The decoder now emits 2 features; the classifier reads 5.
        gen.decoder.layers.append(Layer(np.ones((2, 5)), np.zeros(2), "identity"))
        with pytest.raises(DimensionError, match="do not chain"):
            latent_descent(target, gen, x0, a0, PerturbConfig(desired=1))
        with pytest.raises(DimensionError, match="do not chain"):
            counterfactual_loss(target, gen, origin, origin, 1, 0.7)

    @pytest.mark.parametrize("stack", list(STACKS))
    @pytest.mark.parametrize("clip", [None, (-1.0, 1.0)], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("budget", [False, True], ids=["flip", "budget"])
    def test_input_space_descent(self, stack, clip, budget):
        spec = STACKS[stack]
        target, gen, x0, a0 = small_stack(**spec)
        ranked = np.argsort(forward(target.network, x0))
        for desired in ranked[:-1]:
            cfg = PerturbConfig(distance_weight=0.3, code_step=0.05 if budget else 1.0,
                                step_decay=0.97, max_iters=3 if budget else 60,
                                desired=int(desired), clip=clip)
            res = input_space_descent(target, gen, x0, a0, cfg)
            sample, trace, n, predicted = reference_input_descent(target, x0, cfg)
            if desired == ranked[-2]:
                # Toward the runner-up, the sigmoid stack and the saturated
                # one (flat at the clamp) never flip.
                assert res.flipped == (
                    not budget and spec["hidden"] != "sigmoid" and not spec.get("saturate"))
            assert res.iterations == n >= 1
            if budget:
                assert n == cfg.max_iters
            assert res.predicted_class == predicted
            latent, origin = encode(gen, sample, a0), encode(gen, x0, a0)
            assert bits(res.sample, res.latent.code, res.latent.attributes, res.origin.code,
                        res.origin.attributes, res.loss_trace) == bits(
                sample, latent.code, latent.attributes, origin.code, origin.attributes, trace)

    def test_consecutive_searches_share_no_memory(self):
        target, gen, x0, a0 = small_stack("relu", 1)
        cfg = walk_configs(target, gen, x0, a0)[0]
        arrays = [x0]
        for _ in range(2):
            res = latent_descent(target, gen, x0, a0, cfg)
            arrays += [res.sample, res.latent.code, res.latent.attributes,
                       res.origin.code, res.origin.attributes]
        for _ in range(2):
            res = input_space_descent(target, gen, x0, a0, cfg)
            arrays += [res.sample, res.latent.code, res.origin.code]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)


def overflow_stack(kind):
    """A 2-feature, 2-class stack with one attribute (0 at the query) whose
    search overflows at a chosen place. The decoder's identity layers map
    u = [c0, c1, a] to [c0, c1]; the target prefers class 0 without
    saturating, so the descent takes a step with a non-zero gradient."""
    eye = np.eye(2)
    huge = 1e308
    dec_weights = np.hstack([eye, np.zeros((2, 1))])
    dec_layers, tgt_layers = [], []
    tgt_weights, tgt_bias = np.array([[0.0, 0.0], [-0.5, -0.5]]), np.array([2.0, -2.0])
    if kind == "decoder-output":
        # -inf features, which the target's relu layer (all-ones weights,
        # so no inf * 0) turns into zeros: only the decoder's own check
        # sees the overflow.
        dec_weights[:, :2] = -huge
        tgt_layers = [Layer(np.ones((2, 2)), np.zeros(2), "relu")]
    elif kind == "classifier-output":
        tgt_weights = np.full((2, 2), huge)
    elif kind == "decoder-pull-back":
        # The attribute column adds nothing forward while a = 0 and
        # overflows the reverse sweep; once a random step moves a, the
        # second layer's gain overflows the forward pass.
        dec_weights[:, 2] = huge
        dec_layers = [Layer(10.0 * eye, np.zeros(2), "identity")]
    elif kind == "classifier-pull-back":
        # The decoder leaves feature 1 at 0, so its huge target column adds
        # nothing forward and overflows the reverse sweep.
        dec_weights[1] = 0.0
        tgt_weights[:, 1] = [huge, -huge]
    gen = GenerativeModel(
        encoder=DenseNetwork([Layer(eye, np.zeros(2), "identity")]),
        decoder=DenseNetwork([Layer(dec_weights, np.zeros(2), "identity")] + dec_layers),
        latent_dim=2,
        attribute_dim=1,
        final_recon_error=0.0,
        attribute_consistency=1.0,
    )
    target = TargetModel(
        DenseNetwork(tgt_layers + [Layer(tgt_weights, tgt_bias, "softmax")]), 1.0, 1.0, 1.0
    )
    return target, gen, np.array([1.0, 1.0]), np.zeros(1)


class TestNonFiniteSearch:
    """Every finite check of a search step fires inside the search: the
    decoder output, the classifier output and the latent input gradient,
    which also catches an overflow in the classifier's reverse sweep."""

    @pytest.mark.parametrize(
        "kind, descent_message",
        [
            ("decoder-output", "forward output"),
            ("classifier-output", "forward output"),
            ("decoder-pull-back", "input gradient"),
        ],
    )
    def test_both_latent_searches_raise(self, kind, descent_message):
        target, gen, x0, a0 = overflow_stack(kind)
        cfg = PerturbConfig(desired=1, max_iters=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=descent_message):
                latent_descent(target, gen, x0, a0, cfg)
            with pytest.raises(NumericalError, match="forward output"):
                latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(0))

    def test_classifier_pull_back_overflow_is_caught(self):
        target, gen, x0, a0 = overflow_stack("classifier-pull-back")
        cfg = PerturbConfig(desired=1, max_iters=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="input gradient"):
                latent_descent(target, gen, x0, a0, cfg)

    @pytest.mark.parametrize(
        "kind, x0, message",
        [
            ("classifier-output", [1.0, 1.0], "forward output"),
            # Feature 1 at 0, as the decoder leaves it in the latent searches.
            ("classifier-pull-back", [1.0, 0.0], "input gradient"),
        ],
    )
    def test_input_descent_raises(self, kind, x0, message):
        target, gen, _, a0 = overflow_stack(kind)
        cfg = PerturbConfig(desired=1, max_iters=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=message):
                input_space_descent(target, gen, np.array(x0), a0, cfg)

    def test_the_overflow_stacks_are_finite_without_the_overflow(self):
        """With the huge weights scaled down, the same stacks search without
        a NumericalError, so the errors above come from the overflow."""
        for kind in ("decoder-output", "classifier-output", "decoder-pull-back",
                     "classifier-pull-back"):
            target, gen, x0, a0 = overflow_stack(kind)
            for layer in target.network.layers + gen.decoder.layers:
                layer.weights[np.abs(layer.weights) > 1e300] /= 1e306
            cfg = PerturbConfig(desired=1, max_iters=5)
            latent_descent(target, gen, x0, a0, cfg)
            latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(0))
            input_space_descent(target, gen, x0, a0, cfg)
            input_space_descent(target, gen, np.array([1.0, 0.0]), a0, cfg)


class TestRandomSearch:
    def test_same_seed_reproduces_the_walk(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        cfg = PerturbConfig(desired=1, max_iters=30)
        a = latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(5))
        b = latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(5))
        assert np.array_equal(a.latent.code, b.latent.code)
        assert a.iterations == b.iterations
        assert bits(a.loss_trace) == bits(b.loss_trace)

    def test_first_move_has_exactly_step_size_norm(self):
        gen = identity_gen(3)
        target = stubborn_target(3)
        cfg = PerturbConfig(code_step=0.7, max_iters=1, desired=1)
        res = latent_random_search(
            target, gen, np.array([0.1, 0.1, 0.1]), np.zeros(0), cfg,
            rng=np.random.default_rng(0),
        )
        if res.iterations == 1:
            moved = np.sqrt(((res.latent.code - res.origin.code) ** 2).sum())
            assert_allclose(moved, 0.7, atol=1e-12)

    def test_models_stay_frozen(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        before = parameter_digest(target.network, gen.encoder, gen.decoder)
        latent_random_search(
            target, gen, x0, a0, PerturbConfig(desired=1, max_iters=10)
        )
        assert parameter_digest(target.network, gen.encoder, gen.decoder) == before


class TestGradientSign:
    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -0.5])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        gen = identity_gen(2)
        target = linear_target(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        with pytest.raises(ConfigurationError, match="epsilon"):
            gradient_sign_attack(target, gen, np.zeros(2), np.zeros(0), epsilon, desired=1)

    def test_zero_epsilon_returns_the_instance(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        res = gradient_sign_attack(target, gen, x0, a0, 0.0, desired=1)
        assert np.array_equal(res.sample, x0)
        assert not res.flipped

    @staticmethod
    def class_one_stack():
        """A two-class target that puts its instance in class 1."""
        gen = identity_gen(3)
        target = linear_target(np.array([[1.0, -2.0, 0.5], [-1.0, 1.0, 2.0]]), [0.2, -0.2])
        x0 = np.array([0.3, 0.8, -0.5])
        assert target.predict(x0) == 1
        return target, gen, x0

    def test_step_is_signed_gradient_times_epsilon(self):
        target, gen, x0 = self.class_one_stack()
        res = gradient_sign_attack(target, gen, x0, np.zeros(0), 0.25, desired=0)
        probs = forward(target.network, x0)
        onehot = np.array([1.0, 0.0])
        _, g_probs = cross_entropy(probs, onehot)
        g_x = vjp(target.network, forward_trace(target.network, x0)[1], g_probs).input_grad
        assert_allclose(res.sample, x0 - 0.25 * np.sign(g_x), atol=0)
        assert_allclose(np.abs(res.sample - x0).max(), 0.25, atol=1e-15)
        assert res.iterations == 1
        assert len(res.loss_trace) == 2

    def test_already_desired_instance_is_not_stepped(self):
        target, gen, x0 = self.class_one_stack()
        res = gradient_sign_attack(target, gen, x0, np.zeros(0), 0.25, desired=1)
        assert np.array_equal(res.sample, x0)
        assert res.flipped and res.iterations == 0
        assert len(res.loss_trace) == 1

    @pytest.mark.parametrize("desired", [-1, 2])
    def test_desired_out_of_range_rejected(self, desired):
        target, gen, x0 = self.class_one_stack()
        with pytest.raises(ConfigurationError, match="out of range"):
            gradient_sign_attack(target, gen, x0, np.zeros(0), 0.25, desired=desired)

    @pytest.mark.parametrize("clip", [(1.0, 0.0), (0.0, 0.0), (np.nan, 1.0)])
    def test_bad_clip_rejected(self, clip):
        target, gen, x0 = self.class_one_stack()
        with pytest.raises(ConfigurationError, match="clip"):
            gradient_sign_attack(target, gen, x0, np.zeros(0), 0.25, desired=0, clip=clip)

    @pytest.mark.parametrize("shape", [(2,), (1, 3), (2, 3)])
    def test_instance_shape_is_checked(self, shape):
        target, gen, _ = self.class_one_stack()
        for desired in (None, 0):
            with pytest.raises(DimensionError, match="instance has shape"):
                gradient_sign_attack(target, gen, np.zeros(shape), np.zeros(0), 0.25, desired)

    @pytest.mark.parametrize("clip", [None, (-0.4, 0.4)])
    def test_trace_distance_is_the_distance_moved(self, clip):
        target, gen, x0 = self.class_one_stack()
        res = gradient_sign_attack(target, gen, x0, np.zeros(0), 0.25, desired=0, clip=clip)
        assert [entry[2] for entry in res.loss_trace] == [
            0.0, float(np.sqrt(((res.sample - x0) ** 2).sum()))
        ]
        assert res.loss_trace[-1][2] > 0.0

    def test_clip_bounds_respected(self):
        gen = identity_gen(2)
        target = linear_target(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        res = gradient_sign_attack(
            target, gen, np.array([0.05, 0.95]), np.zeros(0), 0.5, desired=1,
            clip=(0.0, 1.0),
        )
        assert res.sample.min() >= 0.0
        assert res.sample.max() <= 1.0

    def test_negative_epsilon_rejected(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        with pytest.raises(ConfigurationError):
            gradient_sign_attack(target, gen, x0, a0, -0.1)

    def test_two_class_desired_defaults_to_complement(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target, predicted=0)
        res = gradient_sign_attack(target, gen, x0, a0, 0.1)
        assert res.desired_class == 1

    def test_multiclass_requires_desired(self):
        gen = identity_gen(2)
        target = linear_target(np.eye(3, 2), np.zeros(3))
        with pytest.raises(ConfigurationError):
            gradient_sign_attack(target, gen, np.zeros(2), np.zeros(0), 0.1)

    def test_latent_fields_are_encodings(self):
        gen = identity_gen(2)
        target = linear_target(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        x0 = np.array([0.3, -0.4])
        res = gradient_sign_attack(target, gen, x0, np.zeros(0), 0.2, desired=1)
        assert_allclose(res.origin.code, x0, atol=0)
        assert_allclose(res.latent.code, res.sample, atol=0)


class TestInputDescent:
    def test_flips_a_separable_query_quickly(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target, predicted=0)
        cfg = PerturbConfig(desired=1)
        res = input_space_descent(target, gen, x0, a0, cfg)
        assert res.flipped
        assert res.iterations <= 50

    def test_zero_step_identity(self):
        gen = identity_gen(2)
        target = stubborn_target(2)
        cfg = PerturbConfig(code_step=0.0, max_iters=3, desired=1)
        res = input_space_descent(target, gen, np.array([0.4, 0.1]), np.zeros(0), cfg)
        assert np.array_equal(res.sample, np.array([0.4, 0.1]))
        assert res.iterations == 3

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 2)])
    def test_instance_shape_is_checked(self, shape):
        gen = identity_gen(2)
        cfg = PerturbConfig(max_iters=3, desired=1)
        with pytest.raises(DimensionError):
            input_space_descent(stubborn_target(2), gen, np.zeros(shape), np.zeros(0), cfg)

    @pytest.mark.parametrize("bad", [dict(step_decay=0.0), dict(desired=None), dict(desired=2)])
    def test_config_fails_before_the_shape_check(self, bad):
        cfg = dataclasses.replace(PerturbConfig(max_iters=3, desired=1), **bad)
        with pytest.raises(ConfigurationError):
            input_space_descent(stubborn_target(2), identity_gen(2), np.zeros(3), np.zeros(0),
                                cfg)

    def test_clip_applied_to_iterates(self):
        gen = identity_gen(2)
        target = stubborn_target(2)
        cfg = PerturbConfig(code_step=5.0, max_iters=4, desired=1, clip=(0.0, 1.0))
        res = input_space_descent(target, gen, np.array([0.5, 0.5]), np.zeros(0), cfg)
        assert res.sample.min() >= 0.0
        assert res.sample.max() <= 1.0


def threshold_disc(t):
    """Reads attribute j as [instance coordinate j >= 0.5]."""
    net = DenseNetwork([Layer(10.0 * np.eye(t), -5.0 * np.ones(t), "sigmoid")])
    return Discriminator(network=net, attribute_accuracy=[1.0] * t)


def fake_result(sample, origin_attrs, flipped=True):
    point = LatentPoint(np.zeros(1), np.asarray(sample, dtype=np.float64))
    return dataclasses.replace(
        latent_result_template,
        sample=np.asarray(sample, dtype=np.float64),
        latent=point,
        origin=LatentPoint(np.zeros(1), np.asarray(origin_attrs, dtype=np.float64)),
        flipped=flipped,
    )


from latentcf.engine import CounterfactualResult  # noqa: E402

latent_result_template = CounterfactualResult(
    sample=np.zeros(2),
    latent=LatentPoint(np.zeros(1), np.zeros(2)),
    origin=LatentPoint(np.zeros(1), np.zeros(2)),
    flipped=True,
    iterations=1,
    predicted_class=1,
    desired_class=1,
    loss_trace=[(0.0, 0.0, 0.0)],
    wall_time_micros=1,
    method="latent-descent",
)


class TestAttributePreservation:
    def test_counts_matches_per_attribute(self):
        disc = threshold_disc(2)
        results = [
            fake_result([0.9, 0.9], [1.0, 1.0]),  # both preserved
            fake_result([0.9, 0.1], [1.0, 1.0]),  # second lost
        ]
        full, per_attr = attribute_preservation(disc, results)
        assert full == 0.5
        assert_allclose(per_attr, [1.0, 0.5], atol=0)

    @pytest.mark.parametrize("exclude", [(1,), {1}, iter([1])], ids=["tuple", "set", "iterator"])
    def test_exclusion_ignores_label_attributes(self, exclude):
        disc = threshold_disc(2)
        results = [
            fake_result([0.9, 0.1], [1.0, 1.0]),
            fake_result([0.9, 0.1], [1.0, 1.0]),
        ]
        full, _ = attribute_preservation(disc, results, exclude=exclude)
        assert full == 1.0

    def test_out_of_range_exclude_rejected(self):
        disc = threshold_disc(2)
        with pytest.raises(ConfigurationError):
            attribute_preservation(disc, [fake_result([0.9, 0.9], [1.0, 1.0])], exclude=(7,))

    def test_unflipped_results_do_not_count(self):
        disc = threshold_disc(2)
        full, per_attr = attribute_preservation(
            disc, [fake_result([0.9, 0.9], [1.0, 1.0], flipped=False)]
        )
        assert full == 0.0
        assert per_attr == []


class TestResultPersistence:
    def test_jsonl_round_trip_is_exact(self, target, gen, dataset, tmp_path):
        x0, a0 = first_query(dataset, target)
        cfg = PerturbConfig(desired=1)
        results = [
            latent_descent(target, gen, x0, a0, cfg, query_index=3),
            gradient_sign_attack(target, gen, x0, a0, 0.5, desired=1, query_index=4),
        ]
        path = tmp_path / "results.jsonl"
        write_results_jsonl(path, results)
        back = read_results_jsonl(path)
        assert len(back) == 2
        for orig, rt in zip(results, back):
            assert np.array_equal(rt.sample, orig.sample)
            assert np.array_equal(rt.latent.code, orig.latent.code)
            assert np.array_equal(rt.origin.code, orig.origin.code)
            assert rt.method == orig.method
            assert rt.query_index == orig.query_index
            assert type(rt.loss_trace) is LossTrace
            assert bits(rt.loss_trace) == bits(orig.loss_trace)

    def test_malformed_jsonl_line_is_named(self, target, gen, dataset, tmp_path):
        x0, a0 = first_query(dataset, target)
        result = latent_descent(target, gen, x0, a0, PerturbConfig(desired=1))
        path = tmp_path / "results.jsonl"
        write_results_jsonl(path, [result])
        good = path.read_text()
        for bad, message in [
            ("[1]", "must be a JSON object"),
            ('{"method": "x"}', "no 'flipped' field"),
            ('{"sample": [1], "code": "x"}', "no 'method' field"),
            (good.replace('"flipped": ', '"flipped": "yes", "was": '), "'flipped' must be"),
            (good[: len(good) // 2], "not JSON: "),
        ]:
            path.write_text(good + bad + "\n")
            with pytest.raises(FormatError, match=f"results.jsonl:2: .*{message}"):
                read_results_jsonl(path)

    @pytest.fixture
    def record(self, target, gen, dataset):
        """One well-formed results-JSONL record, as a dict."""
        x0, a0 = first_query(dataset, target)
        return engine.result_to_dict(latent_descent(target, gen, x0, a0, PerturbConfig(desired=1)))

    @pytest.mark.parametrize("key", list(engine._RESULT_FIELDS))
    def test_every_field_is_required_and_checked(self, record, tmp_path, key):
        # The record's values of a JSON type other than this key's.
        others = [v for v in record.values() if type(v) is not type(record[key])]
        path = tmp_path / "results.jsonl"
        good = json.dumps(record) + "\n"
        bad = [({k: v for k, v in record.items() if k != key}, f"result has no {key!r} field")]
        bad += [({**record, key: v}, f"result field {key!r} must be ") for v in (None, others[0])]
        for line, message in bad:
            path.write_text(good + json.dumps(line) + "\n")
            with pytest.raises(FormatError, match=f"results.jsonl:2: {message}"):
                read_results_jsonl(path)

    def test_the_writer_writes_exactly_the_keys_the_reader_requires(self, target, gen, dataset):
        x0, a0 = first_query(dataset, target)
        cfg = PerturbConfig(desired=1, clip=(0.0, 1.0))
        for result in (latent_descent(target, gen, x0, a0, cfg),
                       input_space_descent(target, gen, x0, a0, cfg),
                       gradient_sign_attack(target, gen, x0, a0, 0.5, desired=1)):
            record = engine.result_to_dict(result)
            assert record.keys() == engine._RESULT_FIELDS.keys()
            assert engine.result_to_dict(engine.result_from_dict(record)) == record

    def test_pgm_output_is_exact(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([0.0, 1.0, 0.5, 0.25]))
        assert path.read_text() == "P2\n2 2\n255\n0 255\n128 64\n"

    def test_pgm_requires_square_length(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_pgm(tmp_path / "img.pgm", np.zeros(3))

    @pytest.mark.parametrize(
        "lo, hi", [(0.5, 0.5), (1.0, 0.0), (np.nan, 1.0), (0.0, np.inf)],
        ids=["empty", "reversed", "nan", "unbounded"],
    )
    def test_pgm_rejects_a_bad_grey_range(self, tmp_path, lo, hi):
        path = tmp_path / "img.pgm"
        with pytest.raises(ConfigurationError, match="lo < hi"):
            write_pgm(path, np.zeros(4), lo=lo, hi=hi)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pgm_rejects_a_non_finite_pixel(self, tmp_path, bad):
        path = tmp_path / "img.pgm"
        with pytest.raises(NumericalError):
            write_pgm(path, np.array([0.0, 1.0, bad, 0.5]))
        assert not path.exists()


def rewrite_writers(target, gen, dataset):
    """Each text writer as write(path, n): a larger n writes a longer file."""
    x0, a0 = first_query(dataset, target)
    cfg = PerturbConfig(desired=1)
    results = [latent_descent(target, gen, x0, a0, cfg, query_index=i) for i in range(3)]
    return {
        "results": lambda path, n: write_results_jsonl(path, results[:n]),
        "pgm": lambda path, n: write_pgm(path, np.linspace(0.0, 1.0, (n + 1) ** 2)),
        "manifest": lambda path, n: save_manifest(path, {"dataset": "d" * n}),
        "cli-out": lambda path, n: cli._write_out({"out": str(path)}, "out", "report\n" * n),
    }


class TestRewriteInPlace:
    """Every text output is rewritten in place: no O_TRUNC, the new bytes
    over the old ones, and the file cut to the new length."""

    WRITERS = ("results", "pgm", "manifest", "cli-out")

    @pytest.mark.parametrize("writer", WRITERS)
    def test_short_text_over_a_longer_file_equals_a_fresh_write(
        self, target, gen, dataset, tmp_path, writer
    ):
        write = rewrite_writers(target, gen, dataset)[writer]
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        write(fresh, 1)
        write(reused, 3)
        assert reused.stat().st_size > fresh.stat().st_size
        write(reused, 1)
        assert reused.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("writer", WRITERS)
    def test_opens_without_truncation(self, target, gen, dataset, tmp_path, monkeypatch, writer):
        write = rewrite_writers(target, gen, dataset)[writer]
        path = tmp_path / "out"
        write(path, 3)
        opened = []
        real_open = os.open

        def recording_open(file, flags, *args, **kwargs):
            opened.append((os.fspath(file), flags))
            return real_open(file, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        write(path, 1)
        flags = [f for name, f in opened if name == str(path)]
        assert len(flags) == 1
        assert flags[0] & os.O_TRUNC == 0
        assert flags[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT


class TestLossTrace:
    """A result's loss trace is a read-only (n, 3) float64 array whose truth
    value means "has rows" and whose comparisons give plain arrays."""

    ENTRIES = [(1.0, 0.5, 0.25), (2.0, 1.5, 0.5), (3.0, 2.5, 0.75)]

    def trace(self):
        return LossTrace.of(self.ENTRIES)

    @pytest.mark.parametrize("entries", [ENTRIES, ENTRIES[:1], [], np.array(ENTRIES)],
                             ids=["three", "one", "empty", "array"])
    def test_a_read_only_float64_copy_of_n_rows(self, entries):
        trace = LossTrace.of(entries)
        assert isinstance(trace, LossTrace) and isinstance(trace, np.ndarray)
        assert trace.dtype == np.float64 and trace.shape == (len(entries), 3)
        assert trace.flags.owndata and not trace.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            trace[..., 0] = 0.0

    @pytest.mark.parametrize("i", range(-3, 3))
    def test_indexing(self, i):
        assert np.array_equal(self.trace()[i], self.ENTRIES[i])
        assert self.trace()[i, 0] == self.ENTRIES[i][0]

    @pytest.mark.parametrize("i", [3, 4, -4, -7])
    def test_index_past_either_end(self, i):
        with pytest.raises(IndexError):
            self.trace()[i]

    @pytest.mark.parametrize(
        "part", [slice(None, -1), slice(1, None), slice(None, None, -1), slice(0, 3, 2),
                 slice(5, 9), slice(2, 1)],
    )
    def test_slices(self, part):
        sliced = self.trace()[part]
        assert isinstance(sliced, LossTrace) and not sliced.flags.writeable
        assert bits(sliced) == bits(np.array(self.ENTRIES).reshape(-1, 3)[part])
        assert bool(sliced) == bool(self.ENTRIES[part])

    def test_truthiness(self):
        assert not LossTrace.of([]) and len(LossTrace.of([])) == 0
        assert not self.trace()[3:]
        assert LossTrace.of(self.ENTRIES[:1]) and self.trace()

    def test_iteration_yields_rows(self):
        rows = list(self.trace())
        assert len(rows) == 3
        for row, entry in zip(rows, self.ENTRIES):
            assert row.shape == (3,) and tuple(row.tolist()) == entry

    def test_equality_is_a_plain_bool_array(self):
        trace = self.trace()
        changed = LossTrace.of(self.ENTRIES[:2] + [(3.0, 2.5, 0.5)])
        same = trace == LossTrace.of(self.ENTRIES)
        differ = trace == changed
        for result in (same, differ, trace != changed, trace == self.ENTRIES):
            assert type(result) is np.ndarray and result.dtype == bool
            assert result.shape == (3, 3)
        assert same.all() and not differ.all() and differ.sum() == 8
        assert type(trace.sum()) is np.float64 and type(trace[:, 0] * 2) is np.ndarray
        assert np.array_equal(trace, self.ENTRIES) and not np.array_equal(trace, changed)

    def test_as_an_array(self):
        assert bits(self.trace()) == bits(self.ENTRIES)

    @pytest.mark.parametrize(
        "entries", [[(1.0, 2.0)], [(1.0, 2.0, 3.0), (1.0, 2.0)], [()], [1.0, 2.0, 3.0],
                    [[(1.0, 2.0, 3.0)]], np.zeros((3, 2)), np.zeros(6)],
        ids=["pair", "ragged", "empty-entry", "flat", "nested", "two-columns", "flat-array"],
    )
    def test_entries_hold_three_numbers(self, entries):
        with pytest.raises(ValueError):
            LossTrace.of(entries)

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        values = [(0.1, 1 / 3, 5e-324), (-0.0, 1e308, 2.0**0.5)]
        result = dataclasses.replace(latent_result_template, loss_trace=LossTrace.of(values))
        write_results_jsonl(tmp_path / "r.jsonl", [result])
        (back,) = read_results_jsonl(tmp_path / "r.jsonl")
        assert isinstance(back.loss_trace, LossTrace) and not back.loss_trace.flags.writeable
        assert bits(back.loss_trace) == bits(values)

    def test_a_budget_exhausted_walk_keeps_at_most_32_bytes_per_entry(self):
        target, gen = stubborn_target(4), identity_gen(4)
        x0, a0 = np.full(4, 0.1), np.zeros(0)
        cfg = PerturbConfig(code_step=0.7, max_iters=500, desired=1)
        latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(0))
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = latent_random_search(target, gen, x0, a0, cfg, rng=rng)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (res.flipped, res.iterations, len(res.loss_trace)) == (False, 500, 501)
        assert held <= 32 * len(res.loss_trace)


def private_stack(target, gen):
    """Copies of the shared target and autoencoder that a test may mutate."""
    return (
        dataclasses.replace(target, network=target.network.copy()),
        dataclasses.replace(gen, encoder=gen.encoder.copy(), decoder=gen.decoder.copy()),
    )


FROZEN_NETS = {
    "target": lambda t, g: t.network,
    "encoder": lambda t, g: g.encoder,
    "decoder": lambda t, g: g.decoder,
}


def nudge_weight(net):
    w = net.layers[0].weights
    w[0, 0] = np.nextafter(w[0, 0], np.inf)


def nudge_bias(net):
    b = net.layers[-1].bias
    b[-1] = np.nextafter(b[-1], -np.inf)


def flip_zero_sign(net):
    net.layers[0].bias[0] = -0.0


def change_activation(net):
    layer = net.layers[0]
    layer.activation = "relu" if layer.activation != "relu" else "tanh"


def append_layer(net):
    d = net.output_dim
    net.layers.append(Layer(np.eye(d), np.zeros(d), "identity"))


MUTATIONS = {
    "weight-ulp": nudge_weight,
    "bias-ulp": nudge_bias,
    "zero-sign": flip_zero_sign,
    "activation": change_activation,
    "appended-layer": append_layer,
}


class TestFrozenGuard:
    """The snapshot flags exactly what the parameter digest flags."""

    def test_mutated_target_detected(self, target, gen):
        t, g = private_stack(target, gen)
        snapshot = engine._frozen_snapshot(t, g)
        nudge_weight(t.network)
        with pytest.raises(InvariantViolation):
            engine._check_frozen(snapshot, t, g, "probe")

    def test_unchanged_models_pass(self, target, gen):
        engine._check_frozen(engine._frozen_snapshot(target, gen), target, gen, "probe")

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("which", sorted(FROZEN_NETS))
    def test_mutation_detected_like_the_digest(self, target, gen, which, mutation):
        t, g = private_stack(target, gen)
        net = FROZEN_NETS[which](t, g)
        net.layers[0].bias[0] = 0.0  # a +0.0 for the zero-sign flip
        snapshot = engine._frozen_snapshot(t, g)
        digest = parameter_digest(t.network, g.encoder, g.decoder)
        MUTATIONS[mutation](net)
        assert parameter_digest(t.network, g.encoder, g.decoder) != digest
        with pytest.raises(InvariantViolation, match="probe modified frozen model parameters"):
            engine._check_frozen(snapshot, t, g, "probe")

    def test_snapshot_holds_copies(self, target, gen):
        t, g = private_stack(target, gen)
        snapshot = engine._frozen_snapshot(t, g)
        for net in (t.network, g.encoder, g.decoder):
            for layer in net.layers:
                kept = (layer.weights.copy(), layer.bias.copy())
                layer.weights *= 2.0
                layer.bias += 1.0
                with pytest.raises(InvariantViolation):
                    engine._check_frozen(snapshot, t, g, "probe")
                layer.weights[...], layer.bias[...] = kept
                engine._check_frozen(snapshot, t, g, "probe")


SEARCHES = {
    "latent-descent": lambda t, g, x0, a0: latent_descent(
        t, g, x0, a0, PerturbConfig(desired=1)
    ),
    "latent-descent-frozen": lambda t, g, x0, a0: latent_descent(
        t, g, x0, a0, PerturbConfig(desired=1, optimize_attributes=False),
        method="latent-descent-frozen",
    ),
    "latent-random": lambda t, g, x0, a0: latent_random_search(
        t, g, x0, a0, PerturbConfig(desired=1, max_iters=20),
        rng=np.random.default_rng(0),
    ),
    "gradient-sign": lambda t, g, x0, a0: gradient_sign_attack(t, g, x0, a0, 0.5, desired=1),
    "input-descent": lambda t, g, x0, a0: input_space_descent(
        t, g, x0, a0, PerturbConfig(desired=1)
    ),
}


class TestMidSearchMutation:
    @pytest.mark.parametrize("which", sorted(FROZEN_NETS))
    @pytest.mark.parametrize("method", sorted(SEARCHES))
    def test_search_raises(self, monkeypatch, target, gen, dataset, method, which):
        x0, a0 = first_query(dataset, target)
        t, g = private_stack(target, gen)
        net = FROZEN_NETS[which](t, g)

        def nudging_encode(*args, **kwargs):
            nudge_weight(net)
            return encode(*args, **kwargs)

        monkeypatch.setattr(engine, "encode", nudging_encode)
        with pytest.raises(InvariantViolation, match=f"{method} modified frozen model parameters"):
            SEARCHES[method](t, g, x0, a0)

    @pytest.mark.parametrize("method", sorted(SEARCHES))
    def test_untouched_search_passes(self, target, gen, dataset, method):
        x0, a0 = first_query(dataset, target)
        t, g = private_stack(target, gen)
        assert SEARCHES[method](t, g, x0, a0).method == method


class TestDesiredClass:
    """engine.desired_class is the one home of the default desired class:
    the class not predicted, for a two-class target only."""

    def two_class_target(self):
        return TargetModel(build_network([5, 2], ["softmax"], np.random.default_rng(0)),
                           1.0, 1.0, 1.0)

    def test_complement_of_the_prediction(self):
        target = self.two_class_target()
        assert engine.desired_class(target, 0) == 1
        assert engine.desired_class(target, 1) == 0
        assert np.array_equal(engine.desired_class(target, np.array([0, 1, 1])), [1, 0, 0])

    @pytest.mark.parametrize("two_classes", [True, False])
    def test_a_given_class_wins(self, two_classes):
        target = self.two_class_target() if two_classes else small_stack("tanh", 0)[0]
        assert engine.desired_class(target, 1, desired=1) == 1

    def refusal(self, call):
        with pytest.raises(ConfigurationError) as exc:
            call()
        return str(exc.value)

    def three_class_dataset(self, rng):
        n = 30
        return AttributedDataset(
            instances=rng.uniform(-1.0, 1.0, (n, 5)),
            attributes=rng.integers(0, 2, (n, 2)).astype(np.float64),
            labels=np.eye(3)[np.arange(n) % 3],
            split=np.repeat(np.array([0, 1, 2], dtype=np.int8), 10),
        )

    def test_every_caller_refuses_three_classes_with_one_message(self, monkeypatch):
        target, gen, x0, a0 = small_stack("tanh", 0)
        dataset = self.three_class_dataset(np.random.default_rng(1))
        message = self.refusal(lambda: engine.desired_class(target, 0))
        assert "3-class" in message

        def no_search(*args, **kwargs):
            raise AssertionError("searched before refusing")

        monkeypatch.setattr(applications, "latent_descent", no_search)
        calls = [
            lambda: gradient_sign_attack(target, gen, x0, a0, 0.1),
            lambda: run_benchmark(dataset, target, gen, build_methods(PerturbConfig())[:1],
                                  n_queries=1),
            # Refused before the first search, however many rows are asked for.
            lambda: applications.augment_with_counterfactuals(
                dataset, target, gen, 0, PerturbConfig()),
            lambda: applications.augment_with_counterfactuals(
                dataset, target, gen, 3, PerturbConfig()),
        ]
        assert [self.refusal(call) for call in calls] == [message] * len(calls)

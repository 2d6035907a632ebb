"""Release gate: nine end-to-end criteria, one verdict line each.

The fixtures rebuild the stock benchmark stack from its recipe, so this
file doubles as an executable record of the published comparison numbers.
Each test prints a single PASS or FAIL line into the terminal summary via
the conftest hook, then asserts.
"""

import dataclasses
import gc
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import record_verdict
from latentcf.applications import attribute_interaction_ranking, augment_with_counterfactuals
from latentcf.datasets import generate, load_dataset, save_dataset
from latentcf.engine import (
    PerturbConfig,
    counterfactual_loss,
    gradient_sign_attack,
    input_space_descent,
    latent_descent,
    latent_random_search,
    read_results_jsonl,
    write_results_jsonl,
)
from latentcf.errors import PartialResultWarning
from latentcf.metrics import alpha_sweep, benchmark_recipe, build_methods, run_benchmark
from latentcf.models import (
    GenerativeModel,
    LatentPoint,
    TargetModel,
    encode,
    load_generative,
    load_target,
    save_generative,
    save_target,
    train_discriminator,
    train_generative,
    train_target,
)
from latentcf.nn import (
    DenseNetwork,
    build_network,
    cross_entropy,
    forward,
    forward_trace,
    l2_distance,
    parameter_digest,
    vjp,
)

from test_engine import identity_gen, linear_target


@pytest.fixture(scope="module")
def recipe():
    return benchmark_recipe()


@pytest.fixture(scope="module")
def stack(recipe):
    dataset = generate(recipe.spec)
    target = train_target(dataset, recipe.target_config)
    disc = train_discriminator(dataset, recipe.disc_config)
    gen = train_generative(dataset, disc, recipe.gen_config)
    return dataset, target, disc, gen


@pytest.fixture(scope="module")
def timed_report(recipe, stack):
    dataset, target, _, gen = stack
    methods = build_methods(recipe.perturb, epsilon=recipe.epsilon)
    # Collect first, so that a full collection owed by earlier allocations
    # (tens of ms in a whole-suite run) does not land inside one method's
    # timed pass and inflate that method's mean per query.
    gc.collect()
    t0 = time.perf_counter()
    report = run_benchmark(
        dataset,
        target,
        gen,
        methods,
        n_queries=recipe.n_queries,
        seed=recipe.seed,
        desired_class=recipe.desired_class,
    )
    return report, time.perf_counter() - t0


def tolerance_fraction(analytic, fd):
    """Error as a fraction of the mixed tolerance; must stay below 1."""
    return abs(analytic - fd) / (1e-7 + 1e-4 * abs(fd))


def central_difference(value, vec, i, h=1e-5):
    old = vec[i]
    vec[i] = old + h
    fp = value()
    vec[i] = old - h
    fm = value()
    vec[i] = old
    return (fp - fm) / (2 * h)


def relu_kinks_clear(net, x):
    """Reject draws whose relu pre-activations sit near the kink."""
    h = x
    for layer in net.layers:
        pre = layer.weights @ h + layer.bias
        if layer.activation == "relu" and np.abs(pre).min() < 1e-2:
            return False
        h = forward(DenseNetwork([layer]), h)
    return True


class TestCriterion1:
    def test_gradient_oracle(self):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        stacks = 0
        worst = 0.0

        hidden_pool = ("identity", "tanh", "sigmoid", "relu")
        for _ in range(40):
            depth = int(rng.integers(1, 4))
            dims = [int(v) for v in rng.integers(2, 6, size=depth + 1)]
            acts = [str(rng.choice(hidden_pool)) for _ in range(depth - 1)]
            acts.append(str(rng.choice(("identity", "tanh", "softmax"))))
            net = build_network(dims, acts, rng)
            for _ in range(50):
                x = rng.normal(size=dims[0])
                if relu_kinks_clear(net, x):
                    break
            else:
                pytest.fail("could not draw an input clear of relu kinks")
            c = rng.normal(size=dims[-1])
            value = lambda: float(c @ forward(net, x))
            tape = vjp(net, forward_trace(net, x)[1], c)
            for i in range(x.size):
                fd = central_difference(value, x, i)
                worst = max(worst, tolerance_fraction(tape.input_grad[i], fd))
            for layer, (d_w, d_b) in zip(net.layers, tape.param_grads):
                flat_w = layer.weights.reshape(-1)
                flat_g = d_w.reshape(-1)
                for i in range(flat_w.size):
                    fd = central_difference(value, flat_w, i)
                    worst = max(worst, tolerance_fraction(flat_g[i], fd))
                for i in range(layer.bias.size):
                    fd = central_difference(value, layer.bias, i)
                    worst = max(worst, tolerance_fraction(d_b[i], fd))
            stacks += 1

        for _ in range(12):
            d, k, t = 5, 3, 2
            enc = build_network((d, 4, k), ("tanh", "identity"), rng)
            dec = build_network((k + t, 4, d), ("tanh", "identity"), rng)
            gen = GenerativeModel(
                encoder=enc, decoder=dec, latent_dim=k, attribute_dim=t,
                final_recon_error=0.0, attribute_consistency=1.0,
            )
            target = TargetModel(
                network=build_network((d, 4, 2), ("tanh", "softmax"), rng),
                train_accuracy=1.0, dev_accuracy=1.0, test_accuracy=1.0,
            )
            origin = encode(gen, rng.normal(size=d), rng.integers(0, 2, size=t).astype(float))
            point = LatentPoint(
                origin.code + rng.normal(scale=0.3, size=k),
                origin.attributes + rng.normal(scale=0.3, size=t),
            )
            loss = counterfactual_loss(target, gen, point, origin, 1, 0.8)
            value = lambda: counterfactual_loss(
                target, gen, point, origin, 1, 0.8, with_grads=False
            ).total
            for vec, grad in ((point.code, loss.code_grad), (point.attributes, loss.attr_grad)):
                for i in range(vec.size):
                    fd = central_difference(value, vec, i)
                    worst = max(worst, tolerance_fraction(grad[i], fd))
            stacks += 1

        for _ in range(8):
            logits = rng.uniform(-3, 3, size=4)
            p = np.exp(logits) / np.exp(logits).sum()
            y = np.eye(4)[int(rng.integers(4))]
            _, grad = cross_entropy(p, y)
            value = lambda: cross_entropy(p, y)[0]
            for i in range(4):
                fd = central_difference(value, p, i)
                worst = max(worst, tolerance_fraction(grad[i], fd))

        for _ in range(8):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            _, grad = l2_distance(u, v)
            value = lambda: l2_distance(u, v)[0]
            for i in range(5):
                fd = central_difference(value, u, i)
                worst = max(worst, tolerance_fraction(grad[i], fd))

        elapsed = time.perf_counter() - started
        ok = stacks >= 50 and worst < 1.0 and elapsed < 60.0
        record_verdict(
            f"criterion 1 (gradient oracle): {'PASS' if ok else 'FAIL'} "
            f"({stacks} random stacks, worst error at {worst:.2f} of tolerance, "
            f"{elapsed:.1f}s)"
        )
        assert ok


class TestCriterion2:
    def test_identity_reduction_matches_plain_descent(self):
        d = 3
        gen = identity_gen(d)
        weights = np.array([[0.05, -0.04, 0.02], [0.06, 0.11, -0.03]])
        bias = np.array([8.0, -8.0])
        target = linear_target(weights, bias)
        x0 = np.array([0.3, -0.2, 0.5])
        alpha, mu, beta = 0.8, 0.5, 0.95
        onehot = np.array([0.0, 1.0])

        # Plain-loop twin: softmax cross-entropy and unit-vector distance
        # gradients written out directly, no shared machinery.
        z = x0.copy()
        trajectory = []
        for n in range(100):
            logits = weights @ z + bias
            expd = np.exp(logits - logits.max())
            p = expd / expd.sum()
            grad = weights.T @ (p - onehot)
            diff = z - x0
            nrm = np.sqrt((diff**2).sum())
            if nrm > 0:
                grad = grad + alpha * diff / nrm
            z = z - mu * beta**n * grad
            trajectory.append(z.copy())

        worst = 0.0
        for n in range(1, 101):
            cfg = PerturbConfig(
                distance_weight=alpha, code_step=mu, step_decay=beta,
                max_iters=n, desired=1,
            )
            res = latent_descent(target, gen, x0, np.zeros(0), cfg)
            assert res.iterations == n
            worst = max(worst, float(np.abs(res.latent.code - trajectory[n - 1]).max()))
        ok = worst < 1e-10
        record_verdict(
            f"criterion 2 (identity-space reduction): {'PASS' if ok else 'FAIL'} "
            f"(max iterate gap {worst:.2e} over 100 steps)"
        )
        assert ok


class TestCriterion3:
    def test_flip_rates(self, timed_report):
        report, elapsed = timed_report
        fr = {name: s.flipping_ratio for name, s in report.per_method.items()}
        ok = (
            fr["latent-descent"] >= 0.8
            and fr["latent-descent"] > fr["latent-random"] + 0.3
            and fr["gradient-sign"] >= fr["latent-descent"]
            and elapsed < 600.0
        )
        record_verdict(
            f"criterion 3 (flip rates): {'PASS' if ok else 'FAIL'} "
            f"(descent {fr['latent-descent']:.3f}, random {fr['latent-random']:.3f}, "
            f"sign {fr['gradient-sign']:.3f}, run {elapsed:.1f}s)"
        )
        assert ok


class TestCriterion4:
    def test_latent_sparsity(self, timed_report):
        report, _ = timed_report
        lpr = {name: s.mean_latent_perturbation for name, s in report.per_method.items()}
        ok = (
            lpr["latent-descent"] < lpr["gradient-sign"]
            and lpr["latent-descent"] <= lpr["latent-descent-frozen"]
        )
        record_verdict(
            f"criterion 4 (latent sparsity): {'PASS' if ok else 'FAIL'} "
            f"(descent {lpr['latent-descent']:.4f} < sign {lpr['gradient-sign']:.4f}, "
            f"frozen {lpr['latent-descent-frozen']:.4f})"
        )
        assert ok


class TestCriterion5:
    def test_single_step_attack_is_faster(self, timed_report):
        report, _ = timed_report
        micros = {name: s.mean_micros_per_query for name, s in report.per_method.items()}
        ok = 1 <= micros["gradient-sign"] < micros["latent-descent"]
        record_verdict(
            f"criterion 5 (speed): {'PASS' if ok else 'FAIL'} "
            f"(sign {micros['gradient-sign']} us < descent {micros['latent-descent']} us)"
        )
        assert ok


class TestCriterion6:
    def test_distance_weight_sweep_endpoints(self, recipe, stack):
        dataset, target, _, gen = stack
        weights = (0.0, 0.4, 0.8, 1.5, 3.0)
        points = alpha_sweep(
            dataset,
            target,
            gen,
            recipe.perturb,
            weights,
            n_queries=100,
            seed=recipe.seed,
            desired_class=recipe.desired_class,
        )
        assert [p.distance_weight for p in points] == list(weights)
        ok = (
            points[0].flipping_ratio >= points[-1].flipping_ratio
            and points[0].mean_latent_perturbation >= points[-1].mean_latent_perturbation
        )
        record_verdict(
            f"criterion 6 (weight sweep): {'PASS' if ok else 'FAIL'} "
            f"(FR {points[0].flipping_ratio:.3f}->{points[-1].flipping_ratio:.3f}, "
            f"LPR {points[0].mean_latent_perturbation:.4f}->"
            f"{points[-1].mean_latent_perturbation:.4f})"
        )
        assert ok


class TestCriterion7:
    def test_label_attribute_ranks_in_top_two(self, recipe):
        spec = dataclasses.replace(recipe.spec, label_attributes=(0,))
        dataset = generate(spec)
        target = train_target(dataset, recipe.target_config)
        disc = train_discriminator(dataset, recipe.disc_config)
        gen = train_generative(dataset, disc, recipe.gen_config)
        test_idx = dataset.indices("test")
        preds = np.argmax(forward(target.network, dataset.instances[test_idx]), axis=1)
        rows = test_idx[preds != 1][:200]
        assert len(rows) == 200
        cfg = dataclasses.replace(recipe.perturb, desired=1)
        hits = 0
        flips = 0
        for row in rows:
            res = latent_descent(
                target, gen, dataset.instances[row], dataset.attributes[row], cfg,
                query_index=int(row),
            )
            if not res.flipped:
                continue
            flips += 1
            ranking = attribute_interaction_ranking(res)
            if 0 in (ranking[0].index, ranking[1].index):
                hits += 1
        rate = hits / flips if flips else 0.0
        ok = flips > 0 and rate >= 0.8
        record_verdict(
            f"criterion 7 (label attribute ranking): {'PASS' if ok else 'FAIL'} "
            f"(top-2 rate {rate:.3f} over {flips} flips)"
        )
        assert ok


class TestCriterion8:
    def test_augmentation_keeps_accuracy(self, recipe):
        spec = dataclasses.replace(
            recipe.spec, n_samples=2500, train_frac=0.8, dev_frac=0.08
        )
        dataset = generate(spec)
        disc = train_discriminator(dataset, recipe.disc_config)
        gen = train_generative(dataset, disc, recipe.gen_config)
        base_runs, aug_runs = [], []
        for s in range(5):
            cfg = dataclasses.replace(recipe.target_config, seed=s)
            base = train_target(dataset, cfg)
            base_runs.append(base.test_accuracy)
            with warnings.catch_warnings():
                warnings.simplefilter("error", PartialResultWarning)
                augmented = augment_with_counterfactuals(
                    dataset, base, gen, 200, recipe.perturb, seed=s
                )
            assert augmented.metadata["augmented_tail"] == 200
            aug_runs.append(train_target(augmented, cfg).test_accuracy)
        base_mean, base_std = float(np.mean(base_runs)), float(np.std(base_runs))
        aug_mean, aug_std = float(np.mean(aug_runs)), float(np.std(aug_runs))
        ok = aug_mean >= base_mean - 0.005
        record_verdict(
            f"criterion 8 (augmentation): {'PASS' if ok else 'FAIL'} "
            f"(base {base_mean:.4f}+/-{base_std:.4f}, "
            f"augmented {aug_mean:.4f}+/-{aug_std:.4f}, 5 seeds)"
        )
        assert ok


class TestCriterion9:
    def test_determinism_and_round_trips(self, recipe, stack, tmp_path):
        dataset, target, disc, gen = stack
        problems = []

        digest_before = parameter_digest(target.network, gen.encoder, gen.decoder)
        test_idx = dataset.indices("test")
        preds = np.argmax(forward(target.network, dataset.instances[test_idx]), axis=1)
        row = int(test_idx[preds != 1][0])
        x0, a0 = dataset.instances[row], dataset.attributes[row]
        cfg = dataclasses.replace(recipe.perturb, desired=1)
        results = [
            latent_descent(target, gen, x0, a0, cfg),
            latent_descent(
                target, gen, x0, a0,
                dataclasses.replace(cfg, optimize_attributes=False),
                method="latent-descent-frozen",
            ),
            latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(0)),
            gradient_sign_attack(target, gen, x0, a0, recipe.epsilon, desired=1),
            input_space_descent(target, gen, x0, a0, cfg),
        ]
        if parameter_digest(target.network, gen.encoder, gen.decoder) != digest_before:
            problems.append("search mutated frozen parameters")

        methods = build_methods(recipe.perturb, epsilon=recipe.epsilon)
        a = run_benchmark(dataset, target, gen, methods, n_queries=40, seed=5, desired_class=1)
        b = run_benchmark(dataset, target, gen, methods, n_queries=40, seed=5, desired_class=1)
        if a.to_json(include_timing=False) != b.to_json(include_timing=False):
            problems.append("same-seed benchmark reports differ")

        p1, p2 = tmp_path / "d1.lcfc", tmp_path / "d2.lcfc"
        save_dataset(p1, dataset)
        save_dataset(p2, dataset)
        if p1.read_bytes() != p2.read_bytes():
            problems.append("dataset serialization is unstable")
        loaded = load_dataset(p1)
        if not (
            np.array_equal(loaded.instances, dataset.instances)
            and np.array_equal(loaded.attributes, dataset.attributes)
            and np.array_equal(loaded.labels, dataset.labels)
            and np.array_equal(loaded.split, dataset.split)
        ):
            problems.append("dataset round-trip is not bit-exact")

        save_target(tmp_path / "t.lcfc", target)
        save_generative(tmp_path / "g.lcfc", gen)
        t2 = load_target(tmp_path / "t.lcfc")
        g2 = load_generative(tmp_path / "g.lcfc")
        if parameter_digest(t2.network, g2.encoder, g2.decoder) != digest_before:
            problems.append("checkpoint round-trip changed parameters")

        write_results_jsonl(tmp_path / "r.jsonl", results)
        back = read_results_jsonl(tmp_path / "r.jsonl")
        same = len(back) == len(results) and all(
            np.array_equal(r1.sample, r2.sample)
            and np.array_equal(r1.latent.code, r2.latent.code)
            and r1.method == r2.method
            for r1, r2 in zip(results, back)
        )
        if not same:
            problems.append("results round-trip lost information")

        ok = not problems
        detail = "digests stable, reruns and round-trips byte-identical" if ok else "; ".join(problems)
        record_verdict(f"criterion 9 (determinism): {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, problems

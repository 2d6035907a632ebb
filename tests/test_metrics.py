"""Benchmark plumbing: ratios, method table, report runs, sweeps."""

import dataclasses
import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latentcf.datasets import SynthSpec, generate
from latentcf.engine import PerturbConfig
from latentcf import metrics
from latentcf.errors import ConfigurationError
from latentcf.metrics import (
    alpha_sweep,
    benchmark_recipe,
    build_methods,
    flipping_ratio,
    latent_perturbation_ratio,
    latent_threshold,
    run_benchmark,
    sweep_to_json,
)
from latentcf.models import GenerativeConfig, TrainConfig, train_discriminator, train_generative, train_target
from latentcf.nn import forward

from test_engine import identity_gen


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


@pytest.fixture(scope="module")
def methods():
    cfg = PerturbConfig(max_iters=60)
    return build_methods(cfg, epsilon=1.0)


class TestFlippingRatio:
    def test_fraction_of_flipped(self):
        results = [SimpleNamespace(flipped=True)] * 350 + [
            SimpleNamespace(flipped=False)
        ] * 150
        assert flipping_ratio(results) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            flipping_ratio([])


class TestLatentThreshold:
    def test_scaled_train_std_per_coordinate(self):
        gen = identity_gen(3)
        instances = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
        assert_allclose(latent_threshold(gen, instances), 1e-3 * np.array([1.0, 2.0, 3.0]), atol=0)
        assert_allclose(latent_threshold(gen, instances, scale=0.5), [0.5, 1.0, 1.5], atol=0)

    def test_rows_in_blocks_give_the_one_shot_std(self):
        # More rows than one block, and an identity encoder, whose codes are
        # the rows themselves in any block.
        x = np.random.default_rng(0).standard_normal((1001, 3))
        want = (1e-3 * x.std(axis=0)).tobytes()
        assert latent_threshold(identity_gen(3), x).tobytes() == want
        assert latent_threshold(identity_gen(3), x.tolist()).tobytes() == want


class TestLatentPerturbationRatio:
    def test_counts_moved_coordinates(self):
        origin = np.zeros(256)
        code = origin.copy()
        code[:8] = 1.0
        assert latent_perturbation_ratio(code, origin, 0.5) == 8 / 256

    def test_per_coordinate_thresholds(self):
        ratio = latent_perturbation_ratio(
            np.array([1.0, 1.0]), np.zeros(2), np.array([0.5, 2.0])
        )
        assert ratio == 0.5

    def test_threshold_boundary_is_strict(self):
        assert latent_perturbation_ratio(np.array([0.5]), np.zeros(1), 0.5) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            latent_perturbation_ratio(np.zeros(3), np.zeros(4), 0.1)

    def test_empty_code_rejected(self):
        with pytest.raises(ConfigurationError):
            latent_perturbation_ratio(np.zeros(0), np.zeros(0), 0.1)


class TestBuildMethods:
    def test_the_standard_five(self, methods):
        assert [m.name for m in methods] == [
            "latent-descent",
            "latent-descent-frozen",
            "latent-random",
            "gradient-sign",
            "input-descent",
        ]

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -1.0])
    def test_a_bad_epsilon_is_refused_on_build(self, epsilon):
        with pytest.raises(ConfigurationError, match="epsilon must be a finite non-negative"):
            build_methods(PerturbConfig(), epsilon=epsilon)

    def test_params_snapshot(self):
        cfg = PerturbConfig(max_iters=60)
        methods = {m.name: m for m in build_methods(cfg, epsilon=2.5)}
        assert methods["latent-descent"].params["max_iters"] == 60
        assert methods["latent-descent-frozen"].params["optimize_attributes"] is False
        assert methods["gradient-sign"].params == {"epsilon": 2.5, "clip": None}


class TestRunBenchmark:
    def test_reruns_are_byte_identical_without_timing(self, dataset, target, gen, methods):
        kwargs = dict(n_queries=20, seed=3, desired_class=1)
        a = run_benchmark(dataset, target, gen, methods, **kwargs)
        b = run_benchmark(dataset, target, gen, methods, **kwargs)
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)

    def test_queries_come_from_misclassified_test_rows(self, dataset, target, gen, methods):
        report = run_benchmark(dataset, target, gen, methods, n_queries=20, seed=3, desired_class=1)
        test_rows = set(int(i) for i in dataset.indices("test"))
        assert set(report.query_indices) <= test_rows
        preds = np.argmax(
            forward(target.network, dataset.instances[report.query_indices]), axis=1
        )
        assert (preds != 1).all()
        assert len(set(report.query_indices)) == 20

    def test_stats_shape(self, dataset, target, gen, methods):
        report = run_benchmark(
            dataset, target, gen, methods, n_queries=10, seed=3, desired_class=1,
            keep_results=True,
        )
        assert set(report.per_method) == {m.name for m in methods}
        for name, stats in report.per_method.items():
            assert stats.n_queries == 10
            assert 0.0 <= stats.flipping_ratio <= 1.0
            assert 0.0 <= stats.mean_latent_perturbation <= 1.0
            assert stats.mean_micros_per_query >= 1
            assert len(report.results[name]) == 10

    def test_results_dropped_by_default(self, dataset, target, gen, methods):
        report = run_benchmark(dataset, target, gen, methods, n_queries=5, seed=3, desired_class=1)
        assert report.results == {}

    def test_shortfall_names_the_counts(self, dataset, target, gen, methods):
        with pytest.raises(ConfigurationError, match="10000"):
            run_benchmark(
                dataset, target, gen, methods, n_queries=10000, seed=3, desired_class=1
            )

    def test_complement_targets_when_desired_unset(self, dataset, target, gen, methods):
        report = run_benchmark(dataset, target, gen, methods[:1], n_queries=20, seed=3)
        assert report.config["desired_class"] is None
        stats = report.per_method["latent-descent"]
        assert stats.n_queries == 20

    def test_csv_columns(self, dataset, target, gen, methods):
        report = run_benchmark(dataset, target, gen, methods, n_queries=5, seed=3, desired_class=1)
        with_timing = report.to_csv().splitlines()
        without = report.to_csv(include_timing=False).splitlines()
        assert with_timing[0] == (
            "method,flipping_ratio,mean_latent_perturbation,n_queries,mean_micros_per_query"
        )
        assert without[0] == "method,flipping_ratio,mean_latent_perturbation,n_queries"
        assert len(with_timing) == 6

    def test_json_round_trips(self, dataset, target, gen, methods):
        report = run_benchmark(dataset, target, gen, methods, n_queries=5, seed=3, desired_class=1)
        parsed = json.loads(report.to_json())
        assert parsed["n_queries"] == 5
        assert parsed["seed"] == 3
        assert set(parsed["methods"]) == {m.name for m in methods}
        assert "mean_micros_per_query" in parsed["methods"]["latent-descent"]
        bare = json.loads(report.to_json(include_timing=False))
        assert "mean_micros_per_query" not in bare["methods"]["latent-descent"]


class TestAlphaSweep:
    def test_curve_shape_and_determinism(self, dataset, target, gen):
        cfg = PerturbConfig(max_iters=60)
        kwargs = dict(n_queries=10, seed=3, desired_class=1)
        a = alpha_sweep(dataset, target, gen, cfg, (0.0, 0.8), **kwargs)
        b = alpha_sweep(dataset, target, gen, cfg, (0.0, 0.8), **kwargs)
        assert [p.distance_weight for p in a] == [0.0, 0.8]
        assert sweep_to_json(a) == sweep_to_json(b)
        parsed = json.loads(sweep_to_json(a))
        assert len(parsed) == 2
        assert set(parsed[0]) == {
            "distance_weight",
            "flipping_ratio",
            "mean_latent_perturbation",
        }

    def test_bad_weights_rejected(self, dataset, target, gen):
        cfg = PerturbConfig()
        with pytest.raises(ConfigurationError):
            alpha_sweep(dataset, target, gen, cfg, ())
        with pytest.raises(ConfigurationError):
            alpha_sweep(dataset, target, gen, cfg, (-0.5,), n_queries=5, desired_class=1)

    @staticmethod
    def count_calls(monkeypatch, *names):
        """{name: call count} for metrics functions, each wrapped to count."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(metrics, name)

            def counted(*args, _name=name, _f=original, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counted)
        return calls

    def test_one_benchmark_and_one_threshold_per_sweep(self, dataset, target, gen, monkeypatch):
        calls = self.count_calls(monkeypatch, "run_benchmark", "latent_threshold")
        cfg = PerturbConfig(max_iters=20)
        points = alpha_sweep(dataset, target, gen, cfg, (0.0, 0.8, 1.5), n_queries=5, seed=3,
                             desired_class=1)
        assert len(points) == 3
        assert calls == {"run_benchmark": 1, "latent_threshold": 1}

    def test_each_point_is_its_lone_benchmark_row(self, dataset, target, gen):
        # Short steps, so that the weights part on flips and on sparsity.
        cfg = PerturbConfig(max_iters=5, code_step=0.05, attr_step=0.05)
        kwargs = dict(n_queries=10, seed=3, desired_class=1)
        weights = (0.0, 3.0, 3.0, 30.0)
        points = alpha_sweep(dataset, target, gen, cfg, weights, **kwargs)
        assert [p.distance_weight for p in points] == list(weights)
        assert len({(p.flipping_ratio, p.mean_latent_perturbation) for p in points}) == 3
        for w, point in zip(weights, points):
            method = build_methods(dataclasses.replace(cfg, distance_weight=w))[0]
            stats = run_benchmark(dataset, target, gen, [method], **kwargs).per_method[method.name]
            assert point.flipping_ratio.hex() == stats.flipping_ratio.hex()
            assert point.mean_latent_perturbation.hex() == stats.mean_latent_perturbation.hex()

    def test_weights_from_an_iterator(self, dataset, target, gen):
        cfg = PerturbConfig(max_iters=20)
        kwargs = dict(n_queries=5, seed=3, desired_class=1)
        listed = alpha_sweep(dataset, target, gen, cfg, (0.0, 0.8), **kwargs)
        assert alpha_sweep(dataset, target, gen, cfg, iter([0.0, 0.8]), **kwargs) == listed
        assert len(listed) == 2

    @pytest.mark.parametrize("weight", [-0.5, np.nan, np.inf])
    def test_a_negative_weight_is_refused_before_any_search(self, dataset, target, gen,
                                                            monkeypatch, weight):
        calls = self.count_calls(monkeypatch, "run_benchmark", "latent_descent")
        with pytest.raises(ConfigurationError, match="non-negative"):
            alpha_sweep(dataset, target, gen, PerturbConfig(), (0.8, 1.0, weight), n_queries=5,
                        desired_class=1)
        assert calls == {"run_benchmark": 0, "latent_descent": 0}

    @pytest.mark.parametrize("function", [run_benchmark, alpha_sweep])
    def test_no_threshold_option(self, function):
        assert "threshold" not in inspect.signature(function).parameters


class TestBenchmarkRecipe:
    def test_recipe_is_coherent(self):
        recipe = benchmark_recipe()
        recipe.spec.validate()
        recipe.target_config.validate()
        recipe.gen_config.validate()
        recipe.perturb.validate()
        assert recipe.spec.split_sizes() == (5000, 250, 750)
        assert recipe.target_config.hidden_dims == ()
        assert recipe.perturb.clip is None
        assert (recipe.epsilon, recipe.n_queries) == (3.0, 500)
        assert (recipe.desired_class, recipe.seed) == (1, 11)

    def test_seed_only_moves_the_query_draw(self):
        assert benchmark_recipe(seed=23).spec == benchmark_recipe(seed=11).spec
        assert benchmark_recipe(seed=23).seed == 23

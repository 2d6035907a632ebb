"""Evaluation: flip rates, latent sparsity, benchmark harness, sweeps.

The benchmark draws a fixed set of query instances from the test split and
runs every registered method on exactly the same queries, one query after
another, each with its own random stream spawned from the seed. Method
columns in a report are therefore directly comparable, and a rerun with the
same seed reproduces the same numbers (timing aside, which is why the
serialized report can exclude it).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .datasets import SynthSpec
from .engine import (
    SCHEDULE_FIELDS,
    PerturbConfig,
    desired_class,
    gradient_sign_attack,
    input_space_descent,
    latent_descent,
    latent_random_search,
)
from .errors import ConfigurationError
from .models import GenerativeConfig, TrainConfig
from .nn import _by_rows, forward


def flipping_ratio(results):
    """Fraction of queries whose counterfactual reached the desired class."""
    if not results:
        raise ConfigurationError("flipping ratio of an empty result list is undefined")
    return sum(1 for r in results if r.flipped) / len(results)


def latent_threshold(gen, instances, scale=1e-3):
    """Per-coordinate change threshold: scale times the code's train std,
    the codes encoded in row blocks."""
    x = np.asarray(instances, dtype=np.float64)
    (codes,) = _by_rows(lambda xb: (forward(gen.encoder, xb),), (x,))
    return scale * codes.std(axis=0)


def latent_perturbation_ratio(code, origin_code, threshold):
    """Fraction of code coordinates moved beyond the threshold.

    threshold may be a scalar or a per-coordinate array; coordinates whose
    absolute change exceeds their threshold count as perturbed.
    """
    code = np.asarray(code, dtype=np.float64)
    origin_code = np.asarray(origin_code, dtype=np.float64)
    if code.shape != origin_code.shape:
        raise ConfigurationError("code shapes differ")
    if code.size == 0:
        raise ConfigurationError("empty code has no perturbation ratio")
    return float(np.mean(np.abs(code - origin_code) > threshold))


@dataclass
class Method:
    """A named search routine the benchmark can run.

    run(target, gen, x0, a0, desired, rng, query_index) -> result. The rng
    is a per-query stream; deterministic methods may ignore it. params is a
    description of the method's configuration for the report snapshot.
    """

    name: str
    run: object
    params: dict = field(default_factory=dict)


def build_methods(perturb, epsilon=1.0):
    """The standard five-way comparison around one base configuration."""

    def cfg(desired, **kw):
        return dataclasses.replace(perturb, desired=desired, **kw)

    base_params = {key: getattr(perturb, key) for key in SCHEDULE_FIELDS}
    base_params["clip"] = list(perturb.clip) if perturb.clip else None
    return [
        Method(
            "latent-descent",
            lambda tg, gen, x, a, des, rng, qi: latent_descent(
                tg, gen, x, a, cfg(des), query_index=qi
            ),
            dict(base_params),
        ),
        Method(
            "latent-descent-frozen",
            lambda tg, gen, x, a, des, rng, qi: latent_descent(
                tg,
                gen,
                x,
                a,
                cfg(des, optimize_attributes=False),
                query_index=qi,
                method="latent-descent-frozen",
            ),
            {**base_params, "optimize_attributes": False},
        ),
        Method(
            "latent-random",
            lambda tg, gen, x, a, des, rng, qi: latent_random_search(
                tg, gen, x, a, cfg(des), rng=rng, query_index=qi
            ),
            dict(base_params),
        ),
        Method(
            "gradient-sign",
            lambda tg, gen, x, a, des, rng, qi: gradient_sign_attack(
                tg, gen, x, a, epsilon, desired=des, clip=perturb.clip, query_index=qi
            ),
            {"epsilon": epsilon, "clip": base_params["clip"]},
        ),
        Method(
            "input-descent",
            lambda tg, gen, x, a, des, rng, qi: input_space_descent(
                tg, gen, x, a, cfg(des), query_index=qi
            ),
            dict(base_params),
        ),
    ]


@dataclass
class BenchmarkRecipe:
    """Everything needed to rebuild the stock benchmark stack from scratch."""

    spec: SynthSpec
    target_config: TrainConfig
    disc_config: TrainConfig
    gen_config: GenerativeConfig
    perturb: PerturbConfig
    epsilon: float
    n_queries: int
    desired_class: int
    seed: int


def benchmark_recipe(seed=11):
    """The stock two-class blob benchmark, pinned down to every seed.

    32 features, 4 binary attributes, 8 latent code dimensions; 6,000
    samples split 5,000/250/750. The label is the conjunction of attributes
    0 and 1 plus margin noise, and the realized margin score is echoed onto
    one non-attribute coordinate so the raw-feature code carries class
    evidence of its own. The target is a linear softmax head, which keeps
    the one-shot sign attack honest: its flip rate is then monotone in the
    budget. Searches use the decaying-step profile with the larger steps
    and no clipping (blob features are unbounded), 500 queries drawn from
    test rows currently predicted 0 and pushed toward class 1.

    seed controls only the query draw; dataset and training seeds are part
    of the recipe.
    """
    perturb = PerturbConfig.image_defaults()
    perturb.clip = None
    return BenchmarkRecipe(
        spec=SynthSpec(
            generator="blobs",
            n_features=32,
            n_attributes=4,
            n_samples=6000,
            seed=7,
            noise=0.4,
            n_styles=4,
            label_echo=0.9,
            label_attributes=(0, 1),
            train_frac=5000 / 6000,
            dev_frac=250 / 6000,
        ),
        target_config=TrainConfig(
            epochs=120, batch_size=128, learning_rate=0.05, seed=0, hidden_dims=()
        ),
        disc_config=TrainConfig(epochs=40, batch_size=128, learning_rate=0.05, seed=1),
        gen_config=GenerativeConfig(
            latent_dim=8, epochs=120, batch_size=128, learning_rate=0.05, seed=2
        ),
        perturb=perturb,
        epsilon=3.0,
        n_queries=500,
        desired_class=1,
        seed=seed,
    )


@dataclass
class MethodStats:
    flipping_ratio: float
    mean_latent_perturbation: float
    mean_micros_per_query: int
    n_queries: int


@dataclass
class BenchmarkReport:
    """Aggregated benchmark outcome, serializable with or without timing."""

    per_method: dict
    n_queries: int
    seed: int
    query_indices: list
    config: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    def to_dict(self, include_timing=True):
        methods = {name: dataclasses.asdict(stats) for name, stats in self.per_method.items()}
        if not include_timing:
            for entry in methods.values():
                del entry["mean_micros_per_query"]
        return {
            "n_queries": self.n_queries,
            "seed": self.seed,
            "query_indices": list(self.query_indices),
            "config": self.config,
            "methods": methods,
        }

    def to_json(self, include_timing=True):
        """Stable serialization; excluding timing makes reruns byte-identical."""
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2) + "\n"

    def to_csv(self, include_timing=True):
        cols = ["method", "flipping_ratio", "mean_latent_perturbation", "n_queries"]
        if include_timing:
            cols.append("mean_micros_per_query")
        lines = [",".join(cols)]
        for name in sorted(self.per_method):
            stats = self.per_method[name]
            # str of a float is its repr, the shortest round-tripping form.
            lines.append(",".join([name] + [str(getattr(stats, c)) for c in cols[1:]]))
        return "\n".join(lines) + "\n"


def _select_queries(dataset, target, n_queries, seed, fixed):
    if n_queries < 1:
        raise ConfigurationError(f"need at least one query, got {n_queries}")
    test_idx = dataset.indices("test")
    if len(test_idx) == 0:
        raise ConfigurationError("dataset has no test split to query")
    x_test = dataset.part("test")[0]
    (preds,) = _by_rows(lambda xb: (np.argmax(forward(target.network, xb), axis=1),), (x_test,))
    desired = np.broadcast_to(desired_class(target, preds, fixed), preds.shape)
    # Only a fixed class can already be predicted; the complement never is.
    mask = preds != desired
    usable, desired = test_idx[mask], desired[mask]
    if n_queries > len(usable):
        raise ConfigurationError(
            f"requested {n_queries} queries but only {len(usable)} usable test "
            "instances are available"
        )
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(usable), size=n_queries, replace=False)
    return usable[pick], desired[pick]


def run_benchmark(
    dataset,
    target,
    gen,
    methods,
    n_queries=500,
    seed=0,
    desired_class=None,
    threshold=None,
    keep_results=False,
):
    """Run every method on one shared query set and aggregate the metrics.

    Queries come from the test split without replacement. When
    desired_class is None (two-class tasks) each query targets the
    complement of its current prediction; otherwise the fixed class, with
    already-there instances excluded up front. Each query gets its own
    random stream spawned from the seed, the same one for every method.
    """
    query_rows, desired = _select_queries(dataset, target, n_queries, seed, desired_class)
    default_threshold = threshold is None
    if default_threshold:
        train_x, _, _ = dataset.part("train")
        threshold = latent_threshold(gen, train_x)
    children = np.random.SeedSequence(seed).spawn(n_queries)
    per_method = {}
    all_results = {}
    for method in methods:
        results = [
            method.run(
                target,
                gen,
                dataset.instances[row],
                dataset.attributes[row],
                int(desired[i]),
                np.random.default_rng(children[i]),
                int(row),
            )
            for i, row in enumerate(query_rows)
        ]
        lprs = [
            latent_perturbation_ratio(r.latent.code, r.origin.code, threshold)
            for r in results
        ]
        per_method[method.name] = MethodStats(
            flipping_ratio=flipping_ratio(results),
            mean_latent_perturbation=float(np.mean(lprs)),
            mean_micros_per_query=int(round(np.mean([r.wall_time_micros for r in results]))),
            n_queries=n_queries,
        )
        if keep_results:
            all_results[method.name] = results
    return BenchmarkReport(
        per_method=per_method,
        n_queries=n_queries,
        seed=seed,
        query_indices=[int(r) for r in query_rows],
        config={
            "desired_class": desired_class,
            "default_threshold": default_threshold,
            "methods": {m.name: m.params for m in methods},
        },
        results=all_results,
    )


@dataclass
class SweepPoint:
    distance_weight: float
    flipping_ratio: float
    mean_latent_perturbation: float


# The distance weights ``latentcf sweep`` traces unless --weights says otherwise.
SWEEP_WEIGHTS = (0.0, 0.4, 0.8, 1.5, 3.0)


def alpha_sweep(
    dataset,
    target,
    gen,
    perturb,
    weights,
    n_queries=100,
    seed=0,
    desired_class=None,
    threshold=None,
):
    """Trace the distance-weight trade-off for the latent search.

    Every weight reruns the same queries with the same seed, so the curve
    isolates the weight's effect. A single weight degenerates to one
    benchmark row of the main method.
    """
    if not list(weights):
        raise ConfigurationError("weights must be a non-empty sequence")
    points = []
    for w in weights:
        if w < 0:
            raise ConfigurationError("distance weights must be non-negative")
        base = dataclasses.replace(perturb, distance_weight=float(w))
        methods = [build_methods(base)[0]]
        report = run_benchmark(
            dataset,
            target,
            gen,
            methods,
            n_queries=n_queries,
            seed=seed,
            desired_class=desired_class,
            threshold=threshold,
        )
        stats = report.per_method["latent-descent"]
        points.append(
            SweepPoint(float(w), stats.flipping_ratio, stats.mean_latent_perturbation)
        )
    return points


def sweep_to_json(points):
    return json.dumps([dataclasses.asdict(p) for p in points], sort_keys=True, indent=2) + "\n"

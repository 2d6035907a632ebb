"""Downstream uses: attribute rankings and counterfactual augmentation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latentcf.applications import (
    attribute_interaction_ranking,
    augment_with_counterfactuals,
    mean_attribute_ranking,
    retrain_comparison,
    strip_augmentation,
)
from latentcf.datasets import AttributedDataset, SynthSpec, generate
from latentcf.engine import CounterfactualResult, PerturbConfig
from latentcf.errors import ConfigurationError, PartialResultWarning
from latentcf.models import (
    GenerativeConfig,
    LatentPoint,
    TrainConfig,
    train_discriminator,
    train_generative,
    train_target,
)

from test_engine import identity_gen, linear_target


def moved_result(origin_attrs, new_attrs, flipped=True):
    a0 = np.asarray(origin_attrs, dtype=np.float64)
    a1 = np.asarray(new_attrs, dtype=np.float64)
    return CounterfactualResult(
        sample=np.zeros(2),
        latent=LatentPoint(np.zeros(1), a1),
        origin=LatentPoint(np.zeros(1), a0),
        flipped=flipped,
        iterations=1,
        predicted_class=1,
        desired_class=1,
        loss_trace=[(0.0, 0.0, 0.0)],
        wall_time_micros=1,
        method="latent-descent",
    )


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


class TestInteractionRanking:
    def test_scores_are_absolute_attribute_changes(self):
        rk = attribute_interaction_ranking(moved_result([1.0, 0.0, 1.0], [1.0, 0.9, 0.7]))
        assert [r.index for r in rk] == [1, 2, 0]
        assert_allclose([r.score for r in rk], [0.9, 0.3, 0.0], atol=1e-15)
        assert [r.name for r in rk] == ["attr1", "attr2", "attr0"]

    def test_ties_keep_index_order(self):
        rk = attribute_interaction_ranking(moved_result([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
        assert [r.index for r in rk] == [0, 1, 2]

    def test_permuting_the_moves_permutes_the_ranking(self):
        fwd = attribute_interaction_ranking(moved_result([0.0, 0.0], [0.3, 0.8]))
        rev = attribute_interaction_ranking(moved_result([0.0, 0.0], [0.8, 0.3]))
        assert [r.index for r in fwd] == [1, 0]
        assert [r.index for r in rev] == [0, 1]

    def test_exclude_drops_after_scoring(self):
        rk = attribute_interaction_ranking(
            moved_result([0.0, 0.0, 0.0], [0.5, 0.9, 0.1]), exclude=(1,)
        )
        assert [r.index for r in rk] == [0, 2]

    @pytest.mark.parametrize("exclude", [(3,), (-1,), (0, 99)])
    def test_exclude_out_of_range_is_refused(self, exclude):
        moved = moved_result([0.0, 0.0, 0.0], [0.5, 0.9, 0.1])
        for rank, source in ((attribute_interaction_ranking, moved),
                             (mean_attribute_ranking, [moved])):
            with pytest.raises(ConfigurationError, match="excluded attribute .* out of range"):
                rank(source, exclude=exclude)

    def test_custom_names(self):
        rk = attribute_interaction_ranking(
            moved_result([0.0, 0.0], [0.0, 0.4]), names=["bold", "serif"]
        )
        assert rk[0].name == "serif"

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            attribute_interaction_ranking(moved_result([0.0], [1.0]), names=["a", "b"])

    def test_attribute_free_result_rejected(self):
        with pytest.raises(ConfigurationError):
            attribute_interaction_ranking(moved_result([], []))


class TestMeanRanking:
    def test_averages_per_query_scores(self):
        results = [
            moved_result([0.0, 0.0], [1.0, 0.0]),
            moved_result([0.0, 0.0], [0.0, 3.0]),
        ]
        rk = mean_attribute_ranking(results)
        assert rk[0].index == 1
        assert_allclose([r.score for r in rk], [1.5, 0.5], atol=1e-15)

    def test_flipped_only_filters(self):
        results = [
            moved_result([0.0, 0.0], [1.0, 0.0]),
            moved_result([0.0, 0.0], [0.0, 9.0], flipped=False),
        ]
        rk = mean_attribute_ranking(results)
        assert rk[0].index == 0
        rk_all = mean_attribute_ranking(results, flipped_only=False)
        assert rk_all[0].index == 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_attribute_ranking([])
        with pytest.raises(ConfigurationError):
            mean_attribute_ranking([moved_result([0.0], [1.0], flipped=False)])


class TestAugmentation:
    def test_appended_rows_are_flipped_train_rows(self, dataset, target, gen):
        cfg = PerturbConfig()
        out = augment_with_counterfactuals(dataset, target, gen, 25, cfg, seed=3)
        m = out.metadata["augmented_tail"]
        assert m == 25
        n = dataset.instances.shape[0]
        tail_x = out.instances[n:]
        tail_a = out.attributes[n:]
        tail_y = out.labels[n:]
        assert (out.split[n:] == 0).all()
        assert set(np.unique(tail_a)) <= {0.0, 1.0}
        assert_allclose(tail_y.sum(axis=1), 1.0, atol=0)
        for x, y in zip(tail_x, tail_y):
            assert int(np.argmax(target.predict_proba(x))) == int(np.argmax(y))

    def test_zero_rows_is_a_no_op_with_a_tag(self, dataset, target, gen):
        out = augment_with_counterfactuals(
            dataset, target, gen, 0, PerturbConfig(), seed=3
        )
        assert out.metadata["augmented_tail"] == 0
        assert np.array_equal(out.instances, dataset.instances)
        assert out.instances is not dataset.instances

    def test_same_seed_same_rows(self, dataset, target, gen):
        cfg = PerturbConfig()
        a = augment_with_counterfactuals(dataset, target, gen, 10, cfg, seed=4)
        b = augment_with_counterfactuals(dataset, target, gen, 10, cfg, seed=4)
        assert np.array_equal(a.instances, b.instances)
        assert np.array_equal(a.labels, b.labels)

    def test_shortfall_warns_and_returns_partial(self, dataset, target, gen):
        n_train = len(dataset.indices("train"))
        with pytest.warns(PartialResultWarning, match="flipped"):
            out = augment_with_counterfactuals(
                dataset, target, gen, n_train + 50, PerturbConfig(), seed=3
            )
        assert out.metadata["augmented_tail"] <= n_train

    def test_strip_recovers_the_original(self, dataset, target, gen):
        out = augment_with_counterfactuals(
            dataset, target, gen, 15, PerturbConfig(), seed=3
        )
        back = strip_augmentation(out)
        assert np.array_equal(back.instances, dataset.instances)
        assert np.array_equal(back.attributes, dataset.attributes)
        assert np.array_equal(back.labels, dataset.labels)
        assert np.array_equal(back.split, dataset.split)
        assert "augmented_tail" not in back.metadata

    def test_strip_without_tail_is_identity(self, dataset):
        assert strip_augmentation(dataset) is dataset

    def test_negative_count_rejected(self, dataset, target, gen):
        with pytest.raises(ConfigurationError):
            augment_with_counterfactuals(
                dataset, target, gen, -1, PerturbConfig()
            )

    def test_multiclass_needs_a_pinned_class(self):
        rng = np.random.default_rng(0)
        ds = AttributedDataset(
            instances=rng.normal(size=(9, 4)),
            attributes=np.zeros((9, 1)),
            labels=np.eye(3)[np.arange(9) % 3],
            split=np.zeros(9, dtype=np.int8),
        )
        ds.validate()
        target3 = linear_target(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ConfigurationError):
            augment_with_counterfactuals(
                ds, target3, identity_gen(4), 5, PerturbConfig()
            )

    def test_pinned_class_skips_rows_already_there(self, dataset, target, gen):
        cfg = PerturbConfig(desired=1)
        out = augment_with_counterfactuals(dataset, target, gen, 10, cfg, seed=3)
        n = dataset.instances.shape[0]
        assert (np.argmax(out.labels[n:], axis=1) == 1).all()


class TestRetrainComparison:
    def test_matches_numpy_aggregation(self, dataset, target, gen):
        aug = augment_with_counterfactuals(
            dataset, target, gen, 20, PerturbConfig(), seed=3
        )
        cfg = TrainConfig(epochs=25, batch_size=64, learning_rate=0.05)
        report = retrain_comparison(dataset, aug, cfg, seeds=(0, 1, 2))
        assert report.seeds == [0, 1, 2]
        assert len(report.base_runs) == 3
        assert_allclose(report.base_mean, np.mean(report.base_runs), atol=1e-15)
        assert_allclose(report.base_std, np.std(report.base_runs), atol=1e-15)
        assert_allclose(report.augmented_mean, np.mean(report.augmented_runs), atol=1e-15)
        assert all(0.0 <= acc <= 1.0 for acc in report.base_runs + report.augmented_runs)

    def test_seeds_from_an_iterator(self, dataset):
        cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.05)
        listed = retrain_comparison(dataset, dataset, cfg, seeds=(0, 1))
        report = retrain_comparison(dataset, dataset, cfg, seeds=iter([0, 1]))
        assert report.seeds == [0, 1]
        assert report == listed
        assert np.isfinite([report.base_mean, report.augmented_mean]).all()

    def test_empty_seeds_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            retrain_comparison(dataset, dataset, TrainConfig(), seeds=())

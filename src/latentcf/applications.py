"""Downstream uses of counterfactual search.

Two consumers of the engine: ranking which attributes a search had to move
to flip a prediction (a cheap interaction readout for the classifier), and
padding a training set with flipped counterfactual instances to retrain a
slightly more robust classifier.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import AttributedDataset
from .engine import desired_class, latent_descent
from .errors import ConfigurationError, PartialResultWarning, require_indices
from .models import train_target


@dataclass
class RankedAttribute:
    index: int
    name: str
    score: float


def ranking_names(count, names, exclude):
    """names (attr0, attr1, ... when None), once checked with exclude to fit count > 0."""
    if count == 0:
        raise ConfigurationError("no attributes to rank")
    if names is None:
        names = [f"attr{j}" for j in range(count)]
    if len(names) != count:
        raise ConfigurationError("names do not match the attribute count")
    require_indices("excluded attribute", exclude, count)
    return names


def _rank(scores, names, exclude):
    names = ranking_names(len(scores), names, exclude)
    order = np.argsort(-scores, kind="stable")
    return [
        RankedAttribute(int(j), names[int(j)], float(scores[int(j)]))
        for j in order
        if int(j) not in exclude
    ]


def attribute_interaction_ranking(result, names=None, exclude=()):
    """Rank attributes by how far one search moved them.

    The score for attribute j is the absolute change between the origin's
    attribute value and the counterfactual's. Descending order; ties keep
    index order, so the ranking is deterministic. Indices in exclude are
    dropped from the ranking after scoring.
    """
    a0 = result.origin.attributes
    a1 = result.latent.attributes
    return _rank(np.abs(a1 - a0), names, set(exclude))


def mean_attribute_ranking(results, names=None, exclude=(), flipped_only=True):
    """Aggregate ranking over many searches, averaging the per-query scores."""
    pool = [r for r in results if r.flipped] if flipped_only else list(results)
    if not pool:
        raise ConfigurationError("no results to rank")
    if len({r.latent.attributes.shape for r in pool}) > 1:
        raise ConfigurationError("results differ in their number of attributes")
    scores = np.mean(
        [np.abs(r.latent.attributes - r.origin.attributes) for r in pool], axis=0
    )
    return _rank(scores, names, set(exclude))


def augment_with_counterfactuals(dataset, target, gen, n_aug, perturb, seed=0):
    """Append up to n_aug flipped counterfactuals to the train split.

    Source instances are train rows in a seed-shuffled one-pass order; each
    is searched toward the complement of its current prediction (so this is
    two-class only unless perturb.desired pins a class) and kept only when
    the flip succeeds. Appended rows carry the counterfactual instance, its
    binarized attribute vector, the desired class as label, and a train
    split tag. The metadata records the appended count, which makes
    strip_augmentation exact. Falling short of n_aug emits
    PartialResultWarning and returns what was found.
    """
    if n_aug < 0:
        raise ConfigurationError("n_aug must be non-negative")
    # Refuses a target beyond two classes before any search, whatever n_aug is.
    desired_class(target, 0, perturb.desired)
    train_idx = dataset.indices("train")
    rng = np.random.default_rng(seed)
    order = rng.permutation(train_idx)
    new_x, new_a, new_y = [], [], []
    for row in order:
        if len(new_x) >= n_aug:
            break
        x0 = dataset.instances[row]
        a0 = dataset.attributes[row]
        current = int(np.argmax(target.predict_proba(x0)))
        desired = desired_class(target, current, perturb.desired)
        if current == desired:
            continue
        cfg = dataclasses.replace(perturb, desired=desired)
        result = latent_descent(target, gen, x0, a0, cfg, query_index=int(row))
        if not result.flipped:
            continue
        new_x.append(result.sample)
        new_a.append((result.latent.attributes >= 0.5).astype(np.float64))
        new_y.append(np.eye(dataset.n_classes)[result.desired_class])
    if len(new_x) < n_aug:
        warnings.warn(
            f"requested {n_aug} counterfactual rows but only {len(new_x)} "
            "searches flipped",
            PartialResultWarning,
        )
    m = len(new_x)
    meta = dict(dataset.metadata)
    meta["augmented_tail"] = m
    out = AttributedDataset(
        instances=np.vstack([dataset.instances, *new_x]),
        attributes=np.vstack([dataset.attributes, *new_a]),
        labels=np.vstack([dataset.labels, *new_y]),
        split=np.concatenate([dataset.split, np.zeros(m, dtype=np.int8)]),
        metadata=meta,
    )
    out.validate()
    return out


def strip_augmentation(dataset):
    """Drop the appended counterfactual tail, recovering the original rows."""
    m = int(dataset.metadata.get("augmented_tail", 0))
    if m == 0:
        return dataset
    n = dataset.instances.shape[0] - m
    meta = {k: v for k, v in dataset.metadata.items() if k != "augmented_tail"}
    out = AttributedDataset(
        instances=dataset.instances[:n].copy(),
        attributes=dataset.attributes[:n].copy(),
        labels=dataset.labels[:n].copy(),
        split=dataset.split[:n].copy(),
        metadata=meta,
    )
    out.validate()
    return out


@dataclass
class RetrainReport:
    """Test accuracy of classifiers trained with and without the tail."""

    base_mean: float
    base_std: float
    augmented_mean: float
    augmented_std: float
    base_runs: list
    augmented_runs: list
    seeds: list


def retrain_comparison(base_dataset, augmented_dataset, train_config, seeds):
    """Train on both datasets across seeds and compare test accuracy.

    Both datasets share the same test rows (augmentation only appends train
    rows), so the comparison is apples to apples. Returns per-seed test
    accuracies plus their means and standard deviations.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigurationError("seeds must be a non-empty sequence")
    base_runs, aug_runs = [], []
    for s in seeds:
        cfg = dataclasses.replace(train_config, seed=s)
        base_runs.append(train_target(base_dataset, cfg).test_accuracy)
        aug_runs.append(train_target(augmented_dataset, cfg).test_accuracy)
    return RetrainReport(
        base_mean=float(np.mean(base_runs)),
        base_std=float(np.std(base_runs)),
        augmented_mean=float(np.mean(aug_runs)),
        augmented_std=float(np.std(aug_runs)),
        base_runs=base_runs,
        augmented_runs=aug_runs,
        seeds=seeds,
    )

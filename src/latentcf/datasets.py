"""Synthetic attributed datasets.

Two generator families, both emitting (instances, binary attributes, one-hot
labels) triples with a contiguous train/dev/test split:

* blobs: tabular vectors where each attribute shifts a dedicated canonical
  axis and a handful of continuous style factors spread structure over the
  remaining axes, so attribute effects are orthogonal and linearly
  decodable while the styles give an autoencoder something real to learn.
* glyphs: square grayscale grids built from a base patch plus per-attribute
  stroke masks, a small image stand-in with localized attribute footprints.

The class label is driven by designated attribute bits, so a classifier,
an attribute discriminator, and a counterfactual search all have signal to
find. A generator draws instances and attributes only; one rule then labels
the rows of either family (and writes blobs' label echo). Everything is
deterministic in the spec seed.

Generators write the instance array in place and draw noise in row blocks.
A dataset's parts (``AttributedDataset.part``) are read-only: views of its
arrays where the part's rows are contiguous, copies where they are not.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import isqrt

import numpy as np

from .container import read_container, write_container
from .errors import ConfigurationError, DimensionError, FormatError, require_finite
from .nn import _BLOCK_ROWS

GENERATORS = ("blobs", "glyphs")

# Glyph stroke masks are drawn on the unit square; index i is attribute i.
# Order matters and is part of the data contract.
_STROKES = ("hbar", "frame", "dot", "diag", "vbar", "antidiag", "corner", "cross")


@dataclass
class SynthSpec:
    """Full recipe for one synthetic dataset.

    The split is by row index: the first train_frac of rows are train, the
    next dev_frac dev, the remainder test. Fractions are of n_samples and
    must leave at least one row per part. n_styles continuous factors (blobs
    only) are mixed into the non-attribute columns through a fixed random
    matrix.
    """

    generator: str
    n_features: int
    n_attributes: int
    n_samples: int
    seed: int
    n_classes: int = 2
    noise: float = 0.3
    shift: float = 2.0
    margin: float = 1.0
    n_styles: int = 4
    style_leak: float = 0.0
    label_echo: float = 0.0
    label_attributes: tuple = (0,)
    attribute_prob: float = 0.5
    train_frac: float = 0.9
    dev_frac: float = 0.05

    def validate(self):
        if self.generator not in GENERATORS:
            raise ConfigurationError(f"unknown generator {self.generator!r}")
        if self.n_features < 1 or self.n_attributes < 1:
            raise ConfigurationError("need n_features >= 1 and n_attributes >= 1")
        if self.n_classes < 2:
            raise ConfigurationError("need at least two classes")
        if self.n_samples < 3:
            raise ConfigurationError("need at least three samples for a three-way split")
        if not 0.0 < self.attribute_prob < 1.0:
            raise ConfigurationError("attribute_prob must lie strictly inside (0, 1)")
        for name in ("noise", "n_styles", "style_leak", "label_echo"):
            require_finite(name, getattr(self, name))
        for name in ("shift", "margin", "train_frac", "dev_frac"):
            require_finite(name, getattr(self, name), positive=True)
        if self.label_echo > 0 and (self.n_classes != 2 or self.generator != "blobs"):
            raise ConfigurationError("label_echo applies to two-class blobs only")
        if self.label_echo > 0 and self.n_features <= self.n_attributes:
            raise ConfigurationError("label_echo needs a non-attribute coordinate")
        if not self.label_attributes:
            raise ConfigurationError("at least one attribute must drive the label")
        for j in self.label_attributes:
            if not 0 <= j < self.n_attributes:
                raise ConfigurationError(f"label attribute {j} out of range")
        if 2 ** len(self.label_attributes) < self.n_classes:
            raise ConfigurationError(
                f"{len(self.label_attributes)} label attributes cannot address "
                f"{self.n_classes} classes"
            )
        if self.train_frac + self.dev_frac >= 1:
            raise ConfigurationError("split fractions must sum below 1")
        n_train, n_dev, n_test = self.split_sizes()
        if min(n_train, n_dev, n_test) < 1:
            raise ConfigurationError("every split part needs at least one row")
        if self.generator == "glyphs":
            side = isqrt(self.n_features)
            if side * side != self.n_features:
                raise ConfigurationError(
                    f"glyphs need a square feature count, got {self.n_features}"
                )
            if self.n_attributes > len(_STROKES):
                raise ConfigurationError(
                    f"glyphs support at most {len(_STROKES)} attributes"
                )
        elif self.n_attributes > self.n_features:
            raise ConfigurationError("blobs need n_features >= n_attributes")

    def split_sizes(self):
        n_train = int(round(self.n_samples * self.train_frac))
        n_dev = int(round(self.n_samples * self.dev_frac))
        return n_train, n_dev, self.n_samples - n_train - n_dev


@dataclass
class AttributedDataset:
    """Instances with per-row binary attributes, one-hot labels, split tags.

    labels is [n, C] one-hot; split holds 0 (train), 1 (dev), or 2 (test)
    per row as int8. metadata carries the generating spec, where one
    exists, plus free-form notes.
    """

    instances: np.ndarray
    attributes: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    metadata: dict = field(default_factory=dict)

    def validate(self):
        # ndim first: a 0-d array has no shape[0] to compare.
        if self.instances.ndim != 2 or self.instances.shape[0] == 0:
            raise DimensionError("instances must be [n, d] with n > 0")
        n = self.instances.shape[0]
        if self.attributes.ndim != 2 or self.attributes.shape[0] != n:
            raise DimensionError("attributes must be [n, t]")
        if self.labels.ndim != 2 or self.labels.shape[0] != n or self.labels.shape[1] < 2:
            raise DimensionError("labels must be one-hot [n, C] with C >= 2")
        if self.split.shape != (n,):
            raise DimensionError("split must be [n]")
        # Equality tests, not range tests: NaN and fractional values fail them.
        if not _all_in(self.attributes, (0, 1)):
            raise ConfigurationError("attributes must be 0/1 valued")
        if not _all_in(self.labels, (0, 1)) or not (self.labels.sum(axis=1) == 1.0).all():
            raise ConfigurationError("labels must be one-hot rows")
        if not _all_in(self.split, (0, 1, 2)):
            raise ConfigurationError("split tags must be 0, 1, or 2")

    @property
    def n_features(self):
        return self.instances.shape[1]

    @property
    def n_attributes(self):
        return self.attributes.shape[1]

    @property
    def n_classes(self):
        return self.labels.shape[1]

    def indices(self, part):
        tag = {"train": 0, "dev": 1, "test": 2}[part]
        return np.flatnonzero(self.split == tag)

    def part(self, part):
        """(instances, attributes, labels) of the part's rows, read-only:
        views of the dataset's arrays when the rows are one contiguous range,
        as in every generated dataset, else copies. Writing to them raises
        ValueError; copy a part before changing it."""
        idx = self.indices(part)
        if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
            idx = slice(idx[0], idx[-1] + 1)
        arrays = self.instances[idx], self.attributes[idx], self.labels[idx]
        for arr in arrays:
            arr.flags.writeable = False
        return arrays


def _all_in(values, allowed):
    """Whether every element of values equals one of the allowed numbers."""
    ok = values == allowed[0]
    for v in allowed[1:]:
        ok |= values == v
    return bool(ok.all())


def _label_indices(x, attrs, spec, rng):
    """Class index from the designated attribute bits.

    Two classes: the conjunction of the designated bits gives a signed
    margin score, plus noise, thresholded at zero, so a thin noisy band
    straddles the boundary. With one designated bit this is just that bit;
    with several, flipping the label needs a coordinated change. Label echo
    (two-class blobs) then writes the realized score onto x's first
    non-attribute coordinate, so the instance carries label evidence beyond
    what the attribute bits imply. More classes: the bit pattern read as a
    binary code, modulo n_classes, noise-free.
    """
    bits = attrs[:, list(spec.label_attributes)]
    if spec.n_classes == 2:
        base = bits.prod(axis=1)
        score = spec.margin * (2.0 * base - 1.0) + rng.normal(0.0, spec.noise, size=len(base))
        if spec.label_echo > 0:
            x[:, spec.n_attributes] += spec.label_echo * score
        return (score > 0).astype(np.int64)
    code = (bits * (2 ** np.arange(len(spec.label_attributes)))).sum(axis=1)
    return (code % spec.n_classes).astype(np.int64)


def _generate_blobs(spec, rng):
    attrs = (rng.random((spec.n_samples, spec.n_attributes)) < spec.attribute_prob).astype(
        np.float64
    )
    x = np.zeros((spec.n_samples, spec.n_features))
    np.multiply(attrs, spec.shift, out=x[:, : spec.n_attributes])
    n_free = spec.n_features - spec.n_attributes
    if spec.n_styles > 0 and n_free > 0:
        styles = rng.standard_normal((spec.n_samples, spec.n_styles))
        mixing = rng.standard_normal((spec.n_styles, n_free)) / np.sqrt(spec.n_styles)
        # Written straight into x's zero columns, as the shift was: no
        # product the size of x.
        np.matmul(styles, mixing, out=x[:, spec.n_attributes :])
        # Cross-talk: the first style factor bleeds into every attribute
        # coordinate, so those coordinates are not reconstructable from the
        # attribute bits alone.
        if spec.style_leak > 0:
            x[:, : spec.n_attributes] += spec.style_leak * styles[:, [0]]
    _add_noise(x, spec.noise, rng)
    return x, attrs


def _add_noise(x, scale, rng):
    """Add N(0, scale) noise to x in place, drawn block by block in row
    order: the draws, and so the sums, equal one draw of x's shape."""
    if scale > 0:
        for start in range(0, len(x), _BLOCK_ROWS):
            block = x[start : start + _BLOCK_ROWS]
            block += rng.normal(0.0, scale, size=block.shape)


def _stroke_mask(name, side):
    mask = np.zeros((side, side))
    mid = side // 2
    q = max(side // 4, 1)
    if name == "hbar":
        mask[mid, :] = 1.0
    elif name == "frame":
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = 1.0
    elif name == "dot":
        mask[:q, :q] = 1.0
    elif name == "diag":
        np.fill_diagonal(mask, 1.0)
    elif name == "vbar":
        mask[:, mid] = 1.0
    elif name == "antidiag":
        np.fill_diagonal(np.fliplr(mask), 1.0)
    elif name == "corner":
        mask[-q:, -q:] = 1.0
    elif name == "cross":
        mask[mid, :] = mask[:, mid] = 1.0
    else:
        raise ConfigurationError(f"unknown stroke {name!r}")
    return mask


def glyph_strokes(n_features, n_attributes):
    """Flattened stroke masks [t, d] for the first n_attributes strokes."""
    side = isqrt(n_features)
    return np.stack(
        [_stroke_mask(_STROKES[i], side).ravel() for i in range(n_attributes)]
    )


def _generate_glyphs(spec, rng):
    side = isqrt(spec.n_features)
    attrs = (rng.random((spec.n_samples, spec.n_attributes)) < spec.attribute_prob).astype(
        np.float64
    )
    base = np.zeros((side, side))
    lo, hi = side // 3, side - side // 3
    base[lo:hi, lo:hi] = 0.35
    x = np.tile(base.ravel(), (spec.n_samples, 1))
    strokes = glyph_strokes(spec.n_features, spec.n_attributes)
    for i in range(spec.n_attributes):
        on = attrs[:, i] == 1.0
        np.maximum(x, 0.95 * strokes[i], out=x, where=on[:, None])
    _add_noise(x, spec.noise, rng)
    return np.clip(x, 0.0, 1.0, out=x), attrs


def generate(spec):
    """Materialize the dataset a spec describes. Deterministic in spec.seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    make = _generate_blobs if spec.generator == "blobs" else _generate_glyphs
    x, attrs = make(spec, rng)
    labels = np.eye(spec.n_classes)[_label_indices(x, attrs, spec, rng)]
    n_train, n_dev, _ = spec.split_sizes()
    split = np.full(spec.n_samples, 2, dtype=np.int8)
    split[:n_train] = 0
    split[n_train : n_train + n_dev] = 1
    ds = AttributedDataset(
        instances=x,
        attributes=attrs,
        labels=labels,
        split=split,
        metadata={
            "generator": spec.generator,
            "seed": spec.seed,
            "label_attributes": list(spec.label_attributes),
            "split_fractions": [spec.train_frac, spec.dev_frac],
            "spec": spec_to_dict(spec),
        },
    )
    ds.validate()
    return ds


def spec_to_dict(spec):
    return dict(asdict(spec), label_attributes=list(spec.label_attributes))


# The arrays of a dataset container, in the order they are written.
_DATASET_ARRAYS = ("instances", "attributes", "labels", "split")


def save_dataset(path, ds):
    """Write the dataset as a single container file. Bit-exact round trip."""
    ds.validate()
    write_container(
        path,
        kind="dataset",
        meta=ds.metadata,
        arrays={name: getattr(ds, name) for name in _DATASET_ARRAYS},
    )


def load_dataset(path, rows=None):
    """Read a dataset container; FormatError unless its meta is an object
    and it holds every _DATASET_ARRAYS array.

    rows=(start, stop) reads only those rows, as `explain` and `rank
    --query-index` do for the row they explain. The full leading lengths
    must still agree (DimensionError, checked on the directory shapes), the
    range must lie inside them (IndexError), and the rows read pass the same
    value checks as a full read. Instances that hold NaN or an infinity
    raise FormatError naming the file: nothing downstream can use them.
    """
    _, meta, arrays = read_container(path, expected_kind="dataset", rows=rows)
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: dataset meta must be a JSON object")
    for name in _DATASET_ARRAYS:
        if name not in arrays:
            raise FormatError(f"{path}: dataset has no {name!r} array")
    ds = AttributedDataset(**{name: arrays[name] for name in _DATASET_ARRAYS}, metadata=meta)
    # Validated before the cast, so fractional split tags are refused, not truncated.
    ds.validate()
    # min and max propagate NaN and reach any infinity, with no temporary
    # the size of the instances.
    x = ds.instances
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise FormatError(f"{path}: dataset instances hold non-finite values")
    ds.split = ds.split.astype(np.int8)
    return ds

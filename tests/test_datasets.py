"""Generator and persistence checks for the synthetic datasets."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from latentcf import datasets
from latentcf.container import write_container
from latentcf.datasets import (
    AttributedDataset,
    SynthSpec,
    generate,
    glyph_strokes,
    load_dataset,
    save_dataset,
    spec_to_dict,
)
from latentcf.errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    UnsupportedVersionError,
)


def blob_spec(**overrides):
    base = dict(
        generator="blobs",
        n_features=16,
        n_attributes=4,
        n_samples=200,
        seed=0,
        noise=0.0,
        train_frac=0.6,
        dev_frac=0.2,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_unknown_generator(self):
        with pytest.raises(ConfigurationError):
            blob_spec(generator="moons").validate()

    def test_fractions_must_leave_test_rows(self):
        with pytest.raises(ConfigurationError):
            blob_spec(train_frac=0.7, dev_frac=0.3).validate()

    def test_label_attribute_out_of_range(self):
        with pytest.raises(ConfigurationError):
            blob_spec(label_attributes=(4,)).validate()

    def test_label_attributes_must_address_classes(self):
        with pytest.raises(ConfigurationError):
            blob_spec(n_classes=3, label_attributes=(0,)).validate()

    def test_echo_needs_blobs(self):
        with pytest.raises(ConfigurationError):
            blob_spec(
                generator="glyphs", n_features=16, label_echo=0.5
            ).validate()

    def test_echo_needs_a_free_coordinate(self):
        with pytest.raises(ConfigurationError):
            blob_spec(n_features=4, label_echo=0.5).validate()

    def test_glyphs_need_square_feature_count(self):
        with pytest.raises(ConfigurationError):
            blob_spec(generator="glyphs", n_features=20).validate()

    def test_blobs_need_room_for_attributes(self):
        with pytest.raises(ConfigurationError):
            blob_spec(n_features=3).validate()

    def test_attribute_prob_open_interval(self):
        with pytest.raises(ConfigurationError):
            blob_spec(attribute_prob=1.0).validate()

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            blob_spec(noise=-0.1).validate()

    @pytest.mark.parametrize(
        "field, values",
        [("noise", (np.nan, np.inf)), ("style_leak", (np.nan, np.inf)),
         ("label_echo", (np.nan, np.inf)), ("shift", (np.nan, np.inf, 0.0)),
         ("margin", (np.nan, np.inf, -1.0)), ("train_frac", (np.nan, -np.inf)),
         ("dev_frac", (np.nan, -np.inf))],
    )
    def test_non_finite_floats_are_refused(self, field, values):
        sign = "non-negative" if field in ("noise", "style_leak", "label_echo") else "positive"
        for value in values:
            with pytest.raises(ConfigurationError, match=f"{field} must be a finite {sign}"):
                blob_spec(**{field: value}).validate()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(10, 80),
        st.floats(0.3, 0.7),
        st.floats(0.05, 0.25),
    )
    def test_split_partitions_every_row(self, n, train_frac, dev_frac):
        spec = blob_spec(n_samples=n, train_frac=train_frac, dev_frac=dev_frac)
        try:
            spec.validate()
        except ConfigurationError:
            assume(False)
        ds = generate(spec)
        parts = [ds.indices(p) for p in ("train", "dev", "test")]
        assert sum(len(p) for p in parts) == n
        assert all(len(p) >= 1 for p in parts)
        # contiguous block split, in order
        joined = np.concatenate(parts)
        assert np.array_equal(joined, np.arange(n))


class TestBlobs:
    def test_attribute_block_exact_without_noise(self):
        ds = generate(blob_spec(shift=2.0))
        assert_allclose(ds.instances[:, :4], ds.attributes * 2.0, atol=0)

    def test_two_class_label_is_conjunction(self):
        ds = generate(blob_spec(label_attributes=(0, 1)))
        both = (ds.attributes[:, 0] == 1) & (ds.attributes[:, 1] == 1)
        assert np.array_equal(np.argmax(ds.labels, axis=1), both.astype(int))

    def test_single_bit_label_degenerates_to_that_bit(self):
        ds = generate(blob_spec(label_attributes=(2,)))
        assert np.array_equal(np.argmax(ds.labels, axis=1), ds.attributes[:, 2].astype(int))

    def test_echo_coordinate_carries_the_margin_score(self):
        # No styles and no noise, so the echoed coordinate is exactly
        # label_echo * margin * (2 * conjunction - 1).
        ds = generate(
            blob_spec(
                n_styles=0, label_echo=0.9, margin=1.5, label_attributes=(0, 1)
            )
        )
        both = (ds.attributes[:, 0] == 1) & (ds.attributes[:, 1] == 1)
        expected = 0.9 * 1.5 * (2.0 * both - 1.0)
        assert_allclose(ds.instances[:, 4], expected, atol=0)

    def test_style_leak_spreads_one_factor_over_attribute_columns(self):
        ds = generate(blob_spec(style_leak=0.7, shift=2.0))
        residue = ds.instances[:, :4] - ds.attributes * 2.0
        # Every attribute column picks up the same per-row style value.
        for j in range(1, 4):
            assert_allclose(residue[:, j], residue[:, 0], atol=0)
        assert np.abs(residue).max() > 0

    def test_deterministic_in_seed(self):
        a = generate(blob_spec(noise=0.3, seed=9))
        b = generate(blob_spec(noise=0.3, seed=9))
        assert np.array_equal(a.instances, b.instances)
        assert np.array_equal(a.attributes, b.attributes)
        assert np.array_equal(a.labels, b.labels)

    def test_attribute_balance_on_stock_sizes(self):
        ds = generate(blob_spec(n_samples=6000, noise=0.4, seed=7))
        freq = ds.attributes.mean(axis=0)
        assert np.all(freq >= 0.3) and np.all(freq <= 0.7)

    def test_linear_probe_recovers_attributes(self):
        ds = generate(blob_spec(n_samples=2000, noise=0.1, seed=3))
        x = np.hstack([ds.instances, np.ones((2000, 1))])
        coef, *_ = np.linalg.lstsq(x, ds.attributes * 2.0 - 1.0, rcond=None)
        acc = np.mean(((x @ coef) > 0) == (ds.attributes == 1), axis=0)
        assert np.all(acc > 0.95)

    def test_spec_dict_names_every_field_as_json(self):
        spec = blob_spec(label_attributes=(0, 2))
        assert spec_to_dict(spec) == {
            "generator": "blobs", "n_features": 16, "n_attributes": 4, "n_samples": 200,
            "seed": 0, "n_classes": 2, "noise": 0.0, "shift": 2.0, "margin": 1.0,
            "n_styles": 4, "style_leak": 0.0, "label_echo": 0.0, "label_attributes": [0, 2],
            "attribute_prob": 0.5, "train_frac": 0.6, "dev_frac": 0.2,
        }


class TestGlyphs:
    def glyph(self, **overrides):
        return generate(
            blob_spec(
                generator="glyphs",
                n_features=64,
                n_samples=40,
                seed=2,
                train_frac=0.5,
                dev_frac=0.25,
                **overrides,
            )
        )

    def test_blank_glyph_is_the_base_patch(self):
        ds = self.glyph()
        side = 8
        base = np.zeros((side, side))
        lo, hi = side // 3, side - side // 3
        base[lo:hi, lo:hi] = 0.35
        off = np.all(ds.attributes == 0, axis=1)
        assert off.any()
        assert_allclose(ds.instances[off][0], base.ravel(), atol=0)

    def test_single_stroke_composites_exactly(self):
        ds = self.glyph()
        strokes = glyph_strokes(64, 4)
        only_first = (ds.attributes[:, 0] == 1) & np.all(ds.attributes[:, 1:] == 0, axis=1)
        assert only_first.any()
        base = ds.instances[np.all(ds.attributes == 0, axis=1)][0]
        expected = np.maximum(base, 0.95 * strokes[0])
        assert_allclose(ds.instances[only_first][0], expected, atol=0)

    def test_pixels_stay_in_unit_range(self):
        ds = self.glyph(noise=0.5)
        assert ds.instances.min() >= 0.0
        assert ds.instances.max() <= 1.0

    def test_too_many_attributes_rejected(self):
        with pytest.raises(ConfigurationError):
            blob_spec(generator="glyphs", n_features=144, n_attributes=9).validate()


def small_dataset(**overrides):
    fields = dict(
        instances=np.zeros((3, 2)),
        attributes=np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
        labels=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        split=np.array([0, 1, 2], dtype=np.int8),
    )
    fields.update(overrides)
    return AttributedDataset(**fields)


class TestDatasetValidation:
    def test_valid_dataset_passes(self):
        small_dataset().validate()

    def test_negative_zero_attribute_passes(self):
        small_dataset(attributes=np.array([[-0.0, 1.0], [1.0, -0.0], [0.0, 0.0]])).validate()

    @pytest.mark.parametrize("value", [0.5, np.nan])
    def test_non_binary_attribute_rejected(self, value):
        attrs = small_dataset().attributes.copy()
        attrs[1, 0] = value
        with pytest.raises(ConfigurationError):
            small_dataset(attributes=attrs).validate()

    @pytest.mark.parametrize("row", [[2.0, -1.0], [1.0, 1.0]])
    def test_non_one_hot_label_rejected(self, row):
        labels = small_dataset().labels.copy()
        labels[2] = row
        with pytest.raises(ConfigurationError):
            small_dataset(labels=labels).validate()

    @pytest.mark.parametrize(
        "split", [np.array([0, 3, 2], dtype=np.int8), np.array([0, -1, 2], dtype=np.int8),
                  np.array([0.0, 0.5, 2.0])],
    )
    def test_bad_split_tag_rejected(self, split):
        with pytest.raises(ConfigurationError):
            small_dataset(split=split).validate()


class TestSaveLoad:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = generate(blob_spec(noise=0.25, seed=4, label_echo=0.9, label_attributes=(0, 1)))
        path = tmp_path / "ds.lcfc"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.instances, ds.instances)
        assert np.array_equal(back.attributes, ds.attributes)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.split, ds.split)
        assert back.metadata == ds.metadata

    def test_identical_saves_are_byte_identical(self, tmp_path):
        ds = generate(blob_spec(noise=0.25, seed=4))
        p1, p2 = tmp_path / "a.lcfc", tmp_path / "b.lcfc"
        save_dataset(p1, ds)
        save_dataset(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.lcfc"
        write_container(path, kind="something-else", meta={}, arrays={})
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        save_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncation_rejected(self, tmp_path):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        save_dataset(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_dataset(path)

    @pytest.mark.parametrize("missing", ["instances", "attributes", "labels", "split"])
    def test_missing_array_rejected(self, tmp_path, missing):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        arrays = {name: getattr(ds, name) for name in ("instances", "attributes", "labels", "split")}
        del arrays[missing]
        write_container(path, kind="dataset", meta=ds.metadata, arrays=arrays)
        with pytest.raises(FormatError, match=f"no {missing!r} array"):
            load_dataset(path)

    @pytest.mark.parametrize("meta", [[1, 2], "spec", None])
    def test_meta_must_be_an_object(self, tmp_path, meta):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        arrays = {name: getattr(ds, name) for name in ("instances", "attributes", "labels", "split")}
        write_container(path, kind="dataset", meta=meta, arrays=arrays)
        with pytest.raises(FormatError, match="meta must be a JSON object"):
            load_dataset(path)

    def test_fractional_split_tags_are_not_truncated(self, tmp_path):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        split = ds.split.astype(np.float64)
        split[0] = 0.5
        arrays = {"instances": ds.instances, "attributes": ds.attributes, "labels": ds.labels,
                  "split": split}
        write_container(path, kind="dataset", meta=ds.metadata, arrays=arrays)
        with pytest.raises(ConfigurationError, match="split tags"):
            load_dataset(path)

    def test_future_version_rejected(self, tmp_path):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        save_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)


def write_dataset_arrays(path, ds, **replace):
    """A dataset container holding ds's arrays, some replaced as given."""
    arrays = {name: getattr(ds, name) for name in ("instances", "attributes", "labels", "split")}
    arrays.update(replace)
    write_container(path, kind="dataset", meta=ds.metadata, arrays=arrays)


def assert_both_reads_raise(path, error, rows):
    with pytest.raises(error):
        load_dataset(path)
    with pytest.raises(error):
        load_dataset(path, rows=rows)


class TestRowRead:
    """load_dataset(rows=...) reads a row range and refuses what a full read
    refuses, with the same error type."""

    def test_rows_match_the_full_read(self, tmp_path):
        ds = generate(blob_spec(noise=0.25, seed=4))
        path = tmp_path / "ds.lcfc"
        save_dataset(path, ds)
        for start, stop in ((0, 1), (57, 58), (199, 200), (10, 30)):
            part = load_dataset(path, rows=(start, stop))
            for name in ("instances", "attributes", "labels", "split"):
                got, want = getattr(part, name), getattr(ds, name)[start:stop]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert part.metadata == ds.metadata

    @pytest.mark.parametrize("row", [-1, 200, 201])
    def test_row_outside_the_dataset_is_an_index_error(self, tmp_path, row):
        path = tmp_path / "ds.lcfc"
        save_dataset(path, generate(blob_spec()))
        with pytest.raises(IndexError):
            load_dataset(path, rows=(row, row + 1))

    @pytest.mark.parametrize("name, cut", [("instances", 199), ("attributes", 150),
                                           ("labels", 1), ("split", 198)])
    def test_mismatched_leading_lengths(self, tmp_path, name, cut):
        ds = generate(blob_spec())
        path = tmp_path / "ds.lcfc"
        write_dataset_arrays(path, ds, **{name: getattr(ds, name)[:cut]})
        assert_both_reads_raise(path, DimensionError, (0, 1))

    def test_instances_without_a_leading_axis(self, tmp_path):
        path = tmp_path / "ds.lcfc"
        write_dataset_arrays(path, generate(blob_spec()), instances=np.array(1.0))
        assert_both_reads_raise(path, DimensionError, (0, 1))

    @pytest.mark.parametrize("value", [0.5, np.nan, 2.0])
    def test_bad_attribute_in_the_row(self, tmp_path, value):
        ds = generate(blob_spec())
        attrs = ds.attributes.copy()
        attrs[57, 2] = value
        path = tmp_path / "ds.lcfc"
        write_dataset_arrays(path, ds, attributes=attrs)
        assert_both_reads_raise(path, ConfigurationError, (57, 58))
        load_dataset(path, rows=(56, 57))

    @pytest.mark.parametrize("row", [[1.0, 1.0], [0.5, 0.5], [np.nan, 1.0]])
    def test_bad_label_in_the_row(self, tmp_path, row):
        ds = generate(blob_spec())
        labels = ds.labels.copy()
        labels[57] = row
        path = tmp_path / "ds.lcfc"
        write_dataset_arrays(path, ds, labels=labels)
        assert_both_reads_raise(path, ConfigurationError, (57, 58))
        load_dataset(path, rows=(58, 59))

    @pytest.mark.parametrize("tag", [3.0, 0.5, -1.0, np.nan])
    def test_bad_split_tag_in_the_row(self, tmp_path, tag):
        ds = generate(blob_spec())
        split = ds.split.astype(np.float64)
        split[57] = tag
        path = tmp_path / "ds.lcfc"
        write_dataset_arrays(path, ds, split=split)
        assert_both_reads_raise(path, ConfigurationError, (57, 58))
        assert load_dataset(path, rows=(56, 57)).split.dtype == np.int8


    @pytest.mark.parametrize(
        "row",
        [np.full(16, np.nan), np.r_[0.5, np.inf, np.zeros(14)], np.r_[np.zeros(15), -np.inf]],
        ids=["nan-row", "inf", "minus-inf"],
    )
    def test_non_finite_instances_in_the_row(self, tmp_path, row):
        ds = generate(blob_spec())
        x = ds.instances.copy()
        x[57] = row
        path = tmp_path / "ds.lcfc"
        write_dataset_arrays(path, ds, instances=x)
        message = f"^{re.escape(str(path))}: dataset instances hold non-finite values$"
        for rows in (None, (57, 58)):
            with pytest.raises(FormatError, match=message):
                load_dataset(path, rows=rows)
        load_dataset(path, rows=(56, 57))


class TestAugmentationMetadataFields:
    def test_generated_metadata_names_the_recipe(self):
        spec = blob_spec(seed=12)
        ds = generate(spec)
        assert ds.metadata["generator"] == "blobs"
        assert ds.metadata["seed"] == 12
        assert ds.metadata["spec"] == spec_to_dict(spec)


class TestParts:
    """part() returns read-only arrays: views of contiguous rows, copies of
    scattered ones, each holding the rows a fancy index would pick."""

    def fancy(self, ds, part):
        idx = ds.indices(part)
        return ds.instances[idx], ds.attributes[idx], ds.labels[idx]

    @pytest.mark.parametrize("part", ["train", "dev", "test"])
    def test_contiguous_parts_are_views_that_refuse_writes(self, part):
        ds = generate(blob_spec(noise=0.25))
        arrays = ds.part(part)
        for got, want, whole in zip(arrays, self.fancy(ds, part), (ds.instances, ds.attributes,
                                                                  ds.labels)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert np.shares_memory(got, whole) and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert ds.instances.flags.writeable and ds.labels.flags.writeable

    def test_a_view_sees_a_later_change_to_the_dataset(self):
        ds = generate(blob_spec())
        x_train = ds.part("train")[0]
        ds.instances[0, 0] = 123.0
        assert x_train[0, 0] == 123.0

    def test_scattered_parts_are_read_only_copies(self):
        ds = generate(blob_spec(noise=0.25))
        ds.split = np.tile(np.array([0, 1, 2, 0], dtype=np.int8), 50)
        for part in ("train", "dev", "test"):
            arrays = ds.part(part)
            for got, want, whole in zip(arrays, self.fancy(ds, part),
                                        (ds.instances, ds.attributes, ds.labels)):
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert not np.shares_memory(got, whole) and not got.flags.writeable

    def test_an_empty_part(self):
        ds = small_dataset(split=np.array([0, 0, 2], dtype=np.int8))
        x, a, y = ds.part("dev")
        assert x.shape == (0, 2) and a.shape == (0, 2) and y.shape == (0, 2)
        assert not x.flags.writeable


def reference_blobs(spec, rng):
    """The blob formula as written with whole-array temporaries."""
    attrs = (rng.random((spec.n_samples, spec.n_attributes)) < spec.attribute_prob).astype(
        np.float64
    )
    x = np.zeros((spec.n_samples, spec.n_features))
    x[:, : spec.n_attributes] += attrs * spec.shift
    n_free = spec.n_features - spec.n_attributes
    if spec.n_styles > 0 and n_free > 0:
        styles = rng.standard_normal((spec.n_samples, spec.n_styles))
        mixing = rng.standard_normal((spec.n_styles, n_free)) / np.sqrt(spec.n_styles)
        x[:, spec.n_attributes :] += styles @ mixing
        if spec.style_leak > 0:
            x[:, : spec.n_attributes] += spec.style_leak * styles[:, [0]]
    if spec.noise > 0:
        x += rng.normal(0.0, spec.noise, size=x.shape)
    return x, attrs


def reference_glyphs(spec, rng):
    """The glyph formula as written with whole-array temporaries."""
    side = int(np.sqrt(spec.n_features))
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
        x[on] = np.maximum(x[on], 0.95 * strokes[i])
    if spec.noise > 0:
        x += rng.normal(0.0, spec.noise, size=x.shape)
    return np.clip(x, 0.0, 1.0), attrs


class TestGeneratorParity:
    """The in-place, row-block generators give the bytes of the
    whole-array formulas, on row counts either side of a noise block."""

    @pytest.mark.parametrize("n", [3, 255, 256, 257, 700])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"noise": 0.4},
            {"noise": 0.4, "n_styles": 1, "style_leak": 0.5},
            {"noise": 0.4, "n_styles": 0},
            {"noise": 0.3, "n_attributes": 16, "attribute_prob": 0.3},
        ],
    )
    def test_blobs(self, n, overrides):
        spec = blob_spec(n_samples=n, seed=n, **overrides)
        x, a = datasets._generate_blobs(spec, np.random.default_rng(spec.seed))
        want_x, want_a = reference_blobs(spec, np.random.default_rng(spec.seed))
        assert x.tobytes() == want_x.tobytes() and a.tobytes() == want_a.tobytes()

    @pytest.mark.parametrize("n", [3, 255, 256, 257, 700])
    @pytest.mark.parametrize("overrides", [{}, {"noise": 0.3}, {"noise": 0.5, "n_attributes": 8}])
    def test_glyphs(self, n, overrides):
        spec = blob_spec(generator="glyphs", n_features=64, n_samples=n, seed=n, **overrides)
        x, a = datasets._generate_glyphs(spec, np.random.default_rng(spec.seed))
        want_x, want_a = reference_glyphs(spec, np.random.default_rng(spec.seed))
        assert x.tobytes() == want_x.tobytes() and a.tobytes() == want_a.tobytes()


def glyph_spec(n_samples):
    """The 16x16 glyph recipe at any row count, split in its fixed shares."""
    return SynthSpec(generator="glyphs", n_features=256, n_attributes=4,
                     n_samples=n_samples, seed=1, noise=0.3, label_attributes=(0,),
                     train_frac=1600 / 2300, dev_frac=100 / 2300)


def kept_bytes(ds):
    return sum(a.nbytes for a in (ds.instances, ds.attributes, ds.labels, ds.split))


class TestGenerationMemory:
    """generate holds little beyond the arrays it returns."""

    @pytest.mark.parametrize(
        "spec",
        [glyph_spec(2300), glyph_spec(6900),
         blob_spec(n_features=32, n_samples=20_000, noise=0.4, n_styles=4, style_leak=0.3,
                   label_echo=0.9, label_attributes=(0, 1))],
        ids=["glyphs-2300", "glyphs-6900", "blobs-20000"],
    )
    def test_peak_within_a_fifth_of_what_it_keeps(self, spec):
        generate(dataclasses.replace(spec, n_samples=30))  # first-call allocations
        tracemalloc.start()
        try:
            ds = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * kept_bytes(ds), (peak, kept_bytes(ds))

"""End-to-end runs of the command-line front end, in process."""

import argparse
import dataclasses
import itertools
import json
import os
import stat
import warnings

import numpy as np
import pytest

from latentcf import cli, datasets, engine, metrics, models
from latentcf.applications import attribute_interaction_ranking
from latentcf.cli import build_parser, main
from latentcf.container import write_container
from latentcf.datasets import generate, load_dataset, save_dataset
from latentcf.engine import (
    PerturbConfig,
    desired_class,
    latent_descent,
    read_results_jsonl,
    result_to_dict,
)
from latentcf.errors import ConfigurationError, TrainingError, TrainingQualityWarning
from latentcf.metrics import SWEEP_WEIGHTS, benchmark_recipe
from test_models import malformed_checkpoints, retagged, write_malformed


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small dataset plus a trained stack, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.lcfc"
    rc = main(
        [
            "gen-data",
            "--out", str(data),
            "--samples", "240",
            "--features", "12",
            "--attributes", "2",
            "--seed", "3",
            "--noise", "0.15",
            "--label-attributes", "0",
            "--styles", "2",
            "--train-frac", "0.75",
            "--dev-frac", "0.1",
        ]
    )
    assert rc == 0
    art = root / "art"
    rc = main(
        [
            "train",
            "--data", str(data),
            "--out-dir", str(art),
            "--epochs", "30",
            "--gen-epochs", "60",
            "--batch-size", "32",
            "--lr", "0.05",
            "--hidden", "16",
            "--latent", "5",
            "--seed", "0",
        ]
    )
    assert rc == 0
    return {"root": root, "data": data, "manifest": art / "manifest.json"}


class TestGenData:
    def test_same_flags_same_bytes(self, tmp_path, capsys):
        args = [
            "gen-data", "--samples", "150", "--features", "10", "--attributes", "2",
            "--seed", "9", "--label-attributes", "0", "--train-frac", "0.7",
            "--dev-frac", "0.1",
        ]
        assert main(args + ["--out", str(tmp_path / "a.lcfc")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.lcfc")]) == 0
        assert (tmp_path / "a.lcfc").read_bytes() == (tmp_path / "b.lcfc").read_bytes()
        out = capsys.readouterr().out
        assert "wrote" in out
        ds = load_dataset(tmp_path / "a.lcfc")
        # The summary must report the actual class split, not the one-hot mean.
        assert f"class-1 fraction {ds.labels[:, 1].mean():.3f}" in out

    def test_glyph_generator(self, tmp_path):
        out = tmp_path / "g.lcfc"
        rc = main(
            [
                "gen-data", "--generator", "glyphs", "--out", str(out),
                "--features", "64", "--attributes", "3", "--samples", "90",
                "--seed", "1", "--label-attributes", "0", "--train-frac", "0.7",
                "--dev-frac", "0.15",
            ]
        )
        assert rc == 0
        ds = load_dataset(out)
        assert ds.instances.shape == (90, 64)
        assert ds.instances.min() >= 0.0 and ds.instances.max() <= 1.0
        # The stock recipe's label echo is a blobs-only channel.
        assert ds.metadata["spec"]["label_echo"] == 0.0

    def test_defaults_are_the_stock_recipe(self, tmp_path):
        out = tmp_path / "stock.lcfc"
        assert main(["gen-data", "--out", str(out)]) == 0
        ds, stock = load_dataset(out), generate(benchmark_recipe().spec)
        for name in ("instances", "attributes", "labels", "split"):
            assert np.array_equal(getattr(ds, name), getattr(stock, name)), name

    @pytest.mark.parametrize(
        "argv, echo, label_attributes",
        [
            (["--classes", "3", "--label-attributes", "0,1"], 0.0, [0, 1]),
            (["--features", "4", "--attributes", "4"], 0.0, [0, 1]),
            (["--attributes", "1"], 0.9, [0]),
        ],
    )
    def test_stock_values_the_spec_cannot_carry_drop_out(self, tmp_path, argv, echo,
                                                         label_attributes):
        out = tmp_path / "d.lcfc"
        assert main(["gen-data", *argv, "--out", str(out)]) == 0
        spec = load_dataset(out).metadata["spec"]
        assert (spec["label_echo"], list(spec["label_attributes"])) == (echo, label_attributes)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--classes", "3", "--label-attributes", "0,1", "--label-echo", "0.5"],
             "label_echo applies to two-class blobs only"),
            (["--attributes", "1", "--label-attributes", "0,1"], "label attribute 1 out of range"),
        ],
    )
    def test_values_the_user_sets_are_kept(self, tmp_path, capsys, argv, message):
        err = user_error(capsys, ["gen-data", *argv, "--out", str(tmp_path / "d.lcfc")])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--train-frac", "nan", "train_frac must be a finite positive number, got nan"),
         ("--dev-frac", "nan", "dev_frac must be a finite positive number, got nan"),
         ("--noise", "nan", "noise must be a finite non-negative number, got nan"),
         ("--margin", "nan", "margin must be a finite positive number, got nan"),
         ("--shift", "inf", "shift must be a finite positive number, got inf"),
         ("--style-leak", "nan", "style_leak must be a finite non-negative number, got nan"),
         ("--label-echo", "nan", "label_echo must be a finite non-negative number, got nan")],
    )
    def test_non_finite_settings_are_refused_before_writing(self, tmp_path, capsys, flag,
                                                             value, message):
        out = tmp_path / "d.lcfc"
        err = user_error(capsys, ["gen-data", flag, value, "--out", str(out)])
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_spec_is_a_user_error(self, tmp_path, capsys):
        rc = main(
            ["gen-data", "--generator", "glyphs", "--features", "60",
             "--out", str(tmp_path / "x.lcfc")]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_stack_files_exist(self, workspace):
        art = workspace["manifest"].parent
        for name in ("manifest.json", "target.lcfc", "discriminator.lcfc", "generative.lcfc"):
            assert (art / name).exists()
        manifest = json.loads(workspace["manifest"].read_text())
        assert manifest["train"]["epochs"] == 30
        assert sorted(manifest) == sorted([*PATH_KEYS, "seed", "train"])

    def test_missing_data_flag(self, capsys):
        assert main(["train"]) == 1
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--latent", "0", "latent_dim"), ("--disc-weight", "nan", "disc_weight"),
         ("--gen-lr", "-1", "learning_rate"),
         ("--hidden", "0", "hidden_dims must all be at least 1, got (0,)"),
         ("--hidden", "-3", "hidden_dims must all be at least 1, got (-3,)"),
         ("--hidden", "8,0", "hidden_dims must all be at least 1, got (8, 0)")],
    )
    def test_settings_refused_before_any_model_trains(self, workspace, tmp_path, capsys,
                                                      monkeypatch, flag, value, field):
        def untrained(*args):
            raise AssertionError("train_target ran")

        monkeypatch.setattr(cli, "train_target", untrained)
        out = tmp_path / "art"
        err = user_error(capsys, ["train", "--data", str(workspace["data"]),
                                  "--out-dir", str(out), flag, value])
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("part", ["train", "dev", "test"])
    def test_an_empty_part_is_refused_before_any_checkpoint(self, workspace, tmp_path, capsys,
                                                            part):
        data, out = tmp_path / "data.lcfc", tmp_path / "art"
        save_dataset(data, retagged(load_dataset(workspace["data"]), part,
                                    "dev" if part == "train" else "train"))
        err = user_error(capsys, ["train", "--data", str(data), "--out-dir", str(out),
                                  "--epochs", "1", "--gen-epochs", "1"])
        assert err == f"error: dataset has no {part} rows\n"
        assert not list(out.glob("*.lcfc"))

    @pytest.mark.parametrize("refusal", ["empty-dev-part", "autoencoder-diverged"])
    def test_a_refused_run_leaves_no_out_dir(self, workspace, tmp_path, capsys, monkeypatch,
                                             refusal):
        data, out = workspace["data"], tmp_path / "art"
        if refusal == "empty-dev-part":
            data = tmp_path / "data.lcfc"
            save_dataset(data, retagged(load_dataset(workspace["data"]), "dev", "train"))
        else:
            def diverged(*args):
                raise TrainingError("autoencoder diverged")

            monkeypatch.setattr(cli, "train_target", lambda *args: None)
            monkeypatch.setattr(cli, "train_discriminator", lambda *args: None)
            monkeypatch.setattr(cli, "train_generative", diverged)
        user_error(capsys, ["train", "--data", str(data), "--out-dir", str(out),
                            "--epochs", "1", "--gen-epochs", "1"])
        assert not out.exists()

    def test_an_out_dir_that_cannot_be_made_is_refused_after_training(self, workspace, capsys,
                                                                      monkeypatch):
        trained = []
        for name in ("train_target", "train_discriminator", "train_generative"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: trained.append(name))
        # The out dir runs through the dataset file as if it were a directory.
        out = f"{workspace['data']}/art"
        err = user_error(capsys, ["train", "--data", str(workspace["data"]), "--out-dir", out])
        assert out in err
        assert trained == ["train_target", "train_discriminator", "train_generative"]

    @pytest.mark.parametrize(
        "extra, ini",
        [(["--activation", "foo"], None), (["--activation", "foo", "--hidden", ""], None),
         ([], "[train]\nactivation = softmax\nhidden =\n")],
        ids=["flag", "flag-no-hidden", "file-no-hidden"],
    )
    def test_unknown_hidden_activation_refused(self, workspace, tmp_path, capsys, extra, ini):
        out = tmp_path / "art"
        argv = ["train", "--data", str(workspace["data"]), "--out-dir", str(out), *extra]
        if ini is not None:
            (tmp_path / "c.ini").write_text(ini)
            argv += ["--config", str(tmp_path / "c.ini")]
        err = user_error(capsys, argv)
        assert "hidden_activation must be one of identity, relu, tanh, sigmoid" in err
        assert not out.exists()


class TestExplain:
    def test_query_index_prints_attribute_moves(self, workspace, capsys, tmp_path):
        out = tmp_path / "result.jsonl"
        rc = main(
            [
                "explain", "--manifest", str(workspace["manifest"]),
                "--query-index", "200", "--max-iters", "60", "--out", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "prediction" in text
        assert "attribute 0:" in text
        results = read_results_jsonl(out)
        assert len(results) == 1
        assert results[0].query_index == 200

    def test_target_runs_once_outside_the_search(self, workspace, capsys, monkeypatch):
        calls = []
        original = models.TargetModel.predict_proba

        def counting(self, x):
            calls.append(original(self, x))
            return calls[-1]

        monkeypatch.setattr(models.TargetModel, "predict_proba", counting)
        rc = main(
            [
                "explain", "--manifest", str(workspace["manifest"]),
                "--query-index", "200", "--max-iters", "60",
            ]
        )
        assert rc == 0
        assert len(calls) == 1
        predicted = int(np.argmax(calls[0]))
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith(f"prediction {predicted} -> desired {1 - predicted}: ")

    def test_instance_file_without_attributes(self, workspace, tmp_path):
        ds = load_dataset(workspace["data"])
        payload = {"instance": list(ds.instances[0])}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(payload))
        rc = main(
            [
                "explain", "--manifest", str(workspace["manifest"]),
                "--instance-file", str(path), "--max-iters", "60",
            ]
        )
        assert rc == 0

    def test_exactly_one_source_required(self, workspace, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"instance": [0.0] * 12}))
        rc = main(
            [
                "explain", "--manifest", str(workspace["manifest"]),
                "--query-index", "0", "--instance-file", str(path),
            ]
        )
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_pgm_needs_square_features(self, workspace, tmp_path, capsys, monkeypatch):
        """Refused before the search, so --out is not written either."""
        searches = count_searches(monkeypatch)
        out = tmp_path / "r.jsonl"
        err = user_error(capsys, ["explain", "--manifest", str(workspace["manifest"]),
                                  "--query-index", "0", "--max-iters", "20", "--out", str(out),
                                  "--pgm", str(tmp_path / "img")])
        assert err == "error: instance of length 12 is not square\n"
        assert searches == [] and not out.exists()


class TestExplainOutRewrite:
    """explain --out rewrites its file in place: through a symlink, keeping
    the inode and mode, and with no ftruncate on a device."""

    def explain(self, workspace, out, max_iters):
        assert main(["explain", "--manifest", str(workspace["manifest"]), "--query-index",
                     "201", "--max-iters", str(max_iters), "--out", str(out)]) == 0

    def test_a_symlink_is_written_through(self, workspace, tmp_path):
        target, link = tmp_path / "r.jsonl", tmp_path / "link.jsonl"
        self.explain(workspace, target, 60)
        link.symlink_to(target.name)
        self.explain(workspace, link, 0)
        assert link.is_symlink() and os.readlink(link) == target.name
        (result,) = read_results_jsonl(target)
        assert result.iterations == 0

    def test_a_hard_link_sees_the_new_record_and_the_mode_is_kept(self, workspace, tmp_path):
        path, other = tmp_path / "r.jsonl", tmp_path / "other.jsonl"
        self.explain(workspace, path, 60)
        path.chmod(0o640)
        os.link(path, other)
        inode = path.stat().st_ino
        self.explain(workspace, path, 0)
        assert path.stat().st_ino == inode and other.stat().st_nlink == 2
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert other.read_bytes() == path.read_bytes()
        (result,) = read_results_jsonl(other)
        assert result.iterations == 0

    def test_dev_null_takes_no_ftruncate(self, workspace, monkeypatch):
        cut = []
        real_ftruncate = os.ftruncate

        def recording_ftruncate(fd, length):
            cut.append(fd)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
        self.explain(workspace, os.devnull, 60)
        assert cut == []


def stack_of(workspace):
    """The workspace's full dataset and its target and generative models."""
    manifest = absolute_manifest(workspace)
    return (load_dataset(manifest["dataset"]), models.load_target(manifest["target"]),
            models.load_generative(manifest["generative"]))


def without_wall_time(record):
    record = dict(record)
    del record["wall_time_micros"]
    return record


class TestQueryRowRead:
    """explain and rank --query-index read the row they explain and no other;
    --instance-file reads no dataset at all."""

    SEARCH = ["--max-iters", "60", "--alpha", "1.5"]

    @pytest.fixture
    def dataset_reads(self, monkeypatch):
        """The array shapes of every dataset container read."""
        shapes = []
        original = datasets.read_container

        def recording(*args, **kwargs):
            kind, meta, arrays = original(*args, **kwargs)
            shapes.append({name: arr.shape for name, arr in arrays.items()})
            return kind, meta, arrays

        monkeypatch.setattr(datasets, "read_container", recording)
        return shapes

    @pytest.mark.parametrize("command", ["explain", "rank"])
    def test_one_row_of_each_array_is_read(self, workspace, capsys, dataset_reads, command):
        argv = [command, "--manifest", str(workspace["manifest"]), "--query-index", "239"]
        assert main(argv + self.SEARCH) == 0
        assert dataset_reads == [
            {"instances": (1, 12), "attributes": (1, 2), "labels": (1, 2), "split": (1,)}
        ]

    def expected(self, workspace, row, freeze):
        """latent_descent on the fully loaded row, as the CLI configures it."""
        ds, target, gen = stack_of(workspace)
        x0, a0 = ds.instances[row], ds.attributes[row]
        cfg = PerturbConfig(max_iters=60, distance_weight=1.5, optimize_attributes=not freeze)
        cfg.desired = 1 - int(target.predict(x0))
        return latent_descent(target, gen, x0, a0, cfg, query_index=row)

    @pytest.mark.parametrize("freeze", [False, True])
    @pytest.mark.parametrize("row", [0, 57, 201, 239])
    def test_explain_matches_a_search_on_the_full_read(self, workspace, tmp_path, capsys,
                                                       row, freeze):
        out = tmp_path / "r.jsonl"
        argv = ["explain", "--manifest", str(workspace["manifest"]), "--query-index",
                str(row), "--out", str(out), *self.SEARCH]
        assert main(argv + ["--freeze-attributes"] * freeze) == 0
        (line,) = out.read_text().splitlines()
        want = result_to_dict(self.expected(workspace, row, freeze))
        assert without_wall_time(json.loads(line)) == without_wall_time(
            json.loads(json.dumps(want, sort_keys=True))
        )

    @pytest.mark.parametrize("freeze", [False, True])
    def test_rank_matches_a_search_on_the_full_read(self, workspace, tmp_path, capsys, freeze):
        out = tmp_path / "rank.csv"
        argv = ["rank", "--manifest", str(workspace["manifest"]), "--query-index", "57",
                "--out", str(out), *self.SEARCH]
        assert main(argv + ["--freeze-attributes"] * freeze) == 0
        ranking = attribute_interaction_ranking(self.expected(workspace, 57, freeze))
        assert out.read_text() == "attribute,score\n" + "".join(
            f"{e.name},{e.score!r}\n" for e in ranking
        )

    @pytest.mark.parametrize("command", ["explain", "rank"])
    @pytest.mark.parametrize("row", [-1, 240, 10**6])
    def test_index_outside_the_dataset(self, workspace, capsys, command, row):
        err = user_error(capsys, [command, "--manifest", str(workspace["manifest"]),
                                  "--query-index", str(row)])
        assert err == f"error: query index {row} out of range\n"

    def instance_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"instance": [0.1] * 12}))
        return str(path)

    @pytest.mark.parametrize("command", ["explain", "rank"])
    def test_instance_file_reads_no_dataset(self, workspace, tmp_path, capsys, dataset_reads,
                                            command):
        argv = [command, "--manifest", str(workspace["manifest"]),
                "--instance-file", self.instance_file(tmp_path)]
        assert main(argv + self.SEARCH) == 0
        assert dataset_reads == []

    @pytest.mark.parametrize("damage", ["missing", "not-a-container"])
    def test_instance_file_explains_without_a_readable_dataset(self, workspace, tmp_path, capsys,
                                                               damage):
        manifest = absolute_manifest(workspace)
        manifest["dataset"] = str(tmp_path / "data.lcfc")
        if damage == "not-a-container":
            (tmp_path / "data.lcfc").write_bytes(b"not a container")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        argv = ["explain", "--manifest", str(path)]
        assert main(argv + ["--instance-file", self.instance_file(tmp_path)] + self.SEARCH) == 0
        # A row still needs the dataset.
        user_error(capsys, argv + ["--query-index", "0"])

    @pytest.mark.parametrize("command", ["explain", "rank"])
    def test_both_sources_fail_before_any_file_is_read(self, workspace, tmp_path, capsys,
                                                       monkeypatch, command):
        reads = []
        for module, name in ((datasets, "read_container"), (models, "read_container"),
                             (cli, "load_manifest")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _f=original, **k: reads.append(a) or _f(*a, **k))
        err = user_error(capsys, [command, "--manifest", str(workspace["manifest"]),
                                  "--query-index", "0",
                                  "--instance-file", self.instance_file(tmp_path)])
        assert "exactly one" in err
        assert reads == []


class TestBench:
    def test_report_files_and_stdout(self, workspace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rc = main(
            [
                "bench", "--manifest", str(workspace["manifest"]),
                "--queries", "8", "--seed", "2", "--max-iters", "40",
                "--out", str(report_path), "--csv", str(csv_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("method,flipping_ratio,mean_latent_perturbation,n_queries")
        parsed = json.loads(report_path.read_text())
        assert set(parsed["methods"]) == {
            "latent-descent",
            "latent-descent-frozen",
            "latent-random",
            "gradient-sign",
            "input-descent",
        }
        assert csv_path.read_text().count("\n") == 6

    def test_timing_free_reports_are_byte_identical(self, workspace, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            rc = main(
                [
                    "bench", "--manifest", str(workspace["manifest"]),
                    "--queries", "6", "--seed", "2", "--max-iters", "40",
                    "--no-include-timing", "--out", str(p),
                ]
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_desired_flag_sets_the_desired_class(self, workspace, tmp_path):
        """--desired, the search option, pins the harness's class as
        --desired-class does; the report records it either way."""
        reports = {}
        for flag in ("--desired", "--desired-class"):
            path = tmp_path / f"{flag}.json"
            rc = main(
                [
                    "bench", "--manifest", str(workspace["manifest"]),
                    "--queries", "4", "--seed", "2", "--max-iters", "20",
                    flag, "0", "--no-include-timing", "--out", str(path),
                ]
            )
            assert rc == 0
            reports[flag] = path.read_bytes()
        assert reports["--desired"] == reports["--desired-class"]
        assert json.loads(reports["--desired"])["config"]["desired_class"] == 0

    def test_desired_flags_naming_different_classes_are_refused(self, workspace, tmp_path,
                                                                capsys):
        """Both flags with different values would drop one of them; equal
        values pin the class as either flag alone does."""
        argv = ["bench", "--manifest", str(workspace["manifest"]), "--queries", "4",
                "--seed", "2", "--max-iters", "20", "--no-include-timing"]
        out = tmp_path / "r.json"
        err = user_error(capsys, argv + ["--desired", "0", "--desired-class", "1",
                                         "--out", str(out)])
        assert "--desired 0 and --desired-class 1" in err and not out.exists()
        assert main(argv + ["--desired", "1", "--desired-class", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["desired_class"] == 1

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
    def test_a_bad_epsilon_is_refused_before_any_search(self, workspace, tmp_path, capsys,
                                                        monkeypatch, epsilon):
        searches = count_searches(monkeypatch)
        out, csv = tmp_path / "r.json", tmp_path / "r.csv"
        err = user_error(capsys, ["bench", "--manifest", str(workspace["manifest"]),
                                  "--queries", "4", "--epsilon", epsilon, "--out", str(out),
                                  "--csv", str(csv)])
        assert err.startswith("error: epsilon must be a finite non-negative number, got ")
        assert searches == [] and not out.exists() and not csv.exists()

    def test_missing_manifest_flag(self, capsys):
        assert main(["bench"]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_nonexistent_manifest_path(self, tmp_path, capsys):
        assert main(["bench", "--manifest", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


PATH_KEYS = ("dataset", "target", "discriminator", "generative")


def absolute_manifest(workspace):
    """The workspace manifest with every path made absolute."""
    manifest = json.loads(workspace["manifest"].read_text())
    base = workspace["manifest"].parent
    for key in PATH_KEYS:
        manifest[key] = str((base / manifest[key]).resolve())
    return manifest


def explain_reading(key, manifest, workspace, tmp_path):
    """An explain argv that reads the manifest's `key` file. The
    discriminator is read only to label an instance given without
    attributes; --query-index reads the other three."""
    if key != "discriminator":
        return ["explain", "--manifest", str(manifest), "--query-index", "0"]
    instance = tmp_path / "bare.json"
    instance.write_text(json.dumps({"instance": list(load_dataset(workspace["data"]).instances[0])}))
    return ["explain", "--manifest", str(manifest), "--instance-file", str(instance)]


def user_error(capsys, argv):
    """Run the CLI, assert exit 1 with one error line and no traceback, and
    return that stderr."""
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    return err


def count_searches(monkeypatch):
    """A list that gains the name of each search loop (engine._search) and
    each benchmark run (run_benchmark, as cli and metrics call it) entered."""
    calls = []
    for module, name in ((engine, "_search"), (cli, "run_benchmark"), (metrics, "run_benchmark")):
        original = getattr(module, name)

        def counted(*args, _name=name, _f=original, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestManifestErrors:
    """A malformed manifest ends in exit 1 and an error line, never a traceback."""

    def explain_with(self, tmp_path, capsys, content):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(content))
        return user_error(capsys, ["explain", "--manifest", str(path), "--query-index", "0"])

    def test_well_formed_manifest_passes(self, workspace, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(absolute_manifest(workspace)))
        assert main(["explain", "--manifest", str(path), "--query-index", "0"]) == 0

    @pytest.mark.parametrize("content", [[1, 2], "manifest", 5, None])
    def test_top_level_not_an_object(self, tmp_path, capsys, content):
        assert "JSON object" in self.explain_with(tmp_path, capsys, content)

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_path_key_missing(self, workspace, tmp_path, capsys, key):
        manifest = absolute_manifest(workspace)
        del manifest[key]
        assert repr(key) in self.explain_with(tmp_path, capsys, manifest)

    @pytest.mark.parametrize("value", [5, None, ["data.lcfc"], {"path": "data.lcfc"}, True])
    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_path_key_not_a_string(self, workspace, tmp_path, capsys, key, value):
        manifest = absolute_manifest(workspace)
        manifest[key] = value
        assert repr(key) in self.explain_with(tmp_path, capsys, manifest)

    @pytest.mark.parametrize("value", [[30], "epochs=30", 30, None])
    def test_train_not_an_object(self, workspace, tmp_path, capsys, value):
        manifest = absolute_manifest(workspace)
        manifest["train"] = value
        assert "'train'" in self.explain_with(tmp_path, capsys, manifest)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epochs", "forty"),
            ("epochs", True),
            ("epochs", 40.0),
            ("batch_size", None),
            ("learning_rate", "fast"),
            ("learning_rate", False),
            ("hidden_dims", 32),
            ("hidden_dims", ["32"]),
            ("hidden_dims", [16, True]),
            ("hidden_activation", 5),
        ],
    )
    def test_train_field_of_the_wrong_type(self, workspace, tmp_path, capsys, key, value):
        manifest = absolute_manifest(workspace)
        manifest["train"][key] = value
        assert repr(key) in self.explain_with(tmp_path, capsys, manifest)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("epochs", "forty", "manifest 'train' field 'epochs' must be an integer"),
            ("learning_rate", 10**400, "manifest 'train' field 'learning_rate' must be a number"),
            ("learning_rate", -1,
             "manifest 'train': learning_rate must be a finite positive number, got -1"),
        ],
        ids=["wrong-type", "beyond-float64", "invalid"],
    )
    def test_augment_compare_refuses_a_bad_train_field_before_any_search(
        self, workspace, tmp_path, capsys, monkeypatch, key, value, message
    ):
        searches = count_searches(monkeypatch)
        manifest = absolute_manifest(workspace)
        manifest["train"][key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "aug.lcfc"
        err = user_error(capsys, ["augment", "--manifest", str(path), "--count", "2",
                                  "--compare", "1", "--out", str(out)])
        assert err == f"error: {path}: {message}\n"
        assert searches == [] and not out.exists()

    def test_only_compare_validates_the_train_settings(self, workspace, tmp_path, capsys):
        manifest = absolute_manifest(workspace)
        manifest["train"]["learning_rate"] = -1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["augment", "--manifest", str(path), "--count", "2", "--max-iters", "20",
                     "--out", str(tmp_path / "aug.lcfc")]) == 0

    def test_train_section_is_optional(self, workspace, tmp_path, capsys):
        manifest = absolute_manifest(workspace)
        del manifest["train"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["explain", "--manifest", str(path), "--query-index", "0"]) == 0


class TestSweep:
    def test_curve_csv_and_json(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", "--manifest", str(workspace["manifest"]),
                "--weights", "0,0.8", "--queries", "5", "--max-iters", "40",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "distance_weight,flipping_ratio,mean_latent_perturbation"
        assert len(json.loads(out.read_text())) == 2

    def test_default_weights(self, workspace, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", "--manifest", str(workspace["manifest"]), "--queries", "2",
                "--max-iters", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        points = json.loads(out.read_text())
        assert [p["distance_weight"] for p in points] == list(SWEEP_WEIGHTS)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-0.5"])
    def test_a_bad_weight_is_refused_before_any_search(self, workspace, tmp_path, capsys,
                                                       monkeypatch, weight):
        searches = count_searches(monkeypatch)
        out = tmp_path / "sweep.json"
        err = user_error(capsys, ["sweep", "--manifest", str(workspace["manifest"]),
                                  "--weights", f"1,2,{weight}", "--queries", "5",
                                  "--out", str(out)])
        assert err == f"error: distance_weight must be a finite non-negative number, got {weight}\n"
        assert searches == [] and not out.exists()


class TestRank:
    def test_rank_from_saved_results(self, workspace, tmp_path, capsys):
        results = tmp_path / "result.jsonl"
        assert main(
            [
                "explain", "--manifest", str(workspace["manifest"]),
                "--query-index", "201", "--max-iters", "60", "--out", str(results),
            ]
        ) == 0
        capsys.readouterr()
        rc = main(["rank", "--results", str(results)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "attribute,score"
        assert len(lines) == 3

    def test_rank_excludes_and_names(self, workspace, tmp_path, capsys):
        results = tmp_path / "result.jsonl"
        main(
            [
                "explain", "--manifest", str(workspace["manifest"]),
                "--query-index", "201", "--max-iters", "60", "--out", str(results),
            ]
        )
        capsys.readouterr()
        rc = main(
            ["rank", "--results", str(results), "--names", "hue,size", "--exclude", "0"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("size,")

    @pytest.mark.parametrize("exclude", ["99", "0,2"])
    def test_rank_refuses_an_exclude_out_of_range(self, workspace, tmp_path, capsys, exclude):
        results = tmp_path / "result.jsonl"
        main(["explain", "--manifest", str(workspace["manifest"]), "--query-index", "201",
              "--max-iters", "60", "--out", str(results)])
        capsys.readouterr()
        out = tmp_path / "rank.csv"
        err = user_error(capsys, ["rank", "--results", str(results), "--exclude", exclude,
                                  "--out", str(out)])
        assert err == f"error: excluded attribute {exclude.split(',')[-1]} out of range\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", [["--queries", "5"], ["--query-index", "201"]],
                             ids=["queries", "query-index"])
    @pytest.mark.parametrize("flags, message", [
        (["--names", "a,b,c"], "names do not match the attribute count"),
        (["--exclude", "99"], "excluded attribute 99 out of range"),
        (["--exclude", "1,-1"], "excluded attribute -1 out of range"),
    ], ids=["names", "exclude", "negative-exclude"])
    def test_names_and_exclude_are_refused_before_any_search(self, workspace, tmp_path, capsys,
                                                             monkeypatch, source, flags,
                                                             message):
        searches = count_searches(monkeypatch)
        out = tmp_path / "rank.csv"
        err = user_error(capsys, ["rank", "--manifest", str(workspace["manifest"]), *source,
                                  *flags, "--out", str(out)])
        assert err == f"error: {message}\n"
        assert searches == [] and not out.exists()

    def test_rank_over_fresh_queries(self, workspace, capsys):
        rc = main(
            [
                "rank", "--manifest", str(workspace["manifest"]),
                "--queries", "5", "--max-iters", "40",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("attribute,score")

    def test_rank_needs_a_source(self, capsys):
        assert main(["rank"]) == 1
        assert "give --results or --manifest" in capsys.readouterr().err

    SOURCES = {
        "--results": "missing.jsonl",
        "--queries": "3",
        "--query-index": "0",
        "--instance-file": "nonexistent.json",
    }

    @pytest.mark.parametrize(
        "flags", [*itertools.combinations(SOURCES, 2), tuple(SOURCES)], ids="+".join
    )
    def test_two_sources_are_refused_before_any_file_is_read(self, workspace, capsys, monkeypatch,
                                                              flags):
        reads = []
        for module, name in ((datasets, "read_container"), (models, "read_container"),
                             (cli, "load_manifest"), (cli, "read_json"),
                             (cli, "read_results_jsonl")):
            monkeypatch.setattr(module, name, lambda *a, **k: reads.append(a))
        argv = ["rank", "--manifest", str(workspace["manifest"])]
        for flag in flags:
            argv += [flag, self.SOURCES[flag]]
        err = user_error(capsys, argv)
        assert err == ("error: give exactly one of --results, --queries, --query-index or "
                       f"--instance-file, not {' and '.join(flags)}\n")
        assert reads == []


class TestAugment:
    def test_successful_run_exits_zero(self, workspace, tmp_path, capsys):
        out = tmp_path / "aug.lcfc"
        rc = main(
            [
                "augment", "--manifest", str(workspace["manifest"]),
                "--count", "10", "--max-iters", "60", "--out", str(out),
            ]
        )
        assert rc == 0
        assert "10 counterfactual rows appended" in capsys.readouterr().out
        assert load_dataset(out).metadata["augmented_tail"] == 10

    def test_shortfall_exits_three(self, workspace, tmp_path, capsys):
        out = tmp_path / "aug.lcfc"
        rc = main(
            [
                "augment", "--manifest", str(workspace["manifest"]),
                "--count", "100000", "--max-iters", "40", "--out", str(out),
            ]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert out.exists()

    @pytest.mark.parametrize("compare", ["0", "-2"])
    def test_compare_below_one_is_refused_before_any_search(self, workspace, tmp_path, capsys,
                                                            monkeypatch, compare):
        searches = count_searches(monkeypatch)
        out = tmp_path / "aug.lcfc"
        err = user_error(capsys, ["augment", "--manifest", str(workspace["manifest"]),
                                  "--count", "5", "--compare", compare, "--out", str(out)])
        assert err == f"error: --compare must be at least 1, got {compare}\n"
        assert searches == [] and not out.exists()

    def test_compare_reports_both_accuracies(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "augment", "--manifest", str(workspace["manifest"]),
                "--count", "5", "--max-iters", "60",
                "--out", str(tmp_path / "aug.lcfc"), "--compare", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "base test accuracy" in out
        assert "augmented test accuracy" in out


class TestConfigLayers:
    def test_flag_beats_file_beats_builtin(self, tmp_path):
        ini = tmp_path / "latentcf.ini"
        ini.write_text("[gen-data]\nsamples = 100\nfeatures = 10\nlabel-attributes = 0\n")
        out = tmp_path / "layered.lcfc"
        rc = main(
            [
                "gen-data", "--config", str(ini), "--samples", "120",
                "--train-frac", "0.7", "--dev-frac", "0.15", "--attributes", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        ds = load_dataset(out)
        # flag wins over the file for samples; the file wins for features;
        # builtins fill the rest.
        assert ds.instances.shape == (120, 10)
        assert ds.metadata["spec"]["seed"] == 7

    GEN_DATA = ["gen-data"]
    # rank --results reads none of the search options.
    RANK = ["rank", "--results", "missing.jsonl"]

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            ("[gen-data]\nfeatures = forty\n", GEN_DATA, "features = 'forty': invalid literal"),
            ("[gen-data]\nlabel-attributes = 0,one\n", GEN_DATA, "label-attributes = '0,one'"),
            ("features = 10\n", GEN_DATA, "no section headers"),
            ("[gen-data]\nfeatures = 10\nfeatures = 12\n", GEN_DATA, "already exists"),
            ("[gen-data]\nnoise = %(missing)s\n", GEN_DATA, "Bad value substitution"),
            ("[gen-data]\nsampels = 50\n", GEN_DATA, "[gen-data] has no option 'sampels'"),
            ("[gen-data]\nmax-iters = 50\n", GEN_DATA, "[gen-data] has no option 'max-iters'"),
            ("[gen-data]\nconfig = other.ini\n", GEN_DATA, "[gen-data] has no option 'config'"),
            ("[gen-data]\nhelp = yes\n", GEN_DATA, "[gen-data] has no option 'help'"),
            ("[gen-data]\ngenerator = cubes\n", GEN_DATA,
             "generator = 'cubes': not one of blobs, glyphs"),
            ("[rank]\nalpha = fast\n", RANK, "alpha = 'fast': could not convert"),
            ("[rank]\nno-freeze-attributes = yes\n", RANK,
             "[rank] has no option 'no-freeze-attributes'"),
        ],
        ids=["bad-int", "bad-list", "no-section-header", "repeated-key", "interpolation",
             "unknown-key", "other-commands-key", "config-key", "help-key", "outside-choices",
             "option-this-path-never-reads", "negated-flag-key"],
    )
    def test_malformed_file_is_a_user_error(self, tmp_path, capsys, monkeypatch, text, argv,
                                            message):
        monkeypatch.chdir(tmp_path)
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        rc = main([argv[0], "--config", str(ini), *argv[1:], "--out", "x.out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {ini}: ") and "Traceback" not in err
        assert message in err
        assert not (tmp_path / "x.out").exists()

    # Flag text for each option type; a new type must be added here.
    FLAG_TEXT = {None: "some-text", int: "3", float: "0.25", cli._int_list: "0,2",
                 cli._float_list: "0.5,1"}

    @pytest.mark.parametrize("command",
                             ["gen-data", "train", "explain", "bench", "sweep", "rank", "augment"])
    def test_file_values_resolve_like_flags(self, tmp_path, command):
        parser = build_parser()
        ini = tmp_path / "c.ini"
        for key, action in cli._ini_actions(command).items():
            if isinstance(action, argparse.BooleanOptionalAction):
                cases = [("yes", [f"--{key}"]), ("off", [f"--no-{key}"])]
            else:
                text = action.choices[-1] if action.choices else self.FLAG_TEXT[action.type]
                cases = [(text, [f"--{key}", text])]
            for file_text, flags in cases:
                ini.write_text(f"[{command}]\n{key} = {file_text}\n")
                from_file = cli.Options(parser.parse_args([command, "--config", str(ini)]))
                from_flag = cli.Options(parser.parse_args([command, *flags]))
                value = from_flag.get(action.dest)
                assert value is not None and from_file.get(action.dest) == value, key

    def test_default_section(self, tmp_path):
        """[DEFAULT] keys fill the command's section, which beats them, and
        are checked like its own keys; without that section none is read."""
        ini = tmp_path / "c.ini"

        def options(text):
            ini.write_text(text)
            return cli.Options(build_parser().parse_args(["gen-data", "--config", str(ini)]))

        opts = options("[DEFAULT]\nseed = 5\nfeatures = 10\n[gen-data]\nfeatures = 12\n")
        assert (opts.get("seed"), opts.get("n_features")) == (5, 12)
        with pytest.raises(ConfigurationError, match=r"\[gen-data\] has no option 'max-iters'"):
            options("[DEFAULT]\nmax-iters = 5\n[gen-data]\n")
        # Without the command's section, [DEFAULT] alone is read and checked.
        assert options("[DEFAULT]\nseed = 5\n[train]\nepochs = 2\n").get("seed") == 5
        assert options("[DEFAULT]\nseed = 5\n").get("seed") == 5
        with pytest.raises(ConfigurationError, match=r"\[gen-data\] has no option 'max-iters'"):
            options("[DEFAULT]\nseed = 5\nmax-iters = 5\n[train]\n")
        with pytest.raises(ConfigurationError, match=r"seed = 'five'"):
            options("[DEFAULT]\nseed = five\n")

    def test_default_section_alone_sets_the_dataset_seed(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[DEFAULT]\nseed = 5\nsamples = 100\n")
        out = tmp_path / "d.lcfc"
        assert main(["gen-data", "--config", str(ini), "--out", str(out)]) == 0
        spec = load_dataset(out).metadata["spec"]
        assert (spec["seed"], spec["n_samples"]) == (5, 100)

    @pytest.mark.parametrize("text, code", [("ture", 1), ("off", 0), ("Yes", 0)])
    def test_file_booleans_are_checked(self, workspace, tmp_path, capsys, text, code):
        ini = tmp_path / "flags.ini"
        ini.write_text(f"[explain]\nfreeze-attributes = {text}\n")
        rc = main(
            [
                "explain", "--config", str(ini),
                "--manifest", str(workspace["manifest"]), "--query-index", "0",
            ]
        )
        assert rc == code
        if code:
            assert capsys.readouterr().err.startswith(f"error: {ini}: freeze-attributes")

    def test_file_only_profile_is_validated(self, workspace, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[explain]\nprofile = plasma\n")
        rc = main(
            [
                "explain", "--config", str(ini),
                "--manifest", str(workspace["manifest"]), "--query-index", "0",
            ]
        )
        assert rc == 1
        assert "profile" in capsys.readouterr().err


class Reached(Exception):
    """Stops a command at the call a test watches."""


class TestFlagsFillConfigs:
    """A flag that sets a config field has that field's name as its dest, and
    Options.fill copies the flags it finds by those names. fill passes over a
    dest that names no field, so each command's other dests are listed here."""

    # --profile picks the base search config; --freeze-attributes inverts
    # optimize_attributes.
    SEARCH = {"profile", "freeze_attributes"}
    FILLED = {
        "gen-data": ((datasets.SynthSpec,), {"out"}),
        "train": ((models.TrainConfig, models.GenerativeConfig),
                  {"data", "out_dir", "gen_epochs", "gen_lr"}),
        "explain": ((PerturbConfig,),
                    {"manifest", "query_index", "instance_file", "out", "pgm", *SEARCH}),
        "bench": ((PerturbConfig,), {"manifest", "n_queries", "seed", "desired_class", "epsilon",
                                     "out", "csv", "include_timing", *SEARCH}),
        "sweep": ((PerturbConfig,), {"manifest", "weights", "n_queries", "seed", "out", *SEARCH}),
        "rank": ((PerturbConfig,), {"results", "manifest", "query_index", "instance_file",
                                    "n_queries", "seed", "names", "exclude", "out", *SEARCH}),
        "augment": ((PerturbConfig,), {"manifest", "count", "seed", "out", "compare", *SEARCH}),
    }

    @pytest.mark.parametrize("command", list(FILLED))
    def test_every_dest_is_a_config_field_or_listed(self, command):
        configs, others = self.FILLED[command]
        fields = {f.name for config in configs for f in dataclasses.fields(config)}
        dests = {action.dest for action in cli._ini_actions(command).values()}
        assert dests - fields == others

    CONFIGS = (datasets.SynthSpec, models.TrainConfig, models.GenerativeConfig, PerturbConfig)

    def reached(self, monkeypatch, argv):
        """Each config argv's command hands on, and the keyword arguments of
        the library call it makes, as dicts; the command stops at that call."""
        seen = []

        def record(*args, **kwargs):
            seen.extend(vars(a) for a in args if isinstance(a, self.CONFIGS))
            seen.append(kwargs)

        def stop(*args, **kwargs):
            record(*args, **kwargs)
            raise Reached

        for name in ("train_target", "train_discriminator"):
            monkeypatch.setattr(cli, name, record)
        for name in ("generate", "train_generative", "latent_descent", "run_benchmark",
                     "alpha_sweep"):
            monkeypatch.setattr(cli, name, stop)
        with pytest.raises(Reached):
            main(argv)
        return seen

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command, key, text, field, value",
        [
            ("gen-data", "features", "10", "n_features", 10),
            ("gen-data", "attributes", "3", "n_attributes", 3),
            ("gen-data", "samples", "150", "n_samples", 150),
            ("gen-data", "classes", "3", "n_classes", 3),
            ("gen-data", "styles", "1", "n_styles", 1),
            ("train", "lr", "0.02", "learning_rate", 0.02),
            ("train", "hidden", "8,4", "hidden_dims", (8, 4)),
            ("train", "activation", "relu", "hidden_activation", "relu"),
            ("train", "latent", "3", "latent_dim", 3),
            ("explain", "alpha", "1.25", "distance_weight", 1.25),
            ("explain", "decay", "0.5", "step_decay", 0.5),
            ("bench", "queries", "7", "n_queries", 7),
            ("sweep", "queries", "7", "n_queries", 7),
            ("rank", "queries", "7", "n_queries", 7),
        ],
    )
    def test_a_renamed_flag_reaches_its_field(self, workspace, tmp_path, monkeypatch, source,
                                              command, key, text, field, value):
        argv = {
            "gen-data": [],
            "train": ["--data", str(workspace["data"])],
            "explain": ["--manifest", str(workspace["manifest"]), "--query-index", "0"],
        }.get(command, ["--manifest", str(workspace["manifest"])])
        if source == "flag":
            argv = [command, f"--{key}", text, *argv]
        else:
            ini = tmp_path / "c.ini"
            ini.write_text(f"[{command}]\n{key} = {text}\n")
            argv = [command, "--config", str(ini), *argv]
        values = [seen[field] for seen in self.reached(monkeypatch, argv) if field in seen]
        assert values and all(v == value for v in values)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "latentcf" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_consecutive_calls_get_independent_namespaces(self, tmp_path, monkeypatch, capsys):
        # main reuses one parser per command per process; no call may see
        # another's flags.
        seen = []
        for parser in cli._command_parsers().values():
            def recording_parse(argv, namespace, real_parse=parser.parse_known_args):
                args, extras = real_parse(argv, namespace)
                seen.append(args)
                return args, extras

            monkeypatch.setattr(parser, "parse_known_args", recording_parse)
        small = tmp_path / "small.lcfc"
        assert main(["gen-data", "--out", str(small), "--samples", "150", "--features", "10",
                     "--seed", "9", "--label-attributes", "0"]) == 0
        assert main(["rank", "--results", str(tmp_path / "missing.jsonl"), "--seed", "4"]) == 1
        # Commands are looked up per call, so rebinding one after the parser
        # was built takes effect.
        monkeypatch.setattr(cli, "cmd_rank", lambda args: 7)
        assert main(["rank", "--seed", "5"]) == 7
        plain = tmp_path / "plain.lcfc"
        assert main(["gen-data", "--out", str(plain), "--samples", "120"]) == 0
        first, second, _, third = seen
        assert len({id(first), id(second), id(third)}) == 3
        assert (first.command, second.command, third.command) == ("gen-data", "rank", "gen-data")
        assert (first.n_samples, first.n_features, first.seed) == (150, 10, 9)
        assert not hasattr(second, "n_samples") and second.seed == 4
        assert (third.n_samples, third.n_features, third.seed, third.label_attributes) == (
            120, None, None, None)
        assert load_dataset(small).instances.shape == (150, 10)
        assert load_dataset(plain).instances.shape == (120, 32)

    COMMANDS = ["gen-data", "train", "explain", "bench", "sweep", "rank", "augment"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_flag_parses_as_the_top_level_parser_would(self, command):
        """main parses a command's argv with that command's parser alone; the
        Namespace, its attribute order included, is the one the top-level
        parser gives."""
        flags, negated = ["--config", "c.ini"], []
        for key, action in cli._ini_actions(command).items():
            if isinstance(action, argparse.BooleanOptionalAction):
                flags.append(f"--{key}")
                negated.append(f"--no-{key}")
            else:
                text = action.choices[-1] if action.choices else TestConfigLayers.FLAG_TEXT[
                    action.type]
                flags += [f"--{key}", text]
        for argv in ([command], [command, *flags], [command, *flags, *negated]):
            want = build_parser().parse_args(argv)
            got = cli._parse(argv)
            assert list(vars(got).items()) == list(vars(want).items())
            assert got.command == command

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--version"],
            ["bogus"],
            ["bogus", "--seed", "1"],
            ["--seed", "1"],
            ["explain", "--bogus"],
            ["explain", "--manifest", "m.json", "extra", "--query-index", "0", "--also"],
            ["explain", "--version"],
            ["rank", "--", "x"],
            ["explain", "--query-index", "zero"],
            ["gen-data", "--generator", "cubes"],
            ["gen-data", "--label-attributes", "0,one"],
            ["train", "--epochs"],
            ["bench", "-h"],
        ],
    )
    def test_refusals_and_help_match_the_top_level_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as want:
            build_parser().parse_args(argv)
        want_out = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == want.value.code
        assert capsys.readouterr() == want_out

    def test_unrecognized_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--manifest", "m.json", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("latentcf: error: unrecognized arguments: --bogus\n")
        assert err.startswith("usage: latentcf [-h] [--version]")


class TestInputErrors:
    """Malformed checkpoints, results, instance files and datasets, and paths
    through a regular file, each end in exit 1 and one error line."""

    MANIFEST_KEY = {
        "target-model": "target",
        "discriminator": "discriminator",
        "generative-model": "generative",
    }

    @pytest.mark.parametrize("kind, edit", malformed_checkpoints())
    def test_malformed_checkpoint(self, workspace, tmp_path, capsys, kind, edit):
        manifest = absolute_manifest(workspace)
        key = self.MANIFEST_KEY[kind]
        bad = tmp_path / "bad.lcfc"
        write_malformed(manifest[key], bad, edit)
        manifest[key] = str(bad)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        err = user_error(capsys, explain_reading(key, path, workspace, tmp_path))
        assert "bad.lcfc" in err

    @pytest.fixture(scope="class")
    def record(self, workspace, tmp_path_factory):
        """One well-formed result record, as a dict."""
        path = tmp_path_factory.mktemp("record") / "r.jsonl"
        assert main(["explain", "--manifest", str(workspace["manifest"]),
                     "--query-index", "201", "--max-iters", "20", "--out", str(path)]) == 0
        return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: [1], "must be a JSON object"),
            (lambda r: "result", "must be a JSON object"),
            (lambda r: {"method": "x"}, "no 'flipped' field"),
            (lambda r: {"sample": [1], "code": "x"}, "no 'method' field"),
            (lambda r: {k: v for k, v in r.items() if k != "loss_trace"}, "no 'loss_trace'"),
            (lambda r: {**r, "code": "x"}, "'code' must be an array of numbers"),
            (lambda r: {**r, "sample": [1.0, "x"]}, "'sample' must be an array of numbers"),
            (lambda r: {**r, "attributes": [[1.0, 0.0]]}, "'attributes' must be an array"),
            (lambda r: {**r, "flipped": 1}, "'flipped' must be a boolean"),
            (lambda r: {**r, "iterations": True}, "'iterations' must be an integer"),
            (lambda r: {**r, "method": None}, "'method' must be a string"),
            (lambda r: {**r, "loss_trace": [[1.0], "x"]}, "'loss_trace' must be"),
            (lambda r: {**r, "loss_trace": [[1.0]]}, "'loss_trace' must be"),
            (lambda r: {**r, "loss_trace": [[1.0, 2.0]]}, "'loss_trace' must be"),
            (lambda r: {**r, "loss_trace": []}, "'loss_trace' must be"),
            (lambda r: {**r, "origin_attributes": [0.0]}, "differ in length"),
            (lambda r: {**r, "sample": [10**400] + r["sample"][1:]},
             "'sample' must be an array of numbers"),
        ],
    )
    def test_malformed_results_line(self, record, tmp_path, capsys, edit, message):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(record) + "\n\n" + json.dumps(edit(record)) + "\n")
        err = user_error(capsys, ["rank", "--results", str(path)])
        assert "r.jsonl:3: " in err and message in err

    def test_results_with_different_attribute_counts(self, record, tmp_path, capsys):
        longer = {**record, "attributes": record["attributes"] + [1.0],
                  "origin_attributes": record["origin_attributes"] + [0.0]}
        path = tmp_path / "r.jsonl"
        path.write_text("".join(json.dumps({**r, "flipped": True}) + "\n" for r in (record, longer)))
        assert "number of attributes" in user_error(capsys, ["rank", "--results", str(path)])

    @pytest.mark.parametrize("read_as", ["manifest", "instance-file", "results", "config"])
    def test_file_that_is_not_utf8(self, workspace, record, tmp_path, capsys, read_as):
        path = tmp_path / "latin1.txt"
        manifest = str(workspace["manifest"])
        if read_as == "manifest":
            path.write_bytes(b'{"instance": "\xe9"}')
            argv = ["explain", "--manifest", str(path), "--query-index", "0"]
            named = f"{path}: not UTF-8: invalid continuation byte"
        elif read_as == "instance-file":
            path.write_bytes(b'{"instance": "\xe9"}')
            argv = ["explain", "--manifest", manifest, "--instance-file", str(path)]
            named = f"{path}: not UTF-8: invalid continuation byte"
        elif read_as == "results":
            path.write_bytes(json.dumps(record).encode() + b'\n{"method": "\xe9"}\n')
            argv = ["rank", "--results", str(path)]
            named = f"{path}:2: not UTF-8: invalid continuation byte"
        else:
            path.write_bytes(b"[explain]\nout = \xe9\n")
            argv = ["explain", "--config", str(path), "--manifest", manifest, "--query-index", "0"]
            named = f"{path}: 'utf-8' codec can't decode"
        assert named in user_error(capsys, argv)

    @pytest.mark.parametrize("read_as", ["manifest", "instance-file", "results"])
    def test_json_nested_past_the_recursion_limit(self, workspace, record, tmp_path, capsys,
                                                  read_as):
        path = tmp_path / "deep.json"
        deep = "[" * 100_000
        manifest = str(workspace["manifest"])
        if read_as == "manifest":
            path.write_text(deep)
            argv = ["explain", "--manifest", str(path), "--query-index", "0"]
            named = f"{path}: not JSON: nested too deeply"
        elif read_as == "instance-file":
            path.write_text(deep)
            argv = ["explain", "--manifest", manifest, "--instance-file", str(path)]
            named = f"{path}: not JSON: nested too deeply"
        else:
            path.write_text(json.dumps(record) + '\n{"method": ' + deep + "\n")
            argv = ["rank", "--results", str(path)]
            named = f"{path}:2: not JSON: nested too deeply"
        assert named in user_error(capsys, argv)

    def test_manifest_with_a_torn_tail_names_its_file(self, workspace, tmp_path, capsys):
        # What a rewrite cut short leaves: the new text, then the old tail.
        text = json.dumps(absolute_manifest(workspace))
        path = tmp_path / "torn.json"
        path.write_text(text + "\n" + text[len(text) // 2 :])
        err = user_error(capsys, ["explain", "--manifest", str(path), "--query-index", "0"])
        assert f"{path}: not JSON: Extra data" in err

    @pytest.mark.parametrize("command", ["explain", "rank"])
    def test_instance_file_cut_mid_array_names_its_file(self, workspace, tmp_path, capsys,
                                                        command):
        text = json.dumps({"instance": [0.25] * 12})
        path = tmp_path / "cut.json"
        path.write_text(text[: text.index("]") - 3])
        err = user_error(capsys, [command, "--manifest", str(workspace["manifest"]),
                                  "--instance-file", str(path)])
        assert f"{path}: not JSON: Expecting ',' delimiter" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            (5, "JSON object"),
            (["instance"], "JSON object"),
            ({"attributes": [1.0, 0.0]}, "'instance' field"),
            ({"instance": "abc"}, "'instance' must be an array of numbers"),
            ({"instance": [1.0] * 11 + ["x"]}, "'instance' must be an array of numbers"),
            ({"instance": [1.0] * 11 + [True]}, "'instance' must be an array of numbers"),
            ({"instance": [[1.0] * 12]}, "'instance' must be an array of numbers"),
            ({"instance": [1.0] * 12, "attributes": "10"}, "'attributes' must be an array"),
            ({"instance": [1.0] * 12, "attributes": [1, None]}, "'attributes' must be an array"),
            ({"instance": [10**400] + [1.0] * 11}, "'instance' must be an array of numbers"),
        ],
    )
    @pytest.mark.parametrize("command", ["explain", "rank"])
    def test_malformed_instance_file(self, workspace, tmp_path, capsys, command, payload, message):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(payload))
        err = user_error(capsys, [command, "--manifest", str(workspace["manifest"]),
                                  "--instance-file", str(path)])
        assert message in err

    def test_dataset_without_an_array(self, workspace, tmp_path, capsys):
        ds = load_dataset(workspace["data"])
        bad = tmp_path / "bad.lcfc"
        write_container(bad, kind="dataset", meta=ds.metadata,
                        arrays={"instances": ds.instances, "labels": ds.labels, "split": ds.split})
        err = user_error(capsys, ["train", "--data", str(bad), "--out-dir", str(tmp_path / "a")])
        assert "'attributes'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--out", "{file}/x.lcfc"],
            ["explain", "--manifest", "{file}/m.json", "--query-index", "0"],
            ["rank", "--config", "{file}/c.ini", "--results", "r.jsonl"],
        ],
        ids=["gen-data-out", "explain-manifest", "rank-config"],
    )
    def test_path_through_a_regular_file(self, workspace, capsys, argv):
        # Each path runs through the dataset file as if it were a directory.
        user_error(capsys, [a.format(file=workspace["data"]) for a in argv])

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--alpha", "nan", "distance_weight"), ("--alpha", "inf", "distance_weight"),
         ("--code-step", "inf", "code_step"), ("--attr-step", "nan", "attr_step")],
    )
    def test_non_finite_search_setting(self, workspace, capsys, flag, value, field):
        """One error line naming the setting, and no numpy warning, on
        stderr: the setting is refused before any search runs."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = user_error(capsys, ["explain", "--manifest", str(workspace["manifest"]),
                                      "--query-index", "0", flag, value])
        assert err.count("\n") == 1 and field in err and "Warning" not in err

    @pytest.mark.parametrize("command", ["bench", "rank", "sweep"])
    def test_negative_query_count(self, workspace, capsys, command):
        err = user_error(capsys, [command, "--manifest", str(workspace["manifest"]),
                                  "--queries", "-1"])
        assert "at least one query" in err

    def test_a_key_error_in_a_command_is_a_bug(self, monkeypatch):
        def broken(args):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "cmd_rank", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["rank"])


class TestUnreadableContainers:
    """A file that is not a container is named in the error, whichever of
    the manifest's four files it is, and when it is train's --data."""

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_manifest_file(self, workspace, tmp_path, capsys, key):
        junk = tmp_path / f"junk-{key}.lcfc"
        junk.write_bytes(b"garbage")
        manifest = absolute_manifest(workspace)
        manifest[key] = str(junk)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        err = user_error(capsys, explain_reading(key, path, workspace, tmp_path))
        assert f"junk-{key}.lcfc: bad magic" in err

    def test_query_index_reads_no_discriminator(self, workspace, tmp_path):
        junk = tmp_path / "junk.lcfc"
        junk.write_bytes(b"garbage")
        manifest = {**absolute_manifest(workspace), "discriminator": str(junk)}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["explain", "--manifest", str(path), "--query-index", "0",
                     "--max-iters", "20"]) == 0

    def test_train_data(self, tmp_path, capsys):
        junk = tmp_path / "junk-data.lcfc"
        junk.write_bytes(b"garbage")
        err = user_error(capsys, ["train", "--data", str(junk), "--out-dir", str(tmp_path / "a")])
        assert "junk-data.lcfc: bad magic" in err


@pytest.fixture(scope="module")
def three_classes(tmp_path_factory):
    """A small three-class dataset and a briefly trained stack."""
    root = tmp_path_factory.mktemp("three")
    data = root / "data.lcfc"
    assert main(["gen-data", "--out", str(data), "--samples", "240", "--features", "12",
                 "--attributes", "2", "--classes", "3", "--label-attributes", "0,1",
                 "--label-echo", "0", "--train-frac", "0.75", "--dev-frac", "0.1"]) == 0
    with warnings.catch_warnings():
        # Two epochs are deliberately undertrained; quality is not the point.
        warnings.simplefilter("ignore", TrainingQualityWarning)
        assert main(["train", "--data", str(data), "--out-dir", str(root / "art"),
                     "--epochs", "2", "--gen-epochs", "2", "--latent", "3"]) == 0
    return root / "art" / "manifest.json"


def desired_class_message(target):
    with pytest.raises(ConfigurationError) as exc:
        desired_class(target, 0)
    return str(exc.value)


class TestThreeClassesNeedADesiredClass:
    """Without a desired class, every command refuses a three-class target
    with the engine's one message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--query-index", "200"],
            ["rank", "--query-index", "200"],
            ["bench", "--queries", "2"],
            ["sweep", "--queries", "2"],
            ["rank", "--queries", "2"],
            ["augment", "--count", "0", "--out", "aug.lcfc"],
        ],
        ids=" ".join,
    )
    def test_refused_with_one_message(self, three_classes, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        expected = desired_class_message(models.load_target(three_classes.parent / "target.lcfc"))
        err = user_error(capsys, argv[:1] + ["--manifest", str(three_classes)] + argv[1:])
        assert err == f"error: {expected}\n"
        assert not (tmp_path / "aug.lcfc").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--queries", "2"],
            ["sweep", "--queries", "2", "--weights", "0.8"],
            ["rank", "--queries", "2"],
        ],
        ids=" ".join,
    )
    def test_desired_flag_is_honoured(self, three_classes, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.txt"
        rc = main(argv[:1] + ["--manifest", str(three_classes)] + argv[1:]
                  + ["--desired", "2", "--max-iters", "5", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        if argv[0] == "bench":
            assert json.loads(out.read_text())["config"]["desired_class"] == 2


class TestNegativeSeed:
    """A negative seed, by flag or config file, is refused with one error
    line naming it, before any model trains, any search runs or any file is
    written."""

    COMMANDS = ["gen-data", "train", "bench", "sweep", "rank", "augment"]

    def argv(self, command, workspace, out):
        manifest = ["--manifest", str(workspace["manifest"])]
        return {
            "gen-data": ["gen-data", "--out", str(out)],
            "train": ["train", "--data", str(workspace["data"]), "--out-dir", str(out)],
            "bench": ["bench", *manifest, "--queries", "3", "--out", str(out)],
            "sweep": ["sweep", *manifest, "--queries", "3", "--out", str(out)],
            "rank": ["rank", *manifest, "--queries", "3", "--out", str(out)],
            "augment": ["augment", *manifest, "--count", "2", "--out", str(out)],
        }[command]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_refused_before_any_search_or_write(self, workspace, tmp_path, capsys, monkeypatch,
                                                command, via):
        searches = count_searches(monkeypatch)
        monkeypatch.setattr(cli, "train_target", lambda *a: searches.append("train_target"))
        out = tmp_path / "out"
        argv = self.argv(command, workspace, out)
        if via == "flag":
            argv += ["--seed", "-1"]
        else:
            ini = tmp_path / "seed.ini"
            ini.write_text(f"[{command}]\nseed = -1\n")
            argv += ["--config", str(ini)]
        err = user_error(capsys, argv)
        assert err == "error: seed must be a finite non-negative number, got -1\n"
        assert "_search" not in searches and "train_target" not in searches
        assert not out.exists()


class TestOlderFiles:
    """A manifest that holds perturb_profiles and a dataset whose meta holds
    the generator, seed, label_attributes and split_fractions copies of its
    spec, as older releases wrote them, give the same outputs as the files
    written today."""

    def test_explain_and_bench(self, workspace, tmp_path, capsys):
        ds = load_dataset(workspace["data"])
        spec = ds.metadata["spec"]
        ds.metadata.update(generator=spec["generator"], seed=spec["seed"],
                           label_attributes=spec["label_attributes"],
                           split_fractions=[spec["train_frac"], spec["dev_frac"]])
        save_dataset(tmp_path / "old.lcfc", ds)
        old = absolute_manifest(workspace)
        old["dataset"] = str(tmp_path / "old.lcfc")
        old["perturb_profiles"] = {
            "text": {"distance_weight": 0.8, "code_step": 1.0, "attr_step": 2.0,
                     "step_decay": 0.95, "max_iters": 300},
            "image": {"distance_weight": 1.5, "code_step": 2.0, "attr_step": 3.0,
                      "step_decay": 0.9, "max_iters": 500},
        }
        (tmp_path / "old.json").write_text(json.dumps(old))
        outputs = {}
        for name, manifest in (("new", workspace["manifest"]), ("old", tmp_path / "old.json")):
            explained, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.report.json"
            assert main(["explain", "--manifest", str(manifest), "--query-index", "3",
                         "--max-iters", "20", "--out", str(explained)]) == 0
            assert main(["bench", "--manifest", str(manifest), "--queries", "3",
                         "--max-iters", "20", "--no-include-timing", "--out", str(report)]) == 0
            record = json.loads(explained.read_text())
            del record["wall_time_micros"]
            outputs[name] = record, report.read_bytes()
        assert outputs["old"] == outputs["new"]

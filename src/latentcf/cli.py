"""Command-line front end.

Subcommands cover the full workflow: synthesize a dataset, train the model
stack, explain single instances, benchmark methods against each other,
sweep the distance weight, rank attribute interactions, and augment a
training set with counterfactuals.

Options resolve in three layers: a command-line flag wins, then its key in
the named section of an INI file passed via --config, then the default. An
option's argparse action declares it once, as a flag and as an INI key. A
flag that sets a config field has that field's name as its dest and the
config's own default (Options.fill). The other defaults come from
benchmark_recipe(), from the library function the command calls, or from
the command itself (output paths, --count, --include-timing).

Exit codes: 0 success, 1 usage or input error, 2 internal invariant
violation, 3 partial result (outputs were written but incomplete).

Error policy (_USER_ERRORS): the package's typed errors and OSError print
one ``error:`` line and exit 1; each text reader reports a file that is not
UTF-8 or does not parse as a typed error naming it. Anything else, KeyError
and TypeError included, is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import os
import sys
import warnings

import numpy as np

from . import __version__
from .applications import (
    attribute_interaction_ranking,
    augment_with_counterfactuals,
    mean_attribute_ranking,
    retrain_comparison,
)
from .container import _rewrite_text, is_number_list, read_json
from .datasets import generate, load_dataset, save_dataset
from .engine import (
    SCHEDULE_FIELDS,
    PerturbConfig,
    desired_class,
    latent_descent,
    read_results_jsonl,
    write_pgm,
    write_results_jsonl,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InvariantViolation,
    NumericalError,
    PartialResultWarning,
    TrainingError,
)
from .metrics import (
    SWEEP_WEIGHTS, alpha_sweep, benchmark_recipe, build_methods, run_benchmark, sweep_to_json,
)
from .models import (
    _MANIFEST_PATHS,
    _MANIFEST_TRAIN,
    GenerativeConfig,
    TrainConfig,
    load_discriminator,
    load_generative,
    load_target,
    save_discriminator,
    save_generative,
    save_manifest,
    save_target,
    load_manifest,
    train_discriminator,
    train_generative,
    train_target,
)

_USER_ERRORS = (
    ConfigurationError,
    DimensionError,
    FormatError,
    NumericalError,
    TrainingError,
    OSError,
)


class Options:
    """Flag > config-file section > default resolution, by argparse dest.
    The --config section (its [DEFAULT] keys included, or those alone when
    the file has no section for the command) is checked in full on
    construction, against the command's argparse actions: each key must be a
    long flag (--config aside), and its value must pass that flag's type
    (_ini_bool for a yes/no flag) and choices. Anything else is a
    ConfigurationError naming the file."""

    def __init__(self, args):
        self.args = vars(args)
        self.path = self.args.get("config")
        self.file = {}
        if not self.path:
            return
        section = args.command
        cp = configparser.ConfigParser()
        with open(self.path, encoding="utf-8") as fh:
            try:
                cp.read_file(fh)
                items = dict(cp[section if cp.has_section(section) else cp.default_section])
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"{self.path}: {exc}") from exc
        actions = _ini_actions(section)
        for name, raw in items.items():
            action = actions.get(name)
            if action is None:
                raise ConfigurationError(f"{self.path}: [{section}] has no option {name!r}")
            yes_no = isinstance(action, argparse.BooleanOptionalAction)
            try:
                value = _ini_bool(raw) if yes_no else (action.type or str)(raw)
                if action.choices is not None and value not in action.choices:
                    raise ValueError("not one of " + ", ".join(action.choices))
            except ValueError as exc:
                raise ConfigurationError(f"{self.path}: {name} = {raw!r}: {exc}") from exc
            self.file[action.dest] = value

    def get(self, key, builtin=None):
        value = self.args.get(key)
        return self.file.get(key, builtin) if value is None else value

    def given(self, *keys):
        """{key: value} for each of the keys a flag or the file sets."""
        return {key: value for key in keys if (value := self.get(key)) is not None}

    def fill(self, cfg, skip=()):
        """A copy of the dataclass cfg with each field, skip aside, that a
        flag or the file sets (under the field's name) replaced."""
        names = [f.name for f in dataclasses.fields(cfg) if f.name not in skip]
        return dataclasses.replace(cfg, **self.given(*names))


def _ini_actions(command):
    """A command's argparse actions by long flag (a yes/no flag's positive
    one) without the dashes, --config and --help aside."""
    return {
        action.option_strings[0][2:]: action
        for action in _command_parsers()[command]._actions
        if action.dest not in ("config", "help")
    }


def _ini_bool(text):
    state = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if state is None:
        raise ValueError("not one of 1/0, yes/no, true/false, on/off")
    return state


def _int_list(text):
    return tuple(int(v) for v in str(text).split(",") if v != "")


def _float_list(text):
    return tuple(float(v) for v in str(text).split(",") if v != "")


def _perturb_from(opts):
    image = opts.get("profile") == "image"
    cfg = opts.fill(PerturbConfig.image_defaults() if image else PerturbConfig())
    cfg.optimize_attributes = not opts.get("freeze_attributes", False)
    cfg.validate()
    return cfg


def _load_stack(opts, row=None, with_dataset=True):
    """(dataset, target, generative model, manifest with its paths resolved);
    the discriminator is not read. Given a row, only that dataset row is
    read; a row outside the dataset is out of range. Without the dataset, no
    dataset container is opened and None stands in for it."""
    manifest_path = opts.get("manifest")
    if manifest_path is None:
        raise ConfigurationError("--manifest is required")
    manifest = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    for key in _MANIFEST_PATHS:
        manifest[key] = os.path.join(base, manifest[key])
    if not with_dataset:
        dataset = None
    elif row is None:
        dataset = load_dataset(manifest["dataset"])
    else:
        try:
            dataset = load_dataset(manifest["dataset"], rows=(row, row + 1))
        except IndexError:
            raise ConfigurationError(f"query index {row} out of range") from None
    target = load_target(manifest["target"])
    gen = load_generative(manifest["generative"])
    return dataset, target, gen, manifest


def _query_stack(opts):
    """The target, the generative model and the instance to explain as
    (target, gen, x0, a0, query index): dataset row --query-index, read on
    its own, or the instance in --instance-file (query index -1), which
    reads no dataset; the discriminator labels an instance given without
    attributes. The one-source rule is checked before any file is read."""
    qi = opts.get("query_index")
    path = opts.get("instance_file")
    if (qi is None) == (path is None):
        raise ConfigurationError("give exactly one of --query-index or --instance-file")
    dataset, target, gen, manifest = _load_stack(opts, row=qi, with_dataset=path is None)
    if qi is not None:
        # The dataset holds row qi alone.
        return target, gen, dataset.instances[0], dataset.attributes[0], qi
    payload = read_json(path)
    if not isinstance(payload, dict) or "instance" not in payload:
        raise ConfigurationError(f"{path} must be a JSON object with an 'instance' field")
    for key in ("instance", "attributes"):
        value = payload.get(key, [])
        if not is_number_list(value):
            raise ConfigurationError(f"{path}: {key!r} must be an array of numbers")
    x0 = np.asarray(payload["instance"], dtype=np.float64)
    if "attributes" in payload:
        a0 = np.asarray(payload["attributes"], dtype=np.float64)
    else:
        a0 = load_discriminator(manifest["discriminator"]).predict(x0)
    return target, gen, x0, a0, -1


def _write_out(opts, key, text):
    """Write text to the file the option names, when it names one."""
    path = opts.get(key)
    if path:
        _rewrite_text(path, text)
        print(f"wrote {path}")


def cmd_gen_data(args):
    opts = Options(args)
    # Defaults reproduce the stock benchmark dataset.
    stock = benchmark_recipe().spec
    # The echo channel only exists for blobs, so glyphs default to none.
    if opts.get("generator", stock.generator) != "blobs":
        stock = dataclasses.replace(stock, label_echo=0.0)
    spec = opts.fill(stock)
    ds = generate(spec)
    out = opts.get("out", "dataset.lcfc")
    save_dataset(out, ds)
    n_train, n_dev, n_test = spec.split_sizes()
    balance = float(ds.labels[:, 1].mean()) if spec.n_classes == 2 else None
    print(f"wrote {out}: {spec.n_samples} x {spec.n_features} ({spec.generator})")
    print(f"split train/dev/test = {n_train}/{n_dev}/{n_test}")
    if balance is not None:
        print(f"class-1 fraction {balance:.3f}")
    return 0


def cmd_train(args):
    opts = Options(args)
    data_path = opts.get("data")
    if data_path is None:
        raise ConfigurationError("--data is required")
    # The defaults are the config classes' own; latent_dim has none. The
    # autoencoder takes its epochs and rate from --gen-epochs and --gen-lr.
    tcfg = opts.fill(TrainConfig())
    dcfg = dataclasses.replace(tcfg, seed=tcfg.seed + 1)
    gcfg = opts.fill(GenerativeConfig(latent_dim=8), skip=("epochs", "learning_rate", "seed"))
    gcfg.epochs = opts.get("gen_epochs", gcfg.epochs)
    gcfg.learning_rate = opts.get("gen_lr", tcfg.learning_rate)
    gcfg.seed = tcfg.seed + 2
    for cfg in (tcfg, dcfg, gcfg):
        cfg.validate()
    dataset = load_dataset(data_path)
    target = train_target(dataset, tcfg)
    disc = train_discriminator(dataset, dcfg)
    gen = train_generative(dataset, disc, gcfg)
    # Created only now, so a refused run leaves no directory behind.
    out_dir = opts.get("out_dir", "artifacts")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "dataset": os.path.relpath(os.path.abspath(data_path), os.path.abspath(out_dir)),
        "target": "target.lcfc",
        "discriminator": "discriminator.lcfc",
        "generative": "generative.lcfc",
    }
    save_target(os.path.join(out_dir, paths["target"]), target)
    save_discriminator(os.path.join(out_dir, paths["discriminator"]), disc)
    save_generative(os.path.join(out_dir, paths["generative"]), gen)
    manifest = dict(paths)
    manifest["seed"] = tcfg.seed
    manifest["train"] = {
        **{key: getattr(tcfg, key) for key in _MANIFEST_TRAIN},
        "latent_dim": gcfg.latent_dim,
        "gen_epochs": gcfg.epochs,
        "gen_learning_rate": gcfg.learning_rate,
        "disc_weight": gcfg.disc_weight,
        "output_activation": gcfg.output_activation,
    }
    manifest["perturb_profiles"] = {
        name: {key: getattr(c, key) for key in SCHEDULE_FIELDS}
        for name, c in (("text", PerturbConfig()), ("image", PerturbConfig.image_defaults()))
    }
    save_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"classifier accuracy train/dev/test = "
          f"{target.train_accuracy:.3f}/{target.dev_accuracy:.3f}/{target.test_accuracy:.3f}")
    acc = ", ".join(f"{a:.3f}" for a in disc.attribute_accuracy)
    print(f"discriminator per-attribute dev accuracy = [{acc}]")
    print(f"autoencoder recon {gen.final_recon_error:.4f}, "
          f"attribute consistency {gen.attribute_consistency:.3f}")
    print(f"wrote {os.path.join(out_dir, 'manifest.json')}")
    return 0


def _explain_one(opts):
    """The search from the one instance --query-index or --instance-file
    names, as (that instance, the target's prediction for it, the result)."""
    target, gen, x0, a0, qi = _query_stack(opts)
    cfg = _perturb_from(opts)
    predicted = target.predict(x0)
    cfg.desired = desired_class(target, predicted, cfg.desired)
    return x0, predicted, latent_descent(target, gen, x0, a0, cfg, query_index=qi)


def cmd_explain(args):
    opts = Options(args)
    x0, predicted, result = _explain_one(opts)
    print(f"prediction {predicted} -> "
          f"desired {result.desired_class}: "
          f"{'flipped' if result.flipped else 'not flipped'} "
          f"after {result.iterations} iterations")
    print(f"final loss {result.loss_trace[-1][0]:.6f}, "
          f"wall time {result.wall_time_micros} us")
    deltas = result.latent.attributes - result.origin.attributes
    for j, d in enumerate(deltas):
        print(f"attribute {j}: {result.origin.attributes[j]:+.3f} -> "
              f"{result.latent.attributes[j]:+.3f} (moved {d:+.3f})")
    out = opts.get("out")
    if out:
        write_results_jsonl(out, [result])
        print(f"wrote {out}")
    pgm = opts.get("pgm")
    if pgm:
        write_pgm(f"{pgm}-before.pgm", x0)
        write_pgm(f"{pgm}-after.pgm", result.sample)
        print(f"wrote {pgm}-before.pgm and {pgm}-after.pgm")
    return 0


def cmd_bench(args):
    opts = Options(args)
    # Either flag pins the harness's desired class; two different ones are refused.
    desired = opts.get("desired")
    pinned = opts.get("desired_class", desired)
    if desired is not None and pinned != desired:
        raise ConfigurationError(
            f"--desired {desired} and --desired-class {pinned} name different classes; "
            "give one of them"
        )
    dataset, target, gen, _ = _load_stack(opts)
    cfg = _perturb_from(opts)
    stock = benchmark_recipe()
    methods = build_methods(cfg, epsilon=opts.get("epsilon", stock.epsilon))
    report = run_benchmark(
        dataset,
        target,
        gen,
        methods,
        n_queries=opts.get("n_queries", stock.n_queries),
        desired_class=pinned,
        **opts.given("seed"),
    )
    include_timing = opts.get("include_timing", True)
    csv = report.to_csv(include_timing=include_timing)
    print(csv, end="")
    _write_out(opts, "out", report.to_json(include_timing=include_timing))
    _write_out(opts, "csv", csv)
    return 0


def cmd_sweep(args):
    opts = Options(args)
    dataset, target, gen, _ = _load_stack(opts)
    cfg = _perturb_from(opts)
    weights = opts.get("weights", SWEEP_WEIGHTS)
    points = alpha_sweep(
        dataset,
        target,
        gen,
        cfg,
        weights,
        desired_class=cfg.desired,
        **opts.given("n_queries", "seed"),
    )
    print("distance_weight,flipping_ratio,mean_latent_perturbation")
    for p in points:
        print(f"{p.distance_weight!r},{p.flipping_ratio!r},{p.mean_latent_perturbation!r}")
    _write_out(opts, "out", sweep_to_json(points))
    return 0


def cmd_rank(args):
    opts = Options(args)
    names_opt = opts.get("names")
    names = [n.strip() for n in names_opt.split(",")] if names_opt else None
    exclude = opts.get("exclude", ())
    results_path = opts.get("results")
    if results_path is not None:
        results = read_results_jsonl(results_path)
        if not results:
            raise ConfigurationError(f"{results_path} holds no result records")
        if len(results) == 1:
            ranking = attribute_interaction_ranking(results[0], names=names, exclude=exclude)
        else:
            ranking = mean_attribute_ranking(results, names=names, exclude=exclude)
    else:
        if opts.get("manifest") is None:
            raise ConfigurationError("give --results or --manifest")
        n_queries = opts.get("n_queries")
        if n_queries is not None:
            dataset, target, gen, _ = _load_stack(opts)
            cfg = _perturb_from(opts)
            report = run_benchmark(
                dataset,
                target,
                gen,
                build_methods(cfg)[:1],
                n_queries=n_queries,
                desired_class=cfg.desired,
                keep_results=True,
                **opts.given("seed"),
            )
            results = report.results["latent-descent"]
            ranking = mean_attribute_ranking(results, names=names, exclude=exclude)
        else:
            _, _, result = _explain_one(opts)
            ranking = attribute_interaction_ranking(result, names=names, exclude=exclude)
    table = "attribute,score\n" + "".join(f"{e.name},{e.score!r}\n" for e in ranking)
    print(table, end="")
    _write_out(opts, "out", table)
    return 0


def cmd_augment(args):
    opts = Options(args)
    dataset, target, gen, manifest = _load_stack(opts)
    cfg = _perturb_from(opts)
    n_aug = opts.get("count", 100)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        augmented = augment_with_counterfactuals(
            dataset, target, gen, n_aug, cfg, **opts.given("seed")
        )
    partial = any(issubclass(w.category, PartialResultWarning) for w in caught)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    out = opts.get("out", "augmented.lcfc")
    save_dataset(out, augmented)
    added = augmented.metadata.get("augmented_tail", 0)
    print(f"wrote {out}: {added} counterfactual rows appended")
    n_compare = opts.get("compare")
    if n_compare is not None:
        train = manifest.get("train", {})
        tcfg = TrainConfig(**{key: train[key] for key in _MANIFEST_TRAIN if key in train})
        comp = retrain_comparison(
            dataset, augmented, tcfg, seeds=list(range(n_compare))
        )
        print(f"base test accuracy      {comp.base_mean:.4f} +/- {comp.base_std:.4f}")
        print(f"augmented test accuracy {comp.augmented_mean:.4f} +/- {comp.augmented_std:.4f}")
    return 3 if partial else 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: it costs about fifty
    parses, and parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="latentcf",
        description="Counterfactual explanations via search in an attribute-informed latent space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="INI file with a [%s] section" % name)
        return p

    p = add("gen-data", "synthesize an attributed dataset")
    p.add_argument("--out")
    p.add_argument("--generator", choices=("blobs", "glyphs"))
    p.add_argument("--features", dest="n_features", type=int)
    p.add_argument("--attributes", dest="n_attributes", type=int)
    p.add_argument("--samples", dest="n_samples", type=int)
    p.add_argument("--classes", dest="n_classes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--shift", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--styles", dest="n_styles", type=int)
    p.add_argument("--style-leak", type=float)
    p.add_argument("--label-echo", type=float)
    p.add_argument("--label-attributes", type=_int_list)
    p.add_argument("--attribute-prob", type=float)
    p.add_argument("--train-frac", type=float)
    p.add_argument("--dev-frac", type=float)

    p = add("train", "train classifier, discriminator, and autoencoder")
    p.add_argument("--data")
    p.add_argument("--out-dir")
    p.add_argument("--epochs", type=int)
    p.add_argument("--gen-epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--gen-lr", type=float)
    p.add_argument("--hidden", dest="hidden_dims", type=_int_list)
    p.add_argument("--activation", dest="hidden_activation")
    p.add_argument("--latent", dest="latent_dim", type=int)
    p.add_argument("--disc-weight", type=float)
    p.add_argument("--output-activation", choices=("identity", "sigmoid"))
    p.add_argument("--seed", type=int)

    def add_perturb(p):
        p.add_argument("--profile", choices=("text", "image"))
        p.add_argument("--alpha", dest="distance_weight", type=float)
        p.add_argument("--code-step", type=float)
        p.add_argument("--attr-step", type=float)
        p.add_argument("--decay", dest="step_decay", type=float)
        p.add_argument("--max-iters", type=int)
        p.add_argument("--desired", type=int)
        p.add_argument("--freeze-attributes", action=argparse.BooleanOptionalAction, default=None)

    p = add("explain", "search for a counterfactual of one instance")
    p.add_argument("--manifest")
    p.add_argument("--query-index", type=int)
    p.add_argument("--instance-file")
    p.add_argument("--out")
    p.add_argument("--pgm")
    add_perturb(p)

    p = add("bench", "compare methods on a shared query set")
    p.add_argument("--manifest")
    p.add_argument("--queries", dest="n_queries", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--desired-class", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.add_argument("--include-timing", action=argparse.BooleanOptionalAction, default=None)
    add_perturb(p)

    p = add("sweep", "trace the distance-weight trade-off")
    p.add_argument("--manifest")
    p.add_argument("--weights", type=_float_list)
    p.add_argument("--queries", dest="n_queries", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    add_perturb(p)

    p = add("rank", "rank attributes by how far a search moved them")
    p.add_argument("--results")
    p.add_argument("--manifest")
    p.add_argument("--query-index", type=int)
    p.add_argument("--instance-file")
    p.add_argument("--queries", dest="n_queries", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--names")
    p.add_argument("--exclude", type=_int_list)
    p.add_argument("--out")
    add_perturb(p)

    p = add("augment", "append counterfactual rows to the train split")
    p.add_argument("--manifest")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", type=int)
    add_perturb(p)

    return parser


@functools.cache
def _command_parsers():
    """Each command's parser in build_parser(), by command name."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _parse(argv):
    """argv as build_parser() parses it, but a command's arguments are
    scanned once, by that command's parser alone; any other argv (empty,
    -h, --version, an unknown command) goes to the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _command_parsers().get(argv[0]) if argv else None
    if parser is None:
        return build_parser().parse_args(argv)
    args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        build_parser().error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None):
    args = _parse(argv)
    # The parser outlives this call, so the command is looked up by name
    # here: a cmd_* function rebound since the parser was built (say, by a
    # wrapper that times it) still takes effect.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

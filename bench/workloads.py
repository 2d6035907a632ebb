"""The three workloads, each a closed loop with one caller in one process.

A workload has a set-up (data generation plus the trained stack) and rounds
that repeat until the run's seconds are used up. Round 0 is the workload's
whole comparison or CLI session; later rounds repeat its explain requests.
Outputs are checked with `reference`, which does not import latentcf; timing
excludes the checks.

Every explain request is an operation with a stable identity (method,
stream, query) that later rounds repeat exactly, 26 to 90 times in a
run. Each operation's cost is a high percentile of its repeats (see
REPEAT_PERCENTILE), and the rate and the median latency are taken from those
costs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import shutil
import time
import types

import numpy as np

from latentcf import cli, datasets, engine, metrics, models

import reference as ref

SETUPS = 3
# On a shared core a request runs most of the time at one speed and, in
# moments whose share changes from minute to minute, up to 1.5 times faster.
# The best repeat jumps between the two speeds from run to run; a high
# percentile stays on the common one. The README's Steadiness section
# compares the estimators tried.
REPEAT_PERCENTILE = 90
METHODS = ("latent-descent", "latent-random", "gradient-sign", "input-descent")
UNITS = {
    "setup_s": "s",
    "cf_per_s.latent-descent": "1/s",
    "explain_p50_us": "us",
    "peak_rss_mb": "MB",
}


class Ledger:
    """Operations attempted and failed, run-level checks and the time of
    every repeat of every operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = {}
        self.times = {}  # operation -> (flipped, seconds of each repeat)
        self.seen = {}  # operation -> (fingerprint, errors) of its first result
        self.phases = {}  # phase -> seconds of each repeat
        self.info = {}

    def op(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.extend(errors[:2])

    def check(self, name, ok, detail=None):
        self.checks[name] = {"ok": bool(ok), "detail": detail}

    def time_op(self, key, seconds, flipped):
        self.times.setdefault(key, (flipped, []))[1].append(seconds)

    def phase(self, name, seconds):
        self.phases.setdefault(name, []).append(seconds)

    def costs(self, method):
        """(flipped, cost in seconds) of each of the method's operations."""
        return [(f, float(np.percentile(t, REPEAT_PERCENTILE)))
                for k, (f, t) in self.times.items() if k[0] == method]

    def rate(self, method):
        """Counterfactuals per second over the method's operation costs."""
        costs = self.costs(method)
        return sum(f for f, _ in costs) / sum(t for _, t in costs)


@dataclasses.dataclass
class Stack:
    dataset: object
    target: object
    gen: object
    ref: ref.RefStack


def timed(methods, ledger, stream=0):
    """Wrap each Method.run so every call is timed from outside the call."""
    out = []
    for m in methods:

        def run(*args, _run=m.run, _name=m.name):
            t = time.perf_counter_ns()
            r = _run(*args)
            ledger.time_op((_name, stream, args[6]), (time.perf_counter_ns() - t) / 1e9, r.flipped)
            return r

        out.append(metrics.Method(m.name, run, m.params))
    return out


def pick(methods, names):
    by_name = {m.name: m for m in methods}
    return [by_name[n] for n in names]


def fingerprint(r):
    return (r.flipped, r.iterations, r.predicted_class, r.sample.tobytes(), tuple(r.loss_trace[-1]))


def check_results(stack, results, params, ledger, stream=0):
    """The first result of each operation is checked against the reference;
    a repeat must reproduce it exactly."""
    ds = stack.dataset
    for r in results:
        row = r.query_index
        key = (r.method, stream, row)
        first = ledger.seen.get(key)
        if first is None:
            errors = ref.check_result(
                r, stack.ref, ds.instances[row], ds.attributes[row], 1,
                params.get("distance_weight"), params.get("max_iters"),
                params.get("epsilon"), params.get("clip"),
            )
            ledger.seen[key] = (fingerprint(r), errors)
        elif fingerprint(r) == first[0]:
            errors = first[1]
        else:
            errors = [f"{key}: a repeat gave another result"]
        ledger.op(errors)


def compare(stack, methods, n_queries, seed, ledger, stream=0):
    """One run_benchmark call toward class 1, every call timed; returns the
    report."""
    report = metrics.run_benchmark(
        stack.dataset, stack.target, stack.gen, timed(methods, ledger, stream),
        n_queries=n_queries, seed=seed, desired_class=1, keep_results=True,
    )
    for m in methods:
        check_results(stack, report.results[m.name], m.params, ledger, stream)
    ledger.info.setdefault("comparison", {
        name: {"flip_ratio": s.flipping_ratio, "lpr": s.mean_latent_perturbation}
        for name, s in report.per_method.items()
    })
    return report


def explain_pass(stack, rows, cfg, ledger):
    """Single-query latent_descent calls toward class 1, each one explain
    request; they repeat round 0's latent-descent searches exactly."""
    ds = stack.dataset
    results = []
    for row in rows:
        t = time.perf_counter_ns()
        r = engine.latent_descent(
            stack.target, stack.gen, ds.instances[row], ds.attributes[row],
            dataclasses.replace(cfg, desired=1), query_index=int(row),
        )
        ledger.time_op(("latent-descent", 0, int(row)), (time.perf_counter_ns() - t) / 1e9,
                       r.flipped)
        results.append(r)
    params = {"distance_weight": cfg.distance_weight, "max_iters": cfg.max_iters}
    check_results(stack, results, params, ledger)


class InProcess:
    """A stack trained in this process from a generated dataset."""

    def train(self, spec, target_cfg, disc_cfg, gen_cfg, ledger):
        """Data generation plus stack training: (stack, seconds)."""
        t0 = time.perf_counter()
        ds = datasets.generate(spec)
        t1 = time.perf_counter()
        target = models.train_target(ds, target_cfg)
        disc = models.train_discriminator(ds, disc_cfg)
        gen = models.train_generative(ds, disc, gen_cfg)
        t2 = time.perf_counter()
        ledger.phase("train_s", t2 - t1)
        return Stack(ds, target, gen, ref.RefStack.from_models(target, disc, gen)), t2 - t0

    def check_stack(self, stack, ledger):
        ds = stack.dataset
        x_test, _, y_test = ds.part("test")
        x_train, a_train, _ = ds.part("train")
        acc = stack.ref.accuracy(x_test, y_test)
        cons = stack.ref.attribute_consistency(x_train, a_train)
        ledger.check("target_test_accuracy", acc >= 0.85 and acc == stack.target.test_accuracy, acc)
        ledger.check("attribute_consistency", cons >= 0.85, cons)

    def digest(self, stack):
        return stack.ref.digest()

    def close(self):
        pass


class BlobCompare(InProcess):
    """The stock recipe: the five-method comparison once, then its
    latent-descent searches again as single-query explain calls."""

    name = "blob-compare"

    def __init__(self, seed, out_dir, tracer):
        self.recipe = metrics.benchmark_recipe(seed)
        self.rows = None

    def setup(self, ledger):
        r = self.recipe
        return self.train(r.spec, r.target_config, r.disc_config, r.gen_config, ledger)

    def round(self, stack, ledger, k):
        r = self.recipe
        if k > 0:
            explain_pass(stack, self.rows, r.perturb, ledger)
            return
        methods = metrics.build_methods(r.perturb, epsilon=r.epsilon)
        report = compare(stack, methods, r.n_queries, r.seed, ledger)
        self.rows = report.query_indices
        fr = {name: s.flipping_ratio for name, s in report.per_method.items()}
        ledger.check(
            "criterion_3_flip_rates",
            fr["latent-descent"] >= 0.8 and fr["latent-descent"] - fr["latent-random"] > 0.30,
            fr,
        )


class GlyphDescent(InProcess):
    """16x16 glyphs under a non-linear target, where the latent search
    iterates: its loop body (decode, classify, backward) is the hot path."""

    name = "glyph-descent"
    # The glyph data are fixed, so every run trains the same stack; see the
    # README for why the seed does not draw fresh glyphs.
    SPEC = dict(
        generator="glyphs", n_features=256, n_attributes=4, n_samples=2300, seed=1,
        noise=0.3, label_attributes=(0,), train_frac=1600 / 2300, dev_frac=100 / 2300,
    )
    EPOCHS = 30
    LR = 0.1
    # Small constant steps make the search walk tens of steps.
    SEARCH = dict(distance_weight=0.1, code_step=0.01, attr_step=0.01, step_decay=1.0,
                  max_iters=400)
    # The baselines keep the stock image profile, shortened.
    BASELINE = dict(max_iters=40)
    EPSILON = 0.3
    # Drawn from 279 usable test rows: few enough that a run repeats each
    # search about thirty times.
    N_QUERIES = 96
    # latent-random flips about 4 queries in 10 here; a second random
    # stream per query cuts the share of its rate that is coin-flip noise.
    RANDOM_STREAMS = 2

    def __init__(self, seed, out_dir, tracer):
        self.seed = seed
        self.search = engine.PerturbConfig.image_defaults(**self.SEARCH)
        self.rows = None

    def setup(self, ledger):
        tcfg = models.TrainConfig(epochs=self.EPOCHS, batch_size=128, learning_rate=self.LR,
                                  hidden_dims=(32,), seed=0)
        gcfg = models.GenerativeConfig(
            latent_dim=8, epochs=self.EPOCHS, batch_size=128, learning_rate=self.LR,
            hidden_dims=(32,), output_activation="sigmoid", seed=2,
        )
        return self.train(datasets.SynthSpec(**self.SPEC), tcfg,
                          dataclasses.replace(tcfg, seed=1), gcfg, ledger)

    def round(self, stack, ledger, k):
        """Round 0 is the four-method comparison plus latent-random's second
        streams; later rounds repeat latent-descent's searches."""
        if k > 0:
            explain_pass(stack, self.rows, self.search, ledger)
            return
        base = metrics.build_methods(engine.PerturbConfig.image_defaults(**self.BASELINE),
                                     epsilon=self.EPSILON)
        methods = pick(metrics.build_methods(self.search), METHODS[:1]) + pick(base, METHODS[1:])
        report = compare(stack, methods, self.N_QUERIES, self.seed, ledger)
        self.rows = report.query_indices
        for stream in range(1, self.RANDOM_STREAMS):
            compare(stack, methods[1:2], self.N_QUERIES, self.seed * 1009 + stream, ledger,
                    stream)


def result_record(d):
    """A result read back from explain's JSONL, in the shape check_result reads."""
    return types.SimpleNamespace(
        method=d["method"], sample=d["sample"], flipped=d["flipped"],
        iterations=d["iterations"], predicted_class=d["predicted_class"],
        desired_class=d["desired_class"], loss_trace=d["loss_trace"],
        latent=types.SimpleNamespace(code=np.asarray(d["code"]),
                                     attributes=np.asarray(d["attributes"])),
        origin=types.SimpleNamespace(code=np.asarray(d["origin_code"]),
                                     attributes=np.asarray(d["origin_attributes"])),
    )


class CliPipeline:
    """The README walkthrough through latentcf.cli.main, in process. Set-up
    is the session's gen-data and train commands; round 0 is its explain
    requests and a bench, and later rounds repeat the explain requests."""

    name = "cli-pipeline"
    TRAIN = ["--epochs", "120", "--lr", "0.05", "--hidden", "", "--latent", "8",
             "--gen-epochs", "120"]
    SEARCH = ["--alpha", "1.5", "--code-step", "2.0", "--attr-step", "3.0", "--decay", "0.9"]
    EXPLAIN_ITERS = 500
    N_EXPLAIN = 50
    N_BENCH = 100
    # latent-random never flips after its 30th step under this schedule
    # (steps shrink by 0.9 each), so the bench caps searches at 100 steps:
    # the same flips as the walkthrough's 500 for a fifth of the time.
    BENCH_ITERS = 100
    MODEL_FILES = ("target.lcfc", "discriminator.lcfc", "generative.lcfc")

    def __init__(self, seed, out_dir, tracer):
        self.seed = seed
        self.root = os.getcwd()
        self.dir = os.path.join(out_dir, f"cli-{os.getpid()}")
        self.files = [os.path.join(self.dir, "artifacts", f) for f in self.MODEL_FILES]
        self.tracer = tracer
        expected = datasets.generate(metrics.benchmark_recipe().spec)
        self.data = {
            "instances": expected.instances, "attributes": expected.attributes,
            "labels": expected.labels, "split": expected.split,
        }
        rng = np.random.default_rng(seed)
        self.rows = rng.choice(expected.indices("test"), self.N_EXPLAIN, replace=False)

    @contextlib.contextmanager
    def session_dir(self):
        os.chdir(self.dir)
        try:
            yield
        finally:
            os.chdir(self.root)

    def command(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        dt = time.perf_counter() - t
        errors = [] if rc == 0 else [f"{argv[0]} exited {rc}: {err.getvalue().strip()[:200]}"]
        return dt, errors

    def setup(self, ledger):
        """gen-data then train in a fresh session directory: (reference
        stack read back from the model files, seconds of both commands)."""
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        with self.session_dir():
            gen_s, errors = self.command(["gen-data", "--out", "data.lcfc"])
            if not errors:
                _, _, arrays = ref.read_lcfc("data.lcfc")
                if not all(np.array_equal(arrays[n], self.data[n]) for n in self.data):
                    errors.append("gen-data: dataset differs from the stock recipe's")
            ledger.op(errors)
            train_s, errors = self.command(["train", "--data", "data.lcfc", "--out-dir",
                                            "artifacts", *self.TRAIN])
            ledger.phase("train_s", train_s)
            stack = None if errors else ref.RefStack.from_files(*self.files)
            ledger.op(errors)
        return stack, gen_s + train_s

    def check_stack(self, stack, ledger):
        split = np.asarray(self.data["split"])
        test, train = split == 2, split == 0
        acc = cons = None
        if stack is not None:
            acc = stack.accuracy(self.data["instances"][test], self.data["labels"][test])
            cons = stack.attribute_consistency(self.data["instances"][train],
                                               self.data["attributes"][train])
        ledger.check("target_test_accuracy", acc is not None and acc >= 0.85, acc)
        ledger.check("attribute_consistency", cons is not None and cons >= 0.85, cons)

    def digest(self, stack):
        """The model files' bytes; explain must never change them."""
        if not all(os.path.isfile(p) for p in self.files):
            return None
        h = hashlib.sha256()
        for p in self.files:
            with open(p, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def round(self, stack, ledger, k):
        with self.session_dir():
            for row in self.rows:
                self.explain(stack, ledger, int(row))
            if k == 0:
                self.bench(ledger)

    def explain(self, stack, ledger, row):
        argv = ["explain", "--manifest", "artifacts/manifest.json", "--query-index",
                str(row), "--out", "explain.jsonl", *self.SEARCH,
                "--max-iters", str(self.EXPLAIN_ITERS)]
        with self.span("bench.explain"):
            dt, errors = self.command(argv)
        r = None
        if stack is None:
            errors.append("explain: no trained stack to check against")
        elif not errors:
            with open("explain.jsonl", encoding="utf-8") as fh:
                r = result_record(json.loads(fh.readline()))
            x0, a0 = self.data["instances"][row], self.data["attributes"][row]
            desired = 1 - int(np.argmax(ref.dense_forward(stack.target, x0)))
            errors = ref.check_result(r, stack, x0, a0, desired, 1.5, self.EXPLAIN_ITERS)
        ledger.time_op(("latent-descent", "explain", row), dt, r is not None and r.flipped)
        ledger.op(errors)

    def bench(self, ledger):
        _, errors = self.command(["bench", "--manifest", "artifacts/manifest.json",
                                  "--queries", str(self.N_BENCH), "--seed", str(self.seed),
                                  "--desired-class", "1", *self.SEARCH,
                                  "--max-iters", str(self.BENCH_ITERS), "--out", "report.json"])
        if not errors:
            with open("report.json", encoding="utf-8") as fh:
                report = json.load(fh)["methods"]
            counts = {name: s["n_queries"] for name, s in report.items()}
            if set(counts) != set(METHODS) | {"latent-descent-frozen"} or set(
                counts.values()
            ) != {self.N_BENCH}:
                errors = [f"bench: methods and query counts {counts}"]
            ledger.info["bench"] = {
                n: {"flip_ratio": s["flipping_ratio"], "lpr": s["mean_latent_perturbation"],
                    "mean_micros_per_query": s["mean_micros_per_query"]}
                for n, s in report.items()
            }
        ledger.op(errors)

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()


WORKLOADS = {w.name: w for w in (BlobCompare, GlyphDescent, CliPipeline)}


def end_to_end(ledger, setups):
    """The end-to-end figures of a run. The rate and the median are over
    explain requests, each at its cost over its repeats."""
    costs = [t for _, t in ledger.costs("latent-descent")]
    out = {
        "setup_s": float(np.median(setups)),
        "cf_per_s.latent-descent": ledger.rate("latent-descent"),
        "explain_p50_us": float(np.median(costs)) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    repeats = [len(t) for k, (_, t) in ledger.times.items() if k[0] == "latent-descent"]
    ledger.info["explain_requests"] = len(costs)
    ledger.info["repeats"] = {"min": min(repeats), "max": max(repeats)}
    # Recorded, not reported: their spread over ten runs exceeded any usable
    # bound on a drifting host (see the README). The other methods run once
    # per query, in round 0 only.
    calls = [s for k, (_, t) in ledger.times.items() if k[0] == "latent-descent" for s in t]
    ledger.info["unbounded"] = {
        **{f"cf_per_s.{m}": ledger.rate(m) for m in METHODS[1:] if ledger.costs(m)},
        "train_s": min(ledger.phases["train_s"]),
        "explain_p99_us": float(np.percentile(calls, 99)) * 1e6,
    }
    ledger.info["phases"] = ledger.phases
    ledger.info["setups_s"] = setups
    return out


def run(name, seed, seconds, tracer, out_dir):
    """Run one workload; returns (ledger, figures by metric name)."""
    wl = WORKLOADS[name](seed, out_dir, tracer)
    ledger = Ledger()
    try:
        if tracer is not None:
            return ledger, traced_run(wl, ledger, tracer)
        return ledger, timed_run(wl, ledger, seconds)
    finally:
        wl.close()


def timed_run(wl, ledger, seconds):
    setups = []

    def set_up():
        stack, setup_s = wl.setup(ledger)
        setups.append(setup_s)
        return stack

    stack = set_up()
    wl.check_stack(stack, ledger)
    digest = wl.digest(stack)
    # Rounds run until `seconds` of them are done. The later set-ups are
    # spread over the run, so that each samples another stretch of the
    # host's drifting speed; set-up time does not count toward `seconds`.
    measured = 0.0
    k = 0
    while k == 0 or measured < seconds or len(setups) < SETUPS:
        if len(setups) < SETUPS and measured >= len(setups) * seconds / SETUPS:
            again = set_up()
            ledger.check(f"setup_{len(setups)}_identical", wl.digest(again) == digest)
        t = time.perf_counter()
        wl.round(stack, ledger, k)
        measured += time.perf_counter() - t
        k += 1
    ledger.info["measured_s"] = measured
    ledger.info["rounds"] = k
    ledger.check("frozen_digest", digest is not None and wl.digest(stack) == digest)
    return end_to_end(ledger, setups)


def traced_run(wl, ledger, tracer):
    """One traced set-up, then the first round untraced and traced."""
    import tracing

    tracer.install()
    try:
        stack, _ = wl.setup(ledger)
    finally:
        tracer.uninstall()
    wl.check_stack(stack, ledger)
    digest = wl.digest(stack)
    t = time.perf_counter()
    wl.round(stack, ledger, 0)
    untraced = time.perf_counter() - t
    tracer.install()
    try:
        t = time.perf_counter()
        wl.round(stack, ledger, 0)
        traced = time.perf_counter() - t
    finally:
        tracer.uninstall()
    ledger.check("frozen_digest", digest is not None and wl.digest(stack) == digest)
    layers = tracing.layer_metrics(tracer)
    layers["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    ledger.info["first_round_s"] = {"untraced": untraced, "traced": traced}
    ledger.info["not_found"] = tracer.not_found
    return layers

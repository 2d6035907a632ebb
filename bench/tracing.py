"""Span tracing of latentcf's public functions, installed from outside.

The package imports its functions by name (`engine` does `from .nn import
forward`), so tracing a function means replacing every binding of it across
latentcf's modules, not only the one in its defining module. `Tracer.install`
does that for the functions in TARGETS and `uninstall` puts the originals
back; a function that has been renamed or removed is listed in `not_found`
instead of failing the run. Only public functions are wrapped.

Each call becomes a span: name, start, end, parent span and query id, kept in
flat integer arrays while the run lasts and written as JSONL at its end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TARGETS = {
    "datasets": ("generate", "load_dataset", "save_dataset"),
    "container": ("read_container", "write_container"),
    "models": (
        "train_target", "train_discriminator", "train_generative", "encode", "decode",
        "load_target", "load_discriminator", "load_generative", "load_manifest",
    ),
    "nn": ("forward", "backward", "sgd_step", "parameter_digest"),
    "engine": (
        "counterfactual_loss", "latent_descent", "latent_random_search",
        "gradient_sign_attack", "input_space_descent",
    ),
    "metrics": ("run_benchmark", "build_methods", "latent_threshold"),
    "cli": ("main", "cmd_gen_data", "cmd_train", "cmd_explain", "cmd_bench"),
}

SEARCHES = (
    "engine.latent_descent", "engine.latent_random_search",
    "engine.gradient_sign_attack", "engine.input_space_descent",
)
METHODS = ("latent-descent", "latent-descent-frozen", "latent-random", "gradient-sign",
           "input-descent")
# What an explain command spends on loading the stack and on the search;
# the rest of its time is CLI overhead.
STACK_LOAD = ("datasets.load_dataset", "models.load_manifest", "models.load_target",
              "models.load_discriminator", "models.load_generative")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.query = array("q")
        self._child_ns = array("q")
        self._stack = []
        self.calls = []
        self.self_ns = []
        self.total_ns = []
        self.counters = {}
        self.not_found = []
        self._installed = []
        self.active = False
        self._hooks = {
            "container.read_container": self._count_read,
            "container.write_container": self._count_write,
            "metrics.build_methods": self._trace_methods,
        }
        for name in SEARCHES:
            self._hooks[name] = self._count_search

    # --- spans ---------------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def open(self, nid, query=None):
        parent = self._stack[-1] if self._stack else -1
        if query is None:
            query = self.query[parent] if parent >= 0 else -1
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.query.append(query)
        self.end.append(0)
        self._child_ns.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid):
        t = time.perf_counter_ns()
        self.end[sid] = t
        self._stack.pop()
        dur = t - self.start[sid]
        nid = self.name_id[sid]
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - self._child_ns[sid]
        parent = self.parent[sid]
        if parent >= 0:
            self._child_ns[parent] += dur

    @contextmanager
    def span(self, name, query=None):
        """A span from the benchmark's own code; recorded only while installed."""
        if not self.active:
            yield None
            return
        sid = self.open(self._id(name), query)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, name, fn, query_arg=None):
        nid = self._id(name)
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            query = kwargs.get("query_index")
            if query_arg is not None and len(args) > query_arg:
                query = args[query_arg]
            sid = self.open(nid, query)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(sid, args, out)
            return out

        return traced

    # --- installation ----------------------------------------------------------

    def install(self):
        """Replace every binding of each target across latentcf's modules."""
        self.not_found = []
        package = importlib.import_module("latentcf")
        modules = {name: importlib.import_module(f"latentcf.{name}") for name in TARGETS}
        holders = [package] + [m for n, m in sys.modules.items() if n.startswith("latentcf.")]
        for modname, fnames in TARGETS.items():
            for fname in fnames:
                original = getattr(modules[modname], fname, None)
                if not callable(original):
                    self.not_found.append(f"{modname}.{fname}")
                    continue
                wrapper = self.wrap(f"{modname}.{fname}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._installed.append((holder, attr, original))
        self.active = True

    def uninstall(self):
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed = []
        self.active = False

    # --- hooks -------------------------------------------------------------------

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_read(self, sid, args, out):
        self._add("container.read_bytes", os.path.getsize(args[0]))

    def _count_write(self, sid, args, out):
        self._add("container.write_bytes", int(out))

    def _count_search(self, sid, args, r):
        m = r.method
        self._add(f"engine.queries.{m}", 1)
        self._add(f"engine.iterations.{m}", r.iterations)
        self._add(f"engine.evals.{m}", len(r.loss_trace))
        self._add(f"engine.flipped.{m}", int(r.flipped))
        self._add(f"engine.recon_flips.{m}", int(r.flipped and r.iterations == 0))
        self._add(f"engine.ns.{m}", self.end[sid] - self.start[sid])

    def _trace_methods(self, sid, args, methods):
        # Method.run(target, gen, x0, a0, desired, rng, query_index)
        for m in methods:
            m.run = self.wrap(f"method.{m.name}", m.run, query_arg=6)

    # --- results -------------------------------------------------------------------

    def stat(self, name):
        """(calls, self ns, total ns) for a span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.self_ns[nid], self.total_ns[nid]

    def _arrays(self):
        return tuple(
            np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
            for a in (self.name_id, self.start, self.end, self.parent)
        )

    def harness_ns(self):
        """Per method: run_benchmark wall time minus the time inside Method.run.

        Within each run_benchmark span the method's stretch runs from its
        first Method.run call to the next method's first call (or the end
        of run_benchmark); the harness share is that stretch minus the
        method's calls. Query selection and the latent threshold, before
        the first method, are left out.
        """
        out = {m: 0 for m in METHODS}
        rb = self._ids.get("metrics.run_benchmark")
        if rb is None:
            return out
        nid, start, end, parent = self._arrays()
        method_of = {self._ids[f"method.{m}"]: m for m in METHODS if f"method.{m}" in self._ids}
        is_method = np.isin(nid, list(method_of))
        under_rb = np.zeros(len(nid), dtype=bool)
        has_parent = parent >= 0
        under_rb[has_parent] = nid[parent[has_parent]] == rb
        spans = np.flatnonzero(is_method & under_rb)
        groups = []  # [run_benchmark sid, method, first start, summed duration]
        for sid in spans:
            m, p = method_of[int(nid[sid])], int(parent[sid])
            if groups and groups[-1][0] == p and groups[-1][1] == m:
                groups[-1][3] += int(end[sid] - start[sid])
            else:
                groups.append([p, m, int(start[sid]), int(end[sid] - start[sid])])
        for i, (p, m, first, busy) in enumerate(groups):
            stop = groups[i + 1][2] if i + 1 < len(groups) and groups[i + 1][0] == p else int(end[p])
            out[m] += stop - first - busy
        return out

    def inside_ns(self, outer, inner_names):
        """Per `outer` span: summed duration of `inner_names` spans inside it."""
        nid, start, end, _ = self._arrays()
        outer_id = self._ids.get(outer)
        inner_ids = [self._ids[n] for n in inner_names if n in self._ids]
        if outer_id is None:
            return np.zeros(0), np.zeros(0)
        o = np.flatnonzero(nid == outer_id)
        i = np.flatnonzero(np.isin(nid, inner_ids))
        csum = np.concatenate([[0], np.cumsum(end[i] - start[i])])
        lo = np.searchsorted(start[i], start[o], side="left")
        hi = np.searchsorted(start[i], end[o], side="right")
        return (end[o] - start[o]).astype(float), (csum[hi] - csum[lo]).astype(float)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.name_id)):
                fh.write(json.dumps({
                    "id": sid,
                    "name": self.names[self.name_id[sid]],
                    "start_ns": self.start[sid],
                    "end_ns": self.end[sid],
                    "parent": self.parent[sid],
                    "query": self.query[sid],
                }, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(tr):
    """The per-layer figures of one traced run, by metric name."""
    out = {}

    def calls(name):
        return tr.stat(name)[0]

    def self_s(name):
        return tr.stat(name)[1] / 1e9

    def self_us(name):
        return tr.stat(name)[1] / 1e3

    def total_s(name):
        return tr.stat(name)[2] / 1e9

    out["datasets.generate_s"] = self_s("datasets.generate")
    out["datasets.load_s"] = self_s("datasets.load_dataset")
    for op in ("read", "write"):
        out[f"container.{op}_s"] = self_s(f"container.{op}_container")
        out[f"container.{op}_calls"] = calls(f"container.{op}_container")
        out[f"container.{op}_bytes"] = tr.counters.get(f"container.{op}_bytes", 0)
    for part in ("target", "discriminator", "generative"):
        out[f"models.train_{part}_s"] = self_s(f"models.train_{part}")
    out["models.encode_calls"] = calls("models.encode")
    out["models.encode_us"] = self_us("models.encode")
    out["nn.sgd_step_calls"] = calls("nn.sgd_step")
    out["nn.sgd_step_s"] = self_s("nn.sgd_step")
    for fn, key in (("forward", "forward"), ("backward", "backward"), ("parameter_digest", "digest")):
        out[f"nn.{key}_calls"] = calls(f"nn.{fn}")
        out[f"nn.{key}_us"] = self_us(f"nn.{fn}")
    for m in METHODS:
        for key in ("queries", "iterations", "evals", "flipped", "recon_flips"):
            out[f"engine.{key}.{m}"] = tr.counters.get(f"engine.{key}.{m}", 0)
        evals = out[f"engine.evals.{m}"]
        out[f"engine.us_per_eval.{m}"] = (
            tr.counters.get(f"engine.ns.{m}", 0) / 1e3 / evals if evals else 0.0
        )
    out["engine.loss_us"] = self_us("engine.counterfactual_loss")
    for m, ns in tr.harness_ns().items():
        out[f"metrics.harness_us.{m}"] = ns / 1e3
    out["metrics.latent_threshold_us"] = self_us("metrics.latent_threshold")
    out["cli.gen-data_s"] = total_s("cli.cmd_gen_data")
    out["cli.train_s"] = total_s("cli.cmd_train")
    n_explain = calls("cli.cmd_explain")
    out["cli.explain_us"] = tr.stat("cli.cmd_explain")[2] / 1e3 / n_explain if n_explain else 0.0
    out["cli.bench_s"] = total_s("cli.cmd_bench")
    walls, inner = tr.inside_ns("bench.explain", STACK_LOAD + ("engine.latent_descent",))
    out["cli.overhead_us"] = float(np.mean(walls - inner)) / 1e3 if len(walls) else 0.0
    return out


def unit_of(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".us_per_eval." in name or ".harness_us." in name:
        return "us"
    return "count"


PER_LAYER = list(layer_metrics(Tracer())) + ["trace.overhead_pct"]
UNITS = {name: unit_of(name) for name in PER_LAYER}

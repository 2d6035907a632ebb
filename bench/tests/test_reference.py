"""The benchmark's own checks: its reference functions agree with latentcf
on small random stacks, doctored results are caught, and the tracer puts
every binding back.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, ".."))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from latentcf import container, engine, models, nn  # noqa: E402

D, K, T = 6, 3, 2


def random_stack(seed):
    rng = np.random.default_rng(seed)
    acts = ["identity", "relu", "tanh", "sigmoid"]
    hidden = acts[seed % len(acts)]
    target = models.TargetModel(nn.build_network([D, 5, 2], [hidden, "softmax"], rng), 1, 1, 1)
    encoder = nn.build_network([D, 4, K], [hidden, "identity"], rng)
    decoder = nn.build_network([K + T, 4, D], [hidden, "sigmoid"], rng)
    gen = models.GenerativeModel(encoder, decoder, K, T, 0.0, 1.0)
    disc = models.Discriminator(nn.build_network([D, T], ["sigmoid"], rng))
    x0 = rng.uniform(0, 1, D)
    a0 = (rng.random(T) < 0.5).astype(float)
    return target, disc, gen, x0, a0


def search_results(target, gen, x0, a0):
    desired = 1 - target.predict(x0)
    cfg = engine.PerturbConfig.image_defaults(desired=desired, max_iters=25, step_decay=0.95)
    frozen = dataclasses.replace(cfg, optimize_attributes=False)
    return desired, cfg, [
        engine.latent_descent(target, gen, x0, a0, cfg),
        engine.latent_descent(target, gen, x0, a0, frozen, method="latent-descent-frozen"),
        engine.latent_random_search(target, gen, x0, a0, cfg, rng=np.random.default_rng(0)),
        engine.input_space_descent(target, gen, x0, a0, cfg),
        engine.gradient_sign_attack(target, gen, x0, a0, 0.3, desired=desired, clip=cfg.clip),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_forward_decode_and_encode_agree(seed):
    target, disc, gen, x0, a0 = random_stack(seed)
    stack = ref.RefStack.from_models(target, disc, gen)
    batch = np.random.default_rng(seed).normal(size=(7, D))
    for x in (x0, batch):
        np.testing.assert_allclose(ref.dense_forward(stack.target, x), nn.forward(target.network, x),
                                   rtol=1e-12, atol=1e-15)
    point = models.encode(gen, x0, a0)
    np.testing.assert_allclose(ref.dense_forward(stack.encoder, x0), point.code, rtol=1e-12)
    np.testing.assert_allclose(
        ref.dense_forward(stack.decoder, np.concatenate([point.code, a0])),
        models.decode(gen, point), rtol=1e-12, atol=1e-15,
    )


def test_digest_sees_a_one_ulp_change():
    target, disc, gen, _, _ = random_stack(0)
    stack = ref.RefStack.from_models(target, disc, gen)
    before = stack.digest()
    assert ref.RefStack.from_models(target, disc, gen).digest() == before
    w = gen.decoder.layers[0].weights
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    assert stack.digest() != before


@pytest.mark.parametrize("seed", range(8))
def test_real_results_pass_every_check(seed):
    target, disc, gen, x0, a0 = random_stack(seed)
    stack = ref.RefStack.from_models(target, disc, gen)
    desired, cfg, results = search_results(target, gen, x0, a0)
    for r in results:
        assert ref.check_result(r, stack, x0, a0, desired, cfg.distance_weight, cfg.max_iters,
                                epsilon=0.3, clip=cfg.clip) == []


def test_doctored_results_are_caught():
    target, disc, gen, x0, a0 = random_stack(1)
    stack = ref.RefStack.from_models(target, disc, gen)
    desired, cfg, results = search_results(target, gen, x0, a0)

    def errors(r):
        return ref.check_result(r, stack, x0, a0, desired, cfg.distance_weight, cfg.max_iters,
                                epsilon=0.3, clip=cfg.clip)

    for r in results:
        false_flip = dataclasses.replace(r, flipped=not r.flipped)
        assert any("flipped" in e for e in errors(false_flip))
        moved = dataclasses.replace(r, sample=r.sample + 1e-6)
        assert errors(moved)
        short = dataclasses.replace(r, loss_trace=r.loss_trace[:-1])
        assert errors(short)


def test_container_reader_matches_the_package(tmp_path):
    arrays = {"w0": np.arange(6.0).reshape(2, 3), "flags": np.array([1, -2, 3], dtype=np.int8)}
    path = tmp_path / "x.lcfc"
    container.write_container(path, "thing", {"a": [1, 2]}, arrays)
    kind, meta, got = ref.read_lcfc(path)
    assert (kind, meta) == ("thing", {"a": [1, 2]})
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype and np.array_equal(got[name], arr)


def test_tracer_counts_calls_and_restores_bindings(monkeypatch):
    target, disc, gen, x0, a0 = random_stack(2)
    originals = (engine.forward, engine.latent_descent, nn.forward)
    monkeypatch.setitem(tracing.TARGETS, "nn", tracing.TARGETS["nn"] + ("renamed_away",))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert engine.forward is not originals[0] and nn.forward is not originals[2]
        r = engine.latent_descent(target, gen, x0, a0,
                                  engine.PerturbConfig.text_defaults(desired=1, max_iters=5),
                                  query_index=42)
    finally:
        tr.uninstall()
    assert (engine.forward, engine.latent_descent, nn.forward) == originals
    assert tr.not_found == ["nn.renamed_away"]
    layers = tracing.layer_metrics(tr)
    evals = len(r.loss_trace)
    # One encoder pass, then decode and classify per evaluation.
    assert layers["nn.forward_calls"] == 1 + 2 * evals
    assert layers["nn.backward_calls"] == 2 * evals
    assert layers["nn.digest_calls"] == 2
    assert layers["engine.iterations.latent-descent"] == r.iterations
    assert set(tr.query) == {42}
    calls, self_ns, total_ns = tr.stat("engine.latent_descent")
    assert calls == 1 and 0 < self_ns < total_ns

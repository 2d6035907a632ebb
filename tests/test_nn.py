"""Unit checks for the dense-network engine and its loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from latentcf.errors import ConfigurationError, DimensionError, NumericalError
from latentcf.nn import (
    ACTIVATIONS,
    PROB_FLOOR,
    DenseNetwork,
    GradientTape,
    Layer,
    build_network,
    cross_entropy,
    forward,
    forward_trace,
    l2_distance,
    mean_binary_cross_entropy,
    mean_cross_entropy,
    parameter_digest,
    vjp,
)
from latentcf.nn import _KERNELS, _FlatParams, _bind


def sgd_step(net, tape, lr):
    """The reference SGD step the trainers' flat-buffer step is checked
    against: layer by layer, the weights then the bias move by -lr times
    their gradient in place, each layer then checked finite, weights first.
    Returns net."""
    for layer, (d_weights, d_bias) in zip(net.layers, tape.param_grads, strict=True):
        layer.weights -= lr * d_weights
        layer.bias -= lr * d_bias
        for values, what in ((layer.weights, "weights"), (layer.bias, "bias")):
            if not np.isfinite(values).all():
                raise NumericalError(f"non-finite values in updated {what}")
    return net


def central_difference(f, x, h=1e-5):
    """Central finite differences of a scalar function, mutating x in place."""
    grad = np.zeros_like(x)
    flat, gf = x.ravel(), grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_close_to_fd(analytic, fd, rel=1e-4, abs_tol=1e-7):
    gap = np.abs(analytic - fd)
    bound = abs_tol + rel * np.abs(fd)
    assert np.all(gap <= bound), f"max gap {gap.max()} exceeds fd tolerance"


class TestForward:
    def test_hand_computed_tanh_stack(self):
        # x=[1,-1]; tanh layer W=[[1,.5],[0,2]] b=[.5,-1]; identity head [[2,1]] b=[.25]
        net = DenseNetwork(
            [
                Layer(np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([0.5, -1.0]), "tanh"),
                Layer(np.array([[2.0, 1.0]]), np.array([0.25]), "identity"),
            ]
        )
        out = forward(net, np.array([1.0, -1.0]))
        assert_allclose(out, [0.7781335582247992], atol=1e-12)

    def test_batch_matches_singles(self):
        rng = np.random.default_rng(0)
        net = build_network([3, 5, 2], ["tanh", "softmax"], rng)
        xs = rng.standard_normal((4, 3))
        batch = forward(net, xs)
        for i in range(4):
            assert_allclose(batch[i], forward(net, xs[i]), atol=0)

    def test_wrong_input_width_rejected(self):
        net = build_network([3, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(DimensionError):
            forward(net, np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10_000))
    def test_softmax_rows_are_distributions(self, d, n, seed):
        rng = np.random.default_rng(seed)
        net = build_network([d, 4, 3], ["tanh", "softmax"], rng)
        out = forward(net, 3.0 * rng.standard_normal((n, d)))
        assert np.all(out >= 0)
        assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-12)


class TestValidation:
    def test_softmax_mid_stack_rejected(self):
        layers = [
            Layer(np.zeros((2, 2)) + 0.1, np.zeros(2), "softmax"),
            Layer(np.zeros((1, 2)) + 0.1, np.zeros(1), "identity"),
        ]
        with pytest.raises(ConfigurationError):
            DenseNetwork(layers)

    def test_dimension_chain_mismatch_rejected(self):
        layers = [
            Layer(np.ones((3, 2)), np.zeros(3), "tanh"),
            Layer(np.ones((1, 4)), np.zeros(1), "identity"),
        ]
        with pytest.raises(DimensionError):
            DenseNetwork(layers)

    def test_nonfinite_parameter_rejected(self):
        with pytest.raises(NumericalError):
            DenseNetwork([Layer(np.array([[np.inf]]), np.zeros(1), "identity")])

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigurationError):
            DenseNetwork([])

    def test_activation_count_checked(self):
        with pytest.raises(ConfigurationError):
            build_network([2, 3, 1], ["tanh"], np.random.default_rng(0))


class TestBackward:
    def test_linear_layer_exact_gradients(self):
        # Single identity layer: input grad W^T g, dW = outer(g, x), db = g.
        net = DenseNetwork(
            [Layer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), "identity")]
        )
        tape = vjp(net, forward_trace(net, np.array([1.0, 1.0]))[1], np.array([1.0, 0.0]))
        assert_allclose(tape.input_grad, [1.0, 2.0], atol=0)
        dw, db = tape.param_grads[0]
        assert_allclose(dw, [[1.0, 1.0], [0.0, 0.0]], atol=0)
        assert_allclose(db, [1.0, 0.0], atol=0)

    def test_batch_parameter_grads_sum_over_rows(self):
        rng = np.random.default_rng(1)
        net = build_network([3, 4, 2], ["sigmoid", "identity"], rng)
        xs = rng.standard_normal((2, 3))
        gs = rng.standard_normal((2, 2))
        whole = vjp(net, forward_trace(net, xs)[1], gs)
        parts = [vjp(net, forward_trace(net, xs[i])[1], gs[i]) for i in range(2)]
        for li in range(len(net.layers)):
            assert_allclose(
                whole.param_grads[li][0],
                parts[0].param_grads[li][0] + parts[1].param_grads[li][0],
                atol=1e-14,
            )
            assert_allclose(
                whole.param_grads[li][1],
                parts[0].param_grads[li][1] + parts[1].param_grads[li][1],
                atol=1e-14,
            )

    def test_matches_central_differences(self):
        """Random smooth stacks against finite differences, inputs and parameters."""
        rng = np.random.default_rng(7)
        heads = ["identity", "softmax", "sigmoid"]
        for trial in range(12):
            d = int(rng.integers(1, 5))
            hid = int(rng.integers(2, 7))
            out_dim = int(rng.integers(2, 4))
            act = ["tanh", "sigmoid"][trial % 2]
            net = build_network([d, hid, out_dim], [act, heads[trial % 3]], rng)
            x = rng.standard_normal(d)
            probe = rng.standard_normal(out_dim)

            def loss():
                return float(probe @ forward(net, x))

            tape = vjp(net, forward_trace(net, x)[1], probe)
            assert_close_to_fd(tape.input_grad, central_difference(loss, x))
            for li, layer in enumerate(net.layers):
                assert_close_to_fd(
                    tape.param_grads[li][0], central_difference(loss, layer.weights)
                )
                assert_close_to_fd(
                    tape.param_grads[li][1], central_difference(loss, layer.bias)
                )

    def test_relu_gradient_off_the_kink(self):
        rng = np.random.default_rng(11)
        net = build_network([3, 5, 2], ["relu", "identity"], rng)
        # Keep every pre-activation away from zero so the difference quotient
        # never straddles the kink.
        x = rng.standard_normal(3)
        while np.min(np.abs(net.layers[0].weights @ x + net.layers[0].bias)) < 1e-2:
            x = rng.standard_normal(3)
        probe = rng.standard_normal(2)

        def loss():
            return float(probe @ forward(net, x))

        tape = vjp(net, forward_trace(net, x)[1], probe)
        assert_close_to_fd(tape.input_grad, central_difference(loss, x))

    def test_gradient_shape_mismatch_rejected(self):
        net = build_network([2, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(DimensionError):
            vjp(net, forward_trace(net, np.zeros(2))[1], np.zeros(3))


class TestVjp:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["single", "batch"])
    def test_matches_central_differences(self, activation, shape):
        """Input and parameter gradients through a traced evaluation."""
        rng = np.random.default_rng(ACTIVATIONS.index(activation) + 10 * len(shape))
        hidden = "tanh" if activation == "softmax" else activation
        net = build_network([3, 5, 3], [hidden, activation], rng)
        # Keep relu pre-activations off the kink so differences stay smooth.
        while True:
            x = rng.standard_normal(shape)
            out, trace = forward_trace(net, x)
            if min(np.abs(pre).min() for _, pre, _ in trace.layers) > 1e-2:
                break
        probe = rng.standard_normal(out.shape)

        def loss():
            return float((probe * forward(net, x)).sum())

        tape = vjp(net, trace, probe)
        assert tape.input_grad.shape == x.shape
        assert_close_to_fd(tape.input_grad, central_difference(loss, x))
        for (d_w, d_b), layer in zip(tape.param_grads, net.layers):
            assert_close_to_fd(d_w, central_difference(loss, layer.weights))
            assert_close_to_fd(d_b, central_difference(loss, layer.bias))

        input_only = vjp(net, trace, probe, with_params=False)
        assert input_only.param_grads is None
        assert np.array_equal(input_only.input_grad, tape.input_grad)
        params_only = vjp(net, trace, probe, with_input=False)
        assert params_only.input_grad is None
        for (d_w, d_b), (p_w, p_b) in zip(tape.param_grads, params_only.param_grads):
            assert np.array_equal(d_w, p_w) and np.array_equal(d_b, p_b)

    def test_gradient_shape_mismatch_rejected(self):
        net = build_network([2, 2], ["identity"], np.random.default_rng(0))
        _, single = forward_trace(net, np.zeros(2))
        _, batch = forward_trace(net, np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            vjp(net, single, np.zeros((1, 2)))
        with pytest.raises(DimensionError):
            vjp(net, batch, np.zeros((2, 2)), with_params=False)

    def test_sweep_with_nothing_to_build_rejected(self):
        net = build_network([2, 2], ["identity"], np.random.default_rng(0))
        _, trace = forward_trace(net, np.zeros(2))
        with pytest.raises(ConfigurationError):
            vjp(net, trace, np.ones(2), with_params=False, with_input=False)


def masked_sigmoid(pre):
    """The sigmoid as it was written with boolean masks, for comparison."""
    out = np.empty_like(pre)
    pos = pre >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-pre[pos]))
    ex = np.exp(pre[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def clip_clamp(p):
    """The probability clamp as it was written with np.clip."""
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


TINY = np.finfo(np.float64).smallest_subnormal
SIGMOID_EDGES = np.array(
    [0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
     36.7, -36.7, 709.78, -709.78, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308, np.inf, -np.inf]
)


class TestSigmoid:
    def sigmoid_grid(self):
        rng = np.random.default_rng(11)
        # Magnitudes from 1e-13 to 1e3, both signs, then the edge values.
        grid = rng.standard_normal(20_000) * np.exp(rng.uniform(-30.0, 7.0, 20_000))
        return np.concatenate([grid, SIGMOID_EDGES]).reshape(-1, 4)

    def test_matches_masked_form_bitwise(self):
        pre = self.sigmoid_grid()
        assert same_bits(_KERNELS["sigmoid"][0](pre), masked_sigmoid(pre))

    def test_edge_values_bitwise(self):
        pre = SIGMOID_EDGES[None, :]
        out = _KERNELS["sigmoid"][0](pre)
        assert same_bits(out, masked_sigmoid(pre))
        assert out[0, 0] == out[0, 1] == 0.5
        assert out[0, -2] == 1.0 and out[0, -1] == 0.0

    def test_fresh_output_and_untouched_input(self):
        pre = self.sigmoid_grid()
        kept = pre.copy()
        out = _KERNELS["sigmoid"][0](pre)
        assert same_bits(pre, kept)
        assert not np.shares_memory(out, pre)
        net = DenseNetwork([Layer(np.array([[1.0, -2.0]]), np.array([0.5]), "sigmoid")])
        _, trace = forward_trace(net, np.array([[0.3, 0.1], [-4.0, 2.0]]))
        h_in, pre, post = trace.layers[0]
        assert not np.shares_memory(pre, post)
        assert same_bits(pre, np.array([[0.6], [-7.5]]))
        assert same_bits(post, masked_sigmoid(pre))

    def test_raises_nothing_new_under_errstate(self):
        def raised(f, pre):
            try:
                with np.errstate(all="raise"):
                    f(pre)
            except FloatingPointError:
                return True
            return False

        new = lambda pre: _KERNELS["sigmoid"][0](pre)
        for value in SIGMOID_EDGES:
            pre = np.array([[value]])
            assert raised(new, pre) <= raised(masked_sigmoid, pre), value
        moderate = np.linspace(-30.0, 30.0, 241).reshape(-1, 1)
        assert not raised(new, moderate) and not raised(masked_sigmoid, moderate)
        assert raised(new, self.sigmoid_grid()) <= raised(masked_sigmoid, self.sigmoid_grid())


class TestSgdStep:
    def _net(self):
        return DenseNetwork(
            [Layer(np.array([[1.0, 2.0]]), np.array([0.5]), "identity")]
        )

    def test_update_is_exact(self):
        net = self._net()
        tape = GradientTape([(np.array([[0.5, -1.0]]), np.array([2.0]))], None)
        sgd_step(net, tape, 0.1)
        assert_allclose(net.layers[0].weights, [[0.95, 2.1]], atol=1e-15)
        assert_allclose(net.layers[0].bias, [0.3], atol=1e-15)

    def test_zero_learning_rate_is_identity(self):
        net = self._net()
        before = parameter_digest(net)
        tape = GradientTape([(np.ones((1, 2)), np.ones(1))], None)
        sgd_step(net, tape, 0.0)
        assert parameter_digest(net) == before

    def test_nonfinite_update_rejected(self):
        net = self._net()
        tape = GradientTape([(np.array([[np.inf, 0.0]]), np.zeros(1))], None)
        with pytest.raises(NumericalError):
            sgd_step(net, tape, 1.0)


class TestFlatParams:
    """A trainer's flat-buffer step against sgd_step on the same network."""

    def _pair(self):
        rng = np.random.default_rng(2)
        net = build_network([3, 4, 2], ["tanh", "softmax"], rng)
        return net, net.copy(), rng

    def test_step_matches_sgd_step_bit_for_bit(self):
        net, ref, rng = self._pair()
        flat = _FlatParams(net)
        x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        sgd_step(ref, vjp(ref, forward_trace(ref, x)[1], g, with_input=False), 0.1)
        trace, pull = _bind(net.layers)
        pull(trace(x)[1], g, flat.grad_out, False)
        flat.step(0.1)
        for layer, want in zip(net.layers, ref.layers):
            assert layer.weights.tobytes() == want.weights.tobytes()
            assert layer.bias.tobytes() == want.bias.tobytes()
        # The layers read and write the one buffer.
        flat.params[:] = 0.0
        assert not any(l.weights.any() or l.bias.any() for l in net.layers)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([(0, 1), (1, 0)], "updated bias"),
            ([(1, 1)], "updated bias"),
            ([(0, 0), (0, 1)], "updated weights"),
            ([(1, 0), (1, 1)], "updated weights"),
        ],
    )
    def test_a_non_finite_update_names_the_first_bad_parameter(self, bad, message):
        """bad lists (layer, 0 for weights or 1 for bias) gradients set to
        inf; the message is the one sgd_step raises for the same update."""
        net, ref, _ = self._pair()
        flat = _FlatParams(net)
        flat.grads[:] = 0.0
        for layer, which in bad:
            flat.grad_out[layer][which].flat[0] = np.inf
        tape = GradientTape([(w.copy(), b.copy()) for w, b in flat.grad_out], None)
        for step in (lambda: flat.step(1.0), lambda: sgd_step(ref, tape, 1.0)):
            with pytest.raises(NumericalError, match=f"^non-finite values in {message}$"):
                step()

    @staticmethod
    def outcome(step):
        """None when step() returns, else the NumericalError's message."""
        try:
            step()
        except NumericalError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([], None),
            ([(2, 0)], "updated weights"),
            ([(2, 1)], "updated bias"),
            ([(1, 1), (2, 0)], "updated bias"),
            ([(0, 0), (2, 1)], "updated weights"),
        ],
    )
    def test_one_buffer_matches_one_per_network_stepped_in_turn(self, bad, message):
        """_FlatParams(first, second), layers 0-1 of the first network and
        layer 2 the second's, against a buffer per network stepped first
        then second: the same bits, or the same message, where bad lists
        (layer, 0 for weights or 1 for bias) gradients set to inf."""
        rng = np.random.default_rng(3)
        nets = (build_network([3, 4, 2], ["tanh", "softmax"], rng),
                build_network([5, 3], ["sigmoid"], rng))
        refs = [net.copy() for net in nets]
        joint, apart = _FlatParams(*nets), [_FlatParams(ref) for ref in refs]
        joint.grads[:] = rng.normal(size=joint.grads.size)
        for layer, which in bad:
            joint.grad_out[layer][which].flat[0] = np.inf
        split = apart[0].grads.size
        apart[0].grads[:], apart[1].grads[:] = joint.grads[:split], joint.grads[split:]

        def in_turn():
            for flat in apart:
                flat.step(0.1)

        want = None if message is None else f"non-finite values in {message}"
        assert self.outcome(lambda: joint.step(0.1)) == want
        assert self.outcome(in_turn) == want
        if message is None:
            for net, ref in zip(nets, refs):
                for layer, expected in zip(net.layers, ref.layers):
                    assert layer.weights.tobytes() == expected.weights.tobytes()
                    assert layer.bias.tobytes() == expected.bias.tobytes()


class TestBoundTrace:
    @pytest.mark.parametrize(
        "layers", [[Layer(np.array([[1.0, 1.0]]), np.zeros(1), "identity")], []],
        ids=["one-layer", "no-layers"],
    )
    def test_a_non_finite_output_raises(self, layers):
        """The bound trace checks its own output, with forward_trace's
        message; with no layers, its output is its input."""
        trace, _ = _bind(layers)
        out, records = trace(np.array([[1.0, 2.0]]))
        assert len(records) == len(layers) and np.isfinite(out).all()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericalError, match=r"^non-finite values in forward output$"):
                trace(np.array([[bad, 2.0]]))


class TestLosses:
    def test_cross_entropy_hand_value(self):
        value, grad = cross_entropy(np.array([0.25, 0.75]), np.array([1.0, 0.0]))
        assert_allclose(value, np.log(4.0), atol=1e-15)
        assert_allclose(grad, [-4.0, 0.0], atol=1e-15)

    def test_cross_entropy_clamped_at_edges(self):
        # A zero probability on the hot class clamps to 1e-12 and the loss
        # goes flat there, so the gradient is zero rather than infinite.
        value, grad = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert_allclose(value, 27.631021115928547, atol=1e-9)
        assert_allclose(grad, [0.0, 0.0], atol=0)

    def test_cross_entropy_matches_clip_form_bitwise(self):
        edges = [0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, np.nextafter(PROB_FLOOR, 0.0),
                 np.nextafter(1.0 - PROB_FLOOR, 2.0), 0.5, 0.25]
        rng = np.random.default_rng(5)
        for p in edges + list(rng.uniform(0.0, 1.0, 40)):
            predicted = np.array([p, 1.0 - p, 0.0])
            for hot in range(3):
                target = np.eye(3)[hot]
                value, grad = cross_entropy(predicted, target)
                clamped = clip_clamp(predicted)
                old_grad = -target / clamped
                old_grad[(predicted < PROB_FLOOR) | (predicted > 1.0 - PROB_FLOOR)] = 0.0
                assert same_bits(value, float(-(target * np.log(clamped)).sum()))
                assert same_bits(grad, old_grad)

    def test_mean_losses_match_clip_form_bitwise(self):
        rng = np.random.default_rng(6)
        predicted = rng.uniform(0.0, 1.0, (50, 3))
        predicted[:4] = [[0.0, 1.0, PROB_FLOOR], [1.0 - PROB_FLOOR, 0.5, 0.0],
                         [1.0, 1.0, 0.0], [PROB_FLOOR / 2, 1.0 - PROB_FLOOR / 2, 0.5]]
        target = (rng.uniform(0.0, 1.0, (50, 3)) < 0.5).astype(np.float64)
        n = predicted.shape[0]
        clamped = clip_clamp(predicted)
        value, grad = mean_cross_entropy(predicted, target)
        assert same_bits(value, float(-(target * np.log(clamped)).sum() / n))
        assert same_bits(grad, -target / clamped / n)
        value, grad = mean_binary_cross_entropy(predicted, target)
        old = float(-(target * np.log(clamped) + (1.0 - target) * np.log1p(-clamped)).sum() / n)
        assert same_bits(value, old)
        assert same_bits(grad, (-target / clamped + (1.0 - target) / (1.0 - clamped)) / n)

    def test_cross_entropy_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))

    def test_l2_pythagorean_triple(self):
        dist, grad = l2_distance(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
        assert_allclose(dist, 5.0, atol=0)
        assert_allclose(grad, [0.6, 0.8], atol=1e-15)

    def test_l2_zero_at_coincident_points(self):
        dist, grad = l2_distance(np.array([1.0, -2.0]), np.array([1.0, -2.0]))
        assert dist == 0.0
        assert_allclose(grad, [0.0, 0.0], atol=0)

    def test_l2_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            l2_distance(np.zeros(2), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10_000))
    def test_l2_symmetry_and_unit_gradient(self, dim, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        duv, grad = l2_distance(u, v)
        dvu, _ = l2_distance(v, u)
        assert_allclose(duv, dvu, atol=0)
        if duv > 0:
            assert_allclose(np.sqrt((grad * grad).sum()), 1.0, atol=1e-12)


class TestDigest:
    def test_stable_across_copies(self):
        net = build_network([3, 4, 2], ["tanh", "softmax"], np.random.default_rng(3))
        assert parameter_digest(net) == parameter_digest(net.copy())

    def test_sensitive_to_single_parameter(self):
        net = build_network([3, 4, 2], ["tanh", "softmax"], np.random.default_rng(3))
        before = parameter_digest(net)
        w = net.layers[0].weights
        w[0, 0] = np.nextafter(w[0, 0], np.inf)
        assert parameter_digest(net) != before

    def test_build_network_deterministic(self):
        a = build_network([4, 6, 2], ["sigmoid", "identity"], np.random.default_rng(42))
        b = build_network([4, 6, 2], ["sigmoid", "identity"], np.random.default_rng(42))
        assert parameter_digest(a) == parameter_digest(b)

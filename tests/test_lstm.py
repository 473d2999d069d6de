import math

import numpy as np
import pytest

from gradcheck import REL_TOL, worst_relative_error
from lstm_reference import (
    reference_backward,
    reference_forward,
    reference_step,
    split_gates,
    zero_params,
)
from seqad.errors import DataError, ShapeError
from seqad.lstm import LstmLayerParams, _step, lstm_backward, lstm_forward, lstm_infer


def random_params(hidden, input_size, seed, bias_scale=0.1):
    rng = np.random.default_rng(seed)
    params = LstmLayerParams.init(hidden, input_size, rng)
    params.b += rng.uniform(-bias_scale, bias_scale, params.b.shape)
    return params


def gates_of(cache):
    """Activated (f, i, o, g) blocks of one step record."""
    return np.split(cache.gates, 4, axis=1)


def step_from(params, h_prev, c_prev, x):
    """One `_step` from a batch-first (B, H) state on a (B, D) input.
    Returns the activated (f, i, o, g) blocks and the new cell and hidden
    states, batch-first."""
    h, b = params.hidden_size, x.shape[0]
    a, c, h_new, work = (np.empty((n, b)) for n in (4 * h, h, h, 4 * h))
    _step(params, x.T.copy(), a, h_prev.T.copy(), c_prev.T.copy(), c, h_new, work)
    return np.split(a.T, 4, axis=1), c.T, h_new.T


def scalar_step_oracle(w, b, h_prev, c_prev, x):
    """Eq-by-eq scalar evaluation for hidden_size=1, input_size=1."""
    pre = w * h_prev + w * x + b
    sig = 1.0 / (1.0 + math.exp(-pre))
    f = i = o = sig
    g = math.tanh(pre)
    c = f * c_prev + i * g
    h = o * math.tanh(c)
    return h, c


class TestStep:
    """Single cell updates: from a given state through the step body
    `_step`, from zero state as lstm_forward over T=1."""

    def test_zero_params_forces_half_gates(self):
        params = zero_params(3, 2)
        rng = np.random.default_rng(4)
        h_prev, c_prev = rng.normal(0, 0.5, (2, 3)), rng.normal(0, 2, (2, 3))
        x = rng.normal(0, 1, (2, 2))
        (f, i, o, g), c, h = step_from(params, h_prev, c_prev, x)
        assert np.all(f == 0.5) and np.all(i == 0.5) and np.all(o == 0.5)
        assert np.all(g == 0.0)
        assert np.array_equal(c, 0.5 * c_prev)
        assert np.array_equal(h, 0.5 * np.tanh(0.5 * c_prev))

    def test_gate_override_preserves_cell_exactly(self):
        # Saturating biases override the computed gates: sigmoid(+1e3) is
        # exactly 1 and sigmoid(-1e3) exactly 0, so f=1, i=0 at every step.
        params = random_params(4, 3, seed=8)
        params.b[:4] = 1e3
        params.b[4:8] = -1e3
        rng = np.random.default_rng(9)
        h, c = rng.normal(0, 0.5, (1, 4)), rng.normal(0, 1.5, (1, 4))
        c_start = c.copy()
        for x in rng.normal(0, 1, (6, 1, 3)):
            (f, i, _, _), c, h = step_from(params, h, c, x)
            assert np.all(f == 1.0) and np.all(i == 0.0)
            assert np.array_equal(c, c_start)

    def test_scalar_unit_weights_hand_example(self):
        # hidden=1, input=1, every weight 1, biases 0, h0=c0=0, x=1:
        # all gates sigma(1), candidate tanh(1); digits confirmed by the
        # independent scalar oracle below.
        params = LstmLayerParams(w=np.ones((4, 2)), b=np.zeros(4))
        out, caches = lstm_forward(params, np.array([[[1.0]]]))
        f, _, _, g = gates_of(caches[0])
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        assert f[0, 0] == pytest.approx(sig1, abs=1e-15)
        assert f[0, 0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert g[0, 0] == pytest.approx(math.tanh(1.0), abs=1e-15)
        assert g[0, 0] == pytest.approx(0.7615941559557649, abs=1e-15)
        h_ref, c_ref = scalar_step_oracle(1.0, 0.0, 0.0, 0.0, 1.0)
        assert caches[0].c[0, 0] == pytest.approx(c_ref, abs=1e-15)
        assert caches[0].c[0, 0] == pytest.approx(0.5567699411459397, abs=1e-15)
        assert out[0, 0, 0] == pytest.approx(h_ref, abs=1e-15)
        assert out[0, 0, 0] == pytest.approx(0.36960635293570576, abs=1e-15)

    def test_gate_and_state_ranges(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            params = random_params(3, 2, seed=seed, bias_scale=1.0)
            out, caches = lstm_forward(params, rng.normal(0, 3, (7, 4, 2)))
            for cache in caches:
                f, i, o, g = gates_of(cache)
                for gate in (f, i, o):
                    assert np.all(gate > 0.0) and np.all(gate < 1.0)
                assert np.all(np.abs(g) < 1.0)
                assert np.all(np.isfinite(cache.c))
            assert np.all(np.abs(out) < 1.0)

    def test_size_mismatch(self):
        params = zero_params(3, 2)
        with pytest.raises(ShapeError):
            lstm_forward(params, np.zeros((1, 1, 5)))


class TestForward:
    def test_t1_equals_single_step(self):
        params = random_params(3, 2, seed=0)
        x = np.random.default_rng(1).normal(0, 1, (1, 2, 2))
        out, caches = lstm_forward(params, x)
        h, _, _ = reference_step(params, np.zeros((2, 3)), np.zeros((2, 3)), x[0])
        assert len(caches) == 1
        assert np.max(np.abs(out[0] - h)) <= 1e-12

    def test_zero_params_bounds_hidden(self):
        params = zero_params(2, 1)
        x = np.random.default_rng(2).normal(0, 5, (5, 3, 1))
        out, _ = lstm_forward(params, x)
        assert np.all(np.abs(out) <= 0.5)

    def test_purity(self):
        params = random_params(4, 2, seed=3)
        x = np.random.default_rng(4).normal(0, 1, (6, 2, 2))
        a, _ = lstm_forward(params, x)
        b, _ = lstm_forward(params, x)
        assert np.array_equal(a, b)

    def test_final_state_is_a_view_of_the_cache(self):
        # the autoencoder's latent is outputs[-1]: h_{T-1}, held in z[:H, T]
        params = random_params(3, 1, seed=5)
        x = np.random.default_rng(6).normal(0, 1, (4, 2, 1))
        seq, cache = lstm_forward(params, x)
        assert seq[-1].shape == (2, 3)
        assert np.shares_memory(seq[-1], cache.z)
        assert np.array_equal(seq[-1], cache.z[:3, 4].T)

    def test_empty_sequence_rejected(self):
        params = zero_params(2, 1)
        with pytest.raises(DataError, match="cannot run an LSTM over an empty sequence"):
            lstm_forward(params, np.zeros((0, 1, 1)))


class TestTracerContract:
    """The shapes the benchmark's tracer reads to count cell steps and GEMM
    FLOPs: B*T from the input's first two axes, T as len(cache) and B as
    the first axis of cache[0].z."""

    def test_step_count_and_cache_views(self):
        t_len, b, d, h = 6, 3, 2, 4
        params = random_params(h, d, seed=60)
        x = np.random.default_rng(61).normal(0, 1, (t_len, b, d))
        out, cache = lstm_forward(params, x)
        assert np.prod(np.shape(x)[:2]) == b * t_len
        assert len(cache) == t_len
        assert cache[0].z.shape == (b, h + d)
        # cache[t].z is [h_{t-1}, x_t], batch-first
        assert np.array_equal(cache[2].z[:, :h], out[1])
        assert np.array_equal(cache[2].z[:, h:], x[2])


class TestInfer:
    """The forward-only pass against the training forward: both run `_step`,
    so their outputs are byte-equal."""

    # (inputs, units) of every layer of the benchmark's 1x16 and 3x128-64-16
    # models, and 128 -> 128; a batch of 64 trains, 256 scores, 38 is a short last batch
    LAYERS = [(1, 16), (16, 16), (1, 128), (128, 64), (64, 16), (16, 64), (64, 128), (128, 128)]

    @pytest.mark.parametrize("d, hidden", LAYERS, ids=[f"{d}-{h}" for d, h in LAYERS])
    @pytest.mark.parametrize("batch", [38, 64, 256])
    def test_sequences_match_training_forward(self, d, hidden, batch):
        params = random_params(hidden, d, seed=8)
        x = np.random.default_rng(9).normal(0, 1, (10, batch, d))
        expected, _ = lstm_forward(params, x)
        got = lstm_infer(params, x)
        assert got.shape == (10, batch, hidden)
        assert got.tobytes() == expected.tobytes()

    def test_bad_shapes_rejected(self):
        params = zero_params(2, 1)
        with pytest.raises(ShapeError):
            lstm_infer(params, np.zeros((3, 1, 2)))
        with pytest.raises(DataError, match="cannot run an LSTM over an empty sequence"):
            lstm_infer(params, np.zeros((0, 1, 1)))


class TestAgainstReference:
    """The fused layer against the plain four-gate oracle, to 1e-12."""

    @pytest.mark.parametrize("every_step", [True, False])
    def test_forward_and_backward_match(self, every_step):
        # without every_step, a gradient on the final state alone
        b, t_len, hidden, d = 3, 5, 4, 2
        params = random_params(hidden, d, seed=40, bias_scale=0.5)
        rng = np.random.default_rng(41)
        x = rng.normal(0, 1, (b, t_len, d))
        h0, c0 = np.zeros((b, hidden)), np.zeros((b, hidden))
        seq_grads = rng.normal(0, 1, (b, t_len, hidden))
        if not every_step:
            seq_grads[:, :-1, :] = 0.0

        # the layer is time-major, the oracle batch-first
        out, caches = lstm_forward(params, x.transpose(1, 0, 2))
        grads = zero_params(hidden, d)
        d_in = lstm_backward(params, caches, seq_grads.transpose(1, 0, 2), grads)
        out = out.transpose(1, 0, 2)
        d_in = d_in.transpose(1, 0, 2)

        ref_out, ref_caches = reference_forward(params, x, h0, c0)
        ref_dw, ref_db, ref_din, _, _ = reference_backward(params, ref_caches, seq_grads)

        def close(a, b):
            return np.shape(a) == np.shape(b) and np.max(np.abs(a - b)) <= 1e-12

        assert close(out, ref_out)
        assert close(d_in, ref_din)
        dw, db = split_gates(grads.w), split_gates(grads.b)
        for gate in ("f", "i", "o", "g"):
            assert close(dw[gate], ref_dw[gate]), gate
            assert close(db[gate], ref_db[gate]), gate

    def test_init_matches_per_gate_draws(self):
        # one Glorot block per gate, drawn in f, i, c, o order
        rng = np.random.default_rng(42)
        blocks = [rng.uniform(-np.sqrt(6.0 / 10), np.sqrt(6.0 / 10), (3, 7)) for _ in range(4)]
        w_f, w_i, w_c, w_o = blocks
        params = LstmLayerParams.init(3, 4, np.random.default_rng(42))
        w = split_gates(params.w)
        assert np.array_equal(w["f"], w_f) and np.array_equal(w["i"], w_i)
        assert np.array_equal(w["o"], w_o) and np.array_equal(w["g"], w_c)
        assert np.array_equal(params.b, np.zeros(12))


class TestBackward:
    def test_zero_grad_outputs_give_zero_gradients(self):
        params = random_params(3, 2, seed=10)
        x = np.random.default_rng(11).normal(0, 1, (4, 2, 2))
        _, caches = lstm_forward(params, x)
        grads = LstmLayerParams(w=np.ones_like(params.w), b=np.ones_like(params.b))
        d_in = lstm_backward(params, caches, np.zeros((4, 2, 3)), grads)
        for g in grads.arrays():
            assert np.all(g == 0.0)
        assert np.all(d_in == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parameter_gradients_match_finite_differences(self, seed):
        params = random_params(1, 1, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(0, 1, (2, 1, 1))
        proj = rng.normal(0, 1, (2, 1, 1))

        def loss():
            out, _ = lstm_forward(params, x)
            return float((out * proj).sum())

        _, caches = lstm_forward(params, x)
        grads = zero_params(1, 1)
        lstm_backward(params, caches, proj, grads)
        assert worst_relative_error(loss, params.arrays(), grads.arrays()) < REL_TOL

    @pytest.mark.parametrize("seed", [0, 1])
    def test_input_gradients_match_finite_differences(self, seed):
        params = random_params(2, 2, seed=seed)
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(0, 1, (3, 1, 2))
        proj = rng.normal(0, 1, (3, 1, 2))

        def loss():
            out, _ = lstm_forward(params, x)
            return float((out * proj).sum())

        _, caches = lstm_forward(params, x)
        d_in = lstm_backward(params, caches, proj, zero_params(2, 2))
        assert worst_relative_error(loss, [x], [d_in]) < REL_TOL

    def test_last_only_gradients_match_finite_differences(self):
        # a loss on the final state alone: a gradient on step T-1 only
        params = random_params(3, 1, seed=9)
        rng = np.random.default_rng(300)
        x = rng.normal(0, 1, (4, 2, 1))
        proj = rng.normal(0, 1, (2, 3))

        def loss():
            out, _ = lstm_forward(params, x)
            return float((out[-1] * proj).sum())

        _, caches = lstm_forward(params, x)
        grad_out = np.zeros((4, 2, 3))
        grad_out[-1] = proj
        grads = zero_params(3, 1)
        lstm_backward(params, caches, grad_out, grads)
        assert worst_relative_error(loss, params.arrays(), grads.arrays()) < REL_TOL

    def test_grad_shape_mismatch_rejected(self):
        params = random_params(3, 2, seed=12)
        x = np.random.default_rng(13).normal(0, 1, (4, 2, 2))
        _, caches = lstm_forward(params, x)
        grads = zero_params(3, 2)
        with pytest.raises(ShapeError):
            lstm_backward(params, caches, np.zeros((5, 2, 3)), grads)
        with pytest.raises(ShapeError):
            lstm_backward(params, caches, np.zeros((3, 3)), grads)
        with pytest.raises(ShapeError):  # (batch, hidden): the final state alone
            lstm_backward(params, caches, np.zeros((2, 3)), grads)
        with pytest.raises(ShapeError):
            lstm_backward(params, caches, np.zeros((4, 2, 3)), zero_params(3, 1))

import math

import numpy as np
import pytest

from gradcheck import REL_TOL, worst_relative_error
from lstm_reference import reference_backward, reference_forward, reference_step, split_gates
from seqad.core_math import Rng
from seqad.errors import EmptyInputError, ShapeError
from seqad.lstm import (
    LstmLayerParams,
    LstmStepState,
    lstm_backward,
    lstm_forward,
)


def random_params(hidden, input_size, seed, bias_scale=0.1):
    rng = Rng(seed)
    params = LstmLayerParams.init(hidden, input_size, rng)
    params.b += rng.uniform(-bias_scale, bias_scale, params.b.shape)
    return params


def gates_of(cache):
    """Activated (f, i, o, g) blocks of one step record."""
    return np.split(cache.gates, 4, axis=1)


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
    """Single cell updates, run as lstm_forward over T=1."""

    def test_zero_params_forces_half_gates(self):
        params = LstmLayerParams.zeros(3, 2)
        rng = Rng(4)
        prev = LstmStepState(rng.normal(0, 0.5, (2, 3)), rng.normal(0, 2, (2, 3)))
        x = rng.normal(0, 1, (2, 2))
        out, caches = lstm_forward(params, x[:, None, :], init_state=prev)
        f, i, o, g = gates_of(caches[0])
        assert np.all(f == 0.5) and np.all(i == 0.5) and np.all(o == 0.5)
        assert np.all(g == 0.0)
        assert np.array_equal(caches[0].c, 0.5 * prev.cell)
        assert np.array_equal(out[:, 0, :], 0.5 * np.tanh(0.5 * prev.cell))

    def test_gate_override_preserves_cell_exactly(self):
        # Saturating biases override the computed gates: sigmoid(+1e3) is
        # exactly 1 and sigmoid(-1e3) exactly 0, so f=1, i=0 at every step.
        params = random_params(4, 3, seed=8)
        params.b[:4] = 1e3
        params.b[4:8] = -1e3
        rng = Rng(9)
        state = LstmStepState(rng.normal(0, 0.5, (1, 4)), rng.normal(0, 1.5, (1, 4)))
        c_start = state.cell.copy()
        _, caches = lstm_forward(params, rng.normal(0, 1, (1, 6, 3)), init_state=state)
        for cache in caches:
            f, i, _, _ = gates_of(cache)
            assert np.all(f == 1.0) and np.all(i == 0.0)
            assert np.array_equal(cache.c, c_start)

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
        rng = Rng(21)
        for seed in range(5):
            params = random_params(3, 2, seed=seed, bias_scale=1.0)
            out, caches = lstm_forward(params, rng.normal(0, 3, (4, 7, 2)))
            for cache in caches:
                f, i, o, g = gates_of(cache)
                for gate in (f, i, o):
                    assert np.all(gate > 0.0) and np.all(gate < 1.0)
                assert np.all(np.abs(g) < 1.0)
                assert np.all(np.isfinite(cache.c))
            assert np.all(np.abs(out) < 1.0)

    def test_size_mismatch(self):
        params = LstmLayerParams.zeros(3, 2)
        with pytest.raises(ShapeError):
            lstm_forward(params, np.zeros((1, 1, 5)), init_state=LstmStepState.zeros(1, 3))
        with pytest.raises(ShapeError):
            lstm_forward(params, np.zeros((2, 1, 2)), init_state=LstmStepState.zeros(2, 4))


class TestForward:
    def test_t1_equals_single_step(self):
        params = random_params(3, 2, seed=0)
        x = Rng(1).normal(0, 1, (2, 1, 2))
        out, caches = lstm_forward(params, x, return_sequences=True)
        h, _, _ = reference_step(params, np.zeros((2, 3)), np.zeros((2, 3)), x[:, 0, :])
        assert len(caches) == 1
        assert np.max(np.abs(out[:, 0, :] - h)) <= 1e-12

    def test_zero_params_bounds_hidden(self):
        params = LstmLayerParams.zeros(2, 1)
        x = Rng(2).normal(0, 5, (3, 5, 1))
        out, _ = lstm_forward(params, x, return_sequences=True)
        assert np.all(np.abs(out) <= 0.5)

    def test_purity(self):
        params = random_params(4, 2, seed=3)
        x = Rng(4).normal(0, 1, (2, 6, 2))
        a, _ = lstm_forward(params, x, return_sequences=True)
        b, _ = lstm_forward(params, x, return_sequences=True)
        assert np.array_equal(a, b)

    def test_last_only_mode(self):
        params = random_params(3, 1, seed=5)
        x = Rng(6).normal(0, 1, (2, 4, 1))
        seq, _ = lstm_forward(params, x, return_sequences=True)
        last, _ = lstm_forward(params, x, return_sequences=False)
        assert last.shape == (2, 3)
        assert np.array_equal(last, seq[:, -1, :])

    def test_explicit_initial_state(self):
        params = random_params(3, 2, seed=6)
        rng = Rng(7)
        init = LstmStepState(rng.normal(0, 0.3, (2, 3)), rng.normal(0, 1, (2, 3)))
        x = rng.normal(0, 1, (2, 3, 2))
        out, _ = lstm_forward(params, x, init_state=init, return_sequences=True)
        h, c = init.hidden, init.cell
        for t in range(3):
            h, c, _ = reference_step(params, h, c, x[:, t, :])
            assert np.max(np.abs(out[:, t, :] - h)) <= 1e-12

    def test_empty_sequence_rejected(self):
        params = LstmLayerParams.zeros(2, 1)
        with pytest.raises(EmptyInputError):
            lstm_forward(params, np.zeros((1, 0, 1)))


class TestAgainstReference:
    """The fused layer against the plain four-gate oracle, to 1e-12."""

    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize("explicit_state", [False, True])
    def test_forward_and_backward_match(self, return_sequences, explicit_state):
        b, t_len, hidden, d = 3, 5, 4, 2
        params = random_params(hidden, d, seed=40, bias_scale=0.5)
        rng = Rng(41)
        x = rng.normal(0, 1, (b, t_len, d))
        h0, c0 = np.zeros((b, hidden)), np.zeros((b, hidden))
        init = None
        if explicit_state:
            h0, c0 = rng.normal(0, 0.5, (b, hidden)), rng.normal(0, 1, (b, hidden))
            init = LstmStepState(h0, c0)
        seq_grads = rng.normal(0, 1, (b, t_len, hidden))
        if not return_sequences:
            seq_grads[:, :-1, :] = 0.0

        out, caches = lstm_forward(params, x, init_state=init, return_sequences=return_sequences)
        grad_out = seq_grads if return_sequences else seq_grads[:, -1, :]
        grads, d_in, dh0, dc0 = lstm_backward(params, caches, grad_out)

        ref_out, ref_caches = reference_forward(params, x, h0, c0)
        ref_dw, ref_db, ref_din, ref_dh0, ref_dc0 = reference_backward(params, ref_caches, seq_grads)

        def close(a, b):
            return np.shape(a) == np.shape(b) and np.max(np.abs(a - b)) <= 1e-12

        assert close(out, ref_out if return_sequences else ref_out[:, -1, :])
        assert close(d_in, ref_din)
        assert close(dh0, ref_dh0)
        assert close(dc0, ref_dc0)
        dw, db = split_gates(grads.w), split_gates(grads.b)
        for gate in ("f", "i", "o", "g"):
            assert close(dw[gate], ref_dw[gate]), gate
            assert close(db[gate], ref_db[gate]), gate

    def test_init_matches_per_gate_draws(self):
        # one Glorot block per gate, drawn in f, i, c, o order
        rng = Rng(42)
        blocks = [rng.uniform(-np.sqrt(6.0 / 10), np.sqrt(6.0 / 10), (3, 7)) for _ in range(4)]
        w_f, w_i, w_c, w_o = blocks
        params = LstmLayerParams.init(3, 4, Rng(42))
        w = split_gates(params.w)
        assert np.array_equal(w["f"], w_f) and np.array_equal(w["i"], w_i)
        assert np.array_equal(w["o"], w_o) and np.array_equal(w["g"], w_c)
        assert np.array_equal(params.b, np.zeros(12))


class TestBackward:
    def test_zero_grad_outputs_give_zero_gradients(self):
        params = random_params(3, 2, seed=10)
        x = Rng(11).normal(0, 1, (2, 4, 2))
        _, caches = lstm_forward(params, x, return_sequences=True)
        grads, d_in, dh0, dc0 = lstm_backward(params, caches, np.zeros((2, 4, 3)))
        for g in grads.arrays():
            assert np.all(g == 0.0)
        assert np.all(d_in == 0.0) and np.all(dh0 == 0.0) and np.all(dc0 == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parameter_gradients_match_finite_differences(self, seed):
        params = random_params(1, 1, seed=seed)
        rng = Rng(100 + seed)
        x = rng.normal(0, 1, (1, 2, 1))
        proj = rng.normal(0, 1, (1, 2, 1))

        def loss():
            out, _ = lstm_forward(params, x, return_sequences=True)
            return float((out * proj).sum())

        _, caches = lstm_forward(params, x, return_sequences=True)
        grads, _, _, _ = lstm_backward(params, caches, proj)
        assert worst_relative_error(loss, params.arrays(), grads.arrays()) < REL_TOL

    @pytest.mark.parametrize("seed", [0, 1])
    def test_input_gradients_match_finite_differences(self, seed):
        params = random_params(2, 2, seed=seed)
        rng = Rng(200 + seed)
        x = rng.normal(0, 1, (1, 3, 2))
        proj = rng.normal(0, 1, (1, 3, 2))

        def loss():
            out, _ = lstm_forward(params, x, return_sequences=True)
            return float((out * proj).sum())

        _, caches = lstm_forward(params, x, return_sequences=True)
        _, d_in, _, _ = lstm_backward(params, caches, proj)
        assert worst_relative_error(loss, [x], [d_in]) < REL_TOL

    def test_last_only_gradients_match_finite_differences(self):
        params = random_params(3, 1, seed=9)
        rng = Rng(300)
        x = rng.normal(0, 1, (2, 4, 1))
        proj = rng.normal(0, 1, (2, 3))

        def loss():
            out, _ = lstm_forward(params, x, return_sequences=False)
            return float((out * proj).sum())

        _, caches = lstm_forward(params, x, return_sequences=False)
        grads, _, _, _ = lstm_backward(params, caches, proj)
        assert worst_relative_error(loss, params.arrays(), grads.arrays()) < REL_TOL

    def test_grad_shape_mismatch_rejected(self):
        params = random_params(3, 2, seed=12)
        x = Rng(13).normal(0, 1, (2, 4, 2))
        _, caches = lstm_forward(params, x, return_sequences=True)
        with pytest.raises(ShapeError):
            lstm_backward(params, caches, np.zeros((2, 5, 3)))
        with pytest.raises(ShapeError):
            lstm_backward(params, caches, np.zeros((3, 3)))

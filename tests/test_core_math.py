import math

import numpy as np
import pytest

from seqad.core_math import AdamState, Rng, adam_step, glorot_init, tanh
from seqad.errors import ShapeError


class TestActivations:
    def test_tanh_zero(self):
        assert tanh(np.array([0.0]))[0] == 0.0


class TestGlorotInit:
    def test_1x1_within_bound(self):
        v = glorot_init(1, 1, Rng(9))
        assert abs(v[0, 0]) <= math.sqrt(3.0)

    def test_4x4_within_bound(self):
        m = glorot_init(4, 4, Rng(9))
        assert m.shape == (4, 4)
        assert np.all(np.abs(m) <= math.sqrt(6.0 / 8.0))

    def test_same_seed_bit_identical(self):
        a = glorot_init(5, 7, Rng(123))
        b = glorot_init(5, 7, Rng(123))
        assert np.array_equal(a, b)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            glorot_init(0, 3, Rng(1))


class TestRng:
    def test_equal_seeds_equal_draws(self):
        a = Rng(2024).uniform(size=10_000)
        b = Rng(2024).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(size=100), Rng(2).uniform(size=100))

    def test_spawn_is_deterministic_and_distinct(self):
        base = 77
        a = Rng(base).spawn("init").uniform(size=50)
        b = Rng(base).spawn("init").uniform(size=50)
        c = Rng(base).spawn("dropout").uniform(size=50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def adam_oracle_scalar(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, w0=0.0):
    """Reference scalar Adam loop."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return w


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = AdamState.for_params(params)
        for _ in range(5):
            adam_step(params, [np.zeros_like(p) for p in params], state, lr=0.1)
        for p, b in zip(params, before):
            assert np.array_equal(p, b)
        assert state.step == 5

    def test_moments_decay_toward_zero_on_zero_gradients(self):
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.array([2.0])], state, lr=0.0)
        m0 = abs(state.m[0][0])
        for _ in range(10):
            adam_step(params, [np.zeros(1)], state, lr=0.0)
        assert abs(state.m[0][0]) < m0
        assert abs(state.m[0][0]) == pytest.approx(m0 * 0.9**10)

    def test_first_step_moves_by_lr(self):
        # g=1 from fresh state: bias-corrected m_hat/sqrt(v_hat) = 1 up to eps
        lr = 0.001
        params = [np.array([0.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.array([1.0])], state, lr=lr)
        assert params[0][0] == pytest.approx(-lr, rel=1e-6)
        assert params[0][0] == adam_oracle_scalar([1.0], lr)

    def test_hundred_steps_on_quadratic(self):
        # f(w) = w^2 from w=1, lr=0.1: well inside |w| < 0.5 after 100 steps
        lr = 0.1
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        grad_seq = []
        for _ in range(100):
            g = 2.0 * params[0][0]
            grad_seq.append(g)
            adam_step(params, [np.array([g])], state, lr=lr)
        assert abs(params[0][0]) < 0.5
        assert params[0][0] == pytest.approx(adam_oracle_scalar(grad_seq, lr, w0=1.0), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        params = [np.zeros((2, 2))]
        state = AdamState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, [np.zeros(3)], state, lr=0.1)

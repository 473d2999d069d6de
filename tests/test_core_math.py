import math

import numpy as np
import pytest

from seqad.core_math import AdamState, adam_step, glorot_init, substream, tanh
from seqad.errors import ShapeError


class TestActivations:
    def test_tanh_zero(self):
        assert tanh(np.array([0.0]))[0] == 0.0


class TestGlorotInit:
    def test_1x1_within_bound(self):
        v = glorot_init(1, 1, np.random.default_rng(9))
        assert abs(v[0, 0]) <= math.sqrt(3.0)

    def test_4x4_within_bound(self):
        m = glorot_init(4, 4, np.random.default_rng(9))
        assert m.shape == (4, 4)
        assert np.all(np.abs(m) <= math.sqrt(6.0 / 8.0))

    def test_same_seed_bit_identical(self):
        a = glorot_init(5, 7, np.random.default_rng(123))
        b = glorot_init(5, 7, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            glorot_init(0, 3, np.random.default_rng(1))


class TestSubstream:
    def test_equal_seeds_and_names_equal_draws(self):
        a = substream(2024, "init").uniform(size=10_000)
        b = substream(2024, "init").uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(1, "init").uniform(size=100)
        b = substream(2, "init").uniform(size=100)
        assert not np.array_equal(a, b)

    def test_names_are_distinct(self):
        a = substream(77, "init").uniform(size=50)
        b = substream(77, "dropout").uniform(size=50)
        assert not np.array_equal(a, b)

    def test_first_draws_of_seed_42_are_pinned(self):
        # a change here changes every seed-42 initial weight, shuffle,
        # dropout mask and synthetic series
        assert substream(42, "init").uniform(size=3).tolist() == [
            0.9711954465599105,
            0.9711847107079439,
            0.0288440456627983,
        ]
        assert substream(42, "shuffle").permutation(10).tolist() == [0, 5, 6, 1, 4, 7, 2, 9, 8, 3]
        assert substream(42, "dropout").uniform(size=3).tolist() == [
            0.5316458298555156,
            0.3865696514829684,
            0.9219558302935422,
        ]
        assert substream(42, "synth").normal(size=3).tolist() == [
            -0.7787330906385869,
            -1.5431711914215138,
            -2.495363159939715,
        ]


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
        p = np.array([1.0, -2.0, 3.0])
        before = p.copy()
        state = AdamState.for_vector(p)
        for _ in range(5):
            adam_step(p, np.zeros_like(p), state, lr=0.1)
        assert np.array_equal(p, before)
        assert state.step == 5

    def test_moments_decay_toward_zero_on_zero_gradients(self):
        p = np.array([1.0])
        state = AdamState.for_vector(p)
        adam_step(p, np.array([2.0]), state, lr=0.0)
        m0 = abs(state.m[0])
        for _ in range(10):
            adam_step(p, np.zeros(1), state, lr=0.0)
        assert abs(state.m[0]) < m0
        assert abs(state.m[0]) == pytest.approx(m0 * 0.9**10)

    def test_first_step_moves_by_lr(self):
        # g=1 from fresh state: bias-corrected m_hat/sqrt(v_hat) = 1 up to eps
        lr = 0.001
        p = np.array([0.0])
        state = AdamState.for_vector(p)
        adam_step(p, np.array([1.0]), state, lr=lr)
        assert p[0] == pytest.approx(-lr, rel=1e-6)
        assert p[0] == adam_oracle_scalar([1.0], lr)

    def test_hundred_steps_on_quadratic(self):
        # f(w) = w^2 from w=1, lr=0.1: well inside |w| < 0.5 after 100 steps
        lr = 0.1
        p = np.array([1.0])
        state = AdamState.for_vector(p)
        grad_seq = []
        for _ in range(100):
            g = 2.0 * p[0]
            grad_seq.append(g)
            adam_step(p, np.array([g]), state, lr=lr)
        assert abs(p[0]) < 0.5
        assert p[0] == pytest.approx(adam_oracle_scalar(grad_seq, lr, w0=1.0), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(4)
        state = AdamState.for_vector(p)
        with pytest.raises(ShapeError):
            adam_step(p, np.zeros(3), state, lr=0.1)
        square = np.zeros((2, 2))
        with pytest.raises(ShapeError):  # one vector, not a matrix
            adam_step(square, np.zeros((2, 2)), AdamState.for_vector(square), lr=0.1)

import numpy as np
import pytest

from seqad.errors import DataError, ShapeError
from seqad.windowing import coverage_counts, make_windows, per_point_loss


def brute_force_loss(windows, recons):
    """Independent oracle: double loop over (window, offset) pairs."""
    n = windows.source_len
    totals = np.zeros(n)
    counts = np.zeros(n)
    for k in range(len(windows)):  # window k starts at point k
        for offset in range(windows.window_len):
            p = k + offset
            err = np.abs(recons[k, offset] - windows.windows[k, offset]).mean()
            totals[p] += err
            counts[p] += 1
    return totals / counts, counts


class TestMakeWindows:
    def test_five_points_window_three(self):
        ws = make_windows(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
        assert len(ws) == 3
        assert np.array_equal(ws.windows[:, :, 0], [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_window_equals_series(self):
        ws = make_windows(np.arange(4.0), 4)
        assert len(ws) == 1
        assert np.array_equal(ws.windows[0, :, 0], np.arange(4.0))

    def test_too_short_series(self):
        with pytest.raises(DataError, match="series of length 4 is shorter than window length 5"):
            make_windows(np.zeros(4), 5)

    @pytest.mark.parametrize("shape", [(6, 2), (6, 1), ()])
    def test_series_that_is_not_one_dimensional_rejected(self, shape):
        with pytest.raises(ShapeError, match=r"expected a \(N,\) series"):
            make_windows(np.zeros(shape), 3)


class TestCoverage:
    @pytest.mark.parametrize("n,t", [(5, 3), (5, 4), (12, 10), (7, 1), (6, 6), (30, 9)])
    def test_matches_window_membership(self, n, t):
        counts = coverage_counts(n, t)
        expected = np.zeros(n)
        for start in range(n - t + 1):
            expected[start : start + t] += 1
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("n,t", [(5, 3), (5, 4), (12, 10), (50, 7)])
    def test_sum_identity(self, n, t):
        assert coverage_counts(n, t).sum() == (n - t + 1) * t


class TestPerPointLoss:
    def test_overlapping_window_worked_example(self):
        # five points in three length-3 windows; middle overlaps average
        # (0.02 + 0.01)/2 = 0.015 and (0.01 + 0.02)/2 = 0.015
        ws = make_windows(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
        recons = np.array(
            [[1.1, 2.02, 3.01], [1.99, 2.99, 3.99], [3.01, 4.02, 5.02]]
        )[:, :, None]
        losses = per_point_loss(ws, recons)
        expected = np.array([0.1, 0.015, 0.01, 0.015, 0.02])
        assert np.max(np.abs(losses - expected)) <= 1e-12
        oracle, _ = brute_force_loss(ws, recons)
        assert np.max(np.abs(losses - oracle)) <= 1e-12

    def test_perfect_reconstruction(self):
        ws = make_windows(np.random.default_rng(0).normal(0, 1, 20), 4)
        assert np.array_equal(per_point_loss(ws, ws.windows.copy()), np.zeros(20))

    def test_window_one_is_pointwise_error(self):
        vals = np.array([1.0, -2.0, 0.5])
        ws = make_windows(vals, 1)
        recons = np.array([[[1.5]], [[-1.0]], [[0.5]]])
        assert np.array_equal(per_point_loss(ws, recons), [0.5, 1.0, 0.0])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.uniform(1, 51))
            t = int(rng.uniform(1, min(n, 10) + 1))
            ws = make_windows(rng.normal(0, 1, n), t)
            recons = rng.normal(0, 1, ws.windows.shape)
            oracle, counts = brute_force_loss(ws, recons)
            assert np.array_equal(counts, coverage_counts(n, t))
            assert np.max(np.abs(per_point_loss(ws, recons) - oracle)) <= 1e-12

    def test_locality_of_single_window_change(self):
        rng = np.random.default_rng(8)
        ws = make_windows(rng.normal(0, 1, 15), 4)
        recons = rng.normal(0, 1, ws.windows.shape)
        base = per_point_loss(ws, recons)
        changed = recons.copy()
        changed[5, 1, 0] += 1.0  # window 5, offset 1 -> source point 6 only
        after = per_point_loss(ws, changed)
        diff = np.nonzero(np.abs(after - base) > 0)[0]
        assert np.array_equal(diff, [6])

    def test_accumulation_order_invariance(self):
        rng = np.random.default_rng(9)
        ws = make_windows(rng.normal(0, 1, 30), 7)
        recons = rng.normal(0, 1, ws.windows.shape)
        forward_order = per_point_loss(ws, recons)

        err = np.abs(recons - ws.windows).mean(axis=2)
        total = np.zeros(ws.source_len)
        for k in range(len(ws) - 1, -1, -1):  # reversed accumulation
            total[k : k + ws.window_len] += err[k]
        reversed_order = total / coverage_counts(ws.source_len, ws.window_len)
        assert np.max(np.abs(forward_order - reversed_order)) <= 1e-12

    def test_count_mismatch_rejected(self):
        ws = make_windows(np.arange(10.0), 3)
        with pytest.raises(ShapeError):
            per_point_loss(ws, np.zeros((7, 3, 1)))
        with pytest.raises(ShapeError):
            per_point_loss(ws, np.zeros((8, 2, 1)))

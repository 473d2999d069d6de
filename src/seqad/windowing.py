"""Stride-1 sliding windows and per-point loss aggregation.

A series of N points yields N - T + 1 overlapping windows of length T.
After reconstructing every window, each source point's loss is the mean
absolute reconstruction error over all windows that contain it, so
interior points average up to T estimates while points near either edge
average fewer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ShapeError

__all__ = ["WindowSet", "make_windows", "coverage_counts", "per_point_loss"]


@dataclass
class WindowSet:
    """All stride-1 windows over one series, with start-index provenance."""

    source_len: int
    window_len: int
    windows: np.ndarray  # (count, T, m)
    starts: np.ndarray  # (count,)

    def __len__(self) -> int:
        return self.windows.shape[0]

    @property
    def features(self) -> int:
        return self.windows.shape[2]


def make_windows(values: np.ndarray, window_len: int) -> WindowSet:
    """Cut a series (N,) or (N, m) into all length-T stride-1 windows."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise ShapeError(f"expected a (N,) or (N, m) series, got shape {values.shape}")
    n = values.shape[0]
    t = int(window_len)
    if t < 1:
        raise ShapeError(f"window length must be >= 1, got {t}")
    if n < t:
        raise InsufficientDataError(f"series of length {n} is shorter than window length {t}")
    count = n - t + 1
    starts = np.arange(count)
    windows = np.ascontiguousarray(sliding_window_view(values, t, axis=0).transpose(0, 2, 1))
    return WindowSet(source_len=n, window_len=t, windows=windows, starts=starts)


def coverage_counts(source_len: int, window_len: int) -> np.ndarray:
    """Number of windows containing each point: min(p+1, T, N-p, N-T+1)."""
    n, t = source_len, window_len
    p = np.arange(n)
    return np.minimum.reduce([p + 1, np.full(n, t), n - p, np.full(n, n - t + 1)])


def per_point_loss(windows: WindowSet, reconstructions: np.ndarray) -> np.ndarray:
    """Mean absolute error per source point, averaged over covering windows.

    `reconstructions` must hold one (T, m) output per window, in window
    order. Each point accumulates its windows in ascending window order
    (offset k within the window descending), so results are
    bit-reproducible. Returns a length-N non-negative vector.
    """
    recon = np.asarray(reconstructions, dtype=np.float64)
    if recon.shape != windows.windows.shape:
        raise ShapeError(
            f"reconstruction shape {recon.shape} does not match windows {windows.windows.shape}"
        )
    n, t = windows.source_len, windows.window_len
    err = np.abs(recon - windows.windows).mean(axis=2)  # (count, T): MAE across features
    count = len(windows)
    total = np.zeros(n)
    for k in range(t - 1, -1, -1):
        total[k : k + count] += err[:, k]
    return total / coverage_counts(n, t)

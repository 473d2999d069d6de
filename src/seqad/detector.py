"""Thresholded anomaly detection: the threshold is the maximum per-point
reconstruction loss seen on (normal-only) training data; a test point is
anomalous iff its loss strictly exceeds that maximum.

`fit` builds, trains and thresholds a model; `detect` scores a series
against the threshold the model carries. The CLI's `train`, `detect`
and `sweep` all go through these two.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .pipeline import DetectionReport, ScalerParams, TimeSeries, TrainConfig, apply_scaler
from .seq_autoencoder import (
    SeqAutoencoderModel,
    ThresholdRecord,
    TrainTrace,
    build_model,
    reconstruct_windows,
    train,
)
from .windowing import make_windows, per_point_loss

__all__ = ["fit_threshold", "fit", "detect"]


def fit_threshold(model: SeqAutoencoderModel, train_windows: np.ndarray) -> ThresholdRecord:
    """Maximum per-point training loss, in normalized units; training data
    never exceeds it. The record is what `train` stores with the model."""
    if len(train_windows) == 0:
        raise DataError("cannot fit a threshold on an empty window set")
    losses = per_point_loss(train_windows, reconstruct_windows(model, train_windows))
    return ThresholdRecord(
        value=float(losses.max()), train_points=len(losses), window_len=train_windows.shape[1]
    )


def fit(
    windows: np.ndarray, arch: str, train_cfg: TrainConfig
) -> tuple[SeqAutoencoderModel, TrainTrace]:
    """Build a model of architecture `arch` for a (count, T, 1) window
    stack, train it and set its threshold from the same windows.

    Returns the model, carrying its `threshold`, and the training trace.
    """
    model = build_model(
        arch,
        timesteps=windows.shape[1],
        dropout_rate=train_cfg.dropout,
        seed=train_cfg.seed,
    )
    model, trace = train(model, windows, train_cfg)
    model.threshold = fit_threshold(model, windows)
    return model, trace


def detect(
    model: SeqAutoencoderModel,
    test_series: TimeSeries,
    scaler: ScalerParams,
) -> DetectionReport:
    """Scale, window, reconstruct, aggregate, and compare to the
    threshold the model carries.

    Every point receives a loss (edge points average over their partial
    window coverage); the verdict is 1 only for loss strictly greater
    than the threshold. Ground-truth labels, when present, ride along
    for evaluation. Raises DataError for a model without a threshold
    record, a series shorter than one window, or one that the scaler
    takes past float64.
    """
    if model.threshold is None:
        raise DataError("cannot score with a model without its threshold record")
    scaled = apply_scaler(test_series.values, scaler)
    windows = make_windows(scaled, model.timesteps)
    losses = per_point_loss(windows, reconstruct_windows(model, windows))
    verdicts = (losses > model.threshold.value).astype(np.int64)
    return DetectionReport(
        timestamps=test_series.timestamps,
        values=test_series.values,
        losses=losses,
        verdicts=verdicts,
        labels=test_series.labels,
    )

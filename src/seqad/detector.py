"""Thresholded anomaly detection: the threshold is the maximum per-point
reconstruction loss seen on (normal-only) training data; a test point is
anomalous iff its loss strictly exceeds that maximum.

`fit` builds, trains and thresholds a model; `detect` scores a series
against the threshold the model carries. The CLI's `train`, `detect`
and `sweep` all go through these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, DataError, ModelFileError
from .metrics import ConfusionCounts, confusion
from .pipeline import (
    ScalerParams,
    TimeSeries,
    apply_scaler,
    format_timestamp,
    parse_timestamp,
    read_csv,
    write_csv,
)
from .seq_autoencoder import (
    SeqAutoencoderModel,
    ThresholdRecord,
    TrainConfig,
    TrainTrace,
    build_model,
    reconstruct_windows,
    train,
)
from .windowing import make_windows, per_point_loss

__all__ = [
    "DetectionReport",
    "fit_threshold",
    "fit",
    "point_losses",
    "detect",
    "write_report_csv",
    "read_report_csv",
]


@dataclass
class DetectionReport:
    timestamps: np.ndarray
    values: np.ndarray  # raw units
    losses: np.ndarray  # normalized units
    verdicts: np.ndarray  # 1 where loss > threshold
    labels: np.ndarray | None = None

    def confusion(self) -> ConfusionCounts | None:
        if self.labels is None:
            return None
        return confusion(self.labels, self.verdicts)


def point_losses(model: SeqAutoencoderModel, windows: np.ndarray) -> np.ndarray:
    """Per-point reconstruction loss over a (count, T, 1) window stack,
    dropout disabled."""
    return per_point_loss(windows, reconstruct_windows(model, windows))


def fit_threshold(model: SeqAutoencoderModel, train_windows: np.ndarray) -> ThresholdRecord:
    """Maximum per-point training loss, in normalized units; training data
    never exceeds it. The record is what `train` stores with the model."""
    if len(train_windows) == 0:
        raise DataError("cannot fit a threshold on an empty window set")
    losses = point_losses(model, train_windows)
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
    for evaluation. Raises ModelFileError for a model without a
    threshold record and DataError for a series shorter
    than one window.
    """
    if model.threshold is None:
        raise ModelFileError("cannot score with a model without its threshold record")
    scaled = apply_scaler(test_series.values, scaler)
    windows = make_windows(scaled, model.timesteps)
    losses = point_losses(model, windows)
    verdicts = (losses > model.threshold.value).astype(np.int64)
    return DetectionReport(
        timestamps=test_series.timestamps,
        values=test_series.values,
        losses=losses,
        verdicts=verdicts,
        labels=test_series.labels,
    )


def write_report_csv(path: str, report: DetectionReport) -> None:
    """One row per point: timestamp,value,loss,verdict[,label]."""
    header = ["timestamp", "value", "loss", "verdict"]
    cells = [
        map(format_timestamp, report.timestamps.tolist()),
        map(repr, report.values.tolist()),
        map(repr, report.losses.tolist()),
        map(str, report.verdicts.tolist()),
    ]
    if report.labels is not None:
        header.append("label")
        cells.append(map(str, report.labels.tolist()))
    write_csv(path, header, zip(*cells))


def read_report_csv(path: str) -> DetectionReport:
    """Load a persisted report; verdicts come back exactly as written.
    A non-finite loss, or a verdict or label other than 0 or 1, would
    change the metrics, so it raises CsvParseError naming its line."""
    timestamps, values, losses, verdicts, labels = [], [], [], [], []
    columns = ("timestamp", "value", "loss", "verdict")
    with read_csv(path, columns, "label", "; run detect first") as (has_labels, rows):
        for lineno, row in rows:
            try:
                timestamps.append(parse_timestamp(row[0]))
                values.append(float(row[1]))
                losses.append(float(row[2]))
            except ValueError as exc:
                raise CsvParseError(str(exc), line=lineno)
            if not math.isfinite(losses[-1]):
                raise CsvParseError(f"non-finite loss {row[2]!r}", line=lineno)
            for name, text in zip(("verdict", "label"), row[3:]):
                if text not in ("0", "1"):
                    raise CsvParseError(f"bad {name} {text!r}, expected 0 or 1", line=lineno)
            verdicts.append(int(row[3]))
            if has_labels:
                labels.append(int(row[4]))
    return DetectionReport(
        timestamps=np.array(timestamps),
        values=np.array(values),
        losses=np.array(losses),
        verdicts=np.array(verdicts, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
    )

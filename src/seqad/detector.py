"""Thresholded anomaly detection: the threshold is the maximum per-point
reconstruction loss seen on (normal-only) training data; a test point is
anomalous iff its loss strictly exceeds that maximum.

`fit` builds, trains and thresholds a model; `detect` scores a series
against the threshold the model carries. The CLI's `train`, `detect`
and `sweep` all go through these two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, EmptyInputError, ModelFileError
from .metrics import ConfusionCounts, confusion
from .pipeline import (
    ScalerParams,
    TimeSeries,
    apply_scaler,
    csv_rows,
    format_timestamp,
    parse_timestamp,
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
from .windowing import WindowSet, make_windows, per_point_loss

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


def point_losses(model: SeqAutoencoderModel, windows: WindowSet) -> np.ndarray:
    """Per-point reconstruction loss over a window set, dropout disabled."""
    recon = reconstruct_windows(model, windows.windows)
    return per_point_loss(windows, recon)


def fit_threshold(model: SeqAutoencoderModel, train_windows: WindowSet) -> ThresholdRecord:
    """Maximum per-point training loss, in normalized units; training data
    never exceeds it. The record is what `train` stores with the model."""
    if len(train_windows) == 0:
        raise EmptyInputError("cannot fit a threshold on an empty window set")
    losses = point_losses(model, train_windows)
    return ThresholdRecord(
        value=float(losses.max()),
        train_points=train_windows.source_len,
        window_len=train_windows.window_len,
    )


def fit(
    windows: WindowSet, arch: str, train_cfg: TrainConfig
) -> tuple[SeqAutoencoderModel, TrainTrace]:
    """Build a model of architecture `arch` for the window set, train it
    and set its threshold from the same windows.

    Returns the model, carrying its `threshold`, and the training trace.
    """
    model = build_model(
        arch,
        timesteps=windows.window_len,
        features=windows.features,
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
    threshold record and InsufficientDataError for a series shorter
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = "timestamp,value,loss,verdict"
        if report.labels is not None:
            header += ",label"
        fh.write(header + "\n")
        for idx in range(report.values.shape[0]):
            row = (
                f"{format_timestamp(report.timestamps[idx])},"
                f"{float(report.values[idx])!r},{float(report.losses[idx])!r},{report.verdicts[idx]}"
            )
            if report.labels is not None:
                row += f",{report.labels[idx]}"
            fh.write(row + "\n")


def read_report_csv(path: str) -> DetectionReport:
    """Load a persisted report; verdicts come back exactly as written."""
    timestamps, values, losses, verdicts, labels = [], [], [], [], []
    with csv_rows(path, "; run detect first") as reader:
        header = next(reader, None)
        if header is None or header[:4] != ["timestamp", "value", "loss", "verdict"]:
            raise CsvParseError("expected header 'timestamp,value,loss,verdict[,label]'", line=1)
        has_labels = len(header) == 5
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
            try:
                timestamps.append(parse_timestamp(row[0]))
                values.append(float(row[1]))
                losses.append(float(row[2]))
                verdicts.append(int(row[3]))
                if has_labels:
                    labels.append(int(row[4]))
            except ValueError as exc:
                raise CsvParseError(str(exc), line=lineno)
    return DetectionReport(
        timestamps=np.array(timestamps),
        values=np.array(values),
        losses=np.array(losses),
        verdicts=np.array(verdicts, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
    )

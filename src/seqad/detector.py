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

from .errors import DataError, ModelFileError
from .pipeline import (
    CsvChunk,
    ScalerParams,
    TimeSeries,
    TrainConfig,
    apply_scaler,
    first_true,
    format_timestamps,
    in_chunks,
    parse_bits,
    parse_floats,
    parse_timestamp,
    parse_timestamps,
    read_csv,
    write_csv,
)
from .seq_autoencoder import (
    SeqAutoencoderModel,
    ThresholdRecord,
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
    for evaluation. Raises ModelFileError for a model without a
    threshold record and DataError for a series shorter
    than one window.
    """
    if model.threshold is None:
        raise ModelFileError("cannot score with a model without its threshold record")
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


def write_report_csv(path: str, report: DetectionReport) -> None:
    """One row per point: timestamp,value,loss,verdict[,label]."""
    header = ["timestamp", "value", "loss", "verdict"]
    cells = [
        in_chunks(format_timestamps, report.timestamps),
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
    columns = ("timestamp", "value", "loss", "verdict")
    with read_csv(path, columns, "label", "; run detect first") as (has_labels, chunks):
        parts = [_report_columns(chunk) for chunk in chunks]
    timestamps, values, losses, verdicts, *labels = map(np.concatenate, zip(*parts))
    return DetectionReport(
        timestamps=timestamps,
        values=values,
        losses=losses,
        verdicts=verdicts,
        labels=labels[0] if has_labels else None,
    )


def _report_columns(chunk: CsvChunk) -> list:
    """A chunk's timestamps, values, losses and verdicts, then its labels
    if it has them."""
    ts_texts, value_texts, loss_texts, verdict_texts, *label_texts = chunk.columns
    timestamps = parse_timestamps(ts_texts)
    values, bad_value = parse_floats(value_texts)
    losses, bad_loss = parse_floats(loss_texts)
    verdicts = parse_bits(verdict_texts)
    columns = [timestamps, values, losses, verdicts]
    failures = [
        (first_true(np.isnan(timestamps)), lambda i: _rejection(parse_timestamp, ts_texts[i])),
        (bad_value, lambda i: _rejection(float, value_texts[i])),
        (bad_loss, lambda i: _rejection(float, loss_texts[i])),
        (first_true(~np.isfinite(losses)), lambda i: f"non-finite loss {loss_texts[i]!r}"),
        (first_true(verdicts < 0), lambda i: f"bad verdict {verdict_texts[i]!r}, expected 0 or 1"),
    ]
    if label_texts:
        labels = parse_bits(label_texts[0])
        columns.append(labels)
        failures.append(
            (first_true(labels < 0), lambda i: f"bad label {label_texts[0][i]!r}, expected 0 or 1")
        )
    chunk.check(*failures)
    return columns


def _rejection(parse, text: str) -> str:
    """The message of the ValueError `parse(text)` raises."""
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)

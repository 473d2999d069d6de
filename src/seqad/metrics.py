"""Binary classification metrics with anomaly as the positive class:
confusion counts, precision/recall/F1/accuracy/FPR, and a threshold-swept
ROC curve with trapezoidal AUC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "ConfusionCounts",
    "ClassificationMetrics",
    "RocCurve",
    "confusion",
    "prf1_accuracy",
    "class_counts",
    "roc_auc",
    "format_percent",
]


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _as_binary(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise DataError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def confusion(labels, verdicts) -> ConfusionCounts:
    """Count agreement between ground-truth labels and verdicts (1 = anomaly)."""
    labels = _as_binary(labels, "labels")
    verdicts = _as_binary(verdicts, "verdicts")
    if labels.shape != verdicts.shape:
        raise DataError(f"length mismatch: {labels.shape[0]} labels vs {verdicts.shape[0]} verdicts")
    return ConfusionCounts(
        tp=int(((labels == 1) & (verdicts == 1)).sum()),
        tn=int(((labels == 0) & (verdicts == 0)).sum()),
        fp=int(((labels == 0) & (verdicts == 1)).sum()),
        fn=int(((labels == 1) & (verdicts == 0)).sum()),
    )


@dataclass
class ClassificationMetrics:
    """Fractions in [0, 1]; a None field means the denominator was zero."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    fpr: float | None


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def prf1_accuracy(c: ConfusionCounts) -> ClassificationMetrics:
    precision = _ratio(c.tp, c.tp + c.fp)
    recall = _ratio(c.tp, c.tp + c.fn)
    fpr = _ratio(c.fp, c.fp + c.tn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    accuracy = _ratio(c.tp + c.tn, c.total)
    return ClassificationMetrics(
        precision=precision, recall=recall, fpr=fpr, f1=f1, accuracy=accuracy
    )


def format_percent(x: float | None) -> str:
    """CLI-surface formatting: two-decimal percent or 'undefined'."""
    return "undefined" if x is None else f"{100.0 * x:.2f}"


@dataclass
class RocCurve:
    """(FPR, TPR) points swept from the highest score threshold down.

    `thresholds[k]` is the lowest score still classified positive at
    point k (score >= threshold); the leading point is (inf, 0, 0).
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def class_counts(labels) -> tuple[int, int]:
    """(positives, negatives) of a 0/1 label array. Raises DataError
    unless both classes are present, which a ROC curve needs."""
    labels = _as_binary(labels, "labels")
    n_pos = int((labels == 1).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs at least one positive and one negative label")
    return n_pos, n_neg


def roc_auc(labels, scores) -> RocCurve:
    """Threshold sweep over unique scores with tie grouping, trapezoid AUC.

    Needs both classes present; equal scores collapse into a single
    sweep step so the curve (and AUC) matches pair-counting with half
    credit for ties.
    """
    labels = _as_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise DataError(f"length mismatch: {labels.shape[0]} labels vs {scores.shape[0]} scores")
    n_pos, n_neg = class_counts(labels)

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # group ties: take cumulative counts only at the last index of each tied run
    last_of_run = np.nonzero(np.diff(sorted_scores))[0]
    cut = np.concatenate([last_of_run, [labels.shape[0] - 1]])
    cum_tp = np.cumsum(sorted_labels)[cut]
    cum_fp = (cut + 1) - cum_tp

    thresholds = np.concatenate([[np.inf], sorted_scores[cut]])
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    auc = float((0.5 * (tpr[1:] + tpr[:-1]) * np.diff(fpr)).sum())
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)

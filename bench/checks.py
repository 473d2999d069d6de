"""Output checks for one pipeline workspace, computed apart from the program.

Losses are re-aggregated here by a method of our own (a (points, T)
table of per-offset errors averaged over the windows present), the AUC
is recounted from ranks, and confusion counts from the report's own
columns. Only the reconstructions come from the program
(`seq_autoencoder.reconstruct_windows` on the saved model), since they
are the thing the model defines.
"""

from __future__ import annotations

import json
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Summation order differs between our aggregation and the program's, and
# a window reconstructed in a different batch may differ in its last bits;
# both stay within a few hundred ulps of the loss.
LOSS_RTOL = 256 * np.finfo(np.float64).eps
TEST_SAMPLE = 1024


class CheckError(Exception):
    """An output of the pipeline is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def aggregate_losses(values: np.ndarray, recon: np.ndarray) -> np.ndarray:
    """Per-point mean absolute error over the windows that cover each point.

    `values` is the (N,) series and `recon` the (N - T + 1, T) stack of
    window reconstructions; NaN rows in `recon` mark windows not
    reconstructed and are left out. Point p at offset j of window p - j
    lands in cell (p, j) of a (N, T) table, whose present cells are
    averaged row by row.
    """
    count, t = recon.shape
    err = np.abs(recon - sliding_window_view(values, t))
    table = np.full((count + t - 1, t), np.nan)
    for j in range(t):
        table[j : j + count, j] = err[:, j]
    present = ~np.isnan(table)
    total = np.where(present, table, 0.0).sum(axis=1)
    covered = present.sum(axis=1)
    return np.divide(total, covered, out=np.full(total.shape, np.nan), where=covered > 0)


def rank_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC from average ranks: ties get half credit."""
    labels = np.asarray(labels, dtype=bool)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0  # 1-based mean rank of each tie group
    ranks = avg_rank[inverse]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1_score(truth: np.ndarray, verdicts: np.ndarray) -> float:
    truth = np.asarray(truth, dtype=bool)
    verdicts = np.asarray(verdicts, dtype=bool)
    tp = int((truth & verdicts).sum())
    fp = int((~truth & verdicts).sum())
    fn = int((truth & ~verdicts).sum())
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def read_columns(path: str) -> dict[str, list[str]]:
    """A CSV file as header name -> list of raw fields."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    for row in rows:
        require(len(row) == len(header), f"{path}: row {row} does not match header {header}")
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _accounting(stdout: str) -> dict[str, int]:
    """Integer rows of the preprocess summary, keyed by their label."""
    counts = {}
    for line in stdout.splitlines():
        label, _, value = line.rpartition(" ")
        if value.isdigit():
            counts[label.strip()] = int(value)
    return counts


def _reconstruct(model, windows: np.ndarray) -> np.ndarray:
    from seqad.seq_autoencoder import reconstruct_windows

    return reconstruct_windows(model, windows[:, :, None])[:, :, 0]


def check_workspace(
    ws: str,
    preprocess_stdout: str,
    raw_rows: int,
    raw_stamps: np.ndarray,
    spikes: np.ndarray,
    seed: int,
) -> dict[str, float]:
    """Check every output of one pipeline run; return F1 and AUC against
    the injected spikes on the test side. Raises CheckError."""
    from seqad.seq_autoencoder import load_model

    acct = _accounting(preprocess_stdout)
    train = read_columns(os.path.join(ws, "train.csv"))
    test = read_columns(os.path.join(ws, "test.csv"))
    report = read_columns(os.path.join(ws, "report.csv"))
    summary = _load_json(os.path.join(ws, "detection_summary.json"))
    evaluation = _load_json(os.path.join(ws, "evaluation.json"))
    scaler = _load_json(os.path.join(ws, "scaler.json"))

    kept, dropped, n_test = acct["train rows kept"], acct["train rows dropped"], acct["test rows"]
    require(acct["cleaned rows"] == raw_rows, f"cleaned rows {acct['cleaned rows']} != {raw_rows} raw")
    require(
        kept + dropped + n_test == acct["cleaned rows"],
        f"row accounting: {kept} kept + {dropped} dropped + {n_test} test != {acct['cleaned rows']}",
    )
    require(len(train["value"]) == kept, f"train.csv has {len(train['value'])} rows, {kept} kept")
    require(len(test["value"]) == n_test, f"test.csv has {len(test['value'])} rows, {n_test} test")
    require(len(report["loss"]) == n_test, f"report.csv has {len(report['loss'])} rows, {n_test} test")
    require(report["timestamp"] == test["timestamp"], "report rows do not follow test.csv")

    model = load_model(os.path.join(ws, "model.json"))
    t = model.timesteps
    mean, std = float(scaler["mean"]), float(scaler["std"])
    threshold = float(summary["threshold"])
    losses = np.array(report["loss"], dtype=np.float64)
    verdicts = np.array(report["verdict"], dtype=np.int64)
    labels = np.array(report["label"], dtype=np.int64)

    # threshold: the maximum of our own aggregation of every training loss
    train_x = (np.array(train["value"], dtype=np.float64) - mean) / std
    train_windows = sliding_window_view(train_x, t)
    train_losses = aggregate_losses(train_x, _reconstruct(model, train_windows))
    ours = float(train_losses.max())
    require(
        abs(ours - threshold) <= LOSS_RTOL * threshold,
        f"threshold {threshold!r} != max training loss {ours!r}",
    )
    require(
        bool((train_losses <= threshold * (1 + LOSS_RTOL)).all()),
        "a training point exceeds the threshold",
    )

    # test losses at every point, or at a seeded sample of points together
    # with every window that covers them
    test_x = (np.array(test["value"], dtype=np.float64) - mean) / std
    test_windows = sliding_window_view(test_x, t)
    if n_test <= TEST_SAMPLE:
        points = np.arange(n_test)
    else:
        points = np.sort(np.random.default_rng(seed).choice(n_test, TEST_SAMPLE, replace=False))
    starts = np.unique((points[:, None] - np.arange(t)).ravel())
    starts = starts[(starts >= 0) & (starts < test_windows.shape[0])]
    recon = np.full(test_windows.shape, np.nan)
    recon[starts] = _reconstruct(model, test_windows[starts])
    ours = aggregate_losses(test_x, recon)[points]
    worst = float(np.max(np.abs(ours - losses[points]) / np.maximum(losses[points], 1e-300)))
    require(worst <= LOSS_RTOL, f"report losses differ from ours by up to {worst:.3e} relative")

    require(bool((verdicts == (losses > threshold)).all()), "a verdict is not exactly loss > threshold")

    conf = evaluation["confusion"]
    recount = {
        "tp": int(((labels == 1) & (verdicts == 1)).sum()),
        "tn": int(((labels == 0) & (verdicts == 0)).sum()),
        "fp": int(((labels == 0) & (verdicts == 1)).sum()),
        "fn": int(((labels == 1) & (verdicts == 0)).sum()),
    }
    require(conf == recount, f"evaluation confusion {conf} != recount {recount}")
    auc = rank_auc(labels, losses)
    require(
        abs(float(evaluation["auc"]) - auc) <= 1e-12,
        f"evaluation AUC {evaluation['auc']!r} != rank AUC {auc!r}",
    )

    # quality against the generator's injected spikes, on the test side
    row_of = {stamp: k for k, stamp in enumerate(raw_stamps.tolist())}
    first = row_of[report["timestamp"][0]]
    require(report["timestamp"] == raw_stamps[first:].tolist(), "test side is not the raw tail")
    truth = np.zeros(n_test, dtype=bool)
    hits = spikes[spikes >= first] - first
    truth[hits] = True
    return {"f1": f1_score(truth, verdicts), "auc": rank_auc(truth, losses)}

"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them on success).

Heavy artifacts (the full synthetic pipeline) are built once in a
module-scoped fixture and shared by the criteria that need them.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from gradcheck import worst_relative_error
from lstm_reference import zero_params
from seqad import cli, detector, metrics, pipeline, seq_autoencoder as sa
from seqad.lstm import LstmLayerParams, lstm_backward, lstm_forward
from seqad.windowing import coverage_counts, make_windows, per_point_loss


def report(criterion, name, passed, detail=""):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"criterion {criterion} ({name}) failed: {detail}"


SEED = 42
E2E_ARGS = {
    "length": 10_000,
    "split_index": 7_500,  # split_fraction 0.75 of a clean 10k series
    "window": 10,
}


def run_pipeline(out):
    """synth -> preprocess -> train -> detect -> evaluate, defaults from
    the standard training configuration (lr 0.001, dropout 0.2, batch 64,
    epochs 30), T=10, 1% spikes at 6 sigma."""
    base = ["--out", out, "--seed", str(SEED)]
    assert cli.main(["synth", *base, "--length", str(E2E_ARGS["length"])]) == 0
    assert cli.main(
        ["preprocess", *base, "--input", os.path.join(out, "synthetic.csv")]
    ) == 0
    assert cli.main(["train", *base, "--window", str(E2E_ARGS["window"])]) == 0
    assert cli.main(["detect", *base]) == 0
    assert cli.main(["evaluate", *base]) == 0


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e"))
    start = time.monotonic()
    run_pipeline(out)
    elapsed = time.monotonic() - start
    return {"out": out, "elapsed": elapsed}


def test_criterion_1_worked_example_loss_aggregation():
    start = time.monotonic()
    windows = make_windows(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
    recons = np.array([[1.1, 2.02, 3.01], [1.99, 2.99, 3.99], [3.01, 4.02, 5.02]])[:, :, None]
    losses = per_point_loss(windows, recons)
    expected = np.array([0.1, 0.015, 0.01, 0.015, 0.02])
    err = float(np.max(np.abs(losses - expected)))
    elapsed = time.monotonic() - start
    report(
        1,
        "worked-example loss aggregation",
        err <= 1e-12 and elapsed < 1.0,
        f"max err {err:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_metrics_replay():
    start = time.monotonic()
    m = metrics.prf1_accuracy(metrics.ConfusionCounts(tp=1888, tn=40697, fp=0, fn=212))
    printed = (
        metrics.format_percent(m.accuracy),
        metrics.format_percent(m.precision),
        metrics.format_percent(m.recall),
        metrics.format_percent(m.f1),
    )
    elapsed = time.monotonic() - start
    report(
        2,
        "metrics replay",
        printed == ("99.50", "100.00", "89.90", "94.68") and elapsed < 1.0,
        f"{' / '.join(printed)}, {elapsed:.3f}s",
    )


def _lstm_gradcheck(seed):
    rng = np.random.default_rng(seed)
    hidden = 1 + int(rng.uniform(0, 4))
    t_len = 1 + int(rng.uniform(0, 5))
    input_size = 1 + int(rng.uniform(0, 3))
    params = LstmLayerParams.init(hidden, input_size, rng)
    params.b += rng.uniform(-0.2, 0.2, params.b.shape)
    # batch-first draws, laid out time-major for the layer
    x = np.ascontiguousarray(rng.normal(0, 1, (2, t_len, input_size)).transpose(1, 0, 2))
    proj = rng.normal(0, 1, (2, t_len, hidden)).transpose(1, 0, 2)

    def loss():
        out, _ = lstm_forward(params, x)
        return float((out * proj).sum())

    _, caches = lstm_forward(params, x)
    grads = zero_params(hidden, input_size)
    d_in = lstm_backward(params, caches, proj, grads)
    worst = worst_relative_error(loss, params.arrays(), grads.arrays())
    worst = max(worst, worst_relative_error(loss, [x], [d_in]))
    return worst, grads


def _autoencoder_gradcheck(seed):
    model = sa.build_model("1x3", timesteps=4, dropout_rate=0.0, seed=seed)
    batch = np.random.default_rng(1000 + seed).normal(0, 1, (2, 4, 1))

    def loss():
        recon, _ = sa._forward_batch(model, batch)
        return float(np.mean(np.abs(recon - batch)))

    recon, cache = sa._forward_batch(model, batch)
    d_recon = np.sign(recon - batch) / recon.size
    grad = np.empty_like(model.vector)
    sa._backward_batch(model, cache, d_recon, grad)
    return worst_relative_error(loss, [model.vector], [grad]), grad


def test_criterion_3_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    for seed in range(10):
        w_lstm, _ = _lstm_gradcheck(seed)
        w_ae, _ = _autoencoder_gradcheck(seed)
        worst = max(worst, w_lstm, w_ae)
    elapsed = time.monotonic() - start
    report(
        3,
        "gradient suite",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_aggregation_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.uniform(1, 51))
        t = int(rng.uniform(1, min(n, 10) + 1))
        ws = make_windows(rng.normal(0, 1, n), t)
        recons = rng.normal(0, 1, ws.shape)
        totals = np.zeros(n)
        counts = np.zeros(n)
        for k in range(len(ws)):  # window k starts at point k
            for offset in range(t):
                totals[k + offset] += abs(recons[k, offset, 0] - ws[k, offset, 0])
                counts[k + offset] += 1
        oracle = totals / counts
        assert np.array_equal(counts, coverage_counts(n, t))
        worst = max(worst, float(np.max(np.abs(per_point_loss(ws, recons) - oracle))))
    elapsed = time.monotonic() - start
    report(
        4,
        "aggregation oracle",
        worst <= 1e-12 and elapsed < 10.0,
        f"200 instances, max err {worst:.2e}, {elapsed:.1f}s",
    )


def pair_count_auc(labels, scores):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    grid = pos[:, None] - neg[None, :]
    return float(((grid > 0).sum() + 0.5 * (grid == 0).sum()) / grid.size)


def test_criterion_5_auc_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        labels = (rng.uniform(size=200) < 0.3).astype(int)
        if labels.sum() in (0, 200):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(0, 1, 200), 1)
        worst = max(
            worst, abs(metrics.roc_auc(labels, scores).auc - pair_count_auc(labels, scores))
        )
    perfect = metrics.roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]).auc
    constant = metrics.roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]).auc
    elapsed = time.monotonic() - start
    report(
        5,
        "auc oracle",
        worst <= 1e-12 and perfect == 1.0 and constant == 0.5 and elapsed < 10.0,
        f"50 instances, max err {worst:.2e}, perfect {perfect}, ties {constant}, {elapsed:.1f}s",
    )


def test_criterion_6_threshold_soundness():
    start = time.monotonic()
    profile = pipeline.SynthProfile(length=1500, spike_rate=0.02)
    data, _ = pipeline.generate_synthetic(profile, seed=6)
    split = pipeline.build_train_test(data, float(data.timestamps[1100]), k=2.0)
    scaler = pipeline.fit_scaler(split.train.values)
    windows = make_windows(pipeline.apply_scaler(split.train.values, scaler), 10)
    model, _ = detector.fit(windows, "1x16", pipeline.TrainConfig(epochs=5, seed=6))
    rerun = detector.detect(model, split.train, scaler)
    flagged = int(rerun.verdicts.sum())
    elapsed = time.monotonic() - start
    report(
        6,
        "threshold soundness",
        flagged == 0 and elapsed < 60.0,
        f"{flagged} flagged on the threshold's own data, {elapsed:.1f}s",
    )


def _truth_on_test_period(out):
    with open(os.path.join(out, "anomalies.csv")) as fh:
        next(fh)
        injected = [int(line.split(",")[0]) for line in fh if line.strip()]
    offset = E2E_ARGS["split_index"]
    n_test = E2E_ARGS["length"] - offset
    truth = np.zeros(n_test, dtype=int)
    for idx in injected:
        if idx >= offset:
            truth[idx - offset] = 1
    return truth


def test_criterion_7_synthetic_end_to_end(e2e):
    out = e2e["out"]
    rep = pipeline.read_report_csv(os.path.join(out, "report.csv"))

    # no alarms on the training period: the threshold is that period's max,
    # so a false positive there is impossible by construction
    model = sa.load_model(os.path.join(out, "model.json"))
    train_series = pipeline.read_series_csv(os.path.join(out, "train.csv"))
    with open(os.path.join(out, "scaler.json")) as fh:
        doc = json.load(fh)
    scaler = pipeline.ScalerParams(mean=doc["mean"], std=doc["std"])
    train_rerun = detector.detect(model, train_series, scaler)
    train_flagged = int(train_rerun.verdicts.sum())

    truth = _truth_on_test_period(out)
    counts = metrics.confusion(truth, rep.verdicts)
    m = metrics.prf1_accuracy(counts)
    f1 = m.f1 if m.f1 is not None else 0.0
    report(
        7,
        "synthetic end-to-end",
        train_flagged == 0 and f1 >= 0.90 and e2e["elapsed"] < 300.0,
        f"train flagged {train_flagged}, test F1 {f1:.3f} "
        f"(TP={counts.tp} FP={counts.fp} FN={counts.fn}), pipeline {e2e['elapsed']:.0f}s",
    )


def test_criterion_8_sweep_sanity(e2e, tmp_path):
    out = e2e["out"]
    args = [
        "sweep", "--out", out, "--seed", str(SEED),
        "--sweep-windows", "10,20", "--epochs", "5",
    ]
    assert cli.main(args) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        first = fh.read()
    assert cli.main(args) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        second = fh.read()

    lines = first.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    f1_by_window = {int(r[0]): (float(r[6]) if r[6] else math.nan) for r in rows}
    trend = "T=10 >= T=20 in F1" if f1_by_window[10] >= f1_by_window[20] else "T=20 > T=10 in F1"
    report(
        8,
        "sweep sanity",
        len(rows) == 2 and first == second,
        f"{len(rows)} rows, deterministic rerun, observed trend: {trend} "
        f"(F1 {f1_by_window[10]:.3f} vs {f1_by_window[20]:.3f}; reported, not gated)",
    )


def test_criterion_9_determinism(e2e, tmp_path):
    # gradient computations rerun bit-identically
    grads_ok = True
    for seed in (0, 5, 9):
        _, g1 = _lstm_gradcheck(seed)
        _, g2 = _lstm_gradcheck(seed)
        grads_ok &= all(np.array_equal(a, b) for a, b in zip(g1.arrays(), g2.arrays()))
        _, a1 = _autoencoder_gradcheck(seed)
        _, a2 = _autoencoder_gradcheck(seed)
        grads_ok &= all(np.array_equal(a, b) for a, b in zip(a1, a2))

    # the full pipeline rerun with the same seed is byte-identical
    out2 = str(tmp_path / "rerun")
    run_pipeline(out2)
    same = {}
    for name in ("model.json", "report.csv", "training_trace.csv", "detection_summary.json"):
        with open(os.path.join(e2e["out"], name), "rb") as fa, open(
            os.path.join(out2, name), "rb"
        ) as fb:
            same[name] = fa.read() == fb.read()
    report(
        9,
        "determinism",
        grads_ok and all(same.values()),
        f"gradients bit-identical: {grads_ok}; files identical: {same}",
    )

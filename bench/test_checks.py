"""Tests of the benchmark's own checker and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import numpy as np

import checks
import tracing


def test_aggregation_reproduces_worked_example():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    recon = np.array([[1.1, 2.02, 3.01], [1.99, 2.99, 3.99], [3.01, 4.02, 5.02]])
    losses = checks.aggregate_losses(values, recon)
    np.testing.assert_allclose(losses, [0.1, 0.015, 0.01, 0.015, 0.02], rtol=0, atol=1e-12)


def test_aggregation_skips_windows_not_reconstructed():
    rng = np.random.default_rng(3)
    values = rng.normal(size=40)
    recon = rng.normal(size=(36, 5))
    full = checks.aggregate_losses(values, recon)
    partial = recon.copy()
    partial[:10] = np.nan  # windows 0..9 cover points 0..13 only
    np.testing.assert_array_equal(checks.aggregate_losses(values, partial)[14:], full[14:])


def test_aggregation_matches_program_loop():
    from seqad.windowing import make_windows, per_point_loss

    rng = np.random.default_rng(4)
    values = rng.normal(size=300)
    windows = make_windows(values, 10)
    recon = rng.normal(size=windows.windows.shape)
    ours = checks.aggregate_losses(values, recon[:, :, 0])
    np.testing.assert_allclose(ours, per_point_loss(windows, recon), rtol=checks.LOSS_RTOL, atol=0)


def _pair_count_auc(labels, scores):
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (pos.size * neg.size)


def test_rank_auc_equals_pair_counting_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = rng.integers(0, 5, n).astype(np.float64)  # few levels, so many ties
        assert abs(checks.rank_auc(labels, scores) - _pair_count_auc(labels, scores)) <= 1e-12


def test_f1_score():
    truth = np.array([1, 1, 0, 0, 1], dtype=bool)
    verdicts = np.array([1, 0, 1, 0, 1], dtype=bool)
    assert checks.f1_score(truth, verdicts) == 2 * 2 / (2 * 2 + 1 + 1)


def test_self_time_subtracts_children():
    doc = {
        "names": np.array(["root", "child", "leaf"]),
        "name_id": np.array([0, 1, 2, 1]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 1.5, 5.0]),
        "end": np.array([10.0, 3.0, 2.0, 6.0]),
    }
    own, calls, _ = tracing.summarise(doc)
    assert own == {"root": 7.0, "child": 2.5, "leaf": 0.5}
    assert calls == {"root": 1, "child": 2, "leaf": 1}

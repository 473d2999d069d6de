import numpy as np
import pytest

from seqad.errors import DataError
from seqad.metrics import (
    ConfusionCounts,
    confusion,
    format_percent,
    prf1_accuracy,
    roc_auc,
)


def pair_count_auc(labels, scores):
    """Independent oracle: P(pos > neg) + 0.5 P(tie) over all pairs."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestConfusion:
    def test_all_correct(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)

    def test_all_wrong(self):
        c = confusion([1, 1, 0], [0, 0, 1])
        assert (c.fn, c.fp, c.tp, c.tn) == (2, 1, 0, 0)

    def test_total_matches_inputs(self):
        rng = np.random.default_rng(1)
        labels = (rng.uniform(size=500) < 0.3).astype(int)
        verdicts = (rng.uniform(size=500) < 0.3).astype(int)
        assert confusion(labels, verdicts).total == 500

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            confusion([1, 2], [1, 0])


class TestPrf1Accuracy:
    def test_reference_counts_print_expected_percentages(self):
        m = prf1_accuracy(ConfusionCounts(tp=1888, tn=40697, fp=0, fn=212))
        assert format_percent(m.accuracy) == "99.50"
        assert format_percent(m.precision) == "100.00"
        assert format_percent(m.recall) == "89.90"
        assert format_percent(m.f1) == "94.68"
        assert format_percent(m.fpr) == "0.00"

    def test_empty_counts_are_undefined_not_nan(self):
        m = prf1_accuracy(ConfusionCounts(0, 0, 0, 0))
        assert m.precision is None and m.recall is None
        assert m.fpr is None and m.f1 is None and m.accuracy is None
        assert format_percent(m.precision) == "undefined"

    def test_perfect_classifier(self):
        m = prf1_accuracy(ConfusionCounts(tp=10, tn=90, fp=0, fn=0))
        assert m.recall == 1.0
        assert m.fpr == 0.0
        assert m.accuracy == 1.0

    def test_accuracy_complement_identity(self):
        c = ConfusionCounts(tp=7, tn=55, fp=3, fn=5)
        m = prf1_accuracy(c)
        assert m.accuracy == pytest.approx(1.0 - (c.fp + c.fn) / c.total, abs=1e-15)

    def test_f1_is_harmonic_mean(self):
        c = ConfusionCounts(tp=30, tn=50, fp=10, fn=10)
        m = prf1_accuracy(c)
        assert m.f1 == pytest.approx(
            2 / (1 / m.precision + 1 / m.recall), abs=1e-15
        )


class TestRocAuc:
    def test_perfect_ordering(self):
        labels = [0, 0, 0, 1, 1]
        scores = [0.1, 0.2, 0.3, 0.8, 0.9]
        assert roc_auc(labels, scores).auc == 1.0

    def test_constant_scores_give_half(self):
        curve = roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert curve.auc == 0.5
        # single diagonal segment: (0,0) then (1,1)
        assert np.array_equal(curve.fpr, [0.0, 1.0])
        assert np.array_equal(curve.tpr, [0.0, 1.0])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            labels = (rng.uniform(size=200) < 0.3).astype(int)
            if labels.sum() in (0, 200):
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(0, 1, 200), 1)  # rounding forces ties
            curve = roc_auc(labels, scores)
            assert curve.auc == pytest.approx(pair_count_auc(labels, scores), abs=1e-12)

    def test_curve_shape_invariants(self):
        rng = np.random.default_rng(7)
        labels = (rng.uniform(size=100) < 0.4).astype(int)
        scores = rng.normal(0, 1, 100)
        curve = roc_auc(labels, scores)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.thresholds[0] == np.inf
        assert np.all(np.diff(curve.thresholds[1:]) <= 0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        labels = (rng.uniform(size=150) < 0.25).astype(int)
        scores = rng.normal(0, 1, 150)
        base = roc_auc(labels, scores).auc
        assert roc_auc(labels, np.exp(scores)).auc == pytest.approx(base, abs=1e-12)
        assert roc_auc(labels, 3.0 * scores + 11.0).auc == pytest.approx(base, abs=1e-12)

    def test_score_reversal_flips_auc(self):
        rng = np.random.default_rng(9)
        labels = (rng.uniform(size=120) < 0.5).astype(int)
        scores = rng.normal(0, 1, 120)
        assert roc_auc(labels, -scores).auc == pytest.approx(
            1.0 - roc_auc(labels, scores).auc, abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="ROC needs at least one positive and one negative"):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])
        with pytest.raises(DataError, match="ROC needs at least one positive and one negative"):
            roc_auc([0, 0], [0.1, 0.2])

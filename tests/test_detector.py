import numpy as np
import pytest

from seqad import detector, pipeline, seq_autoencoder as sa
from seqad.errors import CsvParseError, DataError, ModelFileError
from seqad.windowing import make_windows


IDENTITY_SCALER = pipeline.ScalerParams(mean=0.0, std=1.0)


def zero_model(timesteps, arch="1x4"):
    model = sa.build_model(arch, timesteps=timesteps, seed=0)
    for p in model.params():
        p[...] = 0.0
    return model


def series(values, labels=None):
    values = np.asarray(values, dtype=float)
    return pipeline.TimeSeries(np.arange(len(values)) * 60.0, values, labels)


class TestFitThreshold:
    def test_perfect_reconstruction_gives_zero(self):
        # a zeroed model reconstructs an all-zero series exactly
        model = zero_model(3)
        windows = make_windows(np.zeros(10), 3)
        th = detector.fit_threshold(model, windows)
        assert th.value == 0.0
        assert th.train_points == 10
        assert th.window_len == 3

    @pytest.mark.parametrize("n,t", [(1, 1), (7, 3), (40, 10), (10, 10)])
    def test_train_points_is_the_series_length(self, n, t):
        series = np.random.default_rng(n).normal(0, 1, n)
        th = detector.fit_threshold(zero_model(t), make_windows(series, t))
        assert (th.train_points, th.window_len) == (n, t)

    def test_singleton_max(self):
        model = zero_model(1)
        th = detector.fit_threshold(model, make_windows(np.array([0.3]), 1))
        assert th.value == pytest.approx(0.3, abs=1e-15)

    def test_empty_windows_rejected(self):
        model = zero_model(3)
        windows = make_windows(np.zeros(10), 3)[:0]
        with pytest.raises(DataError, match="cannot fit a threshold on an empty window set"):
            detector.fit_threshold(model, windows)


class TestFit:
    def test_equals_build_train_then_threshold_fit(self):
        windows = make_windows(np.random.default_rng(5).normal(0, 1, 60), 6)
        cfg = sa.TrainConfig(epochs=2, dropout=0.1, batch_size=16, seed=5)
        model, trace = detector.fit(windows, "2x8-4", cfg)
        expected = sa.build_model("2x8-4", timesteps=6, dropout_rate=0.1, seed=5)
        expected, expected_trace = sa.train(expected, windows, cfg)
        expected.threshold = detector.fit_threshold(expected, windows)
        assert sa.model_digest(model) == sa.model_digest(expected)
        assert trace.train_loss == expected_trace.train_loss
        assert trace.val_loss == expected_trace.val_loss


class TestDetect:
    def test_no_anomalies_when_losses_at_or_below_threshold(self):
        model = zero_model(1)
        model.threshold = detector.fit_threshold(model, make_windows(np.array([0.3, 0.3]), 1))
        report = detector.detect(model, series([0.3, 0.3, 0.3]), IDENTITY_SCALER)
        # every loss equals the threshold exactly: strict inequality keeps them normal
        assert np.array_equal(report.losses, [0.3, 0.3, 0.3])
        assert report.verdicts.sum() == 0

    def test_point_above_threshold_is_flagged(self):
        model = zero_model(1)
        model.threshold = detector.fit_threshold(model, make_windows(np.array([0.3]), 1))
        report = detector.detect(model, series([0.2, 0.8, 0.3]), IDENTITY_SCALER)
        assert list(report.verdicts) == [0, 1, 0]

    def test_trained_model_flags_nothing_on_its_own_training_data(self):
        profile = pipeline.SynthProfile(length=900, spike_rate=0.02)
        data, _ = pipeline.generate_synthetic(profile, seed=3)
        split = pipeline.build_train_test(data, float(data.timestamps[700]), k=2.0)
        scaler = pipeline.fit_scaler(split.train.values)
        windows = make_windows(pipeline.apply_scaler(split.train.values, scaler), 10)
        model, _ = detector.fit(windows, "1x16", sa.TrainConfig(epochs=3, seed=3))
        report = detector.detect(model, split.train, scaler)
        assert report.verdicts.sum() == 0

    def test_monotonicity_in_threshold(self):
        model = zero_model(1)
        model.threshold = detector.fit_threshold(model, make_windows(np.array([0.5]), 1))
        values = np.random.default_rng(4).uniform(0, 1, 50)
        flagged = []
        for eta in (0.1, 0.3, 0.7):
            model.threshold.value = eta
            report = detector.detect(model, series(values), IDENTITY_SCALER)
            flagged.append(set(np.nonzero(report.verdicts)[0]))
        assert flagged[2] <= flagged[1] <= flagged[0]

    def test_series_shorter_than_window_rejected(self):
        model = zero_model(5)
        model.threshold = sa.ThresholdRecord(value=1.0, train_points=10, window_len=5)
        with pytest.raises(DataError, match="series of length 2 is shorter than window length 5"):
            detector.detect(model, series([1.0, 2.0]), IDENTITY_SCALER)

    def test_model_without_threshold_rejected(self):
        model = zero_model(1)
        assert model.threshold is None
        with pytest.raises(ModelFileError):
            detector.detect(model, series([0.2, 0.8, 0.3]), IDENTITY_SCALER)

    def test_labels_ride_along_into_confusion(self):
        model = zero_model(1)
        model.threshold = detector.fit_threshold(model, make_windows(np.array([0.3]), 1))
        report = detector.detect(model, series([0.2, 0.8, 0.3], labels=[0, 1, 0]), IDENTITY_SCALER)
        counts = report.confusion()
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (1, 2, 0, 0)


class TestReportPersistence:
    def make_report(self, with_labels):
        """A report and the model that scored it."""
        model = zero_model(2)
        model.threshold = detector.fit_threshold(model, make_windows(np.array([0.1, 0.2, 0.15]), 2))
        labels = [0, 1, 0, 0] if with_labels else None
        report = detector.detect(model, series([0.05, 0.9, 0.1, 0.12], labels=labels), IDENTITY_SCALER)
        return report, model

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_round_trip(self, tmp_path, with_labels):
        report, _ = self.make_report(with_labels)
        path = tmp_path / "report.csv"
        detector.write_report_csv(str(path), report)
        back = detector.read_report_csv(str(path))
        assert np.array_equal(back.values, report.values)
        assert np.array_equal(back.losses, report.losses)
        assert np.array_equal(back.verdicts, report.verdicts)
        if with_labels:
            assert np.array_equal(back.labels, report.labels)
        else:
            assert back.labels is None

    def test_verdicts_recompute_identically_from_persisted_losses(self, tmp_path):
        report, model = self.make_report(with_labels=False)
        path = tmp_path / "report.csv"
        detector.write_report_csv(str(path), report)
        back = detector.read_report_csv(str(path))
        assert np.array_equal((back.losses > model.threshold.value).astype(int), back.verdicts)


class TestReportValidation:
    """Inputs that would silently change the metrics fail naming their line."""

    HEADER = "timestamp,value,loss,verdict,label\n"
    GOOD = "2018-01-01T00:00:00,450.0,0.5,0,0\n"

    def read(self, tmp_path, text):
        path = tmp_path / "report.csv"
        path.write_text(text)
        return detector.read_report_csv(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_loss_rejected(self, tmp_path, token):
        bad = f"2018-01-01T00:01:00,451.0,{token},1,1\n"
        with pytest.raises(CsvParseError, match=r"line 3.*non-finite loss"):
            self.read(tmp_path, self.HEADER + self.GOOD + bad)

    @pytest.mark.parametrize("token", ["2", "-1", "1.0", ""])
    def test_verdict_other_than_0_or_1_rejected(self, tmp_path, token):
        bad = f"2018-01-01T00:01:00,451.0,0.5,{token},1\n"
        with pytest.raises(CsvParseError, match=r"line 3.*bad verdict"):
            self.read(tmp_path, self.HEADER + self.GOOD + bad)

    @pytest.mark.parametrize("token", ["2", "-1", "yes"])
    def test_label_other_than_0_or_1_rejected(self, tmp_path, token):
        bad = f"2018-01-01T00:01:00,451.0,0.5,1,{token}\n"
        with pytest.raises(CsvParseError, match=r"line 3.*bad label"):
            self.read(tmp_path, self.HEADER + self.GOOD + bad)

    @pytest.mark.parametrize(
        "header",
        [
            "timestamp,value,loss,verdict,foo",
            "timestamp,value,loss,verdict,label,extra",
            "timestamp,value,loss",
            "time,value,loss,verdict",
            "",
        ],
    )
    def test_header_other_than_the_report_columns_rejected(self, tmp_path, header):
        with pytest.raises(CsvParseError, match=r"line 1.*timestamp,value,loss,verdict\[,label\]"):
            self.read(tmp_path, header + "\n" + self.GOOD)

    def test_padded_header_accepted(self, tmp_path):
        report = self.read(tmp_path, " timestamp, value ,loss,verdict , label\n" + self.GOOD)
        assert report.labels.tolist() == [0]

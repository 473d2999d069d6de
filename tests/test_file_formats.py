"""Every file writer against literal bytes, so a change to how files are
written cannot pass by agreeing with itself. Writers that live inside a
CLI command run through `cli.main` on a hand-made workspace, with
`detector.fit` and `detector.detect` replaced where their numbers would
otherwise come from training."""

import json
import os

import numpy as np
import pytest

from seqad import cli, detector, pipeline, seq_autoencoder
from seqad.pipeline import TimeSeries, parse_timestamp

T0 = parse_timestamp("2018-01-01T00:00:00")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def workspace(tmp_path):
    """train.csv, a labelled test.csv and an identity scaler.json."""
    out = str(tmp_path / "ws")
    os.makedirs(out)
    steps = np.arange(8) * 60.0
    pipeline.write_series_csv(os.path.join(out, "train.csv"), TimeSeries(T0 + steps, steps / 600.0))
    pipeline.write_series_csv(
        os.path.join(out, "test.csv"),
        TimeSeries(T0 + 600.0 + steps[:4], [0.1, 0.2, 0.3, 0.4], [0, 1, 0, 1]),
    )
    with open(os.path.join(out, "scaler.json"), "w") as fh:
        json.dump({"mean": 0.0, "std": 1.0}, fh)
    return out


def fitted_model(window):
    model = seq_autoencoder.build_model("1x4", timesteps=window, seed=0)
    model.threshold = seq_autoencoder.ThresholdRecord(value=0.5, train_points=8, window_len=window)
    return model


def write_labelled_report(out):
    """A report.csv with one point of each confusion cell but FP, and a
    tie in the losses."""
    with open(os.path.join(out, "report.csv"), "w") as fh:
        fh.write(
            "timestamp,value,loss,verdict,label\n"
            "2018-01-01T00:00:00,1.0,0.5,1,1\n"
            "2018-01-01T00:01:00,2.0,0.25,0,0\n"
            "2018-01-01T00:02:00,3.0,0.25,0,1\n"
            "2018-01-01T00:03:00,4.0,0.125,0,0\n"
        )


class TestWriterBytes:
    @pytest.mark.parametrize("with_labels", [False, True])
    def test_series_csv(self, tmp_path, with_labels):
        series = TimeSeries(
            [T0, T0 + 0.25], [450.0, -0.1], [0, 1] if with_labels else None
        )
        path = str(tmp_path / "series.csv")
        pipeline.write_series_csv(path, series)
        if with_labels:
            expected = (
                b"timestamp,value,label\n"
                b"2018-01-01T00:00:00,450.0,0\n"
                b"2018-01-01T00:00:00.250000,-0.1,1\n"
            )
        else:
            expected = (
                b"timestamp,value\n"
                b"2018-01-01T00:00:00,450.0\n"
                b"2018-01-01T00:00:00.250000,-0.1\n"
            )
        assert read_bytes(path) == expected

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_report_csv(self, tmp_path, with_labels):
        report = pipeline.DetectionReport(
            timestamps=np.array([T0, T0 + 60.5]),
            values=np.array([450.0, 612.5]),
            losses=np.array([0.125, 2.5]),
            verdicts=np.array([0, 1]),
            labels=np.array([0, 1]) if with_labels else None,
        )
        path = str(tmp_path / "report.csv")
        pipeline.write_report_csv(path, report)
        if with_labels:
            expected = (
                b"timestamp,value,loss,verdict,label\n"
                b"2018-01-01T00:00:00,450.0,0.125,0,0\n"
                b"2018-01-01T00:01:00.500000,612.5,2.5,1,1\n"
            )
        else:
            expected = (
                b"timestamp,value,loss,verdict\n"
                b"2018-01-01T00:00:00,450.0,0.125,0\n"
                b"2018-01-01T00:01:00.500000,612.5,2.5,1\n"
            )
        assert read_bytes(path) == expected

    def test_training_trace_csv(self, workspace, monkeypatch):
        trace = seq_autoencoder.TrainTrace(train_loss=[0.5, 0.25], val_loss=[0.375, float("nan")])
        monkeypatch.setattr(detector, "fit", lambda windows, arch, cfg: (fitted_model(3), trace))
        assert cli.main(["train", "--out", workspace, "--window", "3", "--arch", "1x4"]) == 0
        assert read_bytes(os.path.join(workspace, "training_trace.csv")) == (
            b"epoch,train_loss,val_loss\n"
            b"1,0.5,0.375\n"
            b"2,0.25,nan\n"
        )

    def test_roc_csv_and_evaluation_json(self, workspace):
        write_labelled_report(workspace)
        assert cli.main(["evaluate", "--out", workspace]) == 0
        assert read_bytes(os.path.join(workspace, "roc.csv")) == (
            b"threshold,fpr,tpr\n"
            b"inf,0.0,0.0\n"
            b"0.5,0.0,0.5\n"
            b"0.25,0.5,1.0\n"
            b"0.125,1.0,1.0\n"
        )
        assert read_bytes(os.path.join(workspace, "evaluation.json")) == (
            b'{\n  "confusion": {\n    "tp": 1,\n    "tn": 2,\n    "fp": 0,\n    "fn": 1\n  },\n'
            b'  "accuracy": 0.75,\n  "precision": 1.0,\n  "recall": 0.5,\n'
            b'  "f1": 0.6666666666666666,\n  "fpr": 0.0,\n  "auc": 0.875\n}\n'
        )

    def test_evaluate_stdout(self, workspace, capsys):
        write_labelled_report(workspace)
        assert cli.main(["evaluate", "--out", workspace]) == 0
        assert capsys.readouterr().out == (
            "confusion              TP=1 TN=2 FP=0 FN=1\n"
            "accuracy               75.00\n"
            "precision              100.00\n"
            "recall                 50.00\n"
            "f1                     66.67\n"
            "fpr                    0.00\n"
            "auc                    87.50\n"
        )

    def test_sweep_csv_with_undefined_metric(self, workspace, monkeypatch):
        # nothing flagged: precision and F1 have a zero denominator
        def flag_nothing(model, series, scaler):
            return pipeline.DetectionReport(
                timestamps=series.timestamps,
                values=series.values,
                losses=series.values.copy(),
                verdicts=np.zeros(len(series), dtype=np.int64),
                labels=series.labels,
            )

        monkeypatch.setattr(detector, "fit", lambda windows, arch, cfg: (fitted_model(3), None))
        monkeypatch.setattr(detector, "detect", flag_nothing)
        code = cli.main(
            ["sweep", "--out", workspace, "--sweep-windows", "3", "--sweep-archs", "1x4"]
        )
        assert code == 0
        assert read_bytes(os.path.join(workspace, "sweep.csv")) == (
            b"window,arch,threshold,accuracy,precision,recall,f1,auc\n"
            b"3,1x4,0.5,0.5,,0.0,,0.75\n"
        )

    def test_anomalies_csv(self, tmp_path):
        # a spike rate of 1 marks every point, whatever the random stream
        out = str(tmp_path / "synth")
        argv = ["synth", "--out", out, "--length", "3", "--spike-rate", "1", "--step-minutes", "0.0125"]
        assert cli.main(argv) == 0
        assert read_bytes(os.path.join(out, "anomalies.csv")) == (
            b"index,timestamp\n"
            b"0,2018-01-01T00:00:00\n"
            b"1,2018-01-01T00:00:00.750000\n"
            b"2,2018-01-01T00:00:01.500000\n"
        )

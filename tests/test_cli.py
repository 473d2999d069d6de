import json
import math
import os
import shutil

import numpy as np
import pytest

from seqad import cli, detector, pipeline, seq_autoencoder
from seqad.pipeline import format_timestamp, parse_timestamp, read_series_csv
from seqad.windowing import make_windows


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def copy_workspace(workspace, tmp_path):
    """A private copy of the shared workspace, for tests that change it."""
    out = str(tmp_path / "ws")
    shutil.copytree(workspace, out)
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full tiny pipeline: synth -> preprocess -> train -> detect -> evaluate."""
    out = str(tmp_path_factory.mktemp("ws"))
    base = [
        "--out", out, "--seed", "9",
    ]
    assert cli.main(["synth", *base, "--length", "700", "--spike-rate", "0.02"]) == 0
    assert cli.main([
        "preprocess", *base, "--input", os.path.join(out, "synthetic.csv"),
    ]) == 0
    assert cli.main(["train", *base, "--window", "6", "--epochs", "2"]) == 0
    assert cli.main(["detect", *base]) == 0
    assert cli.main(["evaluate", *base]) == 0
    return out


class TestEndToEnd:
    def test_all_artifacts_exist(self, workspace):
        for name in (
            "synthetic.csv", "anomalies.csv", "train.csv", "test.csv", "scaler.json",
            "model.json", "training_trace.csv", "report.csv", "detection_summary.json",
            "roc.csv", "evaluation.json",
        ):
            assert os.path.exists(os.path.join(workspace, name)), name

    def test_preprocess_accounting_partitions(self, workspace, capsys):
        code, out, _ = run(
            capsys, "preprocess", "--out", workspace,
            "--input", os.path.join(workspace, "synthetic.csv"),
        )
        assert code == 0
        stats = {}
        for line in out.splitlines():
            key, _, value = line.rpartition(" ")
            stats[key.strip()] = value
        assert (
            int(stats["train rows kept"])
            + int(stats["train rows dropped"])
            + int(stats["test rows"])
            == int(stats["cleaned rows"])
        )

    def test_trace_has_one_row_per_epoch(self, workspace):
        with open(os.path.join(workspace, "training_trace.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + 2  # header + 2 epochs

    def test_report_columns(self, workspace):
        with open(os.path.join(workspace, "report.csv")) as fh:
            header = fh.readline().strip()
        assert header == "timestamp,value,loss,verdict,label"

    def test_summary_consistent_with_report(self, workspace):
        with open(os.path.join(workspace, "detection_summary.json")) as fh:
            summary = json.load(fh)
        test_rows = len(read_series_csv(os.path.join(workspace, "test.csv")))
        assert summary["test_points"] == test_rows
        assert set(summary["confusion"]) == {"tp", "tn", "fp", "fn"}

    def test_evaluation_json_and_roc(self, workspace):
        with open(os.path.join(workspace, "evaluation.json")) as fh:
            ev = json.load(fh)
        assert 0.0 <= ev["auc"] <= 1.0
        with open(os.path.join(workspace, "roc.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].startswith("inf,0.0,0.0")
        assert lines[-1].endswith(",1.0,1.0")

    def test_evaluate_prints_percent_metrics(self, workspace, capsys):
        code, out, _ = run(capsys, "evaluate", "--out", workspace)
        assert code == 0
        assert any(line.startswith("accuracy") for line in out.splitlines())

    def test_evaluate_reads_only_the_report(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        for name in ("detection_summary.json", "evaluation.json", "roc.csv"):
            os.remove(os.path.join(out, name))
        code, _, _ = run(capsys, "evaluate", "--out", out)
        assert code == 0
        for name in ("evaluation.json", "roc.csv"):
            with open(os.path.join(out, name), "rb") as ours, open(
                os.path.join(workspace, name), "rb"
            ) as theirs:
                assert ours.read() == theirs.read(), name


class TestSweep:
    def test_one_row_per_configuration(self, workspace, capsys):
        code, out, _ = run(
            capsys, "sweep", "--out", workspace,
            "--sweep-windows", "5,8", "--sweep-archs", "1x16",
            "--epochs", "1", "--seed", "9",
        )
        assert code == 0
        with open(os.path.join(workspace, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "window,arch,threshold,accuracy,precision,recall,f1,auc"
        assert len(lines) == 1 + 2
        assert lines[1].startswith("5,1x16,") and lines[2].startswith("8,1x16,")

    def test_row_matches_train_then_detect(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        base = ["--out", out, "--seed", "9"]
        code, _, _ = run(
            capsys, "sweep", *base, "--sweep-windows", "5", "--sweep-archs", "1x16", "--epochs", "1"
        )
        assert code == 0
        assert run(capsys, "train", *base, "--window", "5", "--epochs", "1")[0] == 0
        assert run(capsys, "detect", *base)[0] == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            row = fh.read().splitlines()[1].split(",")
        model = seq_autoencoder.load_model(os.path.join(out, "model.json"))
        with open(os.path.join(out, "detection_summary.json")) as fh:
            summary = json.load(fh)
        assert float(row[2]) == model.threshold.value
        assert float(row[6]) == summary["metrics"]["f1"]


class TestDeterminism:
    def test_synth_twice_byte_identical(self, tmp_path, capsys):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert cli.main(["synth", "--out", out, "--seed", "4", "--length", "300"]) == 0
        for name in ("synthetic.csv", "anomalies.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, open(
                os.path.join(out_b, name), "rb"
            ) as fb:
                assert fa.read() == fb.read()


class TestConfigFile:
    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("length = 100\nseed = 1\n# comment\n")
        out = str(tmp_path / "o")
        assert cli.main(["synth", "--config", str(cfg), "--out", out, "--length", "150"]) == 0
        assert len(read_series_csv(os.path.join(out, "synthetic.csv"))) == 150

    def test_config_value_used_when_no_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("length = 120\n")
        out = str(tmp_path / "o")
        assert cli.main(["synth", "--config", str(cfg), "--out", out]) == 0
        assert len(read_series_csv(os.path.join(out, "synthetic.csv"))) == 120

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("windowlength = 10\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path))
        assert code == cli.EXIT_CONFIG
        assert "windowlength" in err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("length = ten\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path))
        assert code == cli.EXIT_CONFIG


class TestErrorCodes:
    def test_missing_header_is_data_error_naming_expected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,co2\n2018-01-01T00:00:00,400\n")
        code, _, err = run(
            capsys, "preprocess", "--out", str(tmp_path), "--input", str(bad)
        )
        assert code == cli.EXIT_DATA
        assert "timestamp,value" in err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "empty"))
        assert code == cli.EXIT_DATA

    def test_missing_preprocess_input_is_data_error_naming_path(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run(capsys, "preprocess", "--out", str(tmp_path / "o"), "--input", missing)
        assert code == cli.EXIT_DATA
        assert missing in err

    def test_non_utf8_input_is_data_error_naming_path(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"timestamp,value\n2018-01-01T00:00:00,4\xff0\n")
        code, _, err = run(capsys, "preprocess", "--out", str(tmp_path / "o"), "--input", str(path))
        assert code == cli.EXIT_DATA
        assert str(path) in err

    def test_evaluate_without_report_is_data_error(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        os.remove(os.path.join(out, "report.csv"))
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        assert os.path.join(out, "report.csv") in err and "run detect first" in err

    def test_missing_model_file_is_data_error(self, workspace, tmp_path, capsys):
        code, _, err = run(
            capsys, "detect", "--out", workspace, "--model", str(tmp_path / "nope.json")
        )
        assert code == cli.EXIT_DATA

    def test_corrupt_scaler_is_data_error(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "broken")
        shutil.copytree(workspace, out)
        with open(os.path.join(out, "scaler.json"), "w") as fh:
            json.dump({"mean": 450.0, "std": 0.0}, fh)
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA

    def test_single_class_labels_fail_evaluation_cleanly(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "oneclass")
        shutil.copytree(workspace, out)
        report_path = os.path.join(out, "report.csv")
        with open(report_path) as fh:
            lines = fh.read().splitlines()
        rewritten = [lines[0]] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]
        with open(report_path, "w") as fh:
            fh.write("\n".join(rewritten) + "\n")
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA

    def test_bad_arch_is_config_error(self, tmp_path, workspace, capsys):
        out = copy_workspace(workspace, tmp_path)
        code, _, err = run(
            capsys, "train", "--out", out, "--arch", "2x64", "--epochs", "0"
        )
        assert code == cli.EXIT_CONFIG
        assert not os.path.exists(os.path.join(out, "model.json"))

    def test_no_input_given_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "preprocess", "--out", str(tmp_path))
        assert code == cli.EXIT_CONFIG

    def test_bad_split_fraction_is_config_error(self, workspace, tmp_path, capsys):
        code, _, err = run(
            capsys, "preprocess", "--out", str(tmp_path),
            "--input", os.path.join(workspace, "synthetic.csv"),
            "--split-fraction", "1.5",
        )
        assert code == cli.EXIT_CONFIG

    def test_zero_window_is_config_error(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        code, _, err = run(capsys, "train", "--out", out, "--window", "0")
        assert code == cli.EXIT_CONFIG

    def test_bad_sweep_list_is_config_error(self, workspace, capsys):
        code, _, err = run(capsys, "sweep", "--out", workspace, "--sweep-windows", "10,zero")
        assert code == cli.EXIT_CONFIG

    def test_diverging_training_is_config_error_and_saves_no_model(self, workspace, tmp_path, capsys):
        out = tmp_path / "diverge"
        out.mkdir()
        for name in ("train.csv", "test.csv", "scaler.json"):
            shutil.copy(os.path.join(workspace, name), out / name)
        code, _, _ = run(capsys, "train", "--out", str(out), "--window", "6", "--epochs", "1")
        assert code == 0
        assert (out / "model.json").exists()
        code, _, err = run(
            capsys, "train", "--out", str(out), "--window", "6",
            "--epochs", "3", "--learning-rate", "1e6",
        )  # fmt: skip
        assert code == cli.EXIT_CONFIG
        assert "diverged" in err and "epoch 3" in err and "MAE" in err and "1000000.0" in err
        assert not (out / "model.json").exists()
        assert not (out / "training_trace.csv").exists()
        code, _, err = run(capsys, "detect", "--out", str(out))
        assert code == cli.EXIT_DATA
        assert "model.json" in err
        code, _, _ = run(
            capsys, "train", "--out", str(out), "--window", "6",
            "--epochs", "3", "--learning-rate", "1.0",
        )  # fmt: skip
        assert code == 0
        assert (out / "model.json").exists()

    def test_infinite_value_is_data_error_naming_line(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        rows = ["timestamp,value"]
        rows += [f"2018-01-01T00:{minute:02d}:00,{400 + minute}" for minute in range(40)]
        rows[21] = "2018-01-01T00:20:00,inf"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "preprocess", "--out", str(tmp_path / "o"), "--input", str(path))
        assert code == cli.EXIT_DATA
        assert "line 22" in err and "non-finite" in err


class TestStoredThreshold:
    def test_stored_value_is_the_training_windows_max_loss(self, workspace):
        model = seq_autoencoder.load_model(os.path.join(workspace, "model.json"))
        train = read_series_csv(os.path.join(workspace, "train.csv"))
        with open(os.path.join(workspace, "scaler.json")) as fh:
            doc = json.load(fh)
        scaler = pipeline.ScalerParams(mean=doc["mean"], std=doc["std"])
        windows = make_windows(pipeline.apply_scaler(train.values, scaler), model.timesteps)
        fitted = detector.fit_threshold(model, windows)
        assert model.threshold.value == fitted.value
        assert model.threshold.train_points == fitted.train_points == len(train)
        assert model.threshold.window_len == fitted.window_len == 6
        with open(os.path.join(workspace, "detection_summary.json")) as fh:
            summary = json.load(fh)
        assert summary["threshold"] == fitted.value
        assert (summary["train_points"], summary["window"]) == (len(train), 6)
        assert summary["model_digest"] == seq_autoencoder.model_digest(model)

    def test_detect_reads_no_training_series(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        os.remove(os.path.join(out, "train.csv"))
        code, _, _ = run(capsys, "detect", "--out", out)
        assert code == 0
        for name in ("report.csv", "detection_summary.json"):
            with open(os.path.join(out, name), "rb") as ours, open(
                os.path.join(workspace, name), "rb"
            ) as theirs:
                assert ours.read() == theirs.read(), name

    def test_model_from_another_workspace_brings_its_threshold(self, workspace, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        with open(os.path.join(workspace, "train.csv")) as fh:
            lines = fh.read().splitlines()
        (other / "train.csv").write_text("\n".join(lines[:301]) + "\n")
        shutil.copy(os.path.join(workspace, "scaler.json"), other / "scaler.json")
        code, _, _ = run(
            capsys, "train", "--out", str(other), "--window", "4", "--epochs", "1", "--seed", "3"
        )
        assert code == 0
        out = copy_workspace(workspace, tmp_path)
        code, _, _ = run(capsys, "detect", "--out", out, "--model", str(other / "model.json"))
        assert code == 0
        model = seq_autoencoder.load_model(str(other / "model.json"))
        with open(os.path.join(out, "detection_summary.json")) as fh:
            summary = json.load(fh)
        assert summary["threshold"] == model.threshold.value
        assert (summary["train_points"], summary["window"]) == (300, 4)
        assert summary["model_digest"] == seq_autoencoder.model_digest(model)


class TestSubSecondTimestamps:
    def test_train_timestamps_stay_distinct(self, tmp_path, capsys):
        path = tmp_path / "fast.csv"
        start = parse_timestamp("2018-01-01T00:00:00")
        rows = ["timestamp,value"]
        for k in range(400):
            stamp = format_timestamp(start + k * 0.1)
            rows.append(f"{stamp},{400 + 50 * math.sin(k / 10)}")
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        code, _, _ = run(capsys, "preprocess", "--out", str(out), "--input", str(path))
        assert code == 0
        train = read_series_csv(str(out / "train.csv"))
        assert len(train) == 300
        assert len(np.unique(train.timestamps)) == 300


class TestDuplicateReporting:
    def test_duplicate_rows_counted(self, tmp_path, capsys):
        path = tmp_path / "dups.csv"
        rows = ["timestamp,value"]
        for minute in range(40):
            rows.append(f"2018-01-01T00:{minute:02d}:00,{400 + minute}")
        for _ in range(10):
            rows.append("2018-01-01T00:00:00,999")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "preprocess", "--out", str(tmp_path / "o"), "--input", str(path),
            "--split-fraction", "0.5",
        )
        assert code == 0
        assert any(
            line.startswith("duplicates removed") and line.split()[-1] == "10"
            for line in out.splitlines()
        )

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from model_files import rewrite_model_file, with_entry, write_v3_model_file
from seqad import cli, detector, pipeline, seq_autoencoder
from seqad.errors import ShapeError
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


def edit_rows(path, edit):
    """Rewrite the CSV at `path` with its data rows replaced by `edit(rows)`."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([header, *edit(rows)]) + "\n")


# each scoring stage's flags for a quick run on the shared workspace, and its outputs
QUICK_RUN = {
    "train": (["--epochs", "1"], ["model.json", "training_trace.csv"]),
    "detect": ([], ["report.csv", "detection_summary.json"]),
    "sweep": (["--sweep-windows", "6", "--epochs", "1"], ["sweep.csv"]),
}


def file_bytes(directory):
    """The bytes of every file in `directory`, by name."""
    return {path.name: path.read_bytes() for path in Path(directory).iterdir()}


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

    def test_default_blas_threads_write_the_bytes_of_one_thread(self, tmp_path, capsys):
        # the short final batch of a wide model's epoch gave other bytes on
        # two BLAS threads than on one; importing cli pins this process's
        # variables too, so each child's environment is built here
        out = str(tmp_path / "ws")
        assert cli.main(["synth", "--out", out, "--seed", "3", "--length", "4000"]) == 0
        argv = ["preprocess", "--out", out, "--input", os.path.join(out, "synthetic.csv")]
        assert cli.main(argv) == 0
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in blas}
        models = []
        for name, env in (("unset", unset), ("one", {**unset, **dict.fromkeys(blas, "1")})):
            models.append(os.path.join(out, f"{name}.json"))
            done = subprocess.run(
                [sys.executable, "-m", "seqad.cli", "train", "--out", out, "--model", models[-1],
                 "--arch", "2x64-16", "--epochs", "1"],
                env={**env, "PYTHONPATH": src}, capture_output=True, timeout=300,
            )  # fmt: skip
            assert done.returncode == 0, done.stderr
        with open(models[0], "rb") as fa, open(models[1], "rb") as fb:
            assert fa.read() == fb.read()


class TestImportScope:
    MODELS = ["seqad.seq_autoencoder", "seqad.lstm", "seqad.detector", "seqad.windowing", "hashlib"]

    def loaded(self, argv, names):
        """Which of `names` a successful `cli.main(argv)` leaves in sys.modules,
        in a fresh interpreter: this suite has imported every module already."""
        code = (
            "import sys\n"
            "from seqad import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"print([name for name in {names!r} if name in sys.modules])\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_preprocess_loads_no_model_module(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rows = [f"2018-01-01T00:{minute:02d}:00,{400 + minute % 7}" for minute in range(40)]
        raw.write_text("\n".join(["timestamp,value", *rows]) + "\n")
        argv = ["preprocess", "--out", str(tmp_path / "o"), "--input", str(raw)]
        assert self.loaded(argv, [*self.MODELS, "seqad.metrics"]) == "[]"

    def test_evaluate_loads_no_model_module(self, workspace, tmp_path):
        out = copy_workspace(workspace, tmp_path)
        assert self.loaded(["evaluate", "--out", out], self.MODELS) == "[]"


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
        assert f"{cfg} line 1: unknown config key 'windowlength'" in err

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("length = ten\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path))
        assert code == cli.EXIT_CONFIG
        message = f"{cfg} line 1: bad value 'ten' for config key 'length' (expected int)"
        assert err == f"config error: {message}\n"


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
        out = copy_workspace(workspace, tmp_path)  # a failed detect removes its report
        code, _, err = run(capsys, "detect", "--out", out, "--model", str(tmp_path / "nope.json"))
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

    @pytest.mark.parametrize(
        "stage, name, field, token",
        [
            ("detect", "test.csv", "value", "nan"),
            ("detect", "test.csv", "timestamp", "nan"),
            ("train", "train.csv", "value", "nan"),
            ("train", "train.csv", "timestamp", ""),
        ],
        ids=[
            "detect-test.csv-value", "detect-test.csv-timestamp", "train-train.csv-value",
            "train-train.csv-empty-timestamp",
        ],  # fmt: skip
    )
    def test_nan_in_workspace_series_is_data_error_naming_row(
        self, workspace, tmp_path, capsys, stage, name, field, token
    ):
        # preprocess writes no NaN, so one in its output is a damaged file
        out = copy_workspace(workspace, tmp_path)
        path = os.path.join(out, name)

        def edit(rows):
            fields = rows[4].split(",")
            fields[0 if field == "timestamp" else 1] = token
            return [*rows[:4], ",".join(fields), *rows[5:]]

        edit_rows(path, edit)
        extra, outputs = QUICK_RUN[stage]
        code, _, err = run(capsys, stage, "--out", out, *extra)
        assert code == cli.EXIT_DATA
        assert f"{path} data row 5 has a NaN {field}; rerun preprocess" in err
        for output in outputs:
            assert not os.path.exists(os.path.join(out, output)), output

    @pytest.mark.parametrize(
        "stage, name, edit, row",
        [
            ("train", "train.csv", lambda rows: rows[:5] + rows[4:], 6),
            ("detect", "test.csv", lambda rows: rows[::-1], 2),
            ("sweep", "test.csv", lambda rows: [*rows[:9], rows[10], rows[9], *rows[11:]], 11),
        ],
        ids=["train-repeated-row", "detect-reversed", "sweep-swapped-rows"],
    )
    def test_workspace_series_out_of_time_order_is_data_error_naming_its_data_row(
        self, workspace, tmp_path, capsys, monkeypatch, stage, name, edit, row
    ):
        # preprocess writes strictly increasing timestamps; detect once scored a
        # reversed test.csv, and train trained on a repeated row, both exiting 0
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        path = os.path.join(out, name)
        edit_rows(path, edit)
        extra, outputs = QUICK_RUN[stage]
        code, _, err = run(capsys, stage, "--out", out, *extra)
        assert code == cli.EXIT_DATA
        problem = "has a timestamp not after the row before it; rerun preprocess"
        assert f"{path} data row {row} {problem}" in err
        for output in outputs:
            assert not os.path.exists(os.path.join(out, output)), output

    @pytest.mark.parametrize(
        "stage, name",
        [
            ("train", "train.csv"),
            ("detect", "test.csv"),
            ("sweep", "train.csv"),
            ("sweep", "test.csv"),
        ],
        ids=["train-train.csv", "detect-test.csv", "sweep-train.csv", "sweep-test.csv"],
    )
    def test_bad_cell_in_workspace_series_is_data_error_naming_file_and_line(
        self, workspace, tmp_path, capsys, monkeypatch, stage, name
    ):
        # the message once named only the line, though sweep reads two files
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        path = os.path.join(out, name)

        def edit(rows):
            fields = rows[3].split(",")
            fields[1] = "zz"
            return [*rows[:3], ",".join(fields), *rows[4:]]

        edit_rows(path, edit)
        extra, outputs = QUICK_RUN[stage]
        code, out_text, err = run(capsys, stage, "--out", out, *extra)
        assert code == cli.EXIT_DATA
        assert (out_text, err) == ("", f"data error: {path} line 5: bad value 'zz'\n")
        for output in outputs:
            assert not os.path.exists(os.path.join(out, output)), output

    @pytest.mark.parametrize(
        "doc", [{"mean": "450", "std": 1.0}, {"mean": True, "std": 1.0}, {"mean": 0.0, "std": "1"}]
    )
    def test_scaler_number_of_wrong_json_type_is_data_error_naming_key(
        self, workspace, tmp_path, capsys, doc
    ):
        out = copy_workspace(workspace, tmp_path)
        with open(os.path.join(out, "scaler.json"), "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        bad = next(key for key, value in doc.items() if type(value) is not float)
        assert repr(bad) in err and os.path.join(out, "scaler.json") in err

    def test_scaler_path_that_is_a_directory_is_data_error_naming_path(
        self, workspace, tmp_path, capsys
    ):
        out = copy_workspace(workspace, tmp_path)
        scaler_path = os.path.join(out, "scaler.json")
        os.remove(scaler_path)
        os.mkdir(scaler_path)
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        assert scaler_path in err

    def test_non_utf8_config_is_config_error_naming_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\xff\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_CONFIG
        assert str(cfg) in err

    def test_non_finite_report_loss_fails_evaluate_naming_line(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        report_path = os.path.join(out, "report.csv")
        with open(report_path) as fh:
            lines = fh.read().splitlines()
        fields = lines[3].split(",")
        fields[2] = "nan"
        lines[3] = ",".join(fields)
        with open(report_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        assert "line 4" in err and "non-finite loss" in err

    @pytest.mark.parametrize("bad_time_line, bad_value_line", [(3, 6), (6, 3)])
    def test_first_bad_report_line_fails_evaluate_whatever_its_kind(
        self, workspace, tmp_path, capsys, bad_time_line, bad_value_line
    ):
        out = copy_workspace(workspace, tmp_path)

        def edit(lines):
            for line, column, text in ((bad_time_line, 0, "soon"), (bad_value_line, 1, "lots")):
                fields = lines[line - 1].split(",")
                fields[column] = text
                lines[line - 1] = ",".join(fields)
            return lines

        rewrite_lines(os.path.join(out, "report.csv"), edit)
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        first = "soon" if bad_time_line < bad_value_line else "lots"
        assert f"line {min(bad_time_line, bad_value_line)}: " in err and repr(first) in err

    def test_field_over_the_csv_limit_fails_preprocess_naming_line(self, tmp_path, capsys):
        # once an uncaught csv error, exit 1
        path = tmp_path / "long.csv"
        path.write_text(f"timestamp,value\n2018-01-01T00:00:00,{'1' * 200_000}\n")
        out = tmp_path / "o"
        code, _, err = run(capsys, "preprocess", "--out", str(out), "--input", str(path))
        assert code == cli.EXIT_DATA
        assert "line 2: field larger than field limit" in err
        assert not out.exists()

    def test_field_over_the_csv_limit_fails_evaluate_naming_line(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)

        def edit(lines):
            lines[4] = lines[4].replace(",", "," + "1" * 200_000, 1)
            return lines

        rewrite_lines(os.path.join(out, "report.csv"), edit)
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        assert "line 5: field larger than field limit" in err
        assert not os.path.exists(os.path.join(out, "roc.csv"))

    @pytest.mark.parametrize("key, value", [("step_minutes", "1e9"), ("noise_sigma", "1e308")])
    def test_synth_profile_it_cannot_write_is_config_error_naming_key(
        self, tmp_path, capsys, key, value
    ):
        # once a traceback after a partial synthetic.csv, or exit 0 after inf and nan values
        out = tmp_path / "o"
        flag = "--" + key.replace("_", "-")
        code, _, err = run(capsys, "synth", "--out", str(out), "--length", "50", flag, value)
        assert code == cli.EXIT_CONFIG
        assert key in err
        assert not out.exists()

    def test_instant_past_the_year_9999_is_data_error_naming_line(self, tmp_path, capsys):
        # once a traceback from writing train.csv, leaving it partial
        path = tmp_path / "late.csv"
        rows = [f"2018-01-01T00:{minute:02d}:00,{400 + minute}" for minute in range(40)]
        rows.append("9999-12-31T23:59:59-01:00,1")
        path.write_text("\n".join(["timestamp,value", *rows]) + "\n")
        out = tmp_path / "o"
        code, _, err = run(capsys, "preprocess", "--out", str(out), "--input", str(path))
        assert code == cli.EXIT_DATA
        assert "line 42" in err
        assert not out.exists()

    def test_split_instant_past_the_year_9999_is_config_error(self, workspace, tmp_path, capsys):
        source = os.path.join(workspace, "synthetic.csv")
        out = str(tmp_path / "o")
        late = "9999-12-31T23:59:59-01:00"
        code, _, err = run(capsys, "preprocess", "--out", out, "--input", source, "--split", late)
        assert code == cli.EXIT_CONFIG
        assert late in err

    def test_report_instant_past_the_year_9999_fails_evaluate_naming_line(
        self, workspace, tmp_path, capsys
    ):
        out = copy_workspace(workspace, tmp_path)
        report_path = os.path.join(out, "report.csv")
        with open(report_path) as fh:
            lines = fh.read().splitlines()
        lines[-1] = "9999-12-31T23:59:59-01:00," + lines[-1].split(",", 1)[1]
        with open(report_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        assert f"line {len(lines)}" in err
        assert not os.path.exists(os.path.join(out, "evaluation.json"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_float_is_config_error_naming_key(self, tmp_path, capsys, source, value):
        if source == "flag":
            extra = [f"--noise-sigma={value}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"noise_sigma = {value}\n")
            extra = ["--config", str(cfg)]
        out = tmp_path / "o"
        code, _, err = run(capsys, "synth", "--out", str(out), "--length", "50", *extra)
        assert code == cli.EXIT_CONFIG
        assert "noise_sigma" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_config_error_naming_key(self, workspace, tmp_path, capsys, source):
        # once a numpy ValueError traceback with exit 1
        out = copy_workspace(workspace, tmp_path)
        if source == "flag":
            extra = ["--seed", "-5"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -5\n")
            extra = ["--config", str(cfg)]
        model = os.path.join(out, "model.json")
        with open(model, "rb") as fh:
            before = fh.read()
        code, _, err = run(capsys, "train", "--out", out, "--epochs", "1", *extra)
        assert code == cli.EXIT_CONFIG
        assert "'seed' must be a non-negative integer, got -5" in err
        with open(model, "rb") as fh:
            assert fh.read() == before
        synth_out = tmp_path / "o"
        code, _, err = run(capsys, "synth", "--out", str(synth_out), "--length", "50", *extra)
        assert code == cli.EXIT_CONFIG
        assert "'seed'" in err
        assert not synth_out.exists()

    def test_scaler_that_overflows_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        # once exit 0 with a band of [-inf, inf] and "std": Infinity in scaler.json
        out = str(tmp_path / "big")
        argv = ["--out", out, "--length", "200", "--noise-sigma", "1e200", "--spike-rate", "0"]
        assert cli.main(["synth", *argv]) == 0
        code, _, err = run(
            capsys, "preprocess", "--out", out, "--input", os.path.join(out, "synthetic.csv")
        )
        assert code == cli.EXIT_DATA
        assert "overflows float64" in err
        for name in ("train.csv", "test.csv", "scaler.json"):
            assert not os.path.exists(os.path.join(out, name)), name

    @pytest.mark.parametrize(
        "stage, extra, outputs",
        [
            ("train", ["--epochs", "1"], ["model.json", "training_trace.csv"]),
            ("detect", [], ["report.csv", "detection_summary.json"]),
            ("sweep", ["--sweep-windows", "6", "--epochs", "1"], ["sweep.csv"]),
        ],
    )
    def test_subnormal_scaler_std_is_data_error_before_training_or_writing(
        self, workspace, tmp_path, capsys, monkeypatch, stage, extra, outputs
    ):
        # once detect exited 0 with every loss inf, and train and sweep exited 2
        # blaming the learning rate
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        with open(os.path.join(out, "scaler.json"), "w") as fh:
            json.dump({"mean": 452.38970947615906, "std": 1e-310}, fh)
        code, _, err = run(capsys, stage, "--out", out, *extra)
        assert code == cli.EXIT_DATA
        scaler = "mean 452.38970947615906 and std 1e-310"
        assert f"scaling by {scaler} overflows float64 at point 0" in err
        for name in outputs:
            assert not os.path.exists(os.path.join(out, name)), name

    @pytest.mark.parametrize("key, value", [("features", 2), ("kind", "other")])
    def test_model_of_other_feature_count_or_kind_is_data_error_naming_path_and_key(
        self, workspace, tmp_path, capsys, key, value
    ):
        # the load rejects it, so no stage ever scores with such a model
        out = copy_workspace(workspace, tmp_path)
        os.remove(os.path.join(out, "report.csv"))
        model_path = os.path.join(out, "model.json")
        rewrite_model_file(model_path, header=lambda doc: doc.update({key: value}))
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        assert model_path in err and f"{key!r} is {value!r}" in err
        assert not os.path.exists(os.path.join(out, "report.csv"))

    def test_non_finite_model_weight_is_data_error_and_writes_no_report(
        self, workspace, tmp_path, capsys
    ):
        out = copy_workspace(workspace, tmp_path)
        os.remove(os.path.join(out, "report.csv"))
        model_path = os.path.join(out, "model.json")
        rewrite_model_file(model_path, vector=with_entry(-2, float("nan")))  # a head weight
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        assert model_path in err and "non-finite" in err
        assert not os.path.exists(os.path.join(out, "report.csv"))

    def test_version_3_model_is_data_error_asking_to_retrain(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        model_path = os.path.join(out, "model.json")
        write_v3_model_file(seq_autoencoder.load_model(model_path), model_path)
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        assert model_path in err and "version 3" in err and "retrain the model" in err
        assert not os.path.exists(os.path.join(out, "report.csv"))

    @pytest.mark.parametrize("where", ["missing-directory", "existing-directory"])
    def test_unusable_model_path_is_data_error_naming_it(
        self, workspace, tmp_path, capsys, monkeypatch, where
    ):
        # once a traceback: from save_model after training, or from removing a directory;
        # the path is checked before training, not after every epoch
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        model_path = os.path.join(out, "nodir", "m.json")
        if where == "existing-directory":
            model_path = os.path.join(out, "adir")
            os.mkdir(model_path)
        code, _, err = run(capsys, "train", "--out", out, "--model", model_path, "--epochs", "1")
        assert code == cli.EXIT_DATA
        assert model_path in err
        assert not os.path.exists(f"{model_path}.tmp")

    def test_failed_detect_leaves_no_output_and_evaluate_fails(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        model_path = os.path.join(out, "model.json")
        rewrite_model_file(model_path, vector=with_entry(-1, float("nan")))  # the head bias
        code, _, _ = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        for name in ("report.csv", "detection_summary.json"):
            assert not os.path.exists(os.path.join(out, name)), name
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        assert "run detect first" in err

    def test_failed_evaluate_leaves_no_output(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        report_path = os.path.join(out, "report.csv")
        with open(report_path) as fh:
            lines = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]
        with open(report_path, "w") as fh:  # the report without its label column
            fh.write("\n".join(lines) + "\n")
        code, _, err = run(capsys, "evaluate", "--out", out)
        assert code == cli.EXIT_DATA
        assert "labels" in err
        for name in ("roc.csv", "evaluation.json"):
            assert not os.path.exists(os.path.join(out, name)), name

    def test_failed_sweep_leaves_no_table(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        with open(os.path.join(out, "sweep.csv"), "w") as fh:
            fh.write("window,arch,threshold,accuracy,precision,recall,f1,auc\n")
        code, _, _ = run(capsys, "sweep", "--out", out, "--sweep-archs", "2x64")
        assert code == cli.EXIT_CONFIG
        assert not os.path.exists(os.path.join(out, "sweep.csv"))


    def test_failed_preprocess_leaves_no_output_and_train_fails(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "ws")
        argv = ["preprocess", "--out", out, "--input", os.path.join(workspace, "synthetic.csv")]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        code, _, _ = run(capsys, *argv, "--sigma-k", "-1")
        assert code == cli.EXIT_CONFIG
        for name in ("train.csv", "test.csv", "scaler.json"):
            assert not os.path.exists(os.path.join(out, name)), name
        code, _, err = run(capsys, "train", "--out", out, "--epochs", "1")
        assert code == cli.EXIT_DATA
        assert "train.csv" in err and "run the earlier pipeline stages first" in err

    @pytest.mark.parametrize("name", ["train.csv", "test.csv", "scaler.json"])
    def test_preprocess_input_that_is_its_own_output_is_config_error(
        self, workspace, tmp_path, capsys, name
    ):
        out = copy_workspace(workspace, tmp_path)
        source = os.path.join(out, ".", name)
        with open(os.path.join(out, name), "rb") as fh:
            before = fh.read()
        code, _, err = run(capsys, "preprocess", "--out", out, "--input", source)
        assert code == cli.EXIT_CONFIG
        assert source in err
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == before

    @pytest.mark.parametrize(
        "stage, name",
        [
            ("train", "training_trace.csv"),
            ("train", "train.csv"),
            ("train", "scaler.json"),
            ("detect", "report.csv"),
            ("detect", "detection_summary.json"),
        ],
    )
    def test_model_path_that_is_one_of_the_stages_own_files_is_config_error(
        self, workspace, tmp_path, capsys, monkeypatch, stage, name
    ):
        # once the trace overwrote the model, or the stage deleted the file
        # before it read it; now the check comes before any file is removed
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        before = file_bytes(out)
        path = os.path.join(out, name)
        code, _, err = run(capsys, stage, "--out", out, "--model", path)
        assert code == cli.EXIT_CONFIG
        assert path in err
        assert file_bytes(out) == before

    def test_model_path_that_is_the_config_file_is_config_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # train once read the config, then wrote the model over it
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        path = os.path.join(out, "run.cfg")
        with open(path, "w") as fh:
            fh.write("seed = 9\n")
        before = file_bytes(out)
        code, _, err = run(capsys, "train", "--out", out, "--config", path, "--model", path)
        assert code == cli.EXIT_CONFIG
        assert path in err
        assert file_bytes(out) == before

    def test_model_whose_temp_file_is_the_config_file_is_config_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # save_model once wrote <model>.tmp over the config, then renamed it into the model
        monkeypatch.setattr(detector, "fit", lambda *a: pytest.fail("trained before the check"))
        out = copy_workspace(workspace, tmp_path)
        config = os.path.join(out, "run.cfg.tmp")
        with open(config, "w") as fh:
            fh.write("seed = 9\n")
        before = file_bytes(out)
        model = os.path.join(out, "run.cfg")
        code, _, err = run(capsys, "train", "--out", out, "--config", config, "--model", model)
        assert code == cli.EXIT_CONFIG
        assert config in err
        assert file_bytes(out) == before

    def test_failed_synth_leaves_no_output(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        code, _, _ = run(capsys, "synth", "--out", out, "--length", "1")
        assert code == cli.EXIT_CONFIG
        for name in ("synthetic.csv", "anomalies.csv"):
            assert not os.path.exists(os.path.join(out, name)), name


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


def write_messy_csv(path):
    """40 readings a minute apart with NaN and empty value tokens at
    minutes 7, 13 and 33, then a row with a NaN timestamp and a second
    reading at minute 20."""
    rows = ["timestamp,value"]
    for minute in range(40):
        value = {7: "nan", 13: "", 33: "NA"}.get(minute, str(400 + 3 * (minute % 5)))
        rows.append(f"2018-01-01T00:{minute:02d}:00,{value}")
    rows += ["nan,405", "2018-01-01T00:20:00,999"]
    path.write_text("\n".join(rows) + "\n")


class TestPreprocessAccounting:
    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                [],
                [
                    "rows read              42",
                    "invalid rows dropped   1",
                    "nan values zeroed      3",
                    "duplicates removed     1",
                    "cleaned rows           40",
                    "normal band            [176.1638, 581.5029] (k=2.0)",
                    "train rows kept        28",
                    "train rows dropped     2",
                    "test rows              10",
                ],
            ),
            (
                ["--strict-nan"],
                [
                    "rows read              42",
                    "invalid rows dropped   1",
                    "nan values dropped     3",
                    "duplicates removed     1",
                    "cleaned rows           37",
                    "normal band            [397.1292, 414.2042] (k=2.0)",
                    "train rows kept        27",
                    "train rows dropped     0",
                    "test rows              10",
                ],
            ),
        ],
        ids=["zeroed", "strict"],
    )
    def test_every_line_of_a_messy_csv(self, tmp_path, capsys, flags, expected):
        write_messy_csv(tmp_path / "messy.csv")
        out = str(tmp_path / "o")
        code, stdout, _ = run(
            capsys, "preprocess", "--out", out, "--input", str(tmp_path / "messy.csv"), *flags
        )
        assert code == 0
        assert stdout.splitlines() == expected
        assert len(read_series_csv(os.path.join(out, "train.csv"))) == int(expected[6].split()[-1])


def rewrite_lines(path, edit):
    """Replace the lines of the text file at `path` with `edit(lines)`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def nan_test_row(out):
    def edit(lines):
        lines[5] = lines[5].split(",")[0] + ",nan," + lines[5].rsplit(",", 1)[1]
        return lines

    rewrite_lines(os.path.join(out, "test.csv"), edit)


def unlabel(out, name):
    rewrite_lines(os.path.join(out, name), lambda lines: [line.rsplit(",", 1)[0] for line in lines])


class TestStageOutputs:
    # every stage's outputs, with the temp file the model is written through;
    # each case fails right after the stage clears its own
    OUTPUTS = {
        "preprocess": ("train.csv", "test.csv", "scaler.json"),
        "train": ("model.json", "model.json.tmp", "training_trace.csv"),
        "detect": ("report.csv", "detection_summary.json"),
        "evaluate": ("roc.csv", "evaluation.json"),
        "sweep": ("sweep.csv",),
        "synth": ("synthetic.csv", "anomalies.csv"),
    }

    @pytest.mark.parametrize(
        "stage, flags, edit, code",
        [
            ("preprocess", ["--input", "{out}/synthetic.csv", "--split-fraction", "2"], None, 2),
            ("train", ["--window", "0"], None, 2),
            ("detect", [], nan_test_row, 3),
            ("evaluate", [], lambda out: unlabel(out, "report.csv"), 3),
            ("sweep", ["--sweep-archs", ","], None, 2),
            ("synth", ["--length", "1"], None, 2),
        ],
        ids=list(OUTPUTS),
    )
    def test_failed_stage_clears_exactly_its_outputs(
        self, workspace, tmp_path, capsys, stage, flags, edit, code
    ):
        out = copy_workspace(workspace, tmp_path)
        for name in (name for names in self.OUTPUTS.values() for name in names):
            if not os.path.exists(os.path.join(out, name)):
                with open(os.path.join(out, name), "wb") as fh:
                    fh.write(b"placeholder\n")
        if edit is not None:
            edit(out)
        before = file_bytes(out)
        argv = [flag.format(out=out) for flag in flags]
        assert run(capsys, stage, "--out", out, *argv)[0] == code
        after = file_bytes(out)
        for name in self.OUTPUTS[stage]:
            assert name not in after, name
        kept = {name: data for name, data in before.items() if name not in self.OUTPUTS[stage]}
        assert after == kept


class TestValidationBranches:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--learning-rate", "0", "learning rate must be positive"),
            ("--dropout", "1", "dropout must be in [0, 1)"),
            ("--batch-size", "0", "batch size must be >= 1"),
            ("--epochs", "-1", "epochs must be >= 0"),
            ("--validation-fraction", "1", "validation fraction must be in [0, 1)"),
        ],
        ids=["learning-rate", "dropout", "batch-size", "epochs", "validation-fraction"],
    )
    def test_bad_training_setting_is_config_error_naming_it(
        self, workspace, tmp_path, capsys, flag, value, message
    ):
        out = copy_workspace(workspace, tmp_path)
        code, _, err = run(capsys, "train", "--out", out, "--window", "6", flag, value)
        assert code == cli.EXIT_CONFIG
        assert message in err
        assert not os.path.exists(os.path.join(out, "model.json"))

    def test_breaks_flatten_the_cycle_in_their_range(self, tmp_path, capsys):
        out = tmp_path / "o"
        code, _, _ = run(
            capsys, "synth", "--out", str(out), "--length", "300", "--breaks", "100:200",
            "--noise-sigma", "0", "--spike-rate", "0",
        )  # fmt: skip
        assert code == 0
        values = read_series_csv(str(out / "synthetic.csv")).values
        assert (values[100:200] == 450.0).all()
        outside = np.r_[0:100, 200:300]
        cycle = 450.0 + 80.0 * np.sin(2.0 * np.pi * outside / 1440.0)
        np.testing.assert_allclose(values[outside], cycle, rtol=1e-12)
        assert (values[outside[1:]] != 450.0).all()

    @pytest.mark.parametrize("breaks, named", [("5", "'5'"), ("3:1", "(3, 1)")])
    def test_bad_break_range_is_config_error_naming_it(self, tmp_path, capsys, breaks, named):
        out = tmp_path / "o"
        code, _, err = run(capsys, "synth", "--out", str(out), "--length", "50", "--breaks", breaks)
        assert code == cli.EXIT_CONFIG
        assert f"bad break range {named}" in err
        assert not (out / "synthetic.csv").exists()

    def test_bool_config_key_sets_strict_nan(self, tmp_path, capsys):
        write_messy_csv(tmp_path / "messy.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict_nan = yes\n")
        code, out, _ = run(
            capsys, "preprocess", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--input", str(tmp_path / "messy.csv"),
        )  # fmt: skip
        assert code == 0
        assert "nan values dropped     3" in out.splitlines()

    @pytest.mark.parametrize("spelling", ["no", "off", "0", "false"])
    def test_false_bool_spellings_in_a_config_file(self, tmp_path, capsys, spelling):
        write_messy_csv(tmp_path / "messy.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"strict_nan = {spelling}\n")
        code, out, _ = run(
            capsys, "preprocess", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--input", str(tmp_path / "messy.csv"),
        )  # fmt: skip
        assert code == 0
        assert "nan values zeroed      3" in out.splitlines()

    def test_flag_turns_off_a_config_files_strict_nan(self, tmp_path, capsys):
        write_messy_csv(tmp_path / "messy.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict_nan = yes\n")
        code, out, _ = run(
            capsys, "preprocess", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--input", str(tmp_path / "messy.csv"), "--no-strict-nan",
        )  # fmt: skip
        assert code == 0
        assert "nan values zeroed      3" in out.splitlines()

    def test_bad_bool_config_value_is_config_error_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict_nan = maybe\n")
        code, _, err = run(capsys, "preprocess", "--config", str(cfg), "--out", str(tmp_path))
        assert code == cli.EXIT_CONFIG
        assert "'strict_nan'" in err and "'maybe'" in err

    def test_config_line_without_equals_is_config_error_naming_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nlength 50\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_CONFIG
        assert f"{cfg} line 2: expected 'key = value'" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sweep-windows", "0", "sweep_windows entries must be >= 1"),
            ("--sweep-windows", ",", "sweep_windows list is empty"),
            ("--sweep-archs", ",", "sweep_archs list is empty"),
        ],
        ids=["zero-window", "no-windows", "no-archs"],
    )
    def test_bad_sweep_setting_is_config_error(
        self, workspace, tmp_path, capsys, flag, value, message
    ):
        out = copy_workspace(workspace, tmp_path)
        code, _, err = run(capsys, "sweep", "--out", out, flag, value)
        assert code == cli.EXIT_CONFIG
        assert message in err

    def test_sweep_of_unlabeled_test_series_is_data_error(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        unlabel(out, "test.csv")
        code, _, err = run(capsys, "sweep", "--out", out)
        assert code == cli.EXIT_DATA
        assert "test.csv has no labels" in err

    def test_sweep_of_one_class_test_series_fails_before_training(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        out = copy_workspace(workspace, tmp_path)
        rewrite_lines(
            os.path.join(out, "test.csv"),
            lambda lines: lines[:1] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]],
        )

        def no_fit(*args, **kwargs):
            raise AssertionError("sweep trained a model")

        monkeypatch.setattr(detector, "fit", no_fit)
        code, _, err = run(capsys, "sweep", "--out", out)
        assert code == cli.EXIT_DATA
        assert "ROC needs at least one positive and one negative label" in err
        assert not os.path.exists(os.path.join(out, "sweep.csv"))

    @pytest.mark.parametrize("side", ["test", "train"])
    def test_sweep_window_longer_than_a_series_fails_before_training(
        self, workspace, tmp_path, capsys, monkeypatch, side
    ):
        # once trained and printed the windows that fit, then failed on the longer one
        out = copy_workspace(workspace, tmp_path)
        path = os.path.join(out, f"{side}.csv")
        if side == "train":
            rewrite_lines(path, lambda lines: lines[:21])
        with open(path) as fh:
            rows = len(fh.readlines()) - 1

        def no_fit(*args, **kwargs):
            raise AssertionError("sweep trained a model")

        monkeypatch.setattr(detector, "fit", no_fit)
        code, stdout, err = run(capsys, "sweep", "--out", out, "--sweep-windows", f"5,{rows + 1}")
        assert code == cli.EXIT_DATA
        assert f"series of length {rows} is shorter than window length {rows + 1}" in err
        assert stdout == ""
        assert not os.path.exists(os.path.join(out, "sweep.csv"))

    @pytest.mark.parametrize("doc", [{"mean": 450.0}, [450.0, 30.0]], ids=["no-std", "list"])
    def test_malformed_scaler_is_data_error(self, workspace, tmp_path, capsys, doc):
        out = copy_workspace(workspace, tmp_path)
        with open(os.path.join(out, "scaler.json"), "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        assert f"malformed scaler file {os.path.join(out, 'scaler.json')}" in err

    def test_model_header_that_is_not_an_object_is_data_error(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        with open(os.path.join(out, "model.json"), "wb") as fh:
            fh.write(b"[1]\n")
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_DATA
        assert "the header line is not a JSON object" in err

    def test_detect_on_unlabeled_test_series_writes_no_metrics(self, workspace, tmp_path, capsys):
        out = copy_workspace(workspace, tmp_path)
        unlabel(out, "test.csv")
        code, _, _ = run(capsys, "detect", "--out", out)
        assert code == 0
        with open(os.path.join(out, "detection_summary.json")) as fh:
            summary = json.load(fh)
        assert "confusion" not in summary and "metrics" not in summary
        assert summary["test_points"] == len(read_series_csv(os.path.join(out, "test.csv")))

    def test_csv_row_of_wrong_width_is_data_error_naming_line(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        rows = [f"2018-01-01T00:{minute:02d}:00,{400 + minute}" for minute in range(40)]
        rows[9] += ",1,2"
        path.write_text("\n".join(["timestamp,value", *rows]) + "\n")
        code, _, err = run(capsys, "preprocess", "--out", str(tmp_path / "o"), "--input", str(path))
        assert code == cli.EXIT_DATA
        assert "line 11: expected 2 fields, got 4" in err

    def test_zero_sigma_k_is_data_error(self, workspace, tmp_path, capsys):
        code, _, err = run(
            capsys, "preprocess", "--out", str(tmp_path / "o"),
            "--input", os.path.join(workspace, "synthetic.csv"), "--sigma-k", "0",
        )  # fmt: skip
        assert code == cli.EXIT_DATA
        assert "sigma filter removed every training point" in err

    @pytest.mark.parametrize(
        "flag",
        ["--step-minutes=0", "--period-minutes=0", "--daily-amplitude=-1", "--spike-magnitude=-1"],
    )
    def test_bad_synth_profile_is_config_error(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        code, _, _ = run(capsys, "synth", "--out", str(out), "--length", "50", flag)
        assert code == cli.EXIT_CONFIG
        assert not out.exists()

    def test_shape_error_is_internal_error(self, workspace, tmp_path, capsys, monkeypatch):
        def detect(*args):
            raise ShapeError("broken invariant")

        monkeypatch.setattr(detector, "detect", detect)
        out = copy_workspace(workspace, tmp_path)
        code, _, err = run(capsys, "detect", "--out", out)
        assert code == cli.EXIT_INTERNAL
        assert err.startswith("internal error: broken invariant")

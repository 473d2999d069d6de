"""The benchmark tracer still runs against the program: every name a
module lists in `__all__` exists, and the spans and counters the
benchmark reads come out non-zero for `train` and `detect`."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from seqad import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def traced(tmp_path, stage, *argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spans = str(tmp_path / f"{stage}.npz")
    proc = subprocess.run(
        [sys.executable, str(TRACING), spans, stage, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = tracing.load(spans)
    own, calls, _ = tracing.summarise(doc)
    return own, calls, doc["counts"]


def test_train_and_detect_spans_and_counters(tmp_path):
    base = ["--out", str(tmp_path / "ws"), "--seed", "3"]
    assert cli.main(["synth", *base, "--length", "300"]) == 0
    raw = str(tmp_path / "ws" / "synthetic.csv")
    assert cli.main(["preprocess", *base, "--input", raw]) == 0

    own, calls, counts = traced(
        tmp_path, "train", *base, "--window", "5", "--arch", "1x4", "--epochs", "1"
    )
    for name in (
        "lstm.lstm_forward.encoder",
        "lstm.lstm_forward.decoder",
        "lstm.lstm_backward.encoder",
        "lstm.lstm_backward.decoder",
    ):
        assert calls.get(name, 0) > 0 and own[name] > 0, name
    for key in ("cell_steps", "gemm_flop", "windows_reconstructed", "refit_windows"):
        assert counts.get(key, 0) > 0, key

    own, calls, counts = traced(tmp_path, "detect", *base)
    assert calls.get("seq_autoencoder.load_model", 0) > 0
    assert own["seq_autoencoder.load_model"] > 0
    assert counts.get("windows_reconstructed", 0) > 0

"""Operator surface: preprocess -> train -> detect -> evaluate, plus a
sweep over window lengths and architectures and a synthetic-data
generator.

`train` fixes the max-loss threshold on the windows it trained on and
stores it in the model file; `detect` scores the test series against
that stored threshold and never reads the training series, so a
`--model` from another workspace brings its own threshold. `sweep`
fits and scores each configuration through the same `detector.fit`
and `detector.detect`, and `evaluate` reads only `report.csv`.

Configuration is a flat `key = value` text file; every key is also a
same-named command-line flag (dashes for underscores) and flags win.
All randomness flows from the single `seed` key through named
substreams. Exit codes: 0 success, 2 configuration error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import detector, metrics, pipeline, seq_autoencoder, windowing
from .errors import ConfigError, DataError, ToolkitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# every config-file key: type, default, help
KEYS = {
    "input": (str, None, "input CSV path (timestamp,value[,label])"),
    "out": (str, "out", "output directory"),
    "model": (str, None, "model file path (default <out>/model.json)"),
    "window": (int, 10, "sliding window length T"),
    "sigma_k": (float, 2.0, "sigma multiplier for the normal band"),
    "arch": (str, "1x16", "architecture tag: 1x16, 2x64-16, or 3x128-64-16"),
    "learning_rate": (float, 0.001, "Adam learning rate"),
    "dropout": (float, 0.2, "dropout rate during training"),
    "batch_size": (int, 64, "training mini-batch size"),
    "epochs": (int, 30, "training epochs"),
    "validation_fraction": (float, 0.10, "chronological tail held out for validation"),
    "seed": (int, 0, "master seed for init/dropout/shuffle/synth"),
    "strict_nan": (bool, False, "drop NaN-valued rows instead of zeroing them"),
    "split": (str, "", "train/test split instant (ISO-8601); overrides split_fraction"),
    "split_fraction": (float, 0.75, "fraction of the series used as the training period"),
    "sweep_windows": (str, "10,20", "comma-separated window lengths for sweep"),
    "sweep_archs": (str, "1x16", "comma-separated architecture tags for sweep"),
    "length": (int, 10_000, "synthetic series length"),
    "start": (str, "2018-01-01T00:00:00", "synthetic series start instant"),
    "step_minutes": (float, 1.0, "synthetic sampling interval in minutes"),
    "baseline": (float, 450.0, "synthetic baseline level"),
    "daily_amplitude": (float, 80.0, "synthetic daily-cycle amplitude"),
    "period_minutes": (float, 1440.0, "synthetic cycle period in minutes"),
    "noise_sigma": (float, 30.0, "synthetic gaussian noise sigma"),
    "spike_rate": (float, 0.01, "per-point probability of an injected spike"),
    "spike_magnitude": (float, 6.0, "spike height in multiples of the clean signal std"),
    "breaks": (str, "", "flat gaps as start:end index pairs, comma separated"),
}

_TRAIN_KEYS = [
    "learning_rate",
    "dropout",
    "batch_size",
    "epochs",
    "validation_fraction",
]

_COMMAND_KEYS = {
    "preprocess": ["input", "sigma_k", "split", "split_fraction", "strict_nan"],
    "train": ["model", "window", "arch", *_TRAIN_KEYS],
    "detect": ["model"],
    "evaluate": [],
    "sweep": ["sweep_windows", "sweep_archs", *_TRAIN_KEYS],
    "synth": [
        "length",
        "start",
        "step_minutes",
        "baseline",
        "daily_amplitude",
        "period_minutes",
        "noise_sigma",
        "spike_rate",
        "spike_magnitude",
        "breaks",
    ],
}
# out and seed apply everywhere: one knob drives determinism end to end
for _keys in _COMMAND_KEYS.values():
    _keys[:0] = ["out", "seed"]


def _convert(key: str, raw: str):
    typ = KEYS[key][0]
    try:
        if typ is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for config key {key!r} (expected {typ.__name__})")


def load_config_file(path: str) -> dict:
    """Parse a flat `key = value` document; unknown keys are rejected."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _convert(key, raw.strip())
    return values


class RunConfig:
    """Effective settings: defaults, overlaid by config file, then flags."""

    def __init__(self, command: str, args: argparse.Namespace):
        file_values = load_config_file(args.config) if args.config else {}
        for key, (_, default, _help) in KEYS.items():
            value = getattr(args, key, None)
            if value is None:
                value = file_values.get(key, default)
            setattr(self, key, value)
        self.command = command

    def model_path(self) -> str:
        return self.model if self.model else os.path.join(self.out, "model.json")

    def require_input(self) -> str:
        if not self.input:
            raise ConfigError("no input CSV given; set --input or the 'input' config key")
        return self.input


def _parse_breaks(text: str):
    if not text.strip():
        return ()
    pairs = []
    for part in text.split(","):
        try:
            lo, _, hi = part.strip().partition(":")
            pairs.append((int(lo), int(hi)))
        except ValueError:
            raise ConfigError(f"bad break range {part.strip()!r}, expected start:end")
    return tuple(pairs)


def _parse_int_list(text: str, key: str):
    try:
        items = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad {key} list {text!r}")
    if not items:
        raise ConfigError(f"{key} list is empty")
    if any(item < 1 for item in items):
        raise ConfigError(f"{key} entries must be >= 1, got {text!r}")
    return items


def _read_workspace_series(cfg: RunConfig, name: str) -> pipeline.TimeSeries:
    path = os.path.join(cfg.out, name)
    if not os.path.exists(path):
        raise DataError(f"{path} not found; run the earlier pipeline stages first")
    return pipeline.read_series_csv(path)


def _read_scaler(cfg: RunConfig) -> pipeline.ScalerParams:
    path = os.path.join(cfg.out, "scaler.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        scaler = pipeline.ScalerParams(mean=float(doc["mean"]), std=float(doc["std"]))
    except FileNotFoundError:
        raise DataError(f"{path} not found; run preprocess first")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed scaler file {path}: {exc}")
    if not (math.isfinite(scaler.mean) and math.isfinite(scaler.std) and scaler.std > 0):
        raise DataError(f"scaler file {path} has unusable parameters: {doc}")
    return scaler


def _train_config(cfg: RunConfig) -> seq_autoencoder.TrainConfig:
    """The training settings `train` and `sweep` share: the training keys and the seed."""
    keys = (*_TRAIN_KEYS, "seed")
    return seq_autoencoder.TrainConfig(**{key: getattr(cfg, key) for key in keys})


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_preprocess(cfg: RunConfig) -> None:
    raw = pipeline.read_series_csv(cfg.require_input())
    report = pipeline.clean_report(raw, strict_nan=cfg.strict_nan)
    series = report.series
    if cfg.split:
        try:
            split_instant = pipeline.parse_timestamp(cfg.split)
        except ValueError:
            raise ConfigError(f"bad split instant {cfg.split!r}")
    else:
        if not (0.0 < cfg.split_fraction < 1.0):
            raise ConfigError(f"split_fraction must be in (0, 1), got {cfg.split_fraction}")
        split_instant = float(series.timestamps[int(len(series) * cfg.split_fraction)])
    split = pipeline.build_train_test(series, split_instant, k=cfg.sigma_k)
    scaler = pipeline.fit_scaler(split.train.values)

    os.makedirs(cfg.out, exist_ok=True)
    pipeline.write_series_csv(os.path.join(cfg.out, "train.csv"), split.train)
    pipeline.write_series_csv(os.path.join(cfg.out, "test.csv"), split.test)
    _write_json(os.path.join(cfg.out, "scaler.json"), {"mean": scaler.mean, "std": scaler.std})

    lo, hi = split.rule.bounds
    print(f"rows read              {report.rows_in}")
    print(f"invalid rows dropped   {report.invalid_dropped}")
    if cfg.strict_nan:
        print(f"nan values dropped     {report.nan_values_dropped}")
    else:
        print(f"nan values zeroed      {report.nan_values_zeroed}")
    print(f"duplicates removed     {report.duplicates_removed}")
    print(f"cleaned rows           {len(series)}")
    print(f"normal band            [{lo:.4f}, {hi:.4f}] (k={split.rule.k})")
    print(f"train rows kept        {split.train_kept}")
    print(f"train rows dropped     {split.train_dropped}")
    print(f"test rows              {len(split.test)}")


def cmd_train(cfg: RunConfig) -> None:
    # a train that fails leaves no earlier model behind for detect to score with
    for stale in (cfg.model_path(), os.path.join(cfg.out, "training_trace.csv")):
        with contextlib.suppress(FileNotFoundError):
            os.remove(stale)
    if cfg.window < 1:
        raise ConfigError(f"window length must be >= 1, got {cfg.window}")
    train_series = _read_workspace_series(cfg, "train.csv")
    scaler = _read_scaler(cfg)
    scaled = pipeline.apply_scaler(train_series.values, scaler)
    windows = windowing.make_windows(scaled, cfg.window)
    model, trace = detector.fit(windows, cfg.arch, _train_config(cfg))

    os.makedirs(cfg.out, exist_ok=True)
    seq_autoencoder.save_model(model, cfg.model_path())
    with open(os.path.join(cfg.out, "training_trace.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for idx in range(len(trace)):
            fh.write(f"{idx + 1},{trace.train_loss[idx]!r},{trace.val_loss[idx]!r}\n")
    print(f"trained {len(trace)} epochs on {len(windows)} windows (T={cfg.window}, arch {cfg.arch})")
    if len(trace):
        print(f"final train MAE        {trace.train_loss[-1]!r}")
        print(f"final validation MAE   {trace.val_loss[-1]!r}")
    print(f"model written          {cfg.model_path()}")


def cmd_detect(cfg: RunConfig) -> None:
    model = seq_autoencoder.load_model(cfg.model_path())
    test_series = _read_workspace_series(cfg, "test.csv")
    scaler = _read_scaler(cfg)

    report = detector.detect(model, test_series, scaler)

    os.makedirs(cfg.out, exist_ok=True)
    detector.write_report_csv(os.path.join(cfg.out, "report.csv"), report)
    threshold = model.threshold
    summary = {
        "threshold": threshold.value,
        "train_points": threshold.train_points,
        "window": threshold.window_len,
        "model_digest": seq_autoencoder.model_digest(model),
        "test_points": int(report.values.shape[0]),
        "flagged": int(report.verdicts.sum()),
    }
    counts = report.confusion()
    if counts is not None:
        summary["confusion"] = {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn}
        mets = metrics.prf1_accuracy(counts)
        summary["metrics"] = {
            "accuracy": mets.accuracy,
            "precision": mets.precision,
            "recall": mets.recall,
            "f1": mets.f1,
            "fpr": mets.fpr,
        }
    _write_json(os.path.join(cfg.out, "detection_summary.json"), summary)
    print(f"threshold              {threshold.value!r}")
    print(f"flagged                {summary['flagged']} of {summary['test_points']} points")


def cmd_evaluate(cfg: RunConfig) -> None:
    report = detector.read_report_csv(os.path.join(cfg.out, "report.csv"))
    if report.labels is None:
        raise DataError("report has no ground-truth labels; cannot evaluate")

    counts = report.confusion()
    mets = metrics.prf1_accuracy(counts)
    roc = metrics.roc_auc(report.labels, report.losses)

    with open(os.path.join(cfg.out, "roc.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fpr,tpr\n")
        for idx in range(roc.thresholds.shape[0]):
            fh.write(
                f"{float(roc.thresholds[idx])!r},{float(roc.fpr[idx])!r},{float(roc.tpr[idx])!r}\n"
            )
    _write_json(
        os.path.join(cfg.out, "evaluation.json"),
        {
            "confusion": {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn},
            "accuracy": mets.accuracy,
            "precision": mets.precision,
            "recall": mets.recall,
            "f1": mets.f1,
            "fpr": mets.fpr,
            "auc": roc.auc,
        },
    )
    print(f"confusion              TP={counts.tp} TN={counts.tn} FP={counts.fp} FN={counts.fn}")
    print(f"accuracy               {metrics.format_percent(mets.accuracy)}")
    print(f"precision              {metrics.format_percent(mets.precision)}")
    print(f"recall                 {metrics.format_percent(mets.recall)}")
    print(f"f1                     {metrics.format_percent(mets.f1)}")
    print(f"fpr                    {metrics.format_percent(mets.fpr)}")
    print(f"auc                    {metrics.format_percent(roc.auc)}")


def cmd_sweep(cfg: RunConfig) -> None:
    train_series = _read_workspace_series(cfg, "train.csv")
    test_series = _read_workspace_series(cfg, "test.csv")
    scaler = _read_scaler(cfg)
    if test_series.labels is None:
        raise DataError("test.csv has no labels; cannot score sweep configurations")
    window_lengths = _parse_int_list(cfg.sweep_windows, "sweep_windows")
    archs = [part.strip() for part in cfg.sweep_archs.split(",") if part.strip()]
    if not archs:
        raise ConfigError("sweep_archs list is empty")
    for arch in archs:
        seq_autoencoder.parse_arch(arch)

    scaled_train = pipeline.apply_scaler(train_series.values, scaler)
    train_cfg = _train_config(cfg)
    rows = []
    for window in window_lengths:
        train_windows = windowing.make_windows(scaled_train, window)
        for arch in archs:
            model, _ = detector.fit(train_windows, arch, train_cfg)
            report = detector.detect(model, test_series, scaler)
            mets = metrics.prf1_accuracy(report.confusion())
            roc = metrics.roc_auc(report.labels, report.losses)
            rows.append((window, arch, model.threshold.value, mets, roc.auc))
            print(
                f"T={window:>3} arch={arch:<14} "
                f"acc {metrics.format_percent(mets.accuracy)}  "
                f"prec {metrics.format_percent(mets.precision)}  "
                f"rec {metrics.format_percent(mets.recall)}  "
                f"f1 {metrics.format_percent(mets.f1)}  "
                f"auc {metrics.format_percent(roc.auc)}"
            )

    os.makedirs(cfg.out, exist_ok=True)
    def _cell(x):
        return "" if x is None else repr(x)

    with open(os.path.join(cfg.out, "sweep.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window,arch,threshold,accuracy,precision,recall,f1,auc\n")
        for window, arch, thr, mets, auc in rows:
            fh.write(
                f"{window},{arch},{thr!r},{_cell(mets.accuracy)},{_cell(mets.precision)},"
                f"{_cell(mets.recall)},{_cell(mets.f1)},{auc!r}\n"
            )
    print(f"sweep table written    {os.path.join(cfg.out, 'sweep.csv')}")


def cmd_synth(cfg: RunConfig) -> None:
    profile = pipeline.SynthProfile(
        length=cfg.length,
        start=cfg.start,
        step_minutes=cfg.step_minutes,
        baseline=cfg.baseline,
        daily_amplitude=cfg.daily_amplitude,
        period_minutes=cfg.period_minutes,
        noise_sigma=cfg.noise_sigma,
        spike_rate=cfg.spike_rate,
        spike_magnitude=cfg.spike_magnitude,
        breaks=_parse_breaks(cfg.breaks),
    )
    series, anomaly_indices = pipeline.generate_synthetic(profile, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    pipeline.write_series_csv(os.path.join(cfg.out, "synthetic.csv"), series)
    with open(os.path.join(cfg.out, "anomalies.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,timestamp\n")
        for idx in anomaly_indices:
            fh.write(f"{idx},{pipeline.format_timestamp(series.timestamps[idx])}\n")
    print(f"synthetic series       {len(series)} points, {anomaly_indices.size} injected anomalies")
    print(f"written                {os.path.join(cfg.out, 'synthetic.csv')}")


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
}

_HELP = {
    "preprocess": "clean, split, sigma-filter/label, and scale a raw series",
    "train": "fit the autoencoder and its max-loss threshold on the training series",
    "detect": "score the test series against the threshold stored with the model",
    "evaluate": "confusion matrix, percent metrics, and ROC from a report",
    "sweep": "train/score a grid of window lengths and architectures",
    "synth": "generate a synthetic series with injected anomalies",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqad",
        description="Sliding-window LSTM-autoencoder anomaly detection for univariate series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        for key in keys:
            typ, default, help_text = KEYS[key]
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=help_text)
            else:
                shown = help_text if default is None else f"{help_text} (default {default})"
                p.add_argument(
                    flag, dest=key, type=typ, default=None, metavar=key.upper(), help=shown
                )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args.command, args)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ToolkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

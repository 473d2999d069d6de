"""Operator surface: preprocess -> train -> detect -> evaluate, plus a
sweep over window lengths and architectures and a synthetic-data
generator.

`train` fixes the max-loss threshold on the windows it trained on and
stores it in the model file; `detect` scores the test series against
that stored threshold and never reads the training series, so a
`--model` from another workspace brings its own threshold. `sweep`
fits and scores each configuration through the same `detector.fit`
and `detector.detect`, and `evaluate` reads only `report.csv`.
Every stage (`synth`, `preprocess`, `train`, `detect`, `evaluate` and
`sweep`) first deletes the files it writes, so one that fails leaves no
earlier output for the next stage. Before that, it refuses an output
path that resolves to a file it reads or to another file it writes.

Configuration is a flat `key = value` text file; every key is also a
same-named command-line flag (dashes for underscores) and flags win.
All randomness flows from the single `seed` key through named
substreams. Exit codes: 0 success, 2 configuration error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import detector, metrics, pipeline, seq_autoencoder, windowing
from .errors import ConfigError, DataError, ToolkitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_TRAIN = seq_autoencoder.TrainConfig
_SYNTH = pipeline.SynthProfile
_TRAIN_KEYS = [f.name for f in fields(_TRAIN) if f.name != "seed"]
_SYNTH_KEYS = [f.name for f in fields(_SYNTH)]

# every config-file key: type, default, help. The training keys and seed take
# their defaults from TrainConfig, the synthesis keys but `breaks` from SynthProfile
KEYS = {
    "input": (str, None, "input CSV path (timestamp,value[,label])"),
    "out": (str, "out", "output directory"),
    "model": (str, None, "model file path (default <out>/model.json)"),
    "window": (int, 10, "sliding window length T"),
    "sigma_k": (float, 2.0, "sigma multiplier for the normal band"),
    "arch": (str, "1x16", "architecture tag: 1x16, 2x64-16, or 3x128-64-16"),
    "learning_rate": (float, _TRAIN.learning_rate, "Adam learning rate"),
    "dropout": (float, _TRAIN.dropout, "dropout rate during training"),
    "batch_size": (int, _TRAIN.batch_size, "training mini-batch size"),
    "epochs": (int, _TRAIN.epochs, "training epochs"),
    "validation_fraction": (
        float, _TRAIN.validation_fraction, "chronological tail held out for validation"
    ),
    "seed": (int, _TRAIN.seed, "master seed for init/dropout/shuffle/synth"),
    "strict_nan": (bool, False, "drop NaN-valued rows instead of zeroing them"),
    "split": (str, "", "train/test split instant (ISO-8601); overrides split_fraction"),
    "split_fraction": (float, 0.75, "fraction of the series used as the training period"),
    "sweep_windows": (str, "10,20", "comma-separated window lengths for sweep"),
    "sweep_archs": (str, "1x16", "comma-separated architecture tags for sweep"),
    "length": (int, _SYNTH.length, "synthetic series length"),
    "start": (str, _SYNTH.start, "synthetic series start instant"),
    "step_minutes": (float, _SYNTH.step_minutes, "synthetic sampling interval in minutes"),
    "baseline": (float, _SYNTH.baseline, "synthetic baseline level"),
    "daily_amplitude": (float, _SYNTH.daily_amplitude, "synthetic daily-cycle amplitude"),
    "period_minutes": (float, _SYNTH.period_minutes, "synthetic cycle period in minutes"),
    "noise_sigma": (float, _SYNTH.noise_sigma, "synthetic gaussian noise sigma"),
    "spike_rate": (float, _SYNTH.spike_rate, "per-point probability of an injected spike"),
    "spike_magnitude": (
        float, _SYNTH.spike_magnitude, "spike height in multiples of the clean signal std"
    ),
    "breaks": (str, "", "flat gaps as start:end index pairs, comma separated"),
}

_COMMAND_KEYS = {
    "preprocess": ["input", "sigma_k", "split", "split_fraction", "strict_nan"],
    "train": ["model", "window", "arch", *_TRAIN_KEYS],
    "detect": ["model"],
    "evaluate": [],
    "sweep": ["sweep_windows", "sweep_archs", *_TRAIN_KEYS],
    "synth": list(_SYNTH_KEYS),  # a copy: the loop below extends each list in place
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
    with pipeline.open_text(path, ConfigError) as fh:
        lines = fh.readlines()
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

    def __init__(self, args: argparse.Namespace):
        self.config = args.config
        file_values = load_config_file(args.config) if args.config else {}
        for key, (typ, default, _help) in KEYS.items():
            value = getattr(args, key, None)
            if value is None:
                value = file_values.get(key, default)
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
            setattr(self, key, value)
        if self.seed < 0:
            raise ConfigError(f"config key 'seed' must be a non-negative integer, got {self.seed}")

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
    """A series `preprocess` wrote. It writes no NaN, which `read_series_csv`
    accepts for raw input, so a NaN timestamp or value is a data error."""
    path = os.path.join(cfg.out, name)
    if not os.path.exists(path):
        raise DataError(f"{path} not found; run the earlier pipeline stages first")
    series = pipeline.read_series_csv(path)
    for what, column in (("timestamp", series.timestamps), ("value", series.values)):
        bad = np.flatnonzero(np.isnan(column))
        if bad.size:
            raise DataError(f"{path} data row {bad[0] + 1} has a NaN {what}; rerun preprocess")
    return series


def _read_scaler(cfg: RunConfig) -> pipeline.ScalerParams:
    path = os.path.join(cfg.out, "scaler.json")
    try:
        with pipeline.open_text(path, DataError, "; run preprocess first") as fh:
            doc = json.load(fh)
        scaler = pipeline.ScalerParams(
            mean=pipeline.json_number(doc, "mean", float, DataError, path),
            std=pipeline.json_number(doc, "std", float, DataError, path),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed scaler file {path}: {exc}")
    if not (math.isfinite(scaler.mean) and math.isfinite(scaler.std) and scaler.std > 0):
        raise DataError(f"scaler file {path} has unusable parameters: {doc}")
    return scaler


def _train_config(cfg: RunConfig) -> seq_autoencoder.TrainConfig:
    """The training settings `train` and `sweep` share: the training keys and the seed."""
    keys = (*_TRAIN_KEYS, "seed")
    return seq_autoencoder.TrainConfig(**{key: getattr(cfg, key) for key in keys})


def _out_paths(cfg: RunConfig, *names: str) -> list:
    """The path of each named file in the output directory."""
    return [os.path.join(cfg.out, name) for name in names]


def _remove_outputs(cfg: RunConfig, stage: str, outputs: list, inputs: list = ()) -> None:
    """Delete a stage's earlier outputs before it runs, so a stage that
    fails leaves none of them behind for a later stage to read. An output
    that resolves to one of the stage's inputs, the config file among
    them, or to another of its outputs is a ConfigError naming it, raised
    before anything is removed."""
    reads = {os.path.realpath(path): path for path in (*inputs, cfg.config) if path}
    writes = {}
    for path in outputs:
        real = os.path.realpath(path)
        if real in reads:
            raise ConfigError(f"input {reads[real]} is one of {stage}'s own outputs")
        if real in writes:
            raise ConfigError(f"{stage} would write two of its outputs to {writes[real]}")
        writes[real] = path
    for path in outputs:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise DataError(f"cannot remove earlier output {path}: {exc}") from exc


def cmd_preprocess(cfg: RunConfig) -> None:
    outputs = _out_paths(cfg, "train.csv", "test.csv", "scaler.json")
    source = cfg.require_input()
    _remove_outputs(cfg, "preprocess", outputs, [source])
    raw = pipeline.read_series_csv(source)
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
    train_path, test_path, scaler_path = outputs
    pipeline.write_series_csv(train_path, split.train)
    pipeline.write_series_csv(test_path, split.test)
    pipeline.write_json(scaler_path, {"mean": scaler.mean, "std": scaler.std})

    lo, hi = split.band
    print(f"rows read              {len(raw)}")
    print(f"invalid rows dropped   {report.invalid_dropped}")
    nan_action = "dropped" if cfg.strict_nan else "zeroed"
    print(f"nan values {nan_action:<12}{report.nan_values}")
    print(f"duplicates removed     {report.duplicates_removed}")
    print(f"cleaned rows           {len(series)}")
    print(f"normal band            [{lo:.4f}, {hi:.4f}] (k={cfg.sigma_k})")
    print(f"train rows kept        {len(split.train)}")
    print(f"train rows dropped     {split.train_dropped}")
    print(f"test rows              {len(split.test)}")


def cmd_train(cfg: RunConfig) -> None:
    _remove_outputs(
        cfg,
        "train",
        [cfg.model_path(), *_out_paths(cfg, "training_trace.csv")],
        _out_paths(cfg, "train.csv", "scaler.json"),
    )
    if cfg.window < 1:
        raise ConfigError(f"window length must be >= 1, got {cfg.window}")
    train_series = _read_workspace_series(cfg, "train.csv")
    scaler = _read_scaler(cfg)
    scaled = pipeline.apply_scaler(train_series.values, scaler)
    windows = windowing.make_windows(scaled, cfg.window)
    # a model path that is a directory already failed in _remove_outputs
    model_dir = os.path.dirname(cfg.model_path()) or "."
    if not os.path.isdir(model_dir):
        raise DataError(f"cannot write model file {cfg.model_path()}: no directory {model_dir}")
    model, trace = detector.fit(windows, cfg.arch, _train_config(cfg))

    seq_autoencoder.save_model(model, cfg.model_path())
    epochs = map(str, range(1, len(trace) + 1))
    pipeline.write_csv(
        os.path.join(cfg.out, "training_trace.csv"),
        ["epoch", "train_loss", "val_loss"],
        zip(epochs, map(repr, trace.train_loss), map(repr, trace.val_loss)),
    )
    print(f"trained {len(trace)} epochs on {len(windows)} windows (T={cfg.window}, arch {cfg.arch})")
    if len(trace):
        print(f"final train MAE        {trace.train_loss[-1]!r}")
        print(f"final validation MAE   {trace.val_loss[-1]!r}")
    print(f"model written          {cfg.model_path()}")


def cmd_detect(cfg: RunConfig) -> None:
    _remove_outputs(
        cfg,
        "detect",
        _out_paths(cfg, "report.csv", "detection_summary.json"),
        [cfg.model_path(), *_out_paths(cfg, "test.csv", "scaler.json")],
    )
    model = seq_autoencoder.load_model(cfg.model_path())
    test_series = _read_workspace_series(cfg, "test.csv")
    scaler = _read_scaler(cfg)

    report = detector.detect(model, test_series, scaler)

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
        summary["confusion"] = asdict(counts)
        summary["metrics"] = asdict(metrics.prf1_accuracy(counts))
    pipeline.write_json(os.path.join(cfg.out, "detection_summary.json"), summary)
    print(f"threshold              {threshold.value!r}")
    print(f"flagged                {summary['flagged']} of {summary['test_points']} points")


def cmd_evaluate(cfg: RunConfig) -> None:
    outputs = _out_paths(cfg, "roc.csv", "evaluation.json")
    _remove_outputs(cfg, "evaluate", outputs, _out_paths(cfg, "report.csv"))
    report = detector.read_report_csv(os.path.join(cfg.out, "report.csv"))
    if report.labels is None:
        raise DataError("report has no ground-truth labels; cannot evaluate")

    counts = report.confusion()
    mets = metrics.prf1_accuracy(counts)
    roc = metrics.roc_auc(report.labels, report.losses)

    pipeline.write_csv(
        os.path.join(cfg.out, "roc.csv"),
        ["threshold", "fpr", "tpr"],
        zip(*(map(repr, column.tolist()) for column in (roc.thresholds, roc.fpr, roc.tpr))),
    )
    pipeline.write_json(
        os.path.join(cfg.out, "evaluation.json"),
        {"confusion": asdict(counts), **asdict(mets), "auc": roc.auc},
    )
    print(f"confusion              TP={counts.tp} TN={counts.tn} FP={counts.fp} FN={counts.fn}")
    print(f"accuracy               {metrics.format_percent(mets.accuracy)}")
    print(f"precision              {metrics.format_percent(mets.precision)}")
    print(f"recall                 {metrics.format_percent(mets.recall)}")
    print(f"f1                     {metrics.format_percent(mets.f1)}")
    print(f"fpr                    {metrics.format_percent(mets.fpr)}")
    print(f"auc                    {metrics.format_percent(roc.auc)}")


def cmd_sweep(cfg: RunConfig) -> None:
    inputs = _out_paths(cfg, "train.csv", "test.csv", "scaler.json")
    _remove_outputs(cfg, "sweep", _out_paths(cfg, "sweep.csv"), inputs)
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
            scores = (mets.accuracy, mets.precision, mets.recall, mets.f1)
            cells = ("" if x is None else repr(x) for x in scores)  # None: zero denominator
            rows.append([str(window), arch, repr(model.threshold.value), *cells, repr(roc.auc)])
            print(
                f"T={window:>3} arch={arch:<14} "
                f"acc {metrics.format_percent(mets.accuracy)}  "
                f"prec {metrics.format_percent(mets.precision)}  "
                f"rec {metrics.format_percent(mets.recall)}  "
                f"f1 {metrics.format_percent(mets.f1)}  "
                f"auc {metrics.format_percent(roc.auc)}"
            )

    pipeline.write_csv(
        os.path.join(cfg.out, "sweep.csv"),
        ["window", "arch", "threshold", "accuracy", "precision", "recall", "f1", "auc"],
        rows,
    )
    print(f"sweep table written    {os.path.join(cfg.out, 'sweep.csv')}")


def cmd_synth(cfg: RunConfig) -> None:
    csv_path = os.path.join(cfg.out, "synthetic.csv")
    anomalies_path = os.path.join(cfg.out, "anomalies.csv")
    _remove_outputs(cfg, "synth", [csv_path, anomalies_path])
    settings = {key: getattr(cfg, key) for key in _SYNTH_KEYS}
    profile = pipeline.SynthProfile(**{**settings, "breaks": _parse_breaks(cfg.breaks)})
    series, anomaly_indices = pipeline.generate_synthetic(profile, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    pipeline.write_series_csv(csv_path, series)
    stamps = series.timestamps[anomaly_indices].tolist()
    pipeline.write_csv(
        anomalies_path,
        ["index", "timestamp"],
        zip(map(str, anomaly_indices.tolist()), map(pipeline.format_timestamp, stamps)),
    )
    print(f"synthetic series       {len(series)} points, {anomaly_indices.size} injected anomalies")
    print(f"written                {csv_path}")


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
        cfg = RunConfig(args)
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

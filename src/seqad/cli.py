"""Operator surface: preprocess -> train -> detect -> evaluate, plus a
sweep over window lengths and architectures and a synthetic-data
generator.

`train` fixes the max-loss threshold on the windows it trained on and
stores it in the model file; `detect` scores the test series against
that stored threshold and never reads the training series, so a
`--model` from another workspace brings its own threshold. `sweep`
fits and scores each configuration through the same `detector.fit`
and `detector.detect`, and `evaluate` reads only `report.csv`.
Each stage is one row of `_STAGES`: its function, its help line, its
keys besides `out` and `seed`, and the names of the files it reads and
writes, which `RunConfig.path` resolves. Before the stage runs, `main`
claims those files: it refuses an output that resolves to an input, the
config file among them, or to another output; deletes the outputs, so a
stage that fails leaves none for the next; names, for an input that is
missing, the stage whose row writes it; and hands the stage the paths.
So a stage writes only the files its row declares.

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
from collections import namedtuple
from dataclasses import asdict, fields

# BLAS runs on one thread unless the environment names a count: a wide
# model's bytes depend on it. Set before numpy loads, or it has no effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# each stage imports the model modules it uses, so that preprocess, synth and
# evaluate, which use none, do not pay to load them
from . import pipeline  # noqa: E402
from .errors import ConfigError, DataError, ToolkitError  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_TRAIN = pipeline.TrainConfig
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

def _convert(key: str, raw: str, where: str):
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
        raise ConfigError(
            f"{where}: bad value {raw!r} for config key {key!r} (expected {typ.__name__})"
        )


def load_config_file(path: str) -> dict:
    """Parse a flat `key = value` document; unknown keys are rejected."""
    values = {}
    with pipeline.open_text(path, ConfigError) as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path} line {lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        values[key] = _convert(key, raw.strip(), where)
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
        if not self.out:
            raise ConfigError("config key 'out' must name a directory, got ''")

    def path(self, name: str) -> str:
        """The file a stage reads or writes as `name`: `input` is --input,
        `model` is --model or <out>/model.json, any other is <out>/<name>."""
        if name == "input":
            if not self.input:
                raise ConfigError("no input CSV given; set --input or the 'input' config key")
            return self.input
        if name == "model":
            return self.model or os.path.join(self.out, "model.json")
        return os.path.join(self.out, name)


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


def _read_scaler(path: str) -> pipeline.ScalerParams:
    try:
        with pipeline.open_text(path, DataError) as fh:
            doc = json.load(fh)
        scaler = pipeline.ScalerParams(
            mean=pipeline.json_number(doc, "mean", float, path),
            std=pipeline.json_number(doc, "std", float, path),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed scaler file {path}: {exc}")
    if not (math.isfinite(scaler.mean) and math.isfinite(scaler.std) and scaler.std > 0):
        raise DataError(f"scaler file {path} has unusable parameters: {doc}")
    return scaler


def _train_config(cfg: RunConfig) -> pipeline.TrainConfig:
    """The training settings `train` and `sweep` share: TrainConfig's fields, seed included."""
    return pipeline.TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(_TRAIN)})


def cmd_preprocess(cfg: RunConfig, paths: dict) -> None:
    raw = pipeline.read_series_csv(paths["input"])
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
    pipeline.write_series_csv(paths["train.csv"], split.train)
    pipeline.write_series_csv(paths["test.csv"], split.test)
    pipeline.write_json(paths["scaler.json"], {"mean": scaler.mean, "std": scaler.std})

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


def cmd_train(cfg: RunConfig, paths: dict) -> None:
    from . import detector, seq_autoencoder, windowing

    if cfg.window < 1:
        raise ConfigError(f"window length must be >= 1, got {cfg.window}")
    train_series = pipeline.read_series_csv(paths["train.csv"], workspace=True)
    scaler = _read_scaler(paths["scaler.json"])
    scaled = pipeline.apply_scaler(train_series.values, scaler)
    windows = windowing.make_windows(scaled, cfg.window)
    model, trace = detector.fit(windows, cfg.arch, _train_config(cfg))

    seq_autoencoder.save_model(model, paths["model"])
    epochs = map(str, range(1, len(trace) + 1))
    pipeline.write_csv(
        paths["training_trace.csv"],
        ["epoch", "train_loss", "val_loss"],
        zip(epochs, map(repr, trace.train_loss), map(repr, trace.val_loss)),
    )
    print(f"trained {len(trace)} epochs on {len(windows)} windows (T={cfg.window}, arch {cfg.arch})")
    if len(trace):
        print(f"final train MAE        {trace.train_loss[-1]!r}")
        print(f"final validation MAE   {trace.val_loss[-1]!r}")
    print(f"model written          {paths['model']}")


def cmd_detect(cfg: RunConfig, paths: dict) -> None:
    from . import detector, metrics, seq_autoencoder

    model = seq_autoencoder.load_model(paths["model"])
    test_series = pipeline.read_series_csv(paths["test.csv"], workspace=True)
    scaler = _read_scaler(paths["scaler.json"])

    report = detector.detect(model, test_series, scaler)

    pipeline.write_report_csv(paths["report.csv"], report)
    threshold = model.threshold
    summary = {
        "threshold": threshold.value,
        "train_points": threshold.train_points,
        "window": threshold.window_len,
        "model_digest": seq_autoencoder.model_digest(model),
        "test_points": int(report.values.shape[0]),
        "flagged": int(report.verdicts.sum()),
    }
    if report.labels is not None:
        counts = metrics.confusion(report.labels, report.verdicts)
        summary["confusion"] = asdict(counts)
        summary["metrics"] = asdict(metrics.prf1_accuracy(counts))
    pipeline.write_json(paths["detection_summary.json"], summary)
    print(f"threshold              {threshold.value!r}")
    print(f"flagged                {summary['flagged']} of {summary['test_points']} points")


def cmd_evaluate(cfg: RunConfig, paths: dict) -> None:
    from . import metrics

    report = pipeline.read_report_csv(paths["report.csv"])
    if report.labels is None:
        raise DataError("report has no ground-truth labels; cannot evaluate")

    counts = metrics.confusion(report.labels, report.verdicts)
    mets = metrics.prf1_accuracy(counts)
    roc = metrics.roc_auc(report.labels, report.losses)

    pipeline.write_csv(
        paths["roc.csv"],
        ["threshold", "fpr", "tpr"],
        zip(*(map(repr, column.tolist()) for column in (roc.thresholds, roc.fpr, roc.tpr))),
    )
    pipeline.write_json(
        paths["evaluation.json"],
        {"confusion": asdict(counts), **asdict(mets), "auc": roc.auc},
    )
    print(f"confusion              TP={counts.tp} TN={counts.tn} FP={counts.fp} FN={counts.fn}")
    for name, value in (*asdict(mets).items(), ("auc", roc.auc)):
        print(f"{name:<23}{metrics.format_percent(value)}")


def cmd_sweep(cfg: RunConfig, paths: dict) -> None:
    from . import detector, metrics, seq_autoencoder, windowing

    train_series = pipeline.read_series_csv(paths["train.csv"], workspace=True)
    test_series = pipeline.read_series_csv(paths["test.csv"], workspace=True)
    scaler = _read_scaler(paths["scaler.json"])
    if test_series.labels is None:
        raise DataError("test.csv has no labels; cannot score sweep configurations")
    window_lengths = _parse_int_list(cfg.sweep_windows, "sweep_windows")
    archs = [part.strip() for part in cfg.sweep_archs.split(",") if part.strip()]
    if not archs:
        raise ConfigError("sweep_archs list is empty")
    for arch in archs:
        seq_autoencoder.parse_arch(arch)
    train_cfg = _train_config(cfg)
    metrics.class_counts(test_series.labels)  # the ROC's check, made before any training
    shortest, longest = min(len(train_series), len(test_series)), max(window_lengths)
    if longest > shortest:  # make_windows's check, made here for the same reason
        raise DataError(f"series of length {shortest} is shorter than window length {longest}")

    scaled_train = pipeline.apply_scaler(train_series.values, scaler)
    pipeline.apply_scaler(test_series.values, scaler)  # detect's check, made before any training
    rows = []
    for window in window_lengths:
        train_windows = windowing.make_windows(scaled_train, window)
        for arch in archs:
            model, _ = detector.fit(train_windows, arch, train_cfg)
            report = detector.detect(model, test_series, scaler)
            mets = metrics.prf1_accuracy(metrics.confusion(report.labels, report.verdicts))
            roc = metrics.roc_auc(report.labels, report.losses)
            scores = [("acc", mets.accuracy), ("prec", mets.precision), ("rec", mets.recall),
                      ("f1", mets.f1), ("auc", roc.auc)]  # fmt: skip
            cells = ("" if x is None else repr(x) for _, x in scores)  # None: zero denominator
            rows.append([str(window), arch, repr(model.threshold.value), *cells])
            line = "  ".join(f"{name} {metrics.format_percent(x)}" for name, x in scores)
            print(f"T={window:>3} arch={arch:<14} {line}")

    header = ["window", "arch", "threshold", "accuracy", "precision", "recall", "f1", "auc"]
    pipeline.write_csv(paths["sweep.csv"], header, rows)
    print(f"sweep table written    {paths['sweep.csv']}")


def cmd_synth(cfg: RunConfig, paths: dict) -> None:
    settings = {key: getattr(cfg, key) for key in _SYNTH_KEYS}
    profile = pipeline.SynthProfile(**{**settings, "breaks": _parse_breaks(cfg.breaks)})
    series, anomaly_indices = pipeline.generate_synthetic(profile, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    pipeline.write_series_csv(paths["synthetic.csv"], series)
    stamps = pipeline.format_timestamps(series.timestamps[anomaly_indices])
    pipeline.write_csv(
        paths["anomalies.csv"],
        ["index", "timestamp"],
        zip(map(str, anomaly_indices.tolist()), stamps),
    )
    print(f"synthetic series       {len(series)} points, {anomaly_indices.size} injected anomalies")
    print(f"written                {paths['synthetic.csv']}")


# one row per stage: its function, its help line, its keys besides out and seed,
# and the names (for RunConfig.path) of the files it reads and of those it writes
_Stage = namedtuple("_Stage", "run help keys reads writes")
_STAGES = {
    "preprocess": _Stage(
        cmd_preprocess, "clean, split, sigma-filter/label, and scale a raw series",
        ["input", "sigma_k", "split", "split_fraction", "strict_nan"],
        ["input"], ["train.csv", "test.csv", "scaler.json"]),
    "train": _Stage(
        cmd_train, "fit the autoencoder and its max-loss threshold on the training series",
        ["model", "window", "arch", *_TRAIN_KEYS],
        ["train.csv", "scaler.json"], ["model", "training_trace.csv"]),
    "detect": _Stage(
        cmd_detect, "score the test series against the threshold stored with the model",
        ["model"],
        ["model", "test.csv", "scaler.json"], ["report.csv", "detection_summary.json"]),
    "evaluate": _Stage(
        cmd_evaluate, "confusion matrix, percent metrics, and ROC from a report",
        [],
        ["report.csv"], ["roc.csv", "evaluation.json"]),
    "sweep": _Stage(
        cmd_sweep, "train/score a grid of window lengths and architectures",
        ["sweep_windows", "sweep_archs", *_TRAIN_KEYS],
        ["train.csv", "test.csv", "scaler.json"], ["sweep.csv"]),
    "synth": _Stage(
        cmd_synth, "generate a synthetic series with injected anomalies",
        _SYNTH_KEYS,
        [], ["synthetic.csv", "anomalies.csv"]),
}  # fmt: skip


def _claim(cfg: RunConfig, command: str) -> dict:
    """{name: path} for every file the stage reads and writes. An output that
    resolves to an input, the config file among them, or to another output is
    a ConfigError naming it. Then the stage's earlier outputs, the model's temp
    file among them, are deleted, so a failed stage leaves none to read, and a
    missing input, named with the stage that writes it, is a DataError."""
    stage = _STAGES[command]
    paths = {name: cfg.path(name) for name in (*stage.reads, *stage.writes)}
    outputs = [paths[name] for name in stage.writes]
    if "model" in stage.writes:  # save_model writes the model through this file
        from .seq_autoencoder import TEMP_SUFFIX

        outputs.append(paths["model"] + TEMP_SUFFIX)
    inputs = (*(paths[name] for name in stage.reads), cfg.config)
    reads = {os.path.realpath(path): path for path in inputs if path}
    writes = {}
    for path in outputs:
        real = os.path.realpath(path)
        if real in reads:
            raise ConfigError(f"input {reads[real]} is one of {command}'s own outputs")
        if real in writes:
            raise ConfigError(f"{command} would write two of its outputs to {writes[real]}")
        writes[real] = path
    for path in outputs:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise DataError(f"cannot remove earlier output {path}: {exc}") from exc
    for name in stage.reads:
        if not os.path.exists(paths[name]):
            writer = [f"; run {step} first" for step, row in _STAGES.items() if name in row.writes]
            raise DataError(f"{paths[name]} not found{''.join(writer)}")
    if "model" in stage.writes:  # a model path that is a directory failed above
        model_dir = os.path.dirname(paths["model"]) or "."
        if not os.path.isdir(model_dir):
            raise DataError(f"cannot write model file {paths['model']}: no directory {model_dir}")
    return paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqad",
        description="Sliding-window LSTM-autoencoder anomaly detection for univariate series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, stage in _STAGES.items():
        p = sub.add_parser(command, help=stage.help)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        # out and seed apply everywhere: one knob drives determinism end to end
        for key in ("out", "seed", *stage.keys):
            typ, default, help_text = KEYS[key]
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(
                    flag,
                    dest=key,
                    action=argparse.BooleanOptionalAction,
                    default=None,
                    help=help_text,
                )
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
        _STAGES[args.command].run(cfg, _claim(cfg, args.command))
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

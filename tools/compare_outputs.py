#!/usr/bin/env python3
"""Check that two checkouts of seqad give byte-identical results.

    python3 tools/compare_outputs.py PARENT CHANGE

Runs the same seqad CLI commands with each checkout's `src` on
PYTHONPATH, each side in its own temporary directory, and compares the
exit code, stdout and stderr of every command and every file the
commands leave behind, after replacing each side's directory and
checkout path with a placeholder. The commands are:

- `--help` of the program and of every subcommand;
- synth, preprocess, train, detect, evaluate and sweep on the seed-42
  synthetic workspace (`sweep` over windows 5,10 and archs 1x16,2x8-4
  at 2 epochs);
- preprocess, train, detect and evaluate on the seed-1 `train_paper`
  and `train_deep` series of the checkout's `bench/gen.py`, with the
  benchmark's own flags;
- the `train_deep` detect once more, with OpenBLAS on two threads, in a
  workspace of its own preprocessed from the same series and with the
  first run's model (every other command runs BLAS on one thread, as
  the benchmark does);
- preprocess of a messy CSV (NaN and empty value tokens, a NaN
  timestamp, a duplicate timestamp), with and without `--strict-nan`;
- eight inputs that must fail: `--sigma-k -1`, a constant training
  period, `synth --length 1`, `synth --seed -1`, a synth whose
  timestamps run past the year 9999 or whose noise overflows float64,
  a preprocess of a synth whose noise overflows the scaler's float64
  std, and a raw reading dated past the year 9999;
- in a small workspace of their own, four `--model` paths that name
  one of the stage's own files and must fail: `train` onto
  `training_trace.csv`, `scaler.json` and `train.csv`, and `detect`
  onto `report.csv`; then `train` and `detect` with a `--model` in a
  directory outside `--out`, and three commands that must fail: an
  `evaluate` whose `--config` file is its own `roc.csv` (holding
  `seed = 1`), a `sweep` over windows 5,100, the second longer than
  the workspace's 75-row `test.csv`, and a `train --config
  clash/run.cfg.tmp --model clash/run.cfg`, whose model would be
  written through its own config file;
- one `--config` file that `preprocess` and `train` share (`strict_nan`,
  `split_fraction`, `window` and `epochs`), a `preprocess` with no
  `--input`, which must fail, and a `synth --breaks 100:200`;
- preprocess of raw series whose timestamps take the scalar lane of the
  timestamp codec, or whose rows take an error path: stamps a quarter
  second apart, stamps with `Z` and `+01:00` offsets, stamps with a
  space for the `T`, a series from the first second of the year 1 to
  the last of the year 9999, quoted fields with CRLF line ends, a bad
  timestamp on a line before a bad value (must fail naming the first),
  and a field longer than `csv`'s 131,072-character limit (must fail
  with exit 3; before the reader caught the `csv` error, it escaped
  as a traceback with exit 1);
- `evaluate` on nine hand-written reports that must fail: a wrong
  header, a row with a field too many, a bad timestamp, an unparseable
  value, an infinite loss, a bad verdict, a bad label, an unparseable
  value on a line before a NaN loss (must fail naming the first), and
  a NaN value (before the report reader checked values, it exited 0);
- `detect` (with the seed-42 model), `train` and `sweep` in a
  hand-written workspace whose `scaler.json` has a std of 1e-310, so
  that scaling overflows float64 (must fail with exit 3 before any
  training or output; before `apply_scaler` checked its result,
  `detect` exited 0 with every loss `inf`, and `train` and `sweep`
  exited 2 blaming the learning rate);
- `train` on a `train.csv` with one row repeated, `detect` (with the
  seed-42 model) on a labelled `test.csv` in reverse time order, and
  `sweep`, in a hand-written workspace of their own (each must fail
  with exit 3 naming the first line whose timestamp is not after
  the row before it; before the workspace reader checked the order,
  all three exited 0 and left their outputs);
- `sweep` and `detect` (with the seed-42 model) in a hand-written
  workspace whose labelled `test.csv` has an unreadable value on line 5
  (each must fail with exit 3 naming the file and the line; before the
  CSV reader named its file, the message named only the line);
- `detect` (with the seed-42 model) in a hand-written workspace whose
  labelled `test.csv` has a NaN value on line 5 and an unreadable one
  on line 10 (must fail with exit 3 naming line 5; before the reader
  checked the workspace rules with every other cell, it named line 10);
- four stages whose input is missing, with `--out missing`, a directory
  that does not exist: `train`, `detect --model missing/m.json`,
  `evaluate` and `preprocess --input missing/raw.csv` (each must fail
  with exit 3 naming the file and, but for `--input`, the stage that
  writes it);
- `synth --out ""` in the work directory, and a `synth` whose
  `--period-minutes 1e-320` overflows the cycle phase (each must fail
  with exit 2 naming the key; before, the first exited 1 with a
  traceback, and the second blamed four other keys).

Prints every difference and exits 1 if there is one, else exits 0.
Uses the standard library only; the whole run takes about 50 s on a
2-core host, most of it in the training runs.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile

COMMANDS = ("preprocess", "train", "detect", "evaluate", "sweep", "synth")

# writes a bench/gen.py series: argv is bench dir, length, seed, output path
GEN = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gen; "
    "stamps, values, _ = gen.make_series(int(sys.argv[2]), int(sys.argv[3])); "
    "gen.write_csv(sys.argv[4], stamps, values)"
)


def _bench_workload(name: str, length: int, arch: str, epochs: int) -> list:
    common = ["--out", name, "--seed", "1"]
    return [
        (f"{name} gen", ["gen", str(length), "1", f"{name}.csv"]),
        (
            f"{name} preprocess",
            ["preprocess", *common, "--input", f"{name}.csv", "--split-fraction", "0.75"],
        ),
        (
            f"{name} train",
            ["train", *common, "--window", "10", "--arch", arch, "--epochs", str(epochs),
             "--batch-size", "64", "--learning-rate", "0.001", "--dropout", "0.2"],
        ),  # fmt: skip
        (f"{name} detect", ["detect", *common]),
        (f"{name} evaluate", ["evaluate", *common]),
    ]


def _report_text(*changes) -> str:
    """A five-row report with labels, each (line, column, text) change
    replacing one cell; the header is line 1."""
    rows = [
        ["timestamp", "value", "loss", "verdict", "label"],
        *([f"2018-01-01T00:{i:02d}:00", str(400.0 + i), str(0.25 * i), str(i % 2), str(i % 2)]
          for i in range(5)),
    ]  # fmt: skip
    for line, column, text in changes:
        rows[line - 1][column] = text
    return "".join(",".join(row) + "\n" for row in rows)


# hand-written reports that `evaluate` must refuse, each as <name>/report.csv
BAD_REPORTS = {
    "report_header": _report_text((1, 4, "flag")),
    "report_fields": _report_text((3, 4, "0,1")),
    "report_timestamp": _report_text((3, 0, "2018-13-01T00:00:00")),
    "report_value": _report_text((4, 1, "lots")),
    "report_loss": _report_text((4, 2, "inf")),
    "report_verdict": _report_text((5, 3, "2")),
    "report_label": _report_text((5, 4, "yes")),
    "report_value_then_loss": _report_text((3, 1, "lots"), (5, 2, "nan")),
    "report_value_nan": _report_text((3, 1, "nan")),
}

S42 = ["--out", "s42", "--seed", "42"]
CLASH_TRAIN = ["--out", "clash", "--window", "5", "--epochs", "1"]
STEPS = [
    ("--help", ["--help"]),
    *((f"{command} --help", [command, "--help"]) for command in COMMANDS),
    ("s42 synth", ["synth", *S42]),
    ("s42 preprocess", ["preprocess", *S42, "--input", "s42/synthetic.csv"]),
    ("s42 train", ["train", *S42, "--window", "10"]),
    ("s42 detect", ["detect", *S42]),
    ("s42 evaluate", ["evaluate", *S42]),
    (
        "s42 sweep",
        ["sweep", *S42, "--sweep-windows", "5,10", "--sweep-archs", "1x16,2x8-4", "--epochs", "2"],
    ),
    *_bench_workload("train_paper", 10_000, "1x16", 5),
    *_bench_workload("train_deep", 4_000, "3x128-64-16", 2),
    (
        "train_deep_blas2 preprocess",
        ["preprocess", "--out", "train_deep_blas2", "--seed", "1", "--input", "train_deep.csv",
         "--split-fraction", "0.75"],
    ),  # fmt: skip
    (
        "train_deep_blas2 detect",
        ["detect", "--out", "train_deep_blas2", "--seed", "1", "--model", "train_deep/model.json"],
    ),
    (
        "negative sigma k",
        ["preprocess", "--out", "neg_k", "--input", "s42/synthetic.csv", "--sigma-k", "-1"],
    ),
    ("constant training period", ["preprocess", "--out", "constant", "--input", "constant.csv"]),
    ("synth --length 1", ["synth", "--out", "short", "--length", "1"]),
    ("synth --seed -1", ["synth", "--out", "neg_seed", "--length", "50", "--seed", "-1"]),
    (
        "synth past the year 9999",
        ["synth", "--out", "late_synth", "--length", "50", "--step-minutes", "1e9"],
    ),
    (
        "synth overflowing noise",
        ["synth", "--out", "huge_noise", "--length", "50", "--noise-sigma", "1e308"],
    ),
    (
        "synth 1e200 noise",
        ["synth", "--out", "big", "--length", "200", "--noise-sigma", "1e200", "--spike-rate", "0"],
    ),
    (
        "preprocess overflowing scaler",
        ["preprocess", "--out", "big", "--input", "big/synthetic.csv"],
    ),
    ("reading past the year 9999", ["preprocess", "--out", "late", "--input", "late.csv"]),
    ("messy preprocess", ["preprocess", "--out", "messy", "--input", "messy.csv"]),
    (
        "messy preprocess --strict-nan",
        ["preprocess", "--out", "messy_strict", "--input", "messy.csv", "--strict-nan"],
    ),
    ("clash synth", ["synth", "--out", "clash", "--length", "300", "--spike-rate", "0.05"]),
    ("clash preprocess", ["preprocess", "--out", "clash", "--input", "clash/synthetic.csv"]),
    ("clash train", ["train", *CLASH_TRAIN]),
    ("clash detect", ["detect", "--out", "clash"]),
    ("train --model trace", ["train", *CLASH_TRAIN, "--model", "clash/training_trace.csv"]),
    ("train --model scaler", ["train", *CLASH_TRAIN, "--model", "clash/scaler.json"]),
    ("train --model train.csv", ["train", *CLASH_TRAIN, "--model", "clash/train.csv"]),
    ("detect --model report", ["detect", "--out", "clash", "--model", "clash/report.csv"]),
    ("train --model outside", ["train", *CLASH_TRAIN, "--model", "models/m.json"]),
    ("detect --model outside", ["detect", "--out", "clash", "--model", "models/m.json"]),
    ("evaluate --config roc", ["evaluate", "--out", "clash", "--config", "clash/roc.csv"]),
    (
        "sweep window past test.csv",
        ["sweep", "--out", "clash", "--sweep-windows", "5,100", "--epochs", "1"],
    ),
    (
        "train --config model temp",
        ["train", *CLASH_TRAIN, "--config", "clash/run.cfg.tmp", "--model", "clash/run.cfg"],
    ),
    (
        "shared config preprocess",
        ["preprocess", "--out", "shared", "--config", "shared.cfg", "--input", "messy.csv"],
    ),
    ("shared config train", ["train", "--out", "shared", "--config", "shared.cfg"]),
    ("preprocess without --input", ["preprocess", "--out", "no_input"]),
    ("synth --breaks", ["synth", "--out", "breaks", "--length", "300", "--breaks", "100:200"]),
    *((f"preprocess {name}", ["preprocess", "--out", name, "--input", f"{name}.csv"]) for name in (
        "subsecond", "offsets", "space", "edge_years", "quoted_crlf", "bad_then_value", "long_field",
    )),  # fmt: skip
    *((f"evaluate {name}", ["evaluate", "--out", name]) for name in BAD_REPORTS),
    ("subnormal detect", ["detect", "--out", "subnormal", "--model", "s42/model.json"]),
    ("subnormal train", ["train", "--out", "subnormal", "--epochs", "1"]),
    ("subnormal sweep", ["sweep", "--out", "subnormal", "--sweep-windows", "5", "--epochs", "1"]),
    ("unordered train", ["train", "--out", "unordered", "--epochs", "1"]),
    ("unordered detect", ["detect", "--out", "unordered", "--model", "s42/model.json"]),
    ("unordered sweep", ["sweep", "--out", "unordered", "--sweep-windows", "5", "--epochs", "1"]),
    ("badcell sweep", ["sweep", "--out", "badcell", "--sweep-windows", "5", "--epochs", "1"]),
    ("badcell detect", ["detect", "--out", "badcell", "--model", "s42/model.json"]),
    ("twofault detect", ["detect", "--out", "twofault", "--model", "s42/model.json"]),
    ("missing train", ["train", "--out", "missing"]),
    ("missing detect", ["detect", "--out", "missing", "--model", "missing/m.json"]),
    ("missing evaluate", ["evaluate", "--out", "missing"]),
    ("missing preprocess", ["preprocess", "--out", "missing", "--input", "missing/raw.csv"]),
    ("synth --out empty", ["synth", "--out", ""]),
    ("synth period", ["synth", "--out", "period", "--length", "50", "--period-minutes", "1e-320"]),
]

# the steps that run OpenBLAS on two threads; the rest run it on one
BLAS2 = {"train_deep_blas2 detect"}

# files written before any step runs: the config `preprocess` and `train`
# share, the `roc.csv` that `evaluate --config` must refuse to delete, and
# the config that `train` must refuse to write its model's temp file over
CONFIGS = {
    "shared.cfg": "strict_nan = yes\nsplit_fraction = 0.7\nwindow = 5\nepochs = 1\n",
    os.path.join("clash", "roc.csv"): "seed = 1\n",
    os.path.join("clash", "run.cfg.tmp"): "window = 5\n",
}


def _constant_csv(path: str) -> None:
    """30 equal readings, then 10 that differ: the default 0.75 split
    puts exactly the equal ones on the training side."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,value\n")
        for i in range(40):
            fh.write(f"2018-01-01T00:{i:02d}:00,{5.0 if i < 30 else 5.0 + i}\n")


def _late_csv(path: str) -> None:
    """40 readings a minute apart, then one at 9999-12-31T23:59:59 in
    UTC-1, which is in the year 10000 in UTC."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,value\n")
        for i in range(40):
            fh.write(f"2018-01-01T00:{i:02d}:00,{400 + i}\n")
        fh.write("9999-12-31T23:59:59-01:00,1\n")


def _messy_csv(path: str) -> None:
    """40 readings a minute apart with NaN and empty value tokens at
    minutes 7, 13 and 33, then a row with a NaN timestamp and a second
    reading at minute 20."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,value\n")
        for i in range(40):
            value = {7: "nan", 13: "", 33: "NA"}.get(i, str(400 + 3 * (i % 5)))
            fh.write(f"2018-01-01T00:{i:02d}:00,{value}\n")
        fh.write("nan,405\n2018-01-01T00:20:00,999\n")


def _series_text(stamps: list, end: str = "\n", quote: bool = False) -> str:
    """A raw series: the stamps, with values that vary in every four minutes."""
    rows = [[stamp, str(400 + 3 * (i % 5))] for i, stamp in enumerate(stamps)]
    if quote:
        rows = [[f'"{cell}"' for cell in row] for row in rows]
    return end.join(["timestamp,value", *map(",".join, rows)]) + end


MINUTES = [f"2018-01-01T00:{i:02d}:00" for i in range(40)]

# raw series `preprocess` reads, by name
RAW = {
    "subsecond.csv": _series_text([f"2018-01-01T00:00:{i / 4:09.6f}" for i in range(40)]),
    "offsets.csv": _series_text(
        [f"2018-01-01T01:{i:02d}:00{'Z' if i % 2 else '+01:00'}" for i in range(40)]
    ),
    "space.csv": _series_text([stamp.replace("T", " ") for stamp in MINUTES]),
    "edge_years.csv": _series_text(["0001-01-01T00:00:00", *MINUTES, "9999-12-31T23:59:59"]),
    "quoted_crlf.csv": _series_text(MINUTES, end="\r\n", quote=True),
    "bad_then_value.csv": _series_text([*MINUTES[:5], "soon", *MINUTES[6:]]).replace(
        f"{MINUTES[10]},400", f"{MINUTES[10]},lots"
    ),
    "long_field.csv": f"timestamp,value\n{MINUTES[0]},{'1' * 200_000}\n",
}

# the rows of a labelled test side, with both classes, so `sweep` can score it
LABELLED = [
    f"2018-01-01T01:{i:02d}:00,{400 + 3 * (i % 5)},{int(i % 10 == 0)}\n" for i in range(40)
]

# a workspace whose scaler's std is subnormal, so that scaling overflows float64
SUBNORMAL = {
    os.path.join("subnormal", "train.csv"): _series_text(MINUTES),
    os.path.join("subnormal", "test.csv"): "timestamp,value,label\n" + "".join(LABELLED),
    os.path.join("subnormal", "scaler.json"): '{"mean": 452.38970947615906, "std": 1e-310}\n',
}

# a workspace out of time order: data row 6 of train.csv is repeated, and
# test.csv runs backwards; the scaler is the one preprocess fits to the values
TRAIN_ROWS = _series_text(MINUTES).splitlines(keepends=True)
UNORDERED = {
    os.path.join("unordered", "train.csv"): "".join([*TRAIN_ROWS[:7], *TRAIN_ROWS[6:]]),
    os.path.join("unordered", "test.csv"): "timestamp,value,label\n" + "".join(LABELLED[::-1]),
    os.path.join("unordered", "scaler.json"): '{"mean": 406.0, "std": 4.242640687119285}\n',
}

# a workspace in time order whose test.csv has the value `zz` on line 5
BADCELL = {
    os.path.join("badcell", "train.csv"): "".join(TRAIN_ROWS),
    os.path.join("badcell", "test.csv"): "timestamp,value,label\n"
    + "".join([*LABELLED[:3], LABELLED[3].replace(",409,", ",zz,"), *LABELLED[4:]]),
    os.path.join("badcell", "scaler.json"): '{"mean": 406.0, "std": 4.242640687119285}\n',
}

# a workspace whose test.csv has the value `nan` on line 5 and `zz` on line 10
TWOFAULT = {
    os.path.join("twofault", "test.csv"): "timestamp,value,label\n"
    + "".join([*LABELLED[:3], LABELLED[3].replace(",409,", ",nan,"), *LABELLED[4:8],
               LABELLED[8].replace(",409,", ",zz,"), *LABELLED[9:]]),
    os.path.join("twofault", "scaler.json"): '{"mean": 406.0, "std": 4.242640687119285}\n',
}  # fmt: skip


def run_side(checkout: str, workdir: str) -> tuple[dict, dict]:
    """Run every step in `workdir`. Returns ({label: (exit code, stdout,
    stderr)}, {relative path: bytes}), with `workdir` and `checkout`
    replaced by placeholders."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), COLUMNS="100")
    _constant_csv(os.path.join(workdir, "constant.csv"))
    _late_csv(os.path.join(workdir, "late.csv"))
    _messy_csv(os.path.join(workdir, "messy.csv"))
    os.makedirs(os.path.join(workdir, "models"))
    reports = {os.path.join(name, "report.csv"): text for name, text in BAD_REPORTS.items()}
    workspaces = {**SUBNORMAL, **UNORDERED, **BADCELL, **TWOFAULT}
    for name, text in {**CONFIGS, **RAW, **workspaces, **reports}.items():
        path = os.path.join(workdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    def neutral(data: bytes) -> bytes:
        for path, mark in ((workdir, b"<WORKDIR>"), (checkout, b"<CHECKOUT>")):
            data = data.replace(os.fsencode(path), mark)
        return data

    results = {}
    for label, argv in STEPS:
        if argv[0] == "gen":
            cmd = [sys.executable, "-c", GEN, os.path.join(checkout, "bench"), *argv[1:]]
        else:
            cmd = [sys.executable, "-m", "seqad.cli", *argv]
        print(f"  {label}", file=sys.stderr, flush=True)
        env["OPENBLAS_NUM_THREADS"] = "2" if label in BLAS2 else "1"
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True)
        results[label] = (proc.returncode, neutral(proc.stdout), neutral(proc.stderr))

    files = {}
    for root, _dirs, names in os.walk(workdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, workdir)] = neutral(fh.read())
    return results, files


def _text_diff(a: bytes, b: bytes, what: str) -> list[str]:
    lines = difflib.unified_diff(
        a.decode("utf-8", "replace").splitlines(),
        b.decode("utf-8", "replace").splitlines(),
        f"parent {what}",
        f"change {what}",
        lineterm="",
    )
    return ["    " + line for line in list(lines)[:40]]


def compare(parent: tuple[dict, dict], change: tuple[dict, dict]) -> list[str]:
    """Every difference between the two sides, one report line each."""
    (p_runs, p_files), (c_runs, c_files) = parent, change
    out = []
    for label, _argv in STEPS:
        (p_code, p_stdout, p_stderr), (c_code, c_stdout, c_stderr) = p_runs[label], c_runs[label]
        if p_code != c_code:
            out.append(f"{label}: exit code {p_code} -> {c_code}")
        for what, a, b in (("stdout", p_stdout, c_stdout), ("stderr", p_stderr, c_stderr)):
            if a != b:
                out.append(f"{label}: {what} differs")
                out += _text_diff(a, b, what)
    for path in sorted(p_files.keys() | c_files.keys()):
        if path not in c_files:
            out.append(f"{path}: only in parent")
        elif path not in p_files:
            out.append(f"{path}: only in change")
        elif p_files[path] != c_files[path]:
            sizes = f"{len(p_files[path])} -> {len(c_files[path])} bytes"
            out.append(f"{path}: contents differ ({sizes})")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    is_checkout = [os.path.isfile(os.path.join(a, "src", "seqad", "cli.py")) for a in args]
    if len(args) != 2 or not all(is_checkout):
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        print("PARENT and CHANGE must be seqad checkouts", file=sys.stderr)
        return 2
    checkouts = [os.path.abspath(a) for a in args]
    sides = []
    with tempfile.TemporaryDirectory(prefix="seqad-compare-") as tmp:
        for name, checkout in zip(("parent", "change"), checkouts):
            workdir = os.path.join(tmp, name)
            os.makedirs(workdir)
            print(f"{name}: {checkout}", file=sys.stderr, flush=True)
            sides.append(run_side(checkout, workdir))
    differences = compare(*sides)
    for line in differences:
        print(line)
    n_files = len(sides[0][1].keys() | sides[1][1].keys())
    verdict = "different" if differences else "identical"
    print(f"{len(STEPS)} commands and {n_files} files compared: {verdict}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

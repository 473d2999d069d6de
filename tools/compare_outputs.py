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
  onto `report.csv`.

Prints every difference and exits 1 if there is one, else exits 0.
Uses the standard library only; the whole run takes about 70 s on a
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
    ("clash synth", ["synth", "--out", "clash", "--length", "300"]),
    ("clash preprocess", ["preprocess", "--out", "clash", "--input", "clash/synthetic.csv"]),
    ("clash train", ["train", *CLASH_TRAIN]),
    ("clash detect", ["detect", "--out", "clash"]),
    ("train --model trace", ["train", *CLASH_TRAIN, "--model", "clash/training_trace.csv"]),
    ("train --model scaler", ["train", *CLASH_TRAIN, "--model", "clash/scaler.json"]),
    ("train --model train.csv", ["train", *CLASH_TRAIN, "--model", "clash/train.csv"]),
    ("detect --model report", ["detect", "--out", "clash", "--model", "clash/report.csv"]),
]


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


def run_side(checkout: str, workdir: str) -> tuple[dict, dict]:
    """Run every step in `workdir`. Returns ({label: (exit code, stdout,
    stderr)}, {relative path: bytes}), with `workdir` and `checkout`
    replaced by placeholders."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), COLUMNS="100")
    _constant_csv(os.path.join(workdir, "constant.csv"))
    _late_csv(os.path.join(workdir, "late.csv"))
    _messy_csv(os.path.join(workdir, "messy.csv"))

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

"""Benchmark of the operator pipeline: seqad preprocess -> train -> detect -> evaluate.

    python3 bench/run.py --workload train_paper --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. For one workload it writes a raw series
made from the seed (bench/gen.py), then runs whole rounds of the four CLI
stages, each in its own process as an operator invokes it, until the
given seconds have passed (at least two rounds). Every round writes its
own workspace under bench/out/. After the timed rounds, the outputs are
checked (bench/checks.py) and must be byte-identical across rounds.

--trace 0 prints the end-to-end metrics, medians over the rounds.
--trace 1 follows every round with a traced one (bench/tracing.py) and
prints the per-layer metrics, medians over the traced rounds. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import os

# Every stage, and the checks, run BLAS on one thread: two threads were no
# faster on the widest model here and spread wider. No process writes
# bytecode, so every stage compiles the package alike and the checkout
# is left as it was.
os.environ.update(
    {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STAGES = ("preprocess", "train", "detect", "evaluate")
STAGE_LIMIT_S = 150  # no stage of any workload comes near this


@dataclass(frozen=True)
class Workload:
    length: int
    split: float
    arch: str
    epochs: int
    f1_floor: float
    auc_floor: float
    reps: tuple[int, int, int, int]  # runs of each stage per round, in STAGES order


# Make-up, floors and the reasons for each workload are in bench/README.md.
# Short stages run more than once per round, so that each metric has
# enough samples in one run for a steady median.
WORKLOADS = {
    "train_paper": Workload(10_000, 0.75, "1x16", epochs=5, f1_floor=0.80, auc_floor=0.99, reps=(3, 1, 2, 1)),
    "detect_long": Workload(60_000, 0.10, "1x16", epochs=1, f1_floor=0.80, auc_floor=0.99, reps=(2, 2, 1, 1)),
    "train_deep": Workload(4_000, 0.75, "3x128-64-16", epochs=2, f1_floor=0.60, auc_floor=0.99, reps=(3, 1, 1, 1)),
}


class StageTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise StageTimeout


def run_stage(argv: list[str], env: dict, log_path: str) -> tuple[float, int, float]:
    """Run one process; return (wall seconds, exit code, peak RSS in MiB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        signal.alarm(STAGE_LIMIT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except StageTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def stage_argv(stage: str, ws: str, raw: str, w: Workload, seed: int) -> list[str]:
    argv = [stage, "--out", ws, "--seed", str(seed)]
    if stage == "preprocess":
        argv += ["--input", raw, "--split-fraction", repr(w.split)]
    elif stage == "train":
        argv += [
            "--window", "10", "--arch", w.arch, "--epochs", str(w.epochs),
            "--batch-size", "64", "--learning-rate", "0.001", "--dropout", "0.2",
        ]  # fmt: skip
    return argv


def run_round(ws: str, raw: str, w: Workload, seed: int, env: dict, traced: bool):
    """The four stages in order, each `w.reps` times (once when traced,
    with the spans of each stage written to <ws>/<stage>.npz); stops at
    the first run that fails.

    Returns ({stage: [(wall, code, rss), ...]}, whether every run exited 0).
    """
    os.makedirs(ws)
    done = {}
    for stage, reps in zip(STAGES, w.reps):
        args = stage_argv(stage, ws, raw, w, seed)
        if traced:
            reps = 1
            cmd = [sys.executable, os.path.join(HERE, "tracing.py"), os.path.join(ws, f"{stage}.npz"), *args]
        else:
            cmd = [sys.executable, "-m", "seqad.cli", *args]
        done[stage] = []
        for _ in range(reps):
            sample = run_stage(cmd, env, os.path.join(ws, f"{stage}.log"))
            done[stage].append(sample)
            if sample[1] != 0:
                with open(os.path.join(ws, f"{stage}.log"), encoding="utf-8", errors="replace") as fh:
                    sys.stderr.write(f"{stage} exited {sample[1]} in {ws}:\n{fh.read()[-2000:]}\n")
                return done, False
    return done, True


def _runs(done: dict) -> int:
    return sum(len(samples) for samples in done.values())


def _pipeline_wall(done: dict) -> float:
    """One pass through the pipeline: the first run of each stage."""
    return sum(done[stage][0][0] for stage in STAGES)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def layer_metrics(traced_ws: str) -> dict[str, tuple[float, str]]:
    """Per-layer self times and work counts of one traced round.

    Times are self times summed over the four stages, except the two that
    are named as inclusive in bench/README.md.
    """
    import tracing

    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    inclusive = {"reconstruct_outside_train": 0.0, "fit_threshold": 0.0}
    for stage in STAGES:
        doc = tracing.load(os.path.join(traced_ws, f"{stage}.npz"))
        stage_own, stage_calls, dur = tracing.summarise(doc)
        for name in stage_own:
            own[name] = own.get(name, 0.0) + stage_own[name]
            calls[name] = calls.get(name, 0) + stage_calls[name]
        for key, value in doc["counts"].items():
            counts[f"{stage}.{key}"] = value
            counts[key] = counts.get(key, 0.0) + value
        names = doc["names"].tolist()
        ids = doc["name_id"].tolist()
        in_train = []  # parents come before their children
        for i, (nid, parent) in enumerate(zip(ids, doc["parent"].tolist())):
            in_train.append(parent >= 0 and (in_train[parent] or names[ids[parent]] == "seq_autoencoder.train"))
            if names[nid] == "seq_autoencoder.reconstruct_windows" and not in_train[i]:
                inclusive["reconstruct_outside_train"] += float(dur[i])
            elif names[nid] == "detector.fit_threshold":
                inclusive["fit_threshold"] += float(dur[i])

    def s(*names):
        return sum(own.get(n, 0.0) for n in names), "s"

    def n(key):
        return counts.get(key, 0.0), "count"

    def c(*names):
        return float(sum(calls.get(n, 0) for n in names)), "count"

    detect_windows = counts.get("detect.windows_reconstructed", 0.0)
    return {
        "lstm.encoder_forward_s": s("lstm.lstm_forward.encoder"),
        "lstm.decoder_forward_s": s("lstm.lstm_forward.decoder"),
        "lstm.encoder_backward_s": s("lstm.lstm_backward.encoder"),
        "lstm.decoder_backward_s": s("lstm.lstm_backward.decoder"),
        "lstm.cell_steps": n("cell_steps"),
        "lstm.gemm_gflop": (counts.get("gemm_flop", 0.0) / 1e9, "GFLOP"),
        "seq_autoencoder.reconstruct_windows_s": (inclusive["reconstruct_outside_train"], "s"),
        "seq_autoencoder.windows_reconstructed": n("windows_reconstructed"),
        "core_math.activation_s": s("core_math.sigmoid", "core_math.tanh"),
        "core_math.activation_calls": c("core_math.sigmoid", "core_math.tanh"),
        "core_math.adam_step_s": s("core_math.adam_step"),
        "core_math.adam_steps": c("core_math.adam_step"),
        "seq_autoencoder.train_self_s": s("seq_autoencoder.train"),
        "seq_autoencoder.save_model_s": s("seq_autoencoder.save_model"),
        "seq_autoencoder.load_model_s": s("seq_autoencoder.load_model"),
        "seq_autoencoder.model_digest_s": s("seq_autoencoder.model_digest"),
        "seq_autoencoder.model_bytes": (float(os.path.getsize(os.path.join(traced_ws, "model.json"))), "bytes"),
        "detector.fit_threshold_s": (inclusive["fit_threshold"], "s"),
        "detector.refit_windows": n("refit_windows"),
        "detector.useful_window_ratio": (
            counts.get("detect.windows_reconstructed_test", 0.0) / detect_windows if detect_windows else 0.0,
            "ratio",
        ),
        "detector.detect_s": s("detector.detect"),
        "detector.write_report_csv_s": s("detector.write_report_csv"),
        "windowing.make_windows_s": s("windowing.make_windows"),
        "windowing.per_point_loss_s": s("windowing.per_point_loss"),
        "windowing.windows_cut": n("windows_cut"),
        "pipeline.read_series_csv_s": s("pipeline.read_series_csv"),
        "pipeline.write_series_csv_s": s("pipeline.write_series_csv"),
        "pipeline.clean_s": s("pipeline.clean_report", "pipeline.clean"),
        "pipeline.split_scale_s": s(
            "pipeline.build_train_test", "pipeline.fit_sigma_rule", "pipeline.label_by_sigma",
            "pipeline.fit_scaler", "pipeline.apply_scaler", "pipeline.invert_scaler",
        ),  # fmt: skip
        "pipeline.rows_read": n("rows_read"),
        "detector.read_report_csv_s": s("detector.read_report_csv"),
        "metrics.roc_auc_s": s("metrics.roc_auc"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seqad", "cli.py")):
        print(f"no seqad sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import gen

    w = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)

    base = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    raw = os.path.join(base, "raw.csv")
    stamps, values, spikes = gen.make_series(w.length, args.seed)
    gen.write_csv(raw, stamps, values)

    attempted = failed = 0
    rounds = []  # (workspace, {stage: [(wall, code, rss), ...]}) of each round that passed
    traced = []  # (workspace, traced minus untraced pipeline seconds) of each traced round that passed
    round_walls = []
    t_start = time.perf_counter()
    while len(round_walls) < 2 or (
        time.perf_counter() - t_start + statistics.median(round_walls) <= args.seconds
    ):
        # a failed run fails the rest of its round
        r0 = time.perf_counter()
        ws = os.path.join(base, f"r{len(round_walls)}")
        done, ok = run_round(ws, raw, w, args.seed, env, traced=False)
        attempted += sum(w.reps)
        if ok:
            rounds.append((ws, done))
        else:
            failed += sum(w.reps) - _runs(done) + 1
        if args.trace:  # right after its untraced twin, so both see the same machine
            traced_ws = os.path.join(base, f"t{len(round_walls)}")
            traced_done, traced_ok = run_round(traced_ws, raw, w, args.seed, env, traced=True)
            attempted += len(STAGES)
            if not traced_ok:
                failed += len(STAGES) - _runs(traced_done) + 1
            elif ok:
                traced.append((traced_ws, _pipeline_wall(traced_done) - _pipeline_wall(done)))
        round_walls.append(time.perf_counter() - r0)
    if not rounds or (args.trace and not traced):
        print("no round of the pipeline completed", file=sys.stderr)
        return 1
    workspaces = [ws for ws, _ in rounds] + [ws for ws, _ in traced]

    correct = True
    quality = {}
    try:
        ws0 = workspaces[0]
        with open(os.path.join(ws0, "preprocess.log"), encoding="utf-8") as fh:
            quality = checks.check_workspace(ws0, fh.read(), w.length, stamps, spikes, args.seed)
        checks.require(quality["f1"] >= w.f1_floor, f"F1 {quality['f1']:.4f} below floor {w.f1_floor}")
        checks.require(quality["auc"] >= w.auc_floor, f"AUC {quality['auc']:.4f} below floor {w.auc_floor}")
        for name in ("model.json", "report.csv"):
            first = _read(os.path.join(ws0, name))
            for ws in workspaces[1:]:
                checks.require(_read(os.path.join(ws, name)) == first, f"{ws}/{name} differs from {ws0}/{name}")
    except checks.CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False

    # every sample, for a look at the spread: [{stage: [[wall_s, exit_code, peak_rss_mib], ...]}, ...]
    with open(os.path.join(base, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump([done for _, done in rounds], fh)
    med = statistics.median
    walls = {stage: [x[0] for _, done in rounds for x in done[stage]] for stage in STAGES}
    rss = {stage: [x[2] for _, done in rounds for x in done[stage]] for stage in STAGES}
    pipeline_walls = [_pipeline_wall(done) for _, done in rounds]
    round_rss = [max(x[2] for samples in done.values() for x in samples) for _, done in rounds]
    if args.trace:
        per_round = [layer_metrics(ws) for ws, _ in traced]
        metrics = {name: (med(m[name][0] for m in per_round), unit) for name, (_, unit) in per_round[0].items()}
        metrics["cli.evaluate_s"] = (med(walls["evaluate"]), "s")
        metrics["cli.train_peak_rss_mb"] = (med(rss["train"]), "MiB")
        metrics["cli.detect_peak_rss_mb"] = (med(rss["detect"]), "MiB")
        metrics["trace.overhead_s"] = (med(overhead for _, overhead in traced), "s")
    else:
        metrics = {
            "setup_s": (med(walls["preprocess"]), "s"),
            "train_s": (med(walls["train"]), "s"),
            "detect_s": (med(walls["detect"]), "s"),
            "pipeline_s": (med(pipeline_walls), "s"),
            "peak_rss_mb": (med(round_rss), "MiB"),
        }

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  stage runs {attempted}")
    if quality:
        print(
            f"  injected spikes: F1 {quality['f1']:.4f} (floor {w.f1_floor}), "
            f"AUC {quality['auc']:.4f} (floor {w.auc_floor})"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the program's layers, recorded from outside the program.

Run one seqad CLI stage traced, and write its spans to an .npz file:

    PYTHONPATH=src python3 bench/tracing.py SPANS.npz <stage> [seqad flags...]

Every public function of the modules in MODULES is wrapped, except the
per-row and per-step helpers in UNWRAPPED, whose time stays in their
caller's self time. A span holds a name, start, end and the index of
the span that called it; `lstm_forward` and `lstm_backward` spans are
named by the side of the autoencoder their layer sits on. Work counters
are kept at the same boundaries. Spans stay in memory until the stage
ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("pipeline", "windowing", "lstm", "core_math", "seq_autoencoder", "detector", "metrics")
UNWRAPPED = {"pipeline.parse_timestamp", "pipeline.format_timestamp", "lstm.lstm_step"}
SIDED = {"lstm.lstm_forward", "lstm.lstm_backward"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.sides: dict[int, str] = {}  # id(LstmLayerParams) -> encoder / decoder
        self._models = []  # keeps registered layers alive, so their ids stay theirs

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(self.name_id[i] == nid for i in self.stack[1:])

    def register(self, model) -> None:
        self._models.append(model)
        for side in ("encoder", "decoder"):
            for layer in getattr(model, side):
                self.sides[id(layer)] = side

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_keys=np.array(sorted(self.counts), dtype=str),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)]),
        )


def _lstm_shape(qual: str, args):
    """(sequence steps B*T, B*T*H*(H+D)) of one lstm_forward/backward call."""
    params = args[0]
    h, d = params.hidden_size, params.input_size
    if qual == "lstm.lstm_forward":
        b, t = np.shape(args[1])[:2]
    else:
        t, b = len(args[1]), args[1][0].z.shape[0]
    return b * t, b * t * h * (h + d)


def _after(tracer: Tracer, qual: str, args, result) -> None:
    """Work counters, taken where the work happens."""
    if qual in ("seq_autoencoder.build_model", "seq_autoencoder.load_model"):
        tracer.register(result)
    elif qual == "lstm.lstm_forward":
        steps, macs = _lstm_shape(qual, args)
        tracer.count("cell_steps", steps)
        tracer.count("gemm_flop", 2 * 4 * macs)  # four gate GEMMs
    elif qual == "lstm.lstm_backward":
        _, macs = _lstm_shape(qual, args)
        tracer.count("gemm_flop", 2 * 2 * 4 * macs)  # weight and input gradients per gate
    elif qual == "seq_autoencoder.reconstruct_windows" and not tracer.inside("seq_autoencoder.train"):
        tracer.count("windows_reconstructed", len(result))
        if tracer.inside("detector.detect"):
            tracer.count("windows_reconstructed_test", len(result))
    elif qual == "windowing.make_windows":
        tracer.count("windows_cut", len(result))
    elif qual == "pipeline.read_series_csv":
        tracer.count("rows_read", len(result))
    elif qual == "detector.fit_threshold":
        tracer.count("refit_windows", len(args[1]))


def _wrap(tracer: Tracer, qual: str, fn):
    nid = tracer.nid(qual)
    sided = qual in SIDED

    def traced(*args, **kwargs):
        span = tracer.nid(f"{qual}.{tracer.sides.get(id(args[0]), 'other')}") if sided else nid
        result = tracer.call(span, fn, args, kwargs)
        _after(tracer, qual, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Replace every wrapped function in every seqad module that holds it."""
    wrapped = {}
    for modname in MODULES:
        mod = importlib.import_module(f"seqad.{modname}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            qual = f"{modname}.{name}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and qual not in UNWRAPPED:
                wrapped[id(fn)] = (fn, _wrap(tracer, qual, fn))
    for modname, mod in list(sys.modules.items()):
        if modname != "seqad" and not modname.startswith("seqad."):
            continue
        for attr, value in list(vars(mod).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])


def load(path: str) -> dict:
    with np.load(path) as z:
        doc = {k: z[k] for k in z.files}
    doc["counts"] = dict(zip(doc["count_keys"].tolist(), doc["count_values"].tolist()))
    return doc


def summarise(doc: dict) -> tuple[dict[str, float], dict[str, int], np.ndarray]:
    """Per-name self time (span minus its children's spans) and call count,
    and each span's duration."""
    dur = doc["end"] - doc["start"]
    child = np.zeros_like(dur)
    has_parent = doc["parent"] >= 0
    np.add.at(child, doc["parent"][has_parent], dur[has_parent])
    size = len(doc["names"])
    own = np.bincount(doc["name_id"], weights=dur - child, minlength=size)
    calls = np.bincount(doc["name_id"], minlength=size)
    names = doc["names"].tolist()
    return dict(zip(names, own.tolist())), dict(zip(names, calls.tolist())), dur


def main(argv: list[str]) -> int:
    from seqad import cli

    out, stage_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    root = tracer.nid(f"cli.{stage_argv[0]}")
    try:
        return tracer.call(root, cli.main, (stage_argv,), {})
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

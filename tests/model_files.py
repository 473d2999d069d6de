"""Edit model files the way a damaged or hand-made file would differ
from one save_model wrote."""

import json

import numpy as np


def rewrite_model_file(path, header=None, vector=None):
    """Rewrite the model file at `path`: `header` edits the header
    document in place, and `vector` maps the saved parameter vector to
    the one written instead. What neither edits is written back byte
    for byte."""
    with open(path, "rb") as fh:
        line, payload = fh.read().split(b"\n", 1)
    if header is not None:
        doc = json.loads(line)
        header(doc)
        line = json.dumps(doc).encode()
    if vector is not None:
        payload = np.asarray(vector(np.frombuffer(payload, "<f8").copy()), "<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(line + b"\n" + payload)


def with_entry(index, value):
    """A `vector` edit for rewrite_model_file: one entry set to `value`."""

    def edit(vector):
        vector[index] = value
        return vector

    return edit


def write_v3_model_file(model, path):
    """Write `model` as a format version 3 file: one JSON document with
    every parameter array as nested lists of decimals."""
    doc = {
        "format_version": 3,
        "kind": "lstm-autoencoder",
        "arch": model.arch,
        "timesteps": model.timesteps,
        "features": 1,
        "dropout_rate": model.dropout_rate,
        "init_seed": model.init_seed,
        "threshold": vars(model.threshold),
        "encoder": [{"w": l.w.tolist(), "b": l.b.tolist()} for l in model.encoder],
        "decoder": [{"w": l.w.tolist(), "b": l.b.tolist()} for l in model.decoder],
        "head_weight": model.head_w.tolist(),
        "head_bias": model.head_b.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")

"""Sequence autoencoder: LSTM encoder to a latent vector, latent repeated
once per timestep, LSTM decoder returning sequences, and a shared linear
head applied at every timestep.

Multi-layer variants stack encoder LSTMs, each reading the sequence of
the one before, the latent being the last one's final hidden state, and
mirror the unit counts in reverse order on the decoder side. Exactly
two dropout sites exist: the latent vector and the decoder's output
sequence, both at the model's `dropout_rate` with inverted scaling, and
only in a training pass given a dropout stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .core_math import AdamState, adam_step, glorot_init, substream
from .errors import ConfigError, DataError, ShapeError
from .lstm import LstmLayerParams, lstm_backward, lstm_forward, lstm_infer
from .pipeline import TrainConfig, json_number

__all__ = [
    "SeqAutoencoderModel",
    "ThresholdRecord",
    "TrainTrace",
    "parse_arch",
    "build_model",
    "reconstruct_windows",
    "train",
    "save_model",
    "load_model",
    "model_digest",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 4
TEMP_SUFFIX = ".tmp"  # save_model writes <path>.tmp, then renames it to <path>
# the digest names the model, not the file layout, so version 4's file
# layout left it as it was under version 3
_DIGEST_VERSION = 3

# reconstruct_windows scores this many windows at a time; a different width
# changes the last bits of the reconstructions
CHUNK_WINDOWS = 256

# training fails when its final train MAE exceeds this multiple of the
# MAE of reconstructing every training window as zeros
DIVERGENCE_FACTOR = 10.0

_ARCH_RE = re.compile(r"^(\d+)x(\d+(?:-\d+)*)$")


def parse_arch(tag: str) -> list[int]:
    """Parse an architecture tag like "2x64-16" into per-layer unit counts.

    The leading count must match the number of unit entries; the final
    entry is the latent size. Raises ConfigError otherwise.
    """
    m = _ARCH_RE.match(tag.strip())
    if not m:
        raise ConfigError(f"bad architecture tag {tag!r}; expected e.g. 1x16 or 2x64-16")
    n_layers = int(m.group(1))
    units = [int(u) for u in m.group(2).split("-")]
    if len(units) != n_layers:
        raise ConfigError(
            f"architecture tag {tag!r} declares {n_layers} layers but lists {len(units)} unit counts"
        )
    if any(u < 1 for u in units):
        raise ConfigError(f"architecture tag {tag!r} has a non-positive unit count")
    return units


@dataclass
class ThresholdRecord:
    """The max-loss threshold that training fixed for a model: the value,
    the number of training points it was fit on and the window length."""

    value: float
    train_points: int
    window_len: int


@dataclass
class SeqAutoencoderModel:
    """Every parameter lives in one contiguous float64 `vector`, laid out
    in `params()` order: each layer's w and b and the head's arrays are
    views into it, so writing through either changes both, and training
    updates the whole model as one array. Build one with build_model or
    load_model, which keep that aliasing; a deep copy does not."""

    vector: np.ndarray
    encoder: list[LstmLayerParams]
    decoder: list[LstmLayerParams]
    head_w: np.ndarray  # (1, last decoder hidden)
    head_b: np.ndarray  # (1,)
    timesteps: int
    dropout_rate: float
    arch: str
    init_seed: int
    threshold: ThresholdRecord | None = None  # set after training, saved with the model

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.encoder + self.decoder:
            out.extend(layer.arrays())
        out.append(self.head_w)
        out.append(self.head_b)
        return out


def _unpack(vector: np.ndarray, shapes: list[tuple]):
    """Views of `vector` with `shapes`, which follow params() order: the
    LSTM layers, encoder first, then the head's weight and bias."""
    views, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        views.append(vector[lo:hi].reshape(shape))
        lo = hi
    layers = [LstmLayerParams(w=w, b=b) for w, b in zip(views[:-2:2], views[1:-2:2])]
    return layers, views[-2], views[-1]


def _from_vector(vector: np.ndarray, shapes: list[tuple], **header) -> SeqAutoencoderModel:
    """A model whose layers and head are views of `vector`, laid out as
    the params() arrays of `shapes`."""
    layers, head_w, head_b = _unpack(vector, shapes)
    n_side = len(layers) // 2
    return SeqAutoencoderModel(
        vector=vector,
        encoder=layers[:n_side],
        decoder=layers[n_side:],
        head_w=head_w,
        head_b=head_b,
        **header,
    )


def _layer_sizes(arch: str, timesteps: int, dropout_rate: float) -> list[tuple]:
    """Check a model header; return each encoder layer's (hidden, input)
    size, then each decoder layer's. The first layer reads one value per
    step, the decoder mirrors the encoder's units, and each later layer
    reads the one before it. Raises ConfigError."""
    if timesteps < 1:
        raise ConfigError(f"timesteps must be >= 1, got {timesteps}")
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    units = parse_arch(arch)
    hidden = units + units[::-1]
    return list(zip(hidden, [1, *hidden[:-1]]))


def build_model(
    arch: str, timesteps: int, dropout_rate: float = 0.2, seed: int = 0
) -> SeqAutoencoderModel:
    """Construct a freshly initialized model for one architecture tag."""
    sizes = _layer_sizes(arch, timesteps, dropout_rate)
    rng = substream(seed, "init")
    arrays = []
    for h, d in sizes:
        arrays.extend(LstmLayerParams.init(h, d, rng).arrays())
    arrays += [glorot_init(1, sizes[-1][0], rng), np.zeros(1)]
    return _from_vector(
        np.concatenate([a.ravel() for a in arrays]),
        [a.shape for a in arrays],
        timesteps=int(timesteps),
        dropout_rate=float(dropout_rate),
        arch=arch,
        init_seed=int(seed),
    )


@dataclass
class TrainTrace:
    """Per-epoch mean training MAE (running, pre-update batches) and
    validation MAE (dropout disabled, end of epoch)."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    # inverted scaling: expectation preserved, inference applies nothing
    return (rng.uniform(size=shape) >= rate) / (1.0 - rate)


def _forward_batch(
    model: SeqAutoencoderModel, batch: np.ndarray, rng: np.random.Generator | None = None
):
    """Run a (B, T, 1) batch through the full autoencoder, keeping what
    backpropagation needs: the training pass.

    The latent is step T-1 of the last encoder layer's outputs. Dropout
    applies at the model's `dropout_rate`, with masks drawn from `rng`,
    exactly when an `rng` is given. Returns (reconstruction, cache);
    the reconstruction is (B, T, 1) and the cache is only
    meaningful for one subsequent _backward_batch call. Inference
    without a backward pass goes through reconstruct_windows, which
    keeps no cache.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1:] != (model.timesteps, 1):
        raise ShapeError(f"batch shape {batch.shape} does not match (B, {model.timesteps}, 1)")
    rate = model.dropout_rate
    use_dropout = rng is not None and rate > 0.0
    t_len = model.timesteps

    seq = batch.transpose(1, 0, 2)
    enc_caches = []
    for layer in model.encoder:
        seq, layer_cache = lstm_forward(layer, seq)
        enc_caches.append(layer_cache)
    latent = seq[-1]

    latent_mask = _dropout_mask(latent.shape, rate, rng) if use_dropout else None
    latent_dropped = latent * latent_mask if use_dropout else latent

    seq = np.broadcast_to(latent_dropped, (t_len, *latent_dropped.shape))
    dec_caches = []
    for layer in model.decoder:
        seq, layer_cache = lstm_forward(layer, seq)
        dec_caches.append(layer_cache)

    # the decoder outputs as (H, T, B), how its buffers hold them; the
    # mask is drawn batch-first, (B, T, H)
    dec_out = seq.transpose(2, 0, 1)
    dec_mask = _dropout_mask(dec_out.shape[::-1], rate, rng) if use_dropout else None
    dec_dropped = dec_out * dec_mask.T if use_dropout else dec_out

    cache = {
        "enc_caches": enc_caches,
        "dec_caches": dec_caches,
        "latent_mask": latent_mask,
        "dec_mask": dec_mask,
        "dec_dropped": dec_dropped,
    }
    return _head(model, dec_dropped), cache


def _head(model: SeqAutoencoderModel, dec_out: np.ndarray) -> np.ndarray:
    """The linear head on (H, T, B) decoder outputs, as a (B, T, 1) view."""
    hidden, t_len, b = dec_out.shape
    recon = model.head_w @ dec_out.reshape(hidden, t_len * b)
    recon += model.head_b[:, None]
    return recon.reshape(1, t_len, b).T


def _backward_batch(
    model: SeqAutoencoderModel, cache: dict, d_recon: np.ndarray, grad: np.ndarray
) -> None:
    """Gradients of a scalar loss wrt every parameter, given d loss/d recon
    for a (B, T, 1) reconstruction, written into `grad`.

    `grad` is a float64 vector laid out like model.vector; every entry
    is overwritten, the head's by GEMMs and sums with `out=` here and
    each layer's inside lstm_backward, so nothing parameter-sized is
    allocated. The latent's gradient is step T-1 of the last encoder
    layer's, zero elsewhere. Consumes the cache: each layer's forward
    buffers are released once its backward pass has used them.
    """
    if grad.shape != model.vector.shape:
        raise ShapeError(f"gradient vector {grad.shape} does not match {model.vector.shape}")
    layers, d_head_w, d_head_b = _unpack(grad, [p.shape for p in model.params()])
    n_enc = len(model.encoder)
    dec_dropped = cache.pop("dec_dropped")
    hidden, t_len, b = dec_dropped.shape
    d_flat = d_recon.T.reshape(1, t_len * b)
    np.matmul(d_flat, dec_dropped.reshape(hidden, t_len * b).T, out=d_head_w)
    np.sum(d_flat, axis=1, out=d_head_b)
    del dec_dropped

    d_seq = (model.head_w.T @ d_flat).reshape(hidden, t_len, b)
    if cache["dec_mask"] is not None:
        d_seq *= cache["dec_mask"].T
    d_seq = d_seq.transpose(1, 2, 0)

    for layer, out in zip(reversed(model.decoder), reversed(layers[n_enc:])):
        d_seq = lstm_backward(layer, cache["dec_caches"].pop(), d_seq, out)

    grad_out = np.zeros((t_len, b, model.encoder[-1].hidden_size))
    d_seq.sum(axis=0, out=grad_out[-1])
    if cache["latent_mask"] is not None:
        grad_out[-1] *= cache["latent_mask"]
    for layer, out in zip(reversed(model.encoder), reversed(layers[:n_enc])):
        grad_out = lstm_backward(layer, cache["enc_caches"].pop(), grad_out, out)


def reconstruct_windows(model: SeqAutoencoderModel, windows: np.ndarray) -> np.ndarray:
    """Inference-mode reconstruction of a (count, T, 1) stack, chunked.

    A forward-only pass in chunks of CHUNK_WINDOWS windows, the first
    starting at window 0. With more than one chunk and a second CPU this
    process may run on, the calling thread scores chunks 0, 2, 4, ...
    and one worker thread chunks 1, 3, 5, ..., each into its own rows of
    the result, so the result equals that of scoring the chunks one by
    one. The calling thread allocates every buffer, once per call: each
    thread reuses its own across chunks and layers, two layers'
    (hidden, T, chunk) outputs and one step's gates and state. An
    exception in the worker is raised here, after it has been joined.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (model.timesteps, 1):
        raise ShapeError(
            f"windows shape {windows.shape} does not match (count, {model.timesteps}, 1)"
        )
    out = np.empty_like(windows)
    starts = range(0, len(windows), CHUNK_WINDOWS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_threads = max(1, min(2, cpus or 1, len(starts)))
    b = min(CHUNK_WINDOWS, len(windows))
    layers = model.encoder + model.decoder
    widest = max(layer.hidden_size for layer in layers)
    buffers = [
        (np.empty((2, widest * model.timesteps * b)), np.empty(10 * widest * b))
        for _ in range(n_threads)
    ]

    errors = []

    def run(i):
        seq_bufs, scratch = buffers[i]
        try:
            for lo in starts[i::n_threads]:
                seq = windows[lo : lo + CHUNK_WINDOWS].transpose(1, 0, 2)
                for k, layer in enumerate(layers):
                    if k == len(model.encoder):
                        seq = np.broadcast_to(seq[-1], seq.shape)  # the latent, once per timestep
                    seq = lstm_infer(layer, seq, seq_bufs[k % 2], scratch)
                out[lo : lo + CHUNK_WINDOWS] = _head(model, seq.transpose(2, 0, 1))
        except BaseException as exc:  # raised once both threads are done
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, n_threads)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out


def train(
    model: SeqAutoencoderModel, windows: np.ndarray, cfg: TrainConfig
) -> tuple[SeqAutoencoderModel, TrainTrace]:
    """Fit the model in place by mini-batch Adam on per-window MAE.

    `windows` is a (count, T, 1) stack. The validation split is its
    chronological tail (never shuffled); training batches are
    re-shuffled every epoch from a seed-derived stream, so the whole run
    is deterministic given cfg.seed. Dropout applies at the model's own
    `dropout_rate`; cfg.dropout is the rate `detector.fit` builds the
    model with. Returns the model together with the per-epoch trace.

    Training drops any threshold record the model carried, which the
    caller fits again for the new parameters.

    Raises ConfigError, leaving the model unusable, when an
    epoch ends with a non-finite loss or parameter, or when the final
    train MAE exceeds DIVERGENCE_FACTOR times the MAE of an all-zero
    reconstruction of the training windows.
    """
    if len(windows) == 0:
        raise DataError("training requires at least one window")
    windows = np.asarray(windows, dtype=np.float64)  # no ndarray subclass in the backward pass
    n_val = int(len(windows) * cfg.validation_fraction)
    n_train = len(windows) - n_val
    train_data = windows[:n_train]
    val_data = windows[n_train:]

    trace = TrainTrace()
    if cfg.epochs == 0:
        return model, trace

    model.threshold = None  # fit on the parameters this run replaces
    grad = np.empty_like(model.vector)  # every batch overwrites all of it
    state = AdamState.for_vector(model.vector)
    shuffle_rng = substream(cfg.seed, "shuffle")
    dropout_rng = substream(cfg.seed, "dropout")
    denom = train_data.shape[0] * model.timesteps

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        epoch_abs_err = 0.0
        for lo in range(0, n_train, cfg.batch_size):
            batch = train_data[order[lo : lo + cfg.batch_size]]
            recon, cache = _forward_batch(model, batch, dropout_rng)
            diff = recon - batch
            epoch_abs_err += float(np.abs(diff).sum())
            d_recon = np.sign(diff) / diff.size
            _backward_batch(model, cache, d_recon, grad)
            adam_step(model.vector, grad, state, cfg.learning_rate)
        train_mae = epoch_abs_err / denom
        if not (np.isfinite(train_mae) and np.isfinite(model.vector).all()):
            raise ConfigError(
                f"training diverged at epoch {epoch}: train MAE {train_mae!r} with a "
                f"non-finite loss or parameter at learning rate {cfg.learning_rate!r}"
            )
        trace.train_loss.append(train_mae)
        if n_val:
            val_recon = reconstruct_windows(model, val_data)
            trace.val_loss.append(float(np.mean(np.abs(val_recon - val_data))))
        else:
            trace.val_loss.append(float("nan"))

    zero_mae = float(np.abs(train_data).mean())
    if train_mae > DIVERGENCE_FACTOR * zero_mae:
        raise ConfigError(
            f"training diverged: final epoch {cfg.epochs} ended at train MAE {train_mae!r}, "
            f"over {DIVERGENCE_FACTOR:g} times the {zero_mae!r} of an all-zero reconstruction, "
            f"at learning rate {cfg.learning_rate!r}"
        )
    return model, trace


def _threshold_from_doc(doc, path: str) -> ThresholdRecord:
    if doc is None:
        raise DataError(f"model file {path} has no threshold record; retrain the model")
    where = f"threshold record of model file {path}"
    try:
        record = ThresholdRecord(
            value=json_number(doc, "value", float, where),
            train_points=json_number(doc, "train_points", int, where),
            window_len=json_number(doc, "window_len", int, where),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad threshold record in model file {path}: {exc}") from exc
    if not math.isfinite(record.value):
        raise DataError(f"model file {path} has a non-finite threshold {record.value!r}")
    if record.value < 0 or record.train_points < record.window_len:
        raise DataError(f"model file {path} has an impossible threshold record {doc!r}")
    return record


def _model_header(model: SeqAutoencoderModel, version: int) -> dict:
    return {
        "format_version": version,
        "kind": "lstm-autoencoder",
        "arch": model.arch,
        "timesteps": model.timesteps,
        "features": 1,
        "dropout_rate": model.dropout_rate,
        "init_seed": model.init_seed,
        "threshold": None if model.threshold is None else asdict(model.threshold),
    }


def save_model(model: SeqAutoencoderModel, path: str) -> None:
    """Write the model and its threshold record: one JSON header line,
    then `model.vector` as little-endian float64 bytes.

    A load returns bit-identical parameters. The write goes through a
    temp file + rename so a crashed save never leaves a partial model.
    Raises DataError for a model without a threshold record, which
    load_model would reject, and naming the path for a failed write.
    """
    if model.threshold is None:
        raise DataError("cannot save a model without its threshold record")
    tmp = path + TEMP_SUFFIX
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(_model_header(model, MODEL_FORMAT_VERSION)).encode() + b"\n")
            fh.write(np.ascontiguousarray(model.vector, dtype="<f8"))
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise DataError(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str) -> SeqAutoencoderModel:
    """Read a model saved by save_model, checking its version and threshold
    record, which comes back as the model's `threshold`, that the
    payload holds exactly the parameters the header's architecture tag
    implies, and that every one is finite.
    The kind and the feature count must be the two values save_model
    always writes. The format version, timesteps, init seed and the
    record's train points and window length must be JSON integers, the
    dropout rate and threshold value JSON numbers; a bool or string is
    neither. Raises DataError naming the path for any file that fails."""
    try:
        with open(path, "rb") as fh:
            payload_bytes = os.fstat(fh.fileno()).st_size
            line = fh.readline()
            payload_bytes -= len(line)
            if not line.endswith(b"\n"):
                raise ValueError("no newline ends a header line")
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("the header line is not a JSON object")
            version = doc.get("format_version")
            if type(version) is not int or version != MODEL_FORMAT_VERSION:
                raise DataError(
                    f"model file {path} has format version {version!r}, "
                    f"this build supports {MODEL_FORMAT_VERSION}; retrain the model"
                )
            for key, value in (("kind", "lstm-autoencoder"), ("features", 1)):
                found = doc.get(key)
                if type(found) is not type(value) or found != value:
                    raise ValueError(f"{key!r} is {found!r}, expected {value!r}")
            threshold = _threshold_from_doc(doc.get("threshold"), path)
            arch = str(doc["arch"])
            timesteps = json_number(doc, "timesteps", int, f"model file {path}")
            dropout_rate = json_number(doc, "dropout_rate", float, f"model file {path}")
            sizes = _layer_sizes(arch, timesteps, dropout_rate)
            if threshold.window_len != timesteps:
                raise ShapeError(
                    f"threshold fit on windows of {threshold.window_len}, "
                    f"model has {timesteps} timesteps"
                )
            shapes = [shape for h, d in sizes for shape in ((4 * h, h + d), (4 * h,))]
            shapes += [(1, sizes[-1][0]), (1,)]
            # the count comes from the header, and nothing is sized from it
            count = sum(math.prod(shape) for shape in shapes)
            if payload_bytes != 8 * count:
                raise ShapeError(
                    f"the payload is {payload_bytes} bytes, {arch!r} implies {8 * count}"
                )
            vector = np.fromfile(fh, dtype="<f8", count=count)
            if not np.isfinite(vector).all():
                raise ShapeError("a parameter has a non-finite value")
            return _from_vector(
                vector,
                shapes,
                timesteps=timesteps,
                dropout_rate=dropout_rate,
                arch=arch,
                init_seed=json_number(doc, "init_seed", int, f"model file {path}"),
                threshold=threshold,
            )
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    except (ShapeError, ConfigError) as exc:
        raise DataError(f"inconsistent model file {path}: {exc}") from exc


def model_digest(model: SeqAutoencoderModel) -> str:
    """Stable identity of a model, without serialising it.

    sha256 over a canonical JSON header (the model file's header, but
    for its format version, plus the shape of every array of
    `params()`), a newline, then every
    parameter as little-endian float64 bytes in `params()` order, which
    is `model.vector`.
    """
    shapes = [list(p.shape) for p in model.params()]
    header = {**_model_header(model, _DIGEST_VERSION), "shapes": shapes}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
    digest.update(np.ascontiguousarray(model.vector, dtype="<f8"))
    return digest.hexdigest()

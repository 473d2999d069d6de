"""Sequence autoencoder: LSTM encoder to a latent vector, latent repeated
once per timestep, LSTM decoder returning sequences, and a shared linear
head applied at every timestep.

Multi-layer variants stack encoder LSTMs (sequences between layers, last
layer emits only its final hidden state) and mirror the unit counts in
reverse order on the decoder side. Exactly two dropout sites exist:
the latent vector and the decoder's output sequence, both active only
in training mode with inverted scaling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .core_math import AdamState, Rng, adam_step, glorot_init
from .errors import (
    ConfigError,
    EmptyInputError,
    ModelFileError,
    ModelVersionError,
    ShapeError,
    TrainingDivergedError,
)
from .lstm import LstmLayerParams, lstm_backward, lstm_forward, lstm_infer
from .windowing import WindowSet

__all__ = [
    "SeqAutoencoderModel",
    "ThresholdRecord",
    "TrainConfig",
    "TrainTrace",
    "parse_arch",
    "build_model",
    "reconstruct_windows",
    "mae",
    "train",
    "save_model",
    "load_model",
    "model_digest",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 3

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
    encoder: list[LstmLayerParams]
    decoder: list[LstmLayerParams]
    head_w: np.ndarray  # (features, last decoder hidden)
    head_b: np.ndarray  # (features,)
    timesteps: int
    features: int
    dropout_rate: float
    arch: str
    init_seed: int
    threshold: ThresholdRecord | None = None  # set after training, saved with the model

    @property
    def latent_size(self) -> int:
        return self.encoder[-1].hidden_size

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.encoder + self.decoder:
            out.extend(layer.arrays())
        out.append(self.head_w)
        out.append(self.head_b)
        return out

    def validate(self) -> None:
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        units = parse_arch(self.arch)
        if [l.hidden_size for l in self.encoder] != units:
            raise ShapeError(f"encoder sizes do not match architecture {self.arch!r}")
        if [l.hidden_size for l in self.decoder] != units[::-1]:
            raise ShapeError(f"decoder sizes do not mirror architecture {self.arch!r}")
        expect_in = self.features
        for layer in self.encoder:
            layer.validate()
            if layer.input_size != expect_in:
                raise ShapeError(
                    f"encoder layer expects input {layer.input_size}, chain requires {expect_in}"
                )
            expect_in = layer.hidden_size
        expect_in = self.latent_size
        for layer in self.decoder:
            layer.validate()
            if layer.input_size != expect_in:
                raise ShapeError(
                    f"decoder layer expects input {layer.input_size}, chain requires {expect_in}"
                )
            expect_in = layer.hidden_size
        if self.head_w.shape != (self.features, self.decoder[-1].hidden_size):
            raise ShapeError(
                f"head weight {self.head_w.shape} does not map decoder hidden "
                f"{self.decoder[-1].hidden_size} to {self.features} features"
            )
        if self.head_b.shape != (self.features,):
            raise ShapeError(f"head bias shape {self.head_b.shape} != ({self.features},)")


def build_model(
    arch: str,
    timesteps: int,
    features: int = 1,
    dropout_rate: float = 0.2,
    seed: int = 0,
) -> SeqAutoencoderModel:
    """Construct a freshly initialized model for one architecture tag."""
    if timesteps < 1:
        raise ConfigError(f"timesteps must be >= 1, got {timesteps}")
    if features < 1:
        raise ConfigError(f"features must be >= 1, got {features}")
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    units = parse_arch(arch)
    rng = Rng(seed).spawn("init")
    encoder, decoder = [], []
    in_size = features
    for h in units:
        encoder.append(LstmLayerParams.init(h, in_size, rng))
        in_size = h
    in_size = units[-1]
    for h in units[::-1]:
        decoder.append(LstmLayerParams.init(h, in_size, rng))
        in_size = h
    model = SeqAutoencoderModel(
        encoder=encoder,
        decoder=decoder,
        head_w=glorot_init(features, units[0], rng),
        head_b=np.zeros(features),
        timesteps=int(timesteps),
        features=int(features),
        dropout_rate=float(dropout_rate),
        arch=arch,
        init_seed=int(seed),
    )
    model.validate()
    return model


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    dropout: float = 0.2
    batch_size: int = 64
    epochs: int = 30
    validation_fraction: float = 0.10
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ConfigError(
                f"validation fraction must be in [0, 1), got {self.validation_fraction}"
            )


@dataclass
class TrainTrace:
    """Per-epoch mean training MAE (running, pre-update batches) and
    validation MAE (dropout disabled, end of epoch)."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


def _dropout_mask(shape, rate: float, rng: Rng) -> np.ndarray:
    # inverted scaling: expectation preserved, inference applies nothing
    return (rng.uniform(size=shape) >= rate) / (1.0 - rate)


def _forward_batch(
    model: SeqAutoencoderModel,
    batch: np.ndarray,
    train_mode: bool = False,
    rng: Rng | None = None,
    dropout_rate: float | None = None,
):
    """Run a (B, T, m) batch through the full autoencoder, keeping what
    backpropagation needs: the training pass.

    Returns (reconstruction, cache); the reconstruction is (B, T, m) and
    the cache is only meaningful for one subsequent _backward_batch
    call. Inference without a backward pass goes through
    reconstruct_windows, which keeps no cache.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1:] != (model.timesteps, model.features):
        raise ShapeError(
            f"batch shape {batch.shape} does not match (B, {model.timesteps}, {model.features})"
        )
    rate = model.dropout_rate if dropout_rate is None else dropout_rate
    use_dropout = train_mode and rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("training-mode forward with dropout needs an Rng")
    t_len = model.timesteps

    seq = batch.transpose(1, 0, 2)
    enc_caches = []
    for layer in model.encoder[:-1]:
        seq, layer_cache = lstm_forward(layer, seq, return_sequences=True)
        enc_caches.append(layer_cache)
    latent, layer_cache = lstm_forward(model.encoder[-1], seq, return_sequences=False)
    enc_caches.append(layer_cache)

    latent_mask = _dropout_mask(latent.shape, rate, rng) if use_dropout else None
    latent_dropped = latent * latent_mask if use_dropout else latent

    seq = np.broadcast_to(latent_dropped, (t_len, *latent_dropped.shape))
    dec_caches = []
    for layer in model.decoder:
        seq, layer_cache = lstm_forward(layer, seq, return_sequences=True)
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
    """The linear head on (H, T, B) decoder outputs, as a (B, T, m) view."""
    hidden, t_len, b = dec_out.shape
    recon = model.head_w @ dec_out.reshape(hidden, t_len * b)
    recon += model.head_b[:, None]
    return recon.reshape(model.features, t_len, b).T


def _backward_batch(model: SeqAutoencoderModel, cache: dict, d_recon: np.ndarray):
    """Gradients of a scalar loss wrt every parameter, given d loss/d recon
    for a (B, T, m) reconstruction.

    Consumes the cache: each layer's forward buffers are released once
    its backward pass has used them. Returns a flat gradient list
    aligned with model.params().
    """
    dec_dropped = cache.pop("dec_dropped")
    hidden, t_len, b = dec_dropped.shape
    d_flat = d_recon.T.reshape(model.features, t_len * b)
    d_head_w = d_flat @ dec_dropped.reshape(hidden, t_len * b).T
    d_head_b = d_flat.sum(axis=1)
    del dec_dropped

    d_seq = (model.head_w.T @ d_flat).reshape(hidden, t_len, b)
    if cache["dec_mask"] is not None:
        d_seq *= cache["dec_mask"].T
    d_seq = d_seq.transpose(1, 2, 0)

    dec_grads = []
    for layer in reversed(model.decoder):
        grads, d_seq, _, _ = lstm_backward(layer, cache["dec_caches"].pop(), d_seq)
        dec_grads.append(grads)
    dec_grads.reverse()

    d_latent = d_seq.sum(axis=0)
    if cache["latent_mask"] is not None:
        d_latent = d_latent * cache["latent_mask"]

    enc_grads = []
    grad_out = d_latent  # final-state-only gradient for the last encoder layer
    for layer in reversed(model.encoder):
        grads, grad_out, _, _ = lstm_backward(layer, cache["enc_caches"].pop(), grad_out)
        enc_grads.append(grads)
    enc_grads.reverse()

    flat = []
    for g in enc_grads + dec_grads:
        flat.extend(g.arrays())
    flat.append(d_head_w)
    flat.append(d_head_b)
    return flat


def reconstruct_windows(
    model: SeqAutoencoderModel, windows: np.ndarray, chunk: int = 256
) -> np.ndarray:
    """Inference-mode reconstruction of a (count, T, m) stack, chunked.

    A forward-only pass: each layer keeps only its outputs, so one
    chunk holds at most one layer's (T, 4H, chunk) gate buffer and the
    hidden outputs either side of it.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (model.timesteps, model.features):
        raise ShapeError(
            f"windows shape {windows.shape} does not match "
            f"(count, {model.timesteps}, {model.features})"
        )
    out = np.empty_like(windows)
    for lo in range(0, windows.shape[0], chunk):
        seq = windows[lo : lo + chunk].transpose(1, 0, 2)
        for layer in model.encoder[:-1]:
            seq = lstm_infer(layer, seq)
        latent = lstm_infer(model.encoder[-1], seq, return_sequences=False)
        seq = np.broadcast_to(latent, (model.timesteps, *latent.shape))
        for layer in model.decoder:
            seq = lstm_infer(layer, seq)
        out[lo : lo + chunk] = _head(model, seq.transpose(2, 0, 1))
    return out


def mae(recon: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error over every entry (= batch mean of per-window MAE)."""
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if recon.shape != target.shape:
        raise ShapeError(f"shape mismatch: {recon.shape} vs {target.shape}")
    return float(np.mean(np.abs(recon - target)))


def train(
    model: SeqAutoencoderModel, windows: WindowSet, cfg: TrainConfig
) -> tuple[SeqAutoencoderModel, TrainTrace]:
    """Fit the model in place by mini-batch Adam on per-window MAE.

    The validation split is the chronological tail of the window set
    (never shuffled); training batches are re-shuffled every epoch from
    a seed-derived stream, so the whole run is deterministic given
    cfg.seed. Returns the model together with the per-epoch trace.

    Training drops any threshold record the model carried, which the
    caller fits again for the new parameters.

    Raises TrainingDivergedError, leaving the model unusable, when an
    epoch ends with a non-finite loss or parameter, or when the final
    train MAE exceeds DIVERGENCE_FACTOR times the MAE of an all-zero
    reconstruction of the training windows.
    """
    cfg.validate()
    if len(windows) == 0:
        raise EmptyInputError("training requires at least one window")
    data = windows.windows
    n_val = int(len(windows) * cfg.validation_fraction)
    n_train = len(windows) - n_val
    if n_train == 0:
        raise EmptyInputError("validation split leaves no training windows")
    train_data = data[:n_train]
    val_data = data[n_train:]

    trace = TrainTrace()
    if cfg.epochs == 0:
        return model, trace

    model.threshold = None  # fit on the parameters this run replaces
    params = model.params()
    state = AdamState.for_params(params)
    shuffle_rng = Rng(cfg.seed).spawn("shuffle")
    dropout_rng = Rng(cfg.seed).spawn("dropout")
    denom = train_data.shape[0] * model.timesteps * model.features

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n_train)
        epoch_abs_err = 0.0
        for lo in range(0, n_train, cfg.batch_size):
            batch = train_data[order[lo : lo + cfg.batch_size]]
            recon, cache = _forward_batch(
                model, batch, train_mode=True, rng=dropout_rng, dropout_rate=cfg.dropout
            )
            diff = recon - batch
            epoch_abs_err += float(np.abs(diff).sum())
            d_recon = np.sign(diff) / diff.size
            grads = _backward_batch(model, cache, d_recon)
            adam_step(params, grads, state, cfg.learning_rate)
        train_mae = epoch_abs_err / denom
        if not (np.isfinite(train_mae) and all(np.isfinite(p).all() for p in params)):
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: train MAE {train_mae!r} with a "
                f"non-finite loss or parameter at learning rate {cfg.learning_rate!r}"
            )
        trace.train_loss.append(train_mae)
        if n_val:
            val_recon = reconstruct_windows(model, val_data)
            trace.val_loss.append(mae(val_recon, val_data))
        else:
            trace.val_loss.append(float("nan"))

    zero_mae = float(np.abs(train_data).mean())
    if train_mae > DIVERGENCE_FACTOR * zero_mae:
        raise TrainingDivergedError(
            f"training diverged: final epoch {cfg.epochs} ended at train MAE {train_mae!r}, "
            f"over {DIVERGENCE_FACTOR:g} times the {zero_mae!r} of an all-zero reconstruction, "
            f"at learning rate {cfg.learning_rate!r}"
        )
    return model, trace


def _layer_to_doc(layer: LstmLayerParams) -> dict:
    return {"w": layer.w.tolist(), "b": layer.b.tolist()}


def _layer_from_doc(doc: dict) -> LstmLayerParams:
    try:
        w = np.asarray(doc["w"], dtype=np.float64)
        b = np.asarray(doc["b"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"bad layer record: {exc}") from exc
    if w.ndim != 2 or b.ndim != 1:
        raise ModelFileError(f"bad layer record: weight {w.shape}, bias {b.shape}")
    return LstmLayerParams(w=w, b=b)


def _threshold_from_doc(doc, path: str) -> ThresholdRecord:
    if doc is None:
        raise ModelFileError(f"model file {path} has no threshold record; retrain the model")
    try:
        record = ThresholdRecord(
            value=float(doc["value"]),
            train_points=int(doc["train_points"]),
            window_len=int(doc["window_len"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"bad threshold record in model file {path}: {exc}") from exc
    if not math.isfinite(record.value):
        raise ModelFileError(f"model file {path} has a non-finite threshold {record.value!r}")
    if record.value < 0 or record.train_points < record.window_len:
        raise ModelFileError(f"model file {path} has an impossible threshold record {doc!r}")
    return record


def _model_header(model: SeqAutoencoderModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "lstm-autoencoder",
        "arch": model.arch,
        "timesteps": model.timesteps,
        "features": model.features,
        "dropout_rate": model.dropout_rate,
        "init_seed": model.init_seed,
        "threshold": None if model.threshold is None else asdict(model.threshold),
    }


def _model_doc(model: SeqAutoencoderModel) -> dict:
    return {
        **_model_header(model),
        "encoder": [_layer_to_doc(l) for l in model.encoder],
        "decoder": [_layer_to_doc(l) for l in model.decoder],
        "head_weight": model.head_w.tolist(),
        "head_bias": model.head_b.tolist(),
    }


def save_model(model: SeqAutoencoderModel, path: str) -> None:
    """Write the model and its threshold record as a versioned JSON document.

    Floats are serialized as shortest round-tripping decimals, so a
    load returns bit-identical parameters. The write goes through a
    temp file + rename so a crashed save never leaves a partial model.
    Raises ModelFileError for a model without a threshold record, which
    load_model would reject.
    """
    if model.threshold is None:
        raise ModelFileError("cannot save a model without its threshold record")
    # one-shot dumps runs CPython's C encoder; json.dump to a file never does
    text = json.dumps(_model_doc(model))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


def load_model(path: str) -> SeqAutoencoderModel:
    """Read a model saved by save_model, checking version, shapes and the
    threshold record, which comes back as the model's `threshold`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"malformed model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"malformed model file {path}: not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model file {path} has format version {version!r}, "
            f"this build supports {MODEL_FORMAT_VERSION}"
        )
    threshold = _threshold_from_doc(doc.get("threshold"), path)
    try:
        model = SeqAutoencoderModel(
            encoder=[_layer_from_doc(l) for l in doc["encoder"]],
            decoder=[_layer_from_doc(l) for l in doc["decoder"]],
            head_w=np.asarray(doc["head_weight"], dtype=np.float64),
            head_b=np.asarray(doc["head_bias"], dtype=np.float64),
            timesteps=int(doc["timesteps"]),
            features=int(doc["features"]),
            dropout_rate=float(doc["dropout_rate"]),
            arch=str(doc["arch"]),
            init_seed=int(doc["init_seed"]),
            threshold=threshold,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"malformed model file {path}: {exc}") from exc
    try:
        model.validate()
    except (ShapeError, ConfigError) as exc:
        raise ModelFileError(f"inconsistent model file {path}: {exc}") from exc
    if threshold.window_len != model.timesteps:
        raise ModelFileError(
            f"inconsistent model file {path}: threshold fit on windows of "
            f"{threshold.window_len}, model has {model.timesteps} timesteps"
        )
    return model


def model_digest(model: SeqAutoencoderModel) -> str:
    """Stable identity of a model, without serialising it.

    sha256 over a canonical JSON header (format version, kind, arch,
    timesteps, features, dropout rate, init seed, threshold record and
    the shape of every array of `params()`), a newline, then each array
    as little-endian float64 bytes in `params()` order.
    """
    params = model.params()
    header = {**_model_header(model), "shapes": [list(p.shape) for p in params]}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
    for p in params:
        digest.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return digest.hexdigest()

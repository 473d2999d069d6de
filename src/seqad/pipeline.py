"""Data handling: the file layer, cleaning, standard scaling, the
train/test split with its sigma-band filter and labels, and a
synthetic-series generator. The band's mean and population standard
deviation come from `fit_scaler`, the function that fits the scaler.

Timestamps are UTC epoch seconds held as float64 (NaN marks an invalid
timestamp in raw, pre-clean data only). Every file but the model is read
through `open_text` and written through `write_csv` or `write_json`, as
UTF-8 with LF. Series CSV files have a `timestamp,value[,label]` header.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .core_math import substream
from .errors import ConfigError, CsvParseError, DataError

__all__ = [
    "TimeSeries",
    "ScalerParams",
    "CleanReport",
    "SplitResult",
    "SynthProfile",
    "parse_timestamp",
    "format_timestamp",
    "read_series_csv",
    "write_series_csv",
    "clean_report",
    "fit_scaler",
    "apply_scaler",
    "build_train_test",
    "generate_synthetic",
]

_NAN_TOKENS = {"", "nan", "NaN", "NAN", "null", "NULL", "na", "NA"}

# format_timestamp writes the UTC years 1 to 9999. Inside these instants a
# parsed time is surely one of them; outside, a UTC offset or the rounding
# to whole microseconds can carry it past either end.
_SURELY_WRITABLE = (
    datetime(2, 1, 1, tzinfo=timezone.utc).timestamp(),
    datetime(9999, 1, 1, tzinfo=timezone.utc).timestamp(),
)


def parse_timestamp(text: str) -> float:
    """ISO-8601 timestamp -> UTC epoch seconds. Text that is not one, or
    an instant that format_timestamp cannot write, raises ValueError."""
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    epoch = dt.timestamp()
    if not _SURELY_WRITABLE[0] <= epoch < _SURELY_WRITABLE[1]:
        format_timestamp(epoch)
    return epoch


def format_timestamp(epoch: float) -> str:
    """UTC epoch seconds -> ISO-8601 with a four-digit year and
    microseconds only when non-zero. An instant outside the UTC years 1
    to 9999 raises ValueError, or OverflowError far outside them."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc).replace(tzinfo=None).isoformat()


@dataclass
class TimeSeries:
    """Timestamped scalar readings with optional 0/1 anomaly labels."""

    timestamps: np.ndarray  # float64 epoch seconds
    values: np.ndarray  # float64
    labels: np.ndarray | None = None  # int64, 0 normal / 1 anomaly

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.timestamps.shape != self.values.shape:
            raise DataError(
                f"timestamp/value length mismatch: {self.timestamps.shape} vs {self.values.shape}"
            )
        if self.labels is not None and self.labels.shape != self.values.shape:
            raise DataError(
                f"label/value length mismatch: {self.labels.shape} vs {self.values.shape}"
            )

    def __len__(self) -> int:
        return self.values.shape[0]

    def slice(self, mask_or_index) -> "TimeSeries":
        labels = self.labels[mask_or_index] if self.labels is not None else None
        return TimeSeries(self.timestamps[mask_or_index], self.values[mask_or_index], labels)


@contextmanager
def open_text(path: str, error: type[Exception], hint: str = ""):
    """A UTF-8 text file opened for reading. A file that cannot be opened
    or read as UTF-8 raises `error` naming the path, `hint` appended."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}{hint}") from exc


@contextmanager
def read_csv(path: str, columns: tuple, optional: str, hint: str = ""):
    """Whether the `optional` column follows `columns` in the stripped
    header, and an iterator of (line number, stripped fields) over the
    non-blank rows. Any other header, or a row without one field per
    column, raises CsvParseError with its line; an unreadable file
    raises DataError."""
    with open_text(path, DataError, hint) as fh:
        reader = csv.reader(fh)
        header = [name.strip() for name in next(reader, [])]
        if header not in (list(columns), [*columns, optional]):
            raise CsvParseError(
                f"expected header '{','.join(columns)}[,{optional}]', got {','.join(header)!r}",
                line=1,
            )
        yield len(header) > len(columns), _csv_fields(reader, len(header))


def _csv_fields(reader, width: int):
    for lineno, row in enumerate(reader, start=2):
        if row:
            if len(row) != width:
                raise CsvParseError(f"expected {width} fields, got {len(row)}", line=lineno)
            yield lineno, [text.strip() for text in row]


def write_csv(path: str, header: list, rows) -> None:
    """A header and rows of already formatted cells, comma-joined; UTF-8, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_json(path: str, doc: dict) -> None:
    """`doc` as two-space-indented JSON and a final newline; UTF-8, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def json_number(doc: dict, key: str, kind: type, error: type[Exception], where: str):
    """`doc[key]` as `kind`: int takes a JSON integer, float any JSON
    number. A bool, string or other value raises `error` naming `where`
    and the key; a missing key raises KeyError."""
    value = doc[key]
    if not (type(value) is int or (kind is float and type(value) is float)):
        wanted = "an integer" if kind is int else "a number"
        raise error(f"{where}: {key!r} must be {wanted}, got {value!r}")
    return kind(value)


def read_series_csv(path: str) -> TimeSeries:
    """Read a raw series; tolerates NaN markers, rejects garbage fields.

    Empty/NaN tokens in either column become NaN for clean_report() to
    handle; infinite values (including overflowing ones such as 1e999)
    and any other unparseable field raise CsvParseError with its line
    number. An unreadable or non-UTF-8 file raises DataError.
    """
    timestamps, values, labels = [], [], []
    with read_csv(path, ("timestamp", "value"), "label") as (has_labels, rows):
        for lineno, (ts_text, val_text, *label) in rows:
            if ts_text in _NAN_TOKENS:
                ts = float("nan")
            else:
                try:
                    ts = parse_timestamp(ts_text)
                except ValueError:
                    raise CsvParseError(f"bad timestamp {ts_text!r}", line=lineno)
            if val_text in _NAN_TOKENS:
                val = float("nan")
            else:
                try:
                    val = float(val_text)
                except ValueError:
                    raise CsvParseError(f"bad value {val_text!r}", line=lineno)
                if math.isinf(val):
                    raise CsvParseError(f"non-finite value {val_text!r}", line=lineno)
            timestamps.append(ts)
            values.append(val)
            if label:
                if label[0] not in ("0", "1"):
                    raise CsvParseError(f"bad label {label[0]!r}, expected 0 or 1", line=lineno)
                labels.append(int(label[0]))
    return TimeSeries(
        np.array(timestamps, dtype=np.float64),
        np.array(values, dtype=np.float64),
        np.array(labels, dtype=np.int64) if has_labels else None,
    )


def write_series_csv(path: str, series: TimeSeries) -> None:
    header = ["timestamp", "value"]
    cells = [map(format_timestamp, series.timestamps.tolist()), map(repr, series.values.tolist())]
    if series.labels is not None:
        header.append("label")
        cells.append(map(str, series.labels.tolist()))
    write_csv(path, header, zip(*cells))


@dataclass
class CleanReport:
    series: TimeSeries
    duplicates_removed: int
    invalid_dropped: int  # rows without a usable timestamp
    nan_values: int  # zeroed, or dropped in strict mode


def clean_report(raw: TimeSeries, strict_nan: bool = False) -> CleanReport:
    """Clean a raw series and account for every dropped or altered row.

    Rows without a valid timestamp are dropped (a timeless reading
    cannot be placed in the series). Rows with a valid timestamp but a
    NaN value keep their slot with value 0, unless strict_nan drops
    them. Duplicate timestamps keep the first occurrence in input
    order. Output is sorted with strictly increasing timestamps.
    """
    ts, vals = raw.timestamps, raw.values

    valid_ts = ~np.isnan(ts)
    invalid_dropped = int((~valid_ts).sum())
    ts, vals = ts[valid_ts], vals[valid_ts]

    nan_vals = np.isnan(vals)
    if strict_nan:
        ts, vals = ts[~nan_vals], vals[~nan_vals]
    else:
        vals = np.where(nan_vals, 0.0, vals)

    # the index of each timestamp's first occurrence, in ascending timestamp order
    _, first_pos = np.unique(ts, return_index=True)
    duplicates_removed = ts.shape[0] - first_pos.shape[0]
    ts, vals = ts[first_pos], vals[first_pos]

    if ts.shape[0] == 0:
        raise DataError("cleaning removed every record")
    return CleanReport(
        series=TimeSeries(ts, vals),
        duplicates_removed=int(duplicates_removed),
        invalid_dropped=invalid_dropped,
        nan_values=int(nan_vals.sum()),
    )


@dataclass
class ScalerParams:
    """Standard-scaler parameters (population standard deviation)."""

    mean: float
    std: float


def fit_scaler(values: np.ndarray) -> ScalerParams:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise DataError(f"scaler needs at least 2 values, got {values.size}")
    with np.errstate(over="ignore"):  # checked below
        mean = float(values.mean())
        std = float(values.std())  # population form
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DataError(
            f"scaler of {values.size} values overflows float64: mean {mean!r}, std {std!r}"
        )
    if std == 0.0:
        raise DataError("constant series: standard deviation is zero")
    return ScalerParams(mean=mean, std=std)


def apply_scaler(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - scaler.mean) / scaler.std


@dataclass
class SplitResult:
    """The two sides of `build_train_test` and their normal band."""

    train: TimeSeries  # pre-split, filtered to the normal band, unlabeled
    test: TimeSeries  # post-split, everything kept, labeled against the band
    band: tuple[float, float]  # (lo, hi), boundary inclusive
    train_dropped: int


def build_train_test(series: TimeSeries, split_instant: float, k: float) -> SplitResult:
    """Chronological split. `fit_scaler` on the whole training period gives
    the normal band [mean - k*std, mean + k*std], which filters the training
    points and labels the test points, 0 inside (boundary inclusive) and 1
    outside. A negative `k` raises ConfigError, after the fit."""
    before = series.timestamps < split_instant
    after = ~before
    if not before.any() or not after.any():
        raise DataError("split instant leaves an empty train or test side")
    train_side, test_side = series.slice(before), series.slice(after)

    fit = fit_scaler(train_side.values)
    k = float(k)
    if k < 0:
        raise ConfigError(f"sigma multiplier must be >= 0, got {k}")
    lo, hi = fit.mean - k * fit.std, fit.mean + k * fit.std

    keep = (train_side.values >= lo) & (train_side.values <= hi)
    train = TimeSeries(train_side.timestamps[keep], train_side.values[keep])
    if len(train) == 0:
        raise DataError("sigma filter removed every training point")
    normal = (test_side.values >= lo) & (test_side.values <= hi)
    test = TimeSeries(test_side.timestamps, test_side.values, np.where(normal, 0, 1))
    return SplitResult(train=train, test=test, band=(lo, hi), train_dropped=int((~keep).sum()))


@dataclass
class SynthProfile:
    """Shape of a generated series: a daily cycle plus noise, optional
    flat gaps (school breaks), and upward spikes injected at random.

    Its fields are the CLI's synthesis keys, with their defaults. An
    out-of-range field raises ConfigError on construction."""

    length: int = 10_000
    start: str = "2018-01-01T00:00:00"
    step_minutes: float = 1.0
    baseline: float = 450.0
    daily_amplitude: float = 80.0
    period_minutes: float = 1440.0
    noise_sigma: float = 30.0
    spike_rate: float = 0.01
    spike_magnitude: float = 6.0  # in multiples of the clean signal's std
    breaks: tuple = field(default_factory=tuple)  # (start, end) index pairs, cycle suppressed

    def __post_init__(self) -> None:
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        if self.step_minutes <= 0:
            raise ConfigError(f"step_minutes must be positive, got {self.step_minutes}")
        if self.period_minutes <= 0:
            raise ConfigError(f"period_minutes must be positive, got {self.period_minutes}")
        if self.daily_amplitude < 0 or self.noise_sigma < 0:
            raise ConfigError("amplitude and noise sigma must be non-negative")
        if not (0.0 <= self.spike_rate <= 1.0):
            raise ConfigError(f"spike_rate must be in [0, 1], got {self.spike_rate}")
        if self.spike_magnitude < 0:
            raise ConfigError(f"spike_magnitude must be >= 0, got {self.spike_magnitude}")
        try:
            start = parse_timestamp(self.start)
        except ValueError:
            raise ConfigError(f"bad start timestamp {self.start!r}")
        try:
            # the last of generate_synthetic's timestamps, computed as it does
            format_timestamp(start + (self.length - 1) * (self.step_minutes * 60.0))
        except (ValueError, OverflowError):
            raise ConfigError(
                f"length {self.length} at step_minutes {self.step_minutes!r} from {self.start} "
                f"runs past the UTC year 9999, the last a series CSV can hold"
            ) from None
        for pair in self.breaks:
            if len(pair) != 2 or not (0 <= pair[0] < pair[1] <= self.length):
                raise ConfigError(f"bad break range {pair!r}")


def generate_synthetic(profile: SynthProfile, seed: int) -> tuple[TimeSeries, np.ndarray]:
    """Deterministic synthetic series plus the injected anomaly indices.

    The clean signal is baseline + daily sinusoid + gaussian noise, with
    the sinusoid suppressed inside break ranges. Spikes add
    spike_magnitude times the clean signal's own std, upward, at
    points drawn independently with probability spike_rate. A profile
    whose values overflow float64 raises ConfigError.
    """
    rng = substream(seed, "synth")
    n = profile.length
    start = parse_timestamp(profile.start)
    timestamps = start + np.arange(n) * (profile.step_minutes * 60.0)

    phase = 2.0 * np.pi * np.arange(n) * profile.step_minutes / profile.period_minutes
    cycle = profile.daily_amplitude * np.sin(phase)
    for lo, hi in profile.breaks:
        cycle[int(lo) : int(hi)] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        clean_values = profile.baseline + cycle + rng.normal(0.0, profile.noise_sigma, n)

        spikes = rng.uniform(size=n) < profile.spike_rate
        anomaly_indices = np.nonzero(spikes)[0]
        values = clean_values.copy()
        if anomaly_indices.size:
            values[anomaly_indices] += profile.spike_magnitude * clean_values.std()
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(
            f"synthetic point {bad[0]} is {values[bad[0]]}: baseline {profile.baseline!r}, "
            f"daily_amplitude {profile.daily_amplitude!r}, noise_sigma {profile.noise_sigma!r} "
            f"and spike_magnitude {profile.spike_magnitude!r} overflow float64"
        )
    return TimeSeries(timestamps, values), anomaly_indices

"""Data handling: the file layer, cleaning, standard scaling, the
train/test split with its sigma-band filter and labels, a
synthetic-series generator, and the training settings. The band's mean
and population standard deviation come from `fit_scaler`, the function
that fits the scaler.

Timestamps are UTC epoch seconds held as float64 (NaN marks an invalid
timestamp in raw, pre-clean data only). Every file but the model is read
through `open_text` and written through `write_csv` or `write_json`, as
UTF-8 with LF. The three CSV tables, a raw series and the workspace
series `preprocess` writes from it (`timestamp,value`), and a detection
report (`timestamp,value,loss,verdict`), each with an optional `label`
column, are tuples of (name, kind) columns, a kind being the function
that parses and checks a column's text. They are read through
`_read_table`, which names the file and line of the first fault, and
written through `_write_table`. A CSV column of timestamps goes through
`parse_timestamps` and `format_timestamps`, which give what
`parse_timestamp` and `format_timestamp` give for each element.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .core_math import substream
from .errors import ConfigError, DataError

__all__ = [
    "TimeSeries",
    "DetectionReport",
    "ScalerParams",
    "CleanReport",
    "SplitResult",
    "SynthProfile",
    "TrainConfig",
    "parse_timestamp",
    "format_timestamp",
    "read_series_csv",
    "write_series_csv",
    "write_report_csv",
    "read_report_csv",
    "clean_report",
    "fit_scaler",
    "apply_scaler",
    "build_train_test",
    "generate_synthetic",
]

_NAN_TOKENS = {"", "nan", "NaN", "NAN", "null", "NULL", "na", "NA"}
_AS_NAN = dict.fromkeys(_NAN_TOKENS, "nan")  # a NaN token as text float() reads
_BITS = {"0": 0, "1": 1}

# the rows a CSV reader or writer holds as text at a time: enough that numpy
# calls on whole columns cost little per row, few enough that the text adds
# little to a stage's peak memory
CSV_CHUNK_ROWS = 512

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


# The text numpy parses for parse_timestamps: YYYY-MM-DD[T ]HH:MM:SS in ASCII
# digits. On it, numpy's datetime64 and fromisoformat accept the same fields
# and give the same instant, except year 0, which lies outside _SURELY_WRITABLE.
_DIGIT_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_PUNCT_AT, _PUNCT = [4, 7, 13, 16], [ord("-"), ord("-"), ord(":"), ord(":")]


def parse_timestamps(texts: list) -> np.ndarray:
    """`parse_timestamp` of every text, as float64, with NaN where it
    raises ValueError. Text of the shape above whose instant lies inside
    _SURELY_WRITABLE is parsed by numpy; every other text, by
    `parse_timestamp`."""
    n = len(texts)
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=n)
    fixed = np.array(texts, dtype="U19")  # a longer text is cut, and then fails on its length
    chars = fixed.view(np.uint32).reshape(n, 19)
    fast = lengths == 19
    fast &= (chars[:, _DIGIT_AT] - ord("0") <= 9).all(axis=1)  # unsigned: below "0" wraps
    fast &= (chars[:, _PUNCT_AT] == _PUNCT).all(axis=1)
    fast &= (chars[:, 10] == ord("T")) | (chars[:, 10] == ord(" "))
    epochs = np.full(n, np.nan)
    try:
        epochs[fast] = fixed[fast].astype("datetime64[s]").astype(np.int64)
    except ValueError:  # a field out of range somewhere: parse_timestamp judges each text
        fast[:] = False
    fast &= (epochs >= _SURELY_WRITABLE[0]) & (epochs < _SURELY_WRITABLE[1])
    for i in np.flatnonzero(~fast).tolist():
        try:
            epochs[i] = parse_timestamp(texts[i])
        except ValueError:
            epochs[i] = np.nan
    return epochs


def format_timestamps(epochs: np.ndarray) -> list:
    """`format_timestamp` of every epoch, raising what it raises for the
    first epoch it cannot write. Whole seconds inside _SURELY_WRITABLE are
    written by numpy; every other epoch, by `format_timestamp`."""
    epochs = np.asarray(epochs, dtype=np.float64)
    fast = (epochs >= _SURELY_WRITABLE[0]) & (epochs < _SURELY_WRITABLE[1])
    fast &= epochs == np.floor(epochs)
    seconds = np.where(fast, epochs, 0.0).astype(np.int64).astype("datetime64[s]")
    texts = np.datetime_as_string(seconds).tolist()
    for i in np.flatnonzero(~fast).tolist():
        texts[i] = format_timestamp(float(epochs[i]))
    return texts


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


@dataclass
class DetectionReport:
    timestamps: np.ndarray
    values: np.ndarray  # raw units
    losses: np.ndarray  # normalized units
    verdicts: np.ndarray  # 1 where loss > threshold
    labels: np.ndarray | None = None


@contextmanager
def open_text(path: str, error: type[Exception]):
    """A UTF-8 text file opened for reading. A file that cannot be opened (a
    directory, say) or read as UTF-8 raises `error` naming the path."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def first_true(mask: np.ndarray):
    """The index of the first True in `mask`, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def parse_floats(texts) -> tuple[np.ndarray, int | None]:
    """float() of the texts up to the first it rejects, as float64, and
    that text's index, or None when float() reads them all."""
    values = []
    try:
        values.extend(map(float, texts))  # keeps the values read before a failure
    except ValueError:
        return np.array(values, dtype=np.float64), len(values)
    return np.array(values, dtype=np.float64), None


def _read_table(path: str, table: tuple) -> list:
    """The arrays of a CSV table whose stripped header names the columns
    of `table`, a tuple of (name, kind) pairs, optionally followed by
    `label`, the column _LABEL reads. Rows are read CSV_CHUNK_ROWS at a
    time, and blank ones are skipped. A kind takes a chunk's stripped
    texts of its column and the last value read from it (-inf before the
    first), and gives the chunk's array and its checks: the first row
    each rejects, or None, and a message template over the column's
    `name` and that row's `text`, in the order they apply within a row.
    Each array is concatenated over the chunks. The first bad line, of a
    wrong header, a wrong field count, a row `csv` cannot read or a
    check, raises DataError `<path> line N: <message>`, and an
    unreadable file DataError. Lines are counted in rows, blank ones
    included, except that a row `csv` cannot read is named by the
    reader's line."""
    with open_text(path, DataError) as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader, [])]
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
        names = [name for name, _ in table]
        if header not in (names, [*names, "label"]):
            expected = f"'{','.join(names)}[,label]', got {','.join(header)!r}"
            raise DataError(f"{path} line 1: expected header {expected}")
        table, width = (*table, _LABEL)[: len(header)], len(header)
        parts, last = [], [-np.inf] * width
        start = 2  # the line of the chunk's first row
        while True:
            rows, error = [], None
            try:
                rows.extend(itertools.islice(reader, CSV_CHUNK_ROWS))  # keeps rows before a failure
            except csv.Error as exc:
                error = DataError(f"{path} line {reader.line_num}: {exc}")
            except UnicodeDecodeError as exc:  # re-raised below, where open_text names the file
                error = exc
            widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
            wrong = first_true((widths != width) & (widths > 0))
            if wrong is not None:
                fields = f"expected {width} fields, got {widths[wrong]}"
                error = DataError(f"{path} line {start + wrong}: {fields}")
                del rows[wrong:]
            lines = np.flatnonzero(widths[: len(rows)]) + start
            if len(lines) < len(rows):
                rows = list(filter(None, rows))  # drops the blank ones
            texts = [list(map(str.strip, column)) for column in zip(*rows)] or [[]] * width
            del rows
            parsed = [kind(column, before) for (_, kind), column, before in zip(table, texts, last)]
            failures = [
                (index, template.format(name=name, text=column[index]))
                for (name, _), column, (_, checks) in zip(table, texts, parsed)
                for index, template in checks
                if index is not None
            ]
            if failures:
                index, message = min(failures, key=lambda failure: failure[0])
                raise DataError(f"{path} line {lines[index]}: {message}")
            if error is not None:
                raise error
            parts.append([array for array, _ in parsed])
            last = [array[-1] if len(array) else before for array, before in zip(parts[-1], last)]
            if len(widths) < CSV_CHUNK_ROWS:
                break
            start += CSV_CHUNK_ROWS
        del texts  # frees the last chunk's text before the chunks are joined
    return list(map(np.concatenate, zip(*parts)))


def write_csv(path: str, header: list, rows) -> None:
    """A header and rows of already formatted cells, comma-joined, the
    rows written CSV_CHUNK_ROWS at a time; UTF-8, LF."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
            fh.write("\n".join(map(",".join, chunk)) + "\n")


def _write_table(path: str, table: tuple, arrays: list, labels: np.ndarray | None) -> None:
    """One row per point under the names of `table`'s columns, then
    `label` when there are labels: the first array, the timestamps, through
    `format_timestamps` CSV_CHUNK_ROWS at a time, and every other
    float64 or int64 array, the labels among them, through `repr` of
    its elements."""
    if labels is not None:
        table, arrays = (*table, _LABEL), [*arrays, labels]
    timestamps, *rest = arrays
    starts = range(0, len(timestamps), CSV_CHUNK_ROWS)
    stamps = (format_timestamps(timestamps[i : i + CSV_CHUNK_ROWS]) for i in starts)
    cells = [itertools.chain.from_iterable(stamps), *(map(repr, a.tolist()) for a in rest)]
    write_csv(path, [name for name, _ in table], zip(*cells))


def write_json(path: str, doc: dict) -> None:
    """`doc` as two-space-indented JSON and a final newline; UTF-8, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def json_number(doc: dict, key: str, kind: type, where: str):
    """`doc[key]` as `kind`: int takes a JSON integer, float any JSON
    number. A bool, string or other value raises DataError naming `where`
    and the key; a missing key raises KeyError."""
    value = doc[key]
    if not (type(value) is int or (kind is float and type(value) is float)):
        wanted = "an integer" if kind is int else "a number"
        raise DataError(f"{where}: {key!r} must be {wanted}, got {value!r}")
    return kind(value)


# The column kinds of _read_table. Each message names the cell's column and text.
_BAD, _NON_FINITE = "bad {name} {text!r}", "non-finite {name} {text!r}"


def _raw_timestamps(texts: list, last) -> tuple:
    """Timestamps, NaN for a NaN token."""
    stamps = parse_timestamps(texts)
    tokens = np.fromiter(map(_NAN_TOKENS.__contains__, texts), dtype=bool, count=len(texts))
    return stamps, [(first_true(np.isnan(stamps) & ~tokens), _BAD)]


def _timestamps(texts: list, last) -> tuple:
    stamps = parse_timestamps(texts)
    return stamps, [(first_true(np.isnan(stamps)), _BAD)]


def _rising_timestamps(texts: list, last) -> tuple:
    """Timestamps, each after the one before it."""
    stamps, checks = _timestamps(texts, last)
    rise = first_true(np.diff(stamps, prepend=last) <= 0)
    return stamps, [*checks, (rise, "{name} {text!r} is not after the row before it")]


def _raw_floats(texts: list, last) -> tuple:
    """Values, NaN for a NaN token; an infinite one is refused."""
    values, unreadable = parse_floats(map(_AS_NAN.get, texts, texts))
    return values, [(unreadable, _BAD), (first_true(np.isinf(values)), _NON_FINITE)]


def _floats(texts: list, last) -> tuple:
    """Values, each finite."""
    values, unreadable = parse_floats(texts)
    return values, [(unreadable, _BAD), (first_true(~np.isfinite(values)), _NON_FINITE)]


def _bits(texts: list, last) -> tuple:
    bits = np.fromiter(map(_BITS.get, texts, itertools.repeat(-1)), np.int64, len(texts))
    return bits, [(first_true(bits < 0), _BAD + ", expected 0 or 1")]


# the CSV tables, each of which an optional `label` column may follow
_RAW_SERIES = (("timestamp", _raw_timestamps), ("value", _raw_floats))
_WORKSPACE_SERIES = (("timestamp", _rising_timestamps), ("value", _floats))
_REPORT = (("timestamp", _timestamps), ("value", _floats), ("loss", _floats), ("verdict", _bits))
_LABEL = ("label", _bits)


def read_series_csv(path: str, workspace: bool = False) -> TimeSeries:
    """Read a series; rejects garbage fields.

    A raw series, by default, may hold empty/NaN tokens in either
    column, which become NaN for clean_report() to handle. A
    `workspace` series, one `preprocess` wrote, holds no NaN, and each
    timestamp comes after the one before it. An infinite value
    (including an overflowing one such as 1e999), and any other field
    that breaks these rules, raise DataError naming the file and its
    line. An unreadable or non-UTF-8 file raises DataError.
    """
    return TimeSeries(*_read_table(path, _WORKSPACE_SERIES if workspace else _RAW_SERIES))


def write_series_csv(path: str, series: TimeSeries) -> None:
    """One row per point: timestamp,value[,label]."""
    _write_table(path, _RAW_SERIES, [series.timestamps, series.values], series.labels)


def write_report_csv(path: str, report: DetectionReport) -> None:
    """One row per point: timestamp,value,loss,verdict[,label]."""
    arrays = [report.timestamps, report.values, report.losses, report.verdicts]
    _write_table(path, _REPORT, arrays, report.labels)


def read_report_csv(path: str) -> DetectionReport:
    """Load a persisted report; verdicts come back exactly as written.
    A non-finite value or loss, or a verdict or label other than 0 or 1,
    would change the metrics, so it raises DataError naming the file and
    its line."""
    return DetectionReport(*_read_table(path, _REPORT))


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
    """(values - mean) / std. A value that this takes past float64, as
    a subnormal std can, raises DataError naming the scaler and the
    first such point."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # checked below
        scaled = (values - scaler.mean) / scaler.std
    bad = first_true(~np.isfinite(scaled))
    if bad is not None:
        raise DataError(
            f"scaling by mean {scaler.mean!r} and std {scaler.std!r} overflows float64 "
            f"at point {bad}, value {float(values[bad])!r}"
        )
    return scaled


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
        # generate_synthetic's last cycle phase, in its order (tau is exactly 2.0 * pi)
        if not math.isfinite(math.tau * (self.length - 1) * self.step_minutes / self.period_minutes):
            raise ConfigError(
                f"length {self.length} at step_minutes {self.step_minutes!r} and period_minutes "
                f"{self.period_minutes!r} gives a cycle phase that overflows float64"
            )
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


@dataclass
class TrainConfig:
    """The CLI's training keys and the seed, with their defaults. An
    out-of-range field raises ConfigError on construction."""

    learning_rate: float = 0.001
    dropout: float = 0.2
    batch_size: int = 64
    epochs: int = 30
    validation_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
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

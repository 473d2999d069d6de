"""Data handling: CSV ingestion, cleaning, standard scaling, sigma-band
labeling, train/test construction, and a synthetic-series generator.

Timestamps are UTC epoch seconds held as float64 (NaN marks an invalid
timestamp in raw, pre-clean data only). CSV files use a
`timestamp,value[,label]` header with ISO-8601 timestamps, UTF-8, LF.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .core_math import Rng
from .errors import ConfigError, CsvParseError, DataError, DegenerateScaleError, EmptyInputError

__all__ = [
    "TimeSeries",
    "ScalerParams",
    "SigmaRule",
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
    "fit_sigma_rule",
    "label_by_sigma",
    "build_train_test",
    "generate_synthetic",
]

_NAN_TOKENS = {"", "nan", "NaN", "NAN", "null", "NULL", "na", "NA"}


def parse_timestamp(text: str) -> float:
    """ISO-8601 timestamp -> UTC epoch seconds."""
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_timestamp(epoch: float) -> str:
    """UTC epoch seconds -> ISO-8601, with microseconds only when non-zero."""
    dt = datetime.fromtimestamp(epoch, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.%f" if dt.microsecond else "%Y-%m-%dT%H:%M:%S")


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
def csv_rows(path: str, hint: str = ""):
    """csv.reader rows of a UTF-8 file. A file that cannot be opened or
    read as UTF-8 raises DataError naming the path, `hint` appended."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}{hint}") from exc


def read_series_csv(path: str) -> TimeSeries:
    """Read a raw series; tolerates NaN markers, rejects garbage fields.

    Empty/NaN tokens in either column become NaN for clean_report() to
    handle; infinite values (including overflowing ones such as 1e999)
    and any other unparseable field raise CsvParseError with its line
    number. An unreadable or non-UTF-8 file raises DataError.
    """
    timestamps, values, labels = [], [], []
    has_labels = False
    with csv_rows(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty file, expected header 'timestamp,value[,label]'", line=1)
        header = [h.strip() for h in header]
        if header[:2] != ["timestamp", "value"] or len(header) > 3 or (
            len(header) == 3 and header[2] != "label"
        ):
            raise CsvParseError(
                f"expected header 'timestamp,value[,label]', got {','.join(header)!r}", line=1
            )
        has_labels = len(header) == 3
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=lineno
                )
            ts_text = row[0].strip()
            if ts_text in _NAN_TOKENS:
                ts = float("nan")
            else:
                try:
                    ts = parse_timestamp(ts_text)
                except ValueError:
                    raise CsvParseError(f"bad timestamp {ts_text!r}", line=lineno)
            val_text = row[1].strip()
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
            if has_labels:
                lab_text = row[2].strip()
                if lab_text not in ("0", "1"):
                    raise CsvParseError(f"bad label {lab_text!r}, expected 0 or 1", line=lineno)
                labels.append(int(lab_text))
    return TimeSeries(
        np.array(timestamps, dtype=np.float64),
        np.array(values, dtype=np.float64),
        np.array(labels, dtype=np.int64) if has_labels else None,
    )


def write_series_csv(path: str, series: TimeSeries) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cols = "timestamp,value,label" if series.labels is not None else "timestamp,value"
        fh.write(cols + "\n")
        for idx in range(len(series)):
            row = f"{format_timestamp(series.timestamps[idx])},{float(series.values[idx])!r}"
            if series.labels is not None:
                row += f",{series.labels[idx]}"
            fh.write(row + "\n")


@dataclass
class CleanReport:
    series: TimeSeries
    rows_in: int
    duplicates_removed: int
    invalid_dropped: int  # rows without a usable timestamp
    nan_values_zeroed: int
    nan_values_dropped: int  # strict mode only


def clean_report(raw: TimeSeries, strict_nan: bool = False) -> CleanReport:
    """Clean a raw series and account for every dropped or altered row.

    Rows without a valid timestamp are dropped (a timeless reading
    cannot be placed in the series). Rows with a valid timestamp but a
    NaN value keep their slot with value 0, unless strict_nan drops
    them. Duplicate timestamps keep the first occurrence in input
    order. Output is sorted with strictly increasing timestamps.
    """
    rows_in = len(raw)
    ts, vals = raw.timestamps, raw.values

    valid_ts = ~np.isnan(ts)
    invalid_dropped = int((~valid_ts).sum())
    ts, vals = ts[valid_ts], vals[valid_ts]

    nan_vals = np.isnan(vals)
    if strict_nan:
        nan_values_dropped = int(nan_vals.sum())
        nan_values_zeroed = 0
        ts, vals = ts[~nan_vals], vals[~nan_vals]
    else:
        nan_values_dropped = 0
        nan_values_zeroed = int(nan_vals.sum())
        vals = np.where(nan_vals, 0.0, vals)

    # keep the first occurrence of each timestamp in input order, then sort
    _, first_pos = np.unique(ts, return_index=True)
    duplicates_removed = ts.shape[0] - first_pos.shape[0]
    keep = np.sort(first_pos)
    ts, vals = ts[keep], vals[keep]
    order = np.argsort(ts, kind="stable")
    ts, vals = ts[order], vals[order]

    if ts.shape[0] == 0:
        raise EmptyInputError("cleaning removed every record")
    return CleanReport(
        series=TimeSeries(ts, vals),
        rows_in=rows_in,
        duplicates_removed=int(duplicates_removed),
        invalid_dropped=invalid_dropped,
        nan_values_zeroed=nan_values_zeroed,
        nan_values_dropped=nan_values_dropped,
    )


@dataclass
class ScalerParams:
    """Standard-scaler parameters (population standard deviation)."""

    mean: float
    std: float


def fit_scaler(values: np.ndarray) -> ScalerParams:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise EmptyInputError(f"scaler needs at least 2 values, got {values.size}")
    mean = float(values.mean())
    std = float(values.std())  # population form
    if std == 0.0:
        raise DegenerateScaleError("constant series: standard deviation is zero")
    return ScalerParams(mean=mean, std=std)


def apply_scaler(values: np.ndarray, scaler: ScalerParams) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - scaler.mean) / scaler.std


@dataclass
class SigmaRule:
    """Normal band [mean - k*std, mean + k*std], boundary inclusive."""

    mean: float
    std: float
    k: float = 2.0

    def __post_init__(self):
        if self.std <= 0:
            raise DegenerateScaleError(f"sigma rule needs std > 0, got {self.std}")
        if self.k < 0:
            raise ConfigError(f"sigma multiplier must be >= 0, got {self.k}")

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.mean - self.k * self.std, self.mean + self.k * self.std)


def fit_sigma_rule(values: np.ndarray, k: float = 2.0) -> SigmaRule:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise EmptyInputError(f"sigma rule needs at least 2 values, got {values.size}")
    std = float(values.std())
    if std == 0.0:
        raise DegenerateScaleError("constant series: cannot fit a sigma band")
    return SigmaRule(mean=float(values.mean()), std=std, k=float(k))


def label_by_sigma(series: TimeSeries, rule: SigmaRule) -> TimeSeries:
    """Label every point: 0 inside the band (inclusive), 1 outside."""
    lo, hi = rule.bounds
    inside = (series.values >= lo) & (series.values <= hi)
    return TimeSeries(series.timestamps, series.values, np.where(inside, 0, 1))


@dataclass
class SplitResult:
    train: TimeSeries  # pre-split, filtered to the normal band, unlabeled
    test: TimeSeries  # post-split, everything kept, sigma-labeled
    rule: SigmaRule
    train_kept: int
    train_dropped: int


def build_train_test(series: TimeSeries, split_instant: float, k: float = 2.0) -> SplitResult:
    """Chronological split; the sigma rule is fit on the training period
    only and reused to filter training points and label test points."""
    before = series.timestamps < split_instant
    after = ~before
    if not before.any() or not after.any():
        raise EmptyInputError("split instant leaves an empty train or test side")
    train_side = series.slice(before)
    test_side = series.slice(after)

    rule = fit_sigma_rule(train_side.values, k=k)
    lo, hi = rule.bounds
    keep = (train_side.values >= lo) & (train_side.values <= hi)
    train = TimeSeries(train_side.timestamps[keep], train_side.values[keep])
    if len(train) == 0:
        raise EmptyInputError("sigma filter removed every training point")
    test = label_by_sigma(TimeSeries(test_side.timestamps, test_side.values), rule)
    return SplitResult(
        train=train,
        test=test,
        rule=rule,
        train_kept=int(keep.sum()),
        train_dropped=int((~keep).sum()),
    )


@dataclass
class SynthProfile:
    """Shape of a generated series: a daily cycle plus noise, optional
    flat gaps (school breaks), and upward spikes injected at random."""

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

    def validate(self) -> None:
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
        if not math.isfinite(start):
            raise ConfigError(f"bad start timestamp {self.start!r}")
        for pair in self.breaks:
            if len(pair) != 2 or not (0 <= pair[0] < pair[1] <= self.length):
                raise ConfigError(f"bad break range {pair!r}")


def generate_synthetic(profile: SynthProfile, seed: int) -> tuple[TimeSeries, np.ndarray]:
    """Deterministic synthetic series plus the injected anomaly indices.

    The clean signal is baseline + daily sinusoid + gaussian noise, with
    the sinusoid suppressed inside break ranges. Spikes add
    spike_magnitude times the clean signal's own std, upward, at
    points drawn independently with probability spike_rate.
    """
    profile.validate()
    rng = Rng(seed).spawn("synth")
    n = profile.length
    start = parse_timestamp(profile.start)
    timestamps = start + np.arange(n) * (profile.step_minutes * 60.0)

    phase = 2.0 * np.pi * np.arange(n) * profile.step_minutes / profile.period_minutes
    cycle = profile.daily_amplitude * np.sin(phase)
    for lo, hi in profile.breaks:
        cycle[int(lo) : int(hi)] = 0.0
    clean_values = profile.baseline + cycle + rng.normal(0.0, profile.noise_sigma, n)

    spikes = rng.uniform(size=n) < profile.spike_rate
    anomaly_indices = np.nonzero(spikes)[0]
    values = clean_values.copy()
    if anomaly_indices.size:
        values[anomaly_indices] += profile.spike_magnitude * clean_values.std()
    return TimeSeries(timestamps, values), anomaly_indices

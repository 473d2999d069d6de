import math
import re

import numpy as np
import pytest

from seqad.errors import ConfigError, DataError
from seqad import pipeline as pl


def at_line(path, number):
    """The start of a message naming a line of the file at `path`."""
    return rf"^{re.escape(str(path))} line {number}: "


def ts(*vals):
    return np.array(vals, dtype=np.float64)


def scalar_parse(text):
    """parse_timestamp(text), or NaN where it raises ValueError."""
    try:
        return pl.parse_timestamp(text)
    except ValueError:
        return math.nan


def scalar_format(epoch):
    """format_timestamp(epoch), or the type of the error it raises."""
    try:
        return pl.format_timestamp(epoch)
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestTimestamps:
    def test_round_trip(self):
        text = "2018-03-05T14:30:00"
        assert pl.format_timestamp(pl.parse_timestamp(text)) == text

    def test_space_separator_accepted(self):
        assert pl.parse_timestamp("2018-03-05 14:30:00") == pl.parse_timestamp(
            "2018-03-05T14:30:00"
        )

    def test_sub_second_round_trip(self):
        start = pl.parse_timestamp("2018-01-01T00:00:00")
        assert pl.format_timestamp(start) == "2018-01-01T00:00:00"
        assert pl.format_timestamp(start + 0.25) == "2018-01-01T00:00:00.250000"
        for k in range(1, 50):
            epoch = start + k * 0.1
            back = pl.parse_timestamp(pl.format_timestamp(epoch))
            assert abs(back - epoch) < 1e-6

    @pytest.mark.parametrize(
        "text",
        ["9999-12-31T23:59:59-01:00", "9999-12-31T23:59:59.999999", "0001-01-01T00:00:00+00:01"],
    )
    def test_instant_outside_the_writable_years_rejected(self, text):
        # each once parsed, and then failed in format_timestamp
        with pytest.raises(ValueError, match="out of range"):
            pl.parse_timestamp(text)

    @pytest.mark.parametrize(
        "text",
        [
            "9999-12-31T23:59:59", "9999-12-31T22:59:59-01:00",
            "0001-01-01T00:00:00", "0001-01-01T00:00:00-05:00",
        ],
    )  # fmt: skip
    def test_first_and_last_writable_instants_round_trip(self, text):
        epoch = pl.parse_timestamp(text)
        assert pl.parse_timestamp(pl.format_timestamp(epoch)) == epoch


# each text parse_timestamps reads with numpy or with parse_timestamp; one
# batch of all of them makes numpy's own parse fail
CODEC_TEXTS = [
    "2018-01-01T00:00:00", "2018-03-05 14:30:00", "1969-07-20T20:17:40",
    "2020-02-29T00:00:00", "2019-02-29T00:00:00",  # a valid and an invalid leap day
    "2018-01-01T24:00:00", "2018-12-31T23:59:60",
    "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59",
    "+2018-01-01T00:00",  # numpy reads it, fromisoformat does not
    "2018-01-01T00:00:00Z", "2018-01-01T00:00:00+01:00",
    "2018-01-01T00:00:00.5", "2018-01-01T00:00:00.999999",
    "2018-01-01t00:00:00", "2018-01-01x00:00:00", "2018-01-01T00:00:00 ",
    "", "nan", "NaN", "NAN", "null", "NULL", "na", "NA",
]  # fmt: skip

# epochs format_timestamps writes with numpy or with format_timestamp
CODEC_EPOCHS = [
    pl.parse_timestamp("2018-01-01T00:00:00"),
    pl.parse_timestamp("1969-07-20T20:17:40"),
    pl.parse_timestamp("2018-01-01T00:00:00") + 0.25,
    pl.parse_timestamp("0001-01-01T00:00:00"),
    pl.parse_timestamp("9999-12-31T23:59:59"),
    pl.parse_timestamp("9999-12-31T23:59:58.5"),
    -0.0,
    1e-7,
]


class TestTimestampCodec:
    @pytest.mark.parametrize("text", CODEC_TEXTS)
    def test_parse_matches_parse_timestamp(self, text):
        assert np.array_equal(pl.parse_timestamps([text]), [scalar_parse(text)], equal_nan=True)

    def test_parse_of_one_batch_matches_parse_timestamp(self):
        expected = [scalar_parse(text) for text in CODEC_TEXTS]
        assert np.array_equal(pl.parse_timestamps(CODEC_TEXTS), expected, equal_nan=True)

    def test_parse_of_no_text(self):
        assert pl.parse_timestamps([]).shape == (0,)

    def test_format_matches_format_timestamp(self):
        assert pl.format_timestamps(np.array(CODEC_EPOCHS)) == list(map(pl.format_timestamp, CODEC_EPOCHS))

    @pytest.mark.parametrize(
        "epoch", [math.nan, math.inf, pl.parse_timestamp("9999-12-31T23:59:59") + 1.0, 1e300]
    )
    def test_format_raises_what_format_timestamp_raises(self, epoch):
        expected = scalar_format(epoch)
        with pytest.raises(expected):
            pl.format_timestamps(np.array([CODEC_EPOCHS[0], epoch]))


class TestCsv:
    def test_read_write_round_trip(self, tmp_path):
        series = pl.TimeSeries(
            ts(1000.0, 1060.0, 1120.0), ts(400.5, 410.25, 420.125), np.array([0, 1, 0])
        )
        path = tmp_path / "series.csv"
        pl.write_series_csv(str(path), series)
        back = pl.read_series_csv(str(path))
        assert np.array_equal(back.timestamps, series.timestamps)
        assert np.array_equal(back.values, series.values)
        assert np.array_equal(back.labels, series.labels)

    def test_missing_header_names_expected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,co2\n2018-01-01T00:00:00,400\n")
        expected = r"expected header 'timestamp,value\[,label\]', got 'time,co2'$"
        with pytest.raises(DataError, match=at_line(path, 1) + expected):
            pl.read_series_csv(str(path))

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2018-01-01T00:00:00,400\nnot-a-time,401\n")
        with pytest.raises(DataError, match=at_line(path, 3) + r"bad timestamp 'not-a-time'$"):
            pl.read_series_csv(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2018-01-01T00:00:00,abc\n")
        with pytest.raises(DataError, match=at_line(path, 2) + r"bad value 'abc'$"):
            pl.read_series_csv(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value,label\n2018-01-01T00:00:00,400,2\n")
        with pytest.raises(DataError, match=at_line(path, 2) + r"bad label '2', expected 0 or 1$"):
            pl.read_series_csv(str(path))

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999", "-1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"timestamp,value\n2018-01-01T00:00:00,400\n2018-01-01T00:01:00,{token}\n")
        with pytest.raises(DataError, match=at_line(path, 3) + r"non-finite value "):
            pl.read_series_csv(str(path))

    @pytest.mark.parametrize("chunk_rows", [pl.CSV_CHUNK_ROWS, 2])
    @pytest.mark.parametrize("bad_time_line, bad_value_line", [(3, 5), (5, 3), (4, 4)])
    def test_first_bad_line_is_named_whatever_its_kind(
        self, tmp_path, monkeypatch, chunk_rows, bad_time_line, bad_value_line
    ):
        monkeypatch.setattr(pl, "CSV_CHUNK_ROWS", chunk_rows)
        rows = [[f"2018-01-01T00:{minute:02d}:00", str(400 + minute)] for minute in range(6)]
        rows[bad_time_line - 2][0] = "not-a-time"
        rows[bad_value_line - 2][1] = "abc"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["timestamp,value", *map(",".join, rows)]) + "\n")
        # on one line, the timestamp is checked first
        first = "bad timestamp" if bad_time_line <= bad_value_line else "bad value"
        line = min(bad_time_line, bad_value_line)
        with pytest.raises(DataError, match=at_line(path, line) + rf"{first} "):
            pl.read_series_csv(str(path))

    @pytest.mark.parametrize("chunk_rows", [pl.CSV_CHUNK_ROWS, 2])
    def test_rows_across_chunks_and_blank_lines_keep_their_lines(
        self, tmp_path, monkeypatch, chunk_rows
    ):
        monkeypatch.setattr(pl, "CSV_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "gaps.csv"
        text = (
            "timestamp,value,label\r\n2018-01-01T00:00:00,1,0\r\n\r\n\r\n"
            '"2018-01-01T00:01:00","2",1\r\n2018-01-01T00:02:00,3,1\r\n2018-01-01T00:03:00,4,2\r\n'
        )
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=at_line(path, 7) + r"bad label '2'"):
            pl.read_series_csv(str(path))
        path.write_bytes(text.replace(",4,2", ",4,0").encode())
        series = pl.read_series_csv(str(path))
        assert series.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert series.labels.tolist() == [0, 1, 1, 0]

    def test_field_over_the_csv_limit_reports_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"timestamp,value\n2018-01-01T00:00:00,400\n2018-01-01T00:01:00,{'1' * 200_000}\n")
        with pytest.raises(DataError, match=at_line(path, 3) + r"field larger than field limit"):
            pl.read_series_csv(str(path))

    def test_bad_line_before_an_unreadable_row_is_named_first(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"timestamp,value\nsoon,400\n2018-01-01T00:01:00,{'1' * 200_000}\n")
        with pytest.raises(DataError, match=at_line(path, 2) + r"bad timestamp 'soon'"):
            pl.read_series_csv(str(path))

    def test_bad_line_before_text_that_is_not_utf8_is_named_first(self, tmp_path):
        # the reader decodes 8 KiB at a time: the rows before the block
        # that fails to decode are checked first, within one chunk or not
        rows = [f"2018-01-01T00:00:{second % 60:02d},1" for second in range(2000)]
        data = "\n".join(["timestamp,value", "soon,1", *rows]).encode()
        path = tmp_path / "bytes.csv"
        path.write_bytes(data[:9000] + b"\xff" + data[9000:])
        with pytest.raises(DataError, match=at_line(path, 2) + r"bad timestamp 'soon'"):
            pl.read_series_csv(str(path))
        data = data.replace(b"soon", b"2018-01-01T01:00:00")
        path.write_bytes(data[:9000] + b"\xff" + data[9000:])
        with pytest.raises(DataError, match=r"cannot read .*can't decode byte 0xff"):
            pl.read_series_csv(str(path))

    def test_nan_tokens_become_nan(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("timestamp,value\n2018-01-01T00:00:00,NaN\n,400\n")
        raw = pl.read_series_csv(str(path))
        assert math.isnan(raw.values[0])
        assert math.isnan(raw.timestamps[1])


class TestClean:
    def test_duplicate_timestamps_keep_first(self):
        raw = pl.TimeSeries(ts(60, 60, 120), ts(1.0, 2.0, 3.0))
        out = pl.clean_report(raw).series
        assert np.array_equal(out.timestamps, ts(60, 120))
        assert np.array_equal(out.values, ts(1.0, 3.0))

    def test_nan_value_becomes_zero(self):
        raw = pl.TimeSeries(ts(60, 120), np.array([np.nan, 5.0]))
        out = pl.clean_report(raw).series
        assert np.array_equal(out.values, ts(0.0, 5.0))

    def test_strict_mode_drops_nan_values(self):
        raw = pl.TimeSeries(ts(60, 120), np.array([np.nan, 5.0]))
        out = pl.clean_report(raw, strict_nan=True).series
        assert np.array_equal(out.timestamps, ts(120))

    def test_invalid_timestamp_rows_dropped(self):
        raw = pl.TimeSeries(ts(np.nan, 60), np.array([np.nan, 5.0]))
        report = pl.clean_report(raw)
        assert report.invalid_dropped == 1
        assert len(report.series) == 1

    def test_output_sorted(self):
        raw = pl.TimeSeries(ts(180, 60, 120), ts(3.0, 1.0, 2.0))
        out = pl.clean_report(raw).series
        assert np.array_equal(out.timestamps, ts(60, 120, 180))
        assert np.array_equal(out.values, ts(1.0, 2.0, 3.0))

    def test_idempotent(self):
        raw = pl.TimeSeries(ts(60, 60, 180, 120), np.array([1.0, 9.0, np.nan, 2.0]))
        once = pl.clean_report(raw).series
        twice = pl.clean_report(once).series
        assert np.array_equal(once.timestamps, twice.timestamps)
        assert np.array_equal(once.values, twice.values)

    def test_everything_removed_is_an_error(self):
        raw = pl.TimeSeries(ts(np.nan), np.array([np.nan]))
        with pytest.raises(DataError, match="cleaning removed every record"):
            pl.clean_report(raw)


class TestScaler:
    def test_hand_example(self):
        scaler = pl.fit_scaler(ts(1.0, 2.0, 3.0))
        assert scaler.mean == 2.0
        assert scaler.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        z = pl.apply_scaler(ts(1.0, 2.0, 3.0), scaler)
        assert np.max(np.abs(z - [-1.224744871391589, 0.0, 1.224744871391589])) <= 1e-12

    def test_scaled_data_is_standardized(self):
        vals = np.random.default_rng(2).normal(500, 80, 5000)
        z = pl.apply_scaler(vals, pl.fit_scaler(vals))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9

    def test_single_value_rejected(self):
        with pytest.raises(DataError, match="scaler needs at least 2 values, got 1"):
            pl.fit_scaler(ts(5.0))

    def test_constant_series_rejected(self):
        with pytest.raises(DataError, match="constant series: standard deviation is zero"):
            pl.fit_scaler(ts(5.0, 5.0, 5.0))

    @pytest.mark.parametrize(
        "values", [(1e200, -1e200, 1e200), (1.5e308, 1.5e308, 1.0)], ids=["std", "mean"]
    )
    def test_overflowing_mean_or_std_rejected(self, values):
        # once a scaler with an infinite std and a band of [-inf, inf]
        with pytest.raises(DataError, match=r"scaler of 3 values overflows float64: mean .*std inf"):
            pl.fit_scaler(ts(*values))


class TestBuildTrainTest:
    def make_series(self, seed=4, n=800):
        rng = np.random.default_rng(seed)
        vals = rng.normal(100, 10, n)
        vals[rng.uniform(size=n) < 0.05] += 80.0  # clear outliers
        return pl.TimeSeries(np.arange(n) * 60.0, vals)

    def test_no_leakage_and_band_filter(self):
        series = self.make_series()
        split = pl.build_train_test(series, split_instant=600 * 60.0, k=2.0)
        assert split.train.timestamps.max() < split.test.timestamps.min()
        lo, hi = split.band
        assert np.all((split.train.values >= lo) & (split.train.values <= hi))
        assert split.train.labels is None
        assert split.test.labels is not None

    def test_partition_accounting(self):
        series = self.make_series()
        split = pl.build_train_test(series, split_instant=600 * 60.0, k=2.0)
        assert len(split.train) + split.train_dropped + len(split.test) == len(series)

    def test_empty_side_rejected(self):
        series = self.make_series(n=10)
        with pytest.raises(DataError, match="split instant leaves an empty train or test side"):
            pl.build_train_test(series, split_instant=0.0, k=2.0)
        with pytest.raises(DataError, match="split instant leaves an empty train or test side"):
            pl.build_train_test(series, split_instant=1e12, k=2.0)

    def test_band_boundary_inclusive(self):
        # training side [-1, 1]: mean 0, std 1, so k=1 gives exactly (-1, 1)
        series = pl.TimeSeries(ts(0, 60, 120, 180), ts(-1.0, 1.0, 1.0, 1.0000001))
        split = pl.build_train_test(series, split_instant=120.0, k=1.0)
        assert split.band == (-1.0, 1.0)
        assert list(split.train.values) == [-1.0, 1.0]
        assert list(split.test.labels) == [0, 1]

    def test_zero_k_keeps_only_the_mean(self):
        series = pl.TimeSeries(ts(0, 60, 120, 180, 240), ts(-1.0, 0.0, 1.0, 0.0, 0.5))
        split = pl.build_train_test(series, split_instant=180.0, k=0.0)
        assert split.band == (0.0, 0.0)
        assert list(split.train.values) == [0.0]
        assert (len(split.train), split.train_dropped) == (1, 2)
        assert list(split.test.labels) == [0, 1]

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            pl.build_train_test(self.make_series(), split_instant=600 * 60.0, k=-1.0)

    def test_constant_training_period_rejected(self):
        series = pl.TimeSeries(ts(0, 60, 120, 180), ts(5.0, 5.0, 5.0, 9.0))
        with pytest.raises(DataError, match="constant series: standard deviation is zero"):
            pl.build_train_test(series, split_instant=180.0, k=2.0)

    def test_labels_match_injected_spikes(self):
        profile = pl.SynthProfile(length=2000, spike_rate=0.05)
        series, injected = pl.generate_synthetic(profile, seed=11)
        split_instant = float(series.timestamps[1500])
        split = pl.build_train_test(series, split_instant, k=2.0)
        flagged = np.nonzero(split.test.labels)[0] + 1500
        assert set(flagged) == {int(i) for i in injected if i >= 1500}


class TestSynthetic:
    def test_deterministic(self):
        profile = pl.SynthProfile(length=500)
        a, ia = pl.generate_synthetic(profile, seed=5)
        b, ib = pl.generate_synthetic(profile, seed=5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(ia, ib)

    def test_zero_rate_injects_nothing(self):
        _, injected = pl.generate_synthetic(pl.SynthProfile(length=300, spike_rate=0.0), seed=6)
        assert injected.size == 0

    def test_spike_count_and_band(self):
        # 1% rate on 1e4 points: ~100 spikes, all beyond the clean 2-sigma band
        profile = pl.SynthProfile()
        clean, _ = pl.generate_synthetic(
            pl.SynthProfile(spike_rate=0.0), seed=7
        )
        series, injected = pl.generate_synthetic(profile, seed=7)
        assert 60 <= injected.size <= 140
        hi = clean.values.mean() + 2.0 * clean.values.std()
        assert np.all(series.values[injected] > hi)
        untouched = np.setdiff1d(np.arange(len(series)), injected)
        assert np.array_equal(series.values[untouched], clean.values[untouched])

    def test_breaks_flatten_cycle(self):
        profile = pl.SynthProfile(
            length=3000, noise_sigma=0.0, breaks=((1000, 2000),), spike_rate=0.0
        )
        series, _ = pl.generate_synthetic(profile, seed=8)
        assert np.all(series.values[1000:2000] == profile.baseline)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ConfigError):
            pl.generate_synthetic(pl.SynthProfile(length=1), seed=0)
        with pytest.raises(ConfigError):
            pl.generate_synthetic(pl.SynthProfile(spike_rate=1.5), seed=0)
        with pytest.raises(ConfigError):
            pl.generate_synthetic(pl.SynthProfile(breaks=((100, 50),)), seed=0)
        with pytest.raises(ConfigError):
            pl.generate_synthetic(pl.SynthProfile(start="someday"), seed=0)

    @pytest.mark.parametrize(
        "key, fields",
        [
            ("step_minutes", {"step_minutes": 1e9}),
            ("step_minutes", {"step_minutes": 1e300}),
            ("noise_sigma", {"noise_sigma": 1e308}),
            # finite values whose std overflows, so every spike is inf
            ("noise_sigma", {"noise_sigma": 1e200, "spike_rate": 0.5}),
        ],
    )
    def test_profile_a_series_csv_cannot_hold_rejected_naming_key(self, key, fields):
        with pytest.raises(ConfigError, match=key):
            pl.generate_synthetic(pl.SynthProfile(length=50, **fields), seed=0)

import math

import numpy as np
import pytest

from seqad.errors import ConfigError, CsvParseError, DataError
from seqad import pipeline as pl


def ts(*vals):
    return np.array(vals, dtype=np.float64)


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
        with pytest.raises(CsvParseError, match=r"timestamp,value"):
            pl.read_series_csv(str(path))

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2018-01-01T00:00:00,400\nnot-a-time,401\n")
        with pytest.raises(CsvParseError, match=r"line 3"):
            pl.read_series_csv(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2018-01-01T00:00:00,abc\n")
        with pytest.raises(CsvParseError, match=r"line 2"):
            pl.read_series_csv(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value,label\n2018-01-01T00:00:00,400,2\n")
        with pytest.raises(CsvParseError):
            pl.read_series_csv(str(path))

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999", "-1e999"])
    def test_non_finite_value_reports_line(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"timestamp,value\n2018-01-01T00:00:00,400\n2018-01-01T00:01:00,{token}\n")
        with pytest.raises(CsvParseError, match=r"line 3.*non-finite"):
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

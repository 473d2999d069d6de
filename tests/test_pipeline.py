import math

import numpy as np
import pytest

from seqad.core_math import Rng
from seqad.errors import (
    ConfigError,
    CsvParseError,
    DegenerateScaleError,
    EmptyInputError,
)
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
        with pytest.raises(EmptyInputError):
            pl.clean_report(raw)


class TestScaler:
    def test_hand_example(self):
        scaler = pl.fit_scaler(ts(1.0, 2.0, 3.0))
        assert scaler.mean == 2.0
        assert scaler.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        z = pl.apply_scaler(ts(1.0, 2.0, 3.0), scaler)
        assert np.max(np.abs(z - [-1.224744871391589, 0.0, 1.224744871391589])) <= 1e-12

    def test_scaled_data_is_standardized(self):
        vals = Rng(2).normal(500, 80, 5000)
        z = pl.apply_scaler(vals, pl.fit_scaler(vals))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateScaleError):
            pl.fit_scaler(ts(5.0, 5.0, 5.0))


class TestSigmaRule:
    def test_band_boundary_inclusive(self):
        # mean 488, std 240, k=2: upper bound 968 is still normal
        rule = pl.SigmaRule(mean=488.0, std=240.0, k=2.0)
        assert rule.bounds == (8.0, 968.0)
        series = pl.TimeSeries(ts(0, 60), ts(968.0, 969.0))
        labeled = pl.label_by_sigma(series, rule)
        assert list(labeled.labels) == [0, 1]

    def test_mean_is_normal(self):
        rule = pl.SigmaRule(mean=488.0, std=240.0, k=2.0)
        labeled = pl.label_by_sigma(pl.TimeSeries(ts(0), ts(488.0)), rule)
        assert labeled.labels[0] == 0

    def test_zero_k_degenerate_band(self):
        rule = pl.SigmaRule(mean=10.0, std=1.0, k=0.0)
        labeled = pl.label_by_sigma(pl.TimeSeries(ts(0, 60, 120), ts(10.0, 10.5, 9.5)), rule)
        assert list(labeled.labels) == [0, 1, 1]

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            pl.SigmaRule(mean=0.0, std=1.0, k=-1.0)

    def test_labels_partition_everything(self):
        vals = Rng(3).normal(0, 1, 500)
        rule = pl.fit_sigma_rule(vals, k=1.0)
        labeled = pl.label_by_sigma(pl.TimeSeries(np.arange(500.0), vals), rule)
        assert labeled.labels.shape == (500,)
        assert set(np.unique(labeled.labels)) <= {0, 1}


class TestBuildTrainTest:
    def make_series(self, seed=4, n=800):
        rng = Rng(seed)
        vals = rng.normal(100, 10, n)
        vals[rng.uniform(size=n) < 0.05] += 80.0  # clear outliers
        return pl.TimeSeries(np.arange(n) * 60.0, vals)

    def test_no_leakage_and_band_filter(self):
        series = self.make_series()
        split = pl.build_train_test(series, split_instant=600 * 60.0, k=2.0)
        assert split.train.timestamps.max() < split.test.timestamps.min()
        lo, hi = split.rule.bounds
        assert np.all((split.train.values >= lo) & (split.train.values <= hi))
        assert split.train.labels is None
        assert split.test.labels is not None

    def test_partition_accounting(self):
        series = self.make_series()
        split = pl.build_train_test(series, split_instant=600 * 60.0, k=2.0)
        assert split.train_kept + split.train_dropped + len(split.test) == len(series)
        assert split.train_kept == len(split.train)

    def test_empty_side_rejected(self):
        series = self.make_series(n=10)
        with pytest.raises(EmptyInputError):
            pl.build_train_test(series, split_instant=0.0, k=2.0)
        with pytest.raises(EmptyInputError):
            pl.build_train_test(series, split_instant=1e12, k=2.0)

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

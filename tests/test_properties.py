"""Property tests: the loss aggregation, the strict threshold verdict,
the series CSV round trip, the bulk timestamp codec against the scalar
one, and duplicate removal in cleaning, each over inputs drawn by
hypothesis. The
settings profile in conftest.py fixes the draws, so every run of the
suite checks the same examples."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqad import detector, pipeline, seq_autoencoder
from seqad.windowing import make_windows, per_point_loss

MODEL_T = 4


@st.composite
def windows_and_reconstructions(draw):
    """A (N,) series, a window length T <= N and one (T, 1)
    reconstruction per window."""
    n = draw(st.integers(1, 16))
    t = draw(st.integers(1, n))
    values = draw(arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))
    recon = draw(arrays(np.float64, (n - t + 1, t, 1), elements=st.floats(-3.0, 3.0)))
    return make_windows(values, t), values, recon


@given(windows_and_reconstructions())
def test_per_point_loss_averages_the_covering_windows(case):
    windows, values, recon = case
    n, t = len(values), windows.shape[1]
    expected = []
    for p in range(n):
        covering = [k for k in range(len(windows)) if k <= p < k + t]
        total = 0.0
        for k in covering:  # ascending window order, as per_point_loss adds them
            total += abs(recon[k, p - k, 0] - values[p])
        expected.append(total / len(covering))
    assert np.array_equal(per_point_loss(windows, recon), np.array(expected))


@pytest.fixture(scope="module")
def model():
    return seq_autoencoder.build_model("1x3", timesteps=MODEL_T, dropout_rate=0.0, seed=3)


@given(st.lists(st.floats(-3.0, 3.0), min_size=MODEL_T, max_size=16), st.data(), st.integers(-2, 2))
def test_verdict_is_strictly_above_the_threshold(model, values, data, ulps):
    # the threshold is one point's loss moved by `ulps` ulps: that point
    # is flagged exactly when the threshold sits below its loss
    windows = make_windows(values, MODEL_T)
    losses = per_point_loss(windows, seq_autoencoder.reconstruct_windows(model, windows))
    pick = data.draw(st.integers(0, len(values) - 1))
    threshold = losses[pick]
    for _ in range(abs(ulps)):
        threshold = np.nextafter(threshold, np.sign(ulps) * np.inf)
    model.threshold = seq_autoencoder.ThresholdRecord(float(threshold), len(values), MODEL_T)
    series = pipeline.TimeSeries(60.0 * np.arange(len(values)), values)
    report = detector.detect(model, series, pipeline.ScalerParams(mean=0.0, std=1.0))
    assert np.array_equal(report.losses, losses)
    assert report.verdicts[pick] == (ulps < 0)
    assert np.array_equal(report.verdicts == 1, losses > threshold)


# whole microseconds between 2000 and 2100: a float64 epoch there resolves
# better than half a microsecond, so each instant has one exact reading
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
instants = st.integers(
    int((datetime(2000, 1, 1, tzinfo=timezone.utc) - EPOCH).total_seconds() * 1e6),
    int((datetime(2100, 1, 1, tzinfo=timezone.utc) - EPOCH).total_seconds() * 1e6),
).map(lambda us: (EPOCH + timedelta(microseconds=us)).timestamp())


@st.composite
def series(draw):
    size = draw(st.integers(0, 12))
    stamps = draw(st.lists(instants, min_size=size, max_size=size))
    values = draw(st.lists(st.floats(allow_infinity=False), min_size=size, max_size=size))
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return pipeline.TimeSeries(stamps, values, labels)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("csv") / "series.csv")


@given(series())
def test_series_csv_round_trip(csv_path, original):
    pipeline.write_series_csv(csv_path, original)
    loaded = pipeline.read_series_csv(csv_path)
    assert np.array_equal(loaded.timestamps, original.timestamps)
    assert np.array_equal(loaded.values, original.values, equal_nan=True)
    signed = ~np.isnan(original.values)  # -0.0 stays -0.0; a NaN reads back as nan
    assert np.array_equal(np.signbit(loaded.values[signed]), np.signbit(original.values[signed]))
    if original.labels is None:
        assert loaded.labels is None
    else:
        assert np.array_equal(loaded.labels, original.labels)


# the first and the last second of the UTC years 1 to 9999
FIRST_SECOND = (datetime(1, 1, 1, tzinfo=timezone.utc) - EPOCH).total_seconds()
LAST_SECOND = (datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc) - EPOCH).total_seconds()
any_instant = st.integers(int(FIRST_SECOND), int(LAST_SECOND)).map(float) | st.floats(
    FIRST_SECOND, LAST_SECOND
)


@given(st.lists(any_instant, max_size=12))
def test_timestamp_codec_gives_the_scalar_codecs_text_and_instants(epochs):
    texts = pipeline.format_timestamps(np.array(epochs))
    assert texts == [pipeline.format_timestamp(epoch) for epoch in epochs]
    parsed = pipeline.parse_timestamps(texts)
    assert np.array_equal(parsed, [pipeline.parse_timestamp(text) for text in texts])


# few distinct instants, so most draws repeat some; -0.0 and 0.0 are one instant
repeated_instants = st.integers(-4, 4).map(float) | st.sampled_from([-0.0, 0.5])


@given(st.lists(st.tuples(repeated_instants, st.floats(allow_nan=False)), min_size=1, max_size=24))
def test_clean_keeps_each_timestamps_first_reading_in_order(rows):
    first = {}
    for stamp, value in rows:  # input order; a dict keeps the first key and value
        first.setdefault(stamp, value)
    expected = sorted(first.items())
    stamps, values = zip(*rows)
    report = pipeline.clean_report(pipeline.TimeSeries(stamps, values))
    out = report.series
    assert np.all(np.diff(out.timestamps) > 0)
    for got, want in zip((out.timestamps, out.values), zip(*expected)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert report.duplicates_removed == len(rows) - len(first)

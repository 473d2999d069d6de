"""Seeded raw input series for the benchmark, made with numpy alone.

The program under test receives only the `timestamp,value` CSV written
here; the injected spike indices stay with the benchmark as ground
truth. Nothing is imported from seqad, so a change to the program's own
synthetic generator cannot change a workload.

Make-up of a series: a daily sinusoid (amplitude 80 around 450) plus
gaussian noise (sigma 30), sampled every minute from
2018-01-01T00:00:00, with upward spikes of 6 times the clean signal's
std injected at points drawn independently with probability 0.01.
"""

from __future__ import annotations

import numpy as np

START = np.datetime64("2018-01-01T00:00:00", "s")
STEP_S = 60
BASELINE = 450.0
AMPLITUDE = 80.0
PERIOD_S = 86_400.0
NOISE_SIGMA = 30.0
SPIKE_RATE = 0.01
SPIKE_SIGMAS = 6.0


def make_series(length: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (ISO timestamps, values, injected spike indices) for one seed."""
    rng = np.random.default_rng(seed)
    idx = np.arange(length)
    clean = (
        BASELINE
        + AMPLITUDE * np.sin(2.0 * np.pi * idx * STEP_S / PERIOD_S)
        + rng.normal(0.0, NOISE_SIGMA, length)
    )
    spikes = np.flatnonzero(rng.random(length) < SPIKE_RATE)
    values = clean.copy()
    values[spikes] += SPIKE_SIGMAS * clean.std()
    stamps = np.datetime_as_string(START + idx * np.timedelta64(STEP_S, "s"), unit="s")
    return stamps, values, spikes


def write_csv(path: str, stamps: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,value\n")
        fh.writelines(f"{s},{v!r}\n" for s, v in zip(stamps.tolist(), values.tolist()))

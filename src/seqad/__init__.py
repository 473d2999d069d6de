"""Sliding-window LSTM-autoencoder anomaly detection for univariate
time series: windowed sequence modeling, per-point reconstruction-loss
aggregation over overlapping windows, and max-loss thresholding, with
the preprocessing, labeling, and evaluation machinery around it.
"""

__version__ = "0.1.0"

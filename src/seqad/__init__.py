"""Sliding-window LSTM-autoencoder anomaly detection for univariate
time series: windowed sequence modeling, per-point reconstruction-loss
aggregation over overlapping windows, and max-loss thresholding, with
the preprocessing, labeling, and evaluation machinery around it.
"""

from .core_math import AdamState, Rng, adam_step, glorot_init, tanh
from .detector import DetectionReport, detect, fit, fit_threshold
from .lstm import LstmLayerParams, lstm_backward, lstm_forward
from .metrics import (
    ClassificationMetrics,
    ConfusionCounts,
    RocCurve,
    confusion,
    prf1_accuracy,
    roc_auc,
)
from .pipeline import (
    ScalerParams,
    SigmaRule,
    SynthProfile,
    TimeSeries,
    apply_scaler,
    build_train_test,
    fit_scaler,
    fit_sigma_rule,
    generate_synthetic,
    label_by_sigma,
)
from .seq_autoencoder import (
    SeqAutoencoderModel,
    TrainConfig,
    TrainTrace,
    build_model,
    load_model,
    save_model,
    train,
)
from .windowing import WindowSet, coverage_counts, make_windows, per_point_loss

__version__ = "0.1.0"

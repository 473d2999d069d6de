import copy
import tracemalloc

import numpy as np
import pytest

from gradcheck import REL_TOL, worst_relative_error
from seqad.core_math import Rng
from seqad.errors import (
    ConfigError,
    EmptyInputError,
    ModelFileError,
    ModelVersionError,
    ShapeError,
    TrainingDivergedError,
)
from seqad import seq_autoencoder as sa
from seqad.lstm import lstm_infer
from seqad.windowing import make_windows


def zeroed(model):
    for p in model.params():
        p[...] = 0.0
    return model


def with_threshold(model, value=0.25):
    model.threshold = sa.ThresholdRecord(value=value, train_points=100, window_len=model.timesteps)
    return model


def models_equal(a, b):
    pa, pb = a.params(), b.params()
    return len(pa) == len(pb) and all(np.array_equal(x, y) for x, y in zip(pa, pb))


class TestArch:
    def test_parse_known_shapes(self):
        assert sa.parse_arch("1x16") == [16]
        assert sa.parse_arch("2x64-16") == [64, 16]
        assert sa.parse_arch("3x128-64-16") == [128, 64, 16]

    @pytest.mark.parametrize("tag", ["2x64", "3x64-16", "1x16-8", "x16", "1x0", "16", "a", ""])
    def test_reject_unchained_or_malformed(self, tag):
        with pytest.raises(ConfigError):
            sa.parse_arch(tag)

    @pytest.mark.parametrize("tag,latent", [("1x16", 16), ("2x64-16", 16), ("3x128-64-16", 16)])
    def test_build_mirrors_decoder(self, tag, latent):
        model = sa.build_model(tag, timesteps=10, features=1, seed=0)
        assert model.latent_size == latent
        units = sa.parse_arch(tag)
        assert [l.hidden_size for l in model.encoder] == units
        assert [l.hidden_size for l in model.decoder] == units[::-1]
        assert model.head_w.shape == (1, units[0])

    def test_build_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            sa.build_model("1x16", timesteps=0)
        with pytest.raises(ConfigError):
            sa.build_model("1x16", timesteps=5, dropout_rate=1.0)


class TestForward:
    def test_zero_model_reconstructs_bias(self):
        model = zeroed(sa.build_model("1x16", timesteps=10, seed=1))
        window = Rng(2).normal(0, 1, (10, 1))
        assert np.array_equal(sa.reconstruct_windows(model, window[None])[0], np.zeros((10, 1)))

    def test_inference_is_deterministic(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=3)
        windows = Rng(4).normal(0, 1, (1, 10, 1))
        first = sa.reconstruct_windows(model, windows)
        assert np.array_equal(first, sa.reconstruct_windows(model, windows))

    def test_latent_shape_chain(self):
        # T=10, m=1, latent 16: encoder out 16, repeated 10x16, head out 10x1;
        # the decoder output is kept feature-major, (hidden, T, B)
        model = sa.build_model("1x16", timesteps=10, features=1, seed=5)
        window = Rng(6).normal(0, 1, (10, 1))
        recon, cache = sa._forward_batch(model, window[None])
        assert model.latent_size == 16
        assert cache["dec_caches"][-1][0].z.shape == (1, 16 + 16)
        assert len(cache["dec_caches"][-1]) == 10
        assert cache["dec_dropped"].shape == (16, 10, 1)
        assert recon.shape == (1, 10, 1)

    def test_dropout_masks_drawn_batch_first_in_order(self):
        # distinct B, T, hidden and latent sizes, so a mask applied on the
        # wrong axes cannot broadcast
        b, t_len, rate = 3, 5, 0.3
        model = perturbed(sa.build_model("2x8-4", timesteps=t_len, dropout_rate=rate, seed=50), 51)
        batch = Rng(52).normal(0, 1, (b, t_len, 1))
        recon, cache = sa._forward_batch(model, batch, train_mode=True, rng=Rng(53))
        rng = Rng(53)
        latent_mask = (rng.uniform(size=(b, 4)) >= rate) / (1.0 - rate)
        dec_mask = (rng.uniform(size=(b, t_len, 8)) >= rate) / (1.0 - rate)
        assert np.array_equal(cache["latent_mask"], latent_mask)
        assert np.array_equal(cache["dec_mask"], dec_mask)
        # each mask entry scales the batch-first element it was drawn for
        seq = batch.transpose(1, 0, 2)
        seq = lstm_infer(model.encoder[0], seq)
        latent = lstm_infer(model.encoder[1], seq, return_sequences=False) * latent_mask
        seq = lstm_infer(model.decoder[0], np.broadcast_to(latent, (t_len, b, 4)))
        seq = lstm_infer(model.decoder[1], seq).transpose(1, 0, 2) * dec_mask
        expected = seq @ model.head_w.T + model.head_b
        assert np.max(np.abs(recon - expected)) <= 1e-12

    @pytest.mark.parametrize("tag", ["1x16", "2x64-16", "3x128-64-16"])
    def test_output_shape_equals_input_shape(self, tag):
        model = sa.build_model(tag, timesteps=7, features=2, seed=7)
        window = Rng(8).normal(0, 1, (7, 2))
        assert sa.reconstruct_windows(model, window[None])[0].shape == (7, 2)

    def test_train_mode_dropout_changes_output(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=9)
        windows = Rng(10).normal(0, 1, (1, 10, 1))
        plain = sa.reconstruct_windows(model, windows)
        dropped, _ = sa._forward_batch(model, windows, train_mode=True, rng=Rng(11))
        assert not np.array_equal(plain, dropped)

    def test_train_mode_needs_rng(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=9)
        with pytest.raises(ConfigError):
            sa._forward_batch(model, np.zeros((1, 10, 1)), train_mode=True)

    def test_shape_mismatch_rejected(self):
        model = sa.build_model("1x16", timesteps=10, seed=12)
        with pytest.raises(ShapeError):
            sa.reconstruct_windows(model, np.zeros((1, 9, 1)))


def perturbed(model, seed):
    """The model with every parameter, biases included, moved off its init."""
    rng = Rng(seed)
    for p in model.params():
        p += rng.normal(0, 0.2, p.shape)
    return model


class TestInferencePass:
    @pytest.mark.parametrize("tag", ["1x3", "2x8-4", "3x8-6-4"])
    @pytest.mark.parametrize("t_len", [1, 7])
    def test_matches_training_forward(self, tag, t_len):
        model = perturbed(sa.build_model(tag, timesteps=t_len, features=2, seed=30), 31)
        windows = Rng(32).normal(0, 1, (5, t_len, 2))
        expected, _ = sa._forward_batch(model, windows, train_mode=False)
        got = sa.reconstruct_windows(model, windows)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_chunk_boundary(self):
        model = perturbed(sa.build_model("2x8-4", timesteps=7, seed=33), 34)
        windows = Rng(35).normal(0, 1, (4, 7, 1))
        expected, _ = sa._forward_batch(model, windows, train_mode=False)
        got = sa.reconstruct_windows(model, windows, chunk=3)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_repeated_calls_bit_identical(self):
        model = perturbed(sa.build_model("3x8-6-4", timesteps=7, seed=36), 37)
        windows = Rng(38).normal(0, 1, (9, 7, 1))
        first = sa.reconstruct_windows(model, windows, chunk=4)
        assert np.array_equal(first, sa.reconstruct_windows(model, windows, chunk=4))

    def test_forward_uses_the_inference_pass(self):
        # one window scored alone matches the same window scored inside a
        # batch: no window's reconstruction depends on its batch mates
        model = perturbed(sa.build_model("2x8-4", timesteps=7, seed=39), 40)
        windows = Rng(41).normal(0, 1, (5, 7, 1))
        alone = sa.reconstruct_windows(model, windows[2:3])[0]
        assert np.max(np.abs(alone - sa.reconstruct_windows(model, windows)[2])) <= 1e-12

    def test_peak_memory_below_two_gate_buffers(self):
        # the widest layer's (T, B, 4H) gate buffer: 10 x 1024 x 256 float64, 20 MiB;
        # a pass that keeps the backward caches of every layer peaks near 100 MiB
        model = sa.build_model("2x64-16", timesteps=10, seed=42)
        windows = Rng(43).normal(0, 1, (1024, 10, 1))
        gate_buffer = 10 * 1024 * 4 * 64 * 8
        tracemalloc.start()
        try:
            sa.reconstruct_windows(model, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * gate_buffer

    def test_default_chunk_peaks_below_12_mib(self):
        # 7.6 MiB with chunks of 256 windows; 29.6 MiB with chunks of 1024
        model = sa.build_model("2x64-16", timesteps=10, seed=42)
        windows = Rng(43).normal(0, 1, (1024, 10, 1))
        tracemalloc.start()
        try:
            sa.reconstruct_windows(model, windows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_wrong_window_shape_rejected(self):
        model = sa.build_model("1x3", timesteps=4, seed=44)
        with pytest.raises(ShapeError):
            sa.reconstruct_windows(model, np.zeros((3, 5, 1)))


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mae_gradients_match_finite_differences(self, seed):
        model = sa.build_model("1x3", timesteps=4, features=1, dropout_rate=0.0, seed=seed)
        batch = Rng(500 + seed).normal(0, 1, (2, 4, 1))

        def loss():
            recon, _ = sa._forward_batch(model, batch)
            return sa.mae(recon, batch)

        recon, cache = sa._forward_batch(model, batch)
        d_recon = np.sign(recon - batch) / recon.size
        grads = sa._backward_batch(model, cache, d_recon)
        assert worst_relative_error(loss, model.params(), grads) < REL_TOL

    def test_stacked_gradients_match_finite_differences(self):
        model = sa.build_model("2x4-3", timesteps=3, features=1, dropout_rate=0.0, seed=13)
        batch = Rng(600).normal(0, 1, (2, 3, 1))

        def loss():
            recon, _ = sa._forward_batch(model, batch)
            return sa.mae(recon, batch)

        recon, cache = sa._forward_batch(model, batch)
        d_recon = np.sign(recon - batch) / recon.size
        grads = sa._backward_batch(model, cache, d_recon)
        assert worst_relative_error(loss, model.params(), grads) < REL_TOL


class TestTrainingStepMemory:
    def test_step_peaks_at_or_below_9_3_mib(self):
        # 9.21 MiB holding every layer's cache to the end of the backward
        # pass; 10.67 MiB when the weight-gradient GEMM reads transposed
        # copies of the gate gradients and of [h, x]
        model = sa.build_model("2x64-16", timesteps=10, seed=42)
        batch = Rng(43).normal(0, 1, (64, 10, 1))
        tracemalloc.start()
        try:
            recon, cache = sa._forward_batch(model, batch, train_mode=True, rng=Rng(44))
            sa._backward_batch(model, cache, np.sign(recon - batch) / recon.size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9.3 * 2**20

    def test_backward_releases_the_caches(self):
        model = sa.build_model("2x8-4", timesteps=5, seed=45)
        batch = Rng(46).normal(0, 1, (3, 5, 1))
        recon, cache = sa._forward_batch(model, batch, train_mode=True, rng=Rng(47))
        sa._backward_batch(model, cache, np.sign(recon - batch) / recon.size)
        assert cache["enc_caches"] == [] and cache["dec_caches"] == []
        assert "dec_dropped" not in cache


def sinusoid_windows(n=2000, t=10, seed=0):
    x = np.sin(np.linspace(0, 40 * np.pi, n)) + Rng(seed).normal(0, 0.05, n)
    return make_windows(x, t)


class TestTrain:
    def test_learns_a_sinusoid(self):
        # regression floor frozen from the first successful run
        windows = sinusoid_windows()
        model = sa.build_model("1x16", timesteps=10, seed=0)
        model, trace = sa.train(model, windows, sa.TrainConfig(seed=0))
        assert trace.train_loss[-1] < 0.25 * trace.train_loss[0]

    def test_zero_epochs_is_noop(self):
        windows = sinusoid_windows(n=100)
        model = sa.build_model("1x16", timesteps=10, seed=1)
        before = copy.deepcopy(model)
        model, trace = sa.train(model, windows, sa.TrainConfig(epochs=0, seed=1))
        assert len(trace) == 0
        assert models_equal(model, before)

    def test_same_seed_same_trace(self):
        windows = sinusoid_windows(n=300)
        cfg = sa.TrainConfig(epochs=3, seed=5)
        _, trace_a = sa.train(sa.build_model("1x16", timesteps=10, seed=5), windows, cfg)
        _, trace_b = sa.train(sa.build_model("1x16", timesteps=10, seed=5), windows, cfg)
        assert trace_a.train_loss == trace_b.train_loss
        assert trace_a.val_loss == trace_b.val_loss

    def test_validation_loss_uses_inference_mode(self):
        windows = sinusoid_windows(n=200)
        n_val = int(len(windows) * 0.10)
        val_data = windows.windows[len(windows) - n_val :]
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.9, seed=6)
        model, trace = sa.train(model, windows, sa.TrainConfig(epochs=1, dropout=0.9, seed=6))
        expected = sa.mae(sa.reconstruct_windows(model, val_data), val_data)
        assert trace.val_loss[-1] == expected

    def test_empty_window_set_rejected(self):
        windows = sinusoid_windows(n=50)
        windows.windows = windows.windows[:0]
        windows.starts = windows.starts[:0]
        with pytest.raises(EmptyInputError):
            sa.train(sa.build_model("1x16", timesteps=10, seed=0), windows, sa.TrainConfig())

    def test_epoch_count_matches_trace(self):
        windows = sinusoid_windows(n=120)
        _, trace = sa.train(
            sa.build_model("1x16", timesteps=10, seed=2), windows, sa.TrainConfig(epochs=4, seed=2)
        )
        assert len(trace.train_loss) == 4
        assert len(trace.val_loss) == 4

    def test_table_defaults(self):
        cfg = sa.TrainConfig()
        assert (cfg.learning_rate, cfg.dropout, cfg.batch_size, cfg.epochs) == (0.001, 0.2, 64, 30)
        assert cfg.validation_fraction == 0.10

    def test_stacked_architecture_trains(self):
        windows = sinusoid_windows(n=150, t=6)
        model = sa.build_model("2x8-4", timesteps=6, seed=4)
        model, trace = sa.train(model, windows, sa.TrainConfig(epochs=2, seed=4))
        assert len(trace) == 2
        assert all(np.isfinite(v) for v in trace.train_loss)
        for p in model.params():
            assert np.all(np.isfinite(p))

    def test_diverging_optimiser_raises(self):
        windows = sinusoid_windows(n=300)
        model = sa.build_model("1x16", timesteps=10, seed=7)
        with pytest.raises(TrainingDivergedError, match=r"epoch 2.*MAE.*learning rate 1000000\.0"):
            sa.train(model, windows, sa.TrainConfig(epochs=2, learning_rate=1e6, seed=7))

    def test_non_finite_parameter_raises_at_its_epoch(self):
        windows = sinusoid_windows(n=300)
        model = sa.build_model("1x16", timesteps=10, seed=8)
        model.head_b[0] = np.inf
        with pytest.raises(TrainingDivergedError, match=r"epoch 1: .*non-finite"):
            sa.train(model, windows, sa.TrainConfig(epochs=3, seed=8))

    def test_training_drops_the_old_threshold_record(self):
        model = with_threshold(sa.build_model("1x3", timesteps=10, seed=3))
        sa.train(model, sinusoid_windows(n=40), sa.TrainConfig(epochs=1, seed=3))
        assert model.threshold is None

    def test_no_validation_split(self):
        windows = sinusoid_windows(n=120)
        _, trace = sa.train(
            sa.build_model("1x16", timesteps=10, seed=3),
            windows,
            sa.TrainConfig(epochs=2, validation_fraction=0.0, seed=3),
        )
        assert len(trace.val_loss) == 2
        assert all(np.isnan(v) for v in trace.val_loss)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = sa.build_model("2x64-16", timesteps=10, dropout_rate=0.2, seed=21)
        with_threshold(model, np.nextafter(0.1, 1.0))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        loaded = sa.load_model(str(path))
        assert models_equal(model, loaded)
        assert (loaded.arch, loaded.timesteps, loaded.features) == ("2x64-16", 10, 1)
        assert loaded.dropout_rate == 0.2
        assert loaded.init_seed == 21
        assert loaded.threshold == sa.ThresholdRecord(np.nextafter(0.1, 1.0), 100, 10)
        assert sa.model_digest(loaded) == sa.model_digest(model)

    def test_save_without_threshold_rejected(self, tmp_path):
        model = sa.build_model("1x3", timesteps=4, seed=21)
        with pytest.raises(ModelFileError, match="threshold"):
            sa.save_model(model, str(tmp_path / "model.json"))
        assert not (tmp_path / "model.json").exists()

    def test_digest_names_the_threshold_record(self):
        model = with_threshold(sa.build_model("1x3", timesteps=4, seed=21), 0.25)
        base = sa.model_digest(model)
        for change in (
            {"value": np.nextafter(0.25, 1.0)},
            {"train_points": 101},
            {"window_len": 5},
        ):
            record = model.threshold
            model.threshold = sa.ThresholdRecord(**{**vars(record), **change})
            assert sa.model_digest(model) != base, change
            model.threshold = record
        model.threshold = None
        assert sa.model_digest(model) != base

    def test_digest_changes_with_one_ulp_of_any_weight(self):
        model = sa.build_model("2x8-4", timesteps=5, seed=25)
        base = sa.model_digest(model)
        seen = {base}
        for p in model.params():
            for k in range(p.size):
                old = p.flat[k]
                p.flat[k] = np.nextafter(old, np.inf)
                seen.add(sa.model_digest(model))
                p.flat[k] = old
        assert len(seen) == 1 + sum(p.size for p in model.params())
        assert sa.model_digest(model) == base

    def test_truncated_file_rejected_whole(self, tmp_path):
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=22))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError):
            sa.load_model(str(path))

    def test_version_mismatch_names_both_versions(self, tmp_path):
        import json

        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=23))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match=r"99.*3"):
            sa.load_model(str(path))

    def test_version_2_file_is_version_error(self, tmp_path):
        import json

        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=23))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        del doc["threshold"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match=r"version 2"):
            sa.load_model(str(path))

    @pytest.mark.parametrize(
        "record",
        [
            None,
            {"train_points": 100, "window_len": 5},
            {"value": float("nan"), "train_points": 100, "window_len": 5},
            {"value": float("inf"), "train_points": 100, "window_len": 5},
            {"value": "high", "train_points": 100, "window_len": 5},
            {"value": 0.25, "train_points": 100, "window_len": 6},
            {"value": -0.25, "train_points": 100, "window_len": 5},
            {"value": 0.25, "train_points": 4, "window_len": 5},
        ],
        ids=[
            "missing", "no-value", "nan", "inf", "not-a-number", "other-window",
            "negative", "fewer-points-than-window",
        ],  # fmt: skip
    )
    def test_bad_threshold_record_rejected(self, tmp_path, record):
        import json

        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        if record is None:
            del doc["threshold"]
        else:
            doc["threshold"] = record
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="threshold") as info:
            sa.load_model(str(path))
        assert not isinstance(info.value, ModelVersionError)

    def test_non_matrix_weight_rejected(self, tmp_path):
        import json

        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["decoder"][0]["w"] = 5.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            sa.load_model(str(path))

    def test_shape_inconsistency_rejected(self, tmp_path):
        import json

        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["encoder"][0]["b"] = [0.0, 0.0]  # wrong length
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            sa.load_model(str(path))

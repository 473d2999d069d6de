import copy
import json
import os
import tracemalloc

import numpy as np
import pytest

from gradcheck import REL_TOL, worst_relative_error
from model_files import rewrite_model_file, with_entry, write_v3_model_file
from seqad.errors import ConfigError, DataError, ModelFileError, ModelVersionError, ShapeError
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
        model = sa.build_model(tag, timesteps=10, seed=0)
        assert model.encoder[-1].hidden_size == latent
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
        window = np.random.default_rng(2).normal(0, 1, (10, 1))
        assert np.array_equal(sa.reconstruct_windows(model, window[None])[0], np.zeros((10, 1)))

    def test_inference_is_deterministic(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=3)
        windows = np.random.default_rng(4).normal(0, 1, (1, 10, 1))
        first = sa.reconstruct_windows(model, windows)
        assert np.array_equal(first, sa.reconstruct_windows(model, windows))

    def test_latent_shape_chain(self):
        # T=10, m=1, latent 16: encoder out 16, repeated 10x16, head out 10x1;
        # the decoder output is kept feature-major, (hidden, T, B)
        model = sa.build_model("1x16", timesteps=10, seed=5)
        window = np.random.default_rng(6).normal(0, 1, (10, 1))
        recon, cache = sa._forward_batch(model, window[None])
        assert model.encoder[-1].hidden_size == 16
        assert cache["dec_caches"][-1][0].z.shape == (1, 16 + 16)
        assert len(cache["dec_caches"][-1]) == 10
        assert cache["dec_dropped"].shape == (16, 10, 1)
        assert recon.shape == (1, 10, 1)

    def test_dropout_masks_drawn_batch_first_in_order(self):
        # distinct B, T, hidden and latent sizes, so a mask applied on the
        # wrong axes cannot broadcast
        b, t_len, rate = 3, 5, 0.3
        model = perturbed(sa.build_model("2x8-4", timesteps=t_len, dropout_rate=rate, seed=50), 51)
        batch = np.random.default_rng(52).normal(0, 1, (b, t_len, 1))
        recon, cache = sa._forward_batch(model, batch, rng=np.random.default_rng(53))
        rng = np.random.default_rng(53)
        latent_mask = (rng.uniform(size=(b, 4)) >= rate) / (1.0 - rate)
        dec_mask = (rng.uniform(size=(b, t_len, 8)) >= rate) / (1.0 - rate)
        assert np.array_equal(cache["latent_mask"], latent_mask)
        assert np.array_equal(cache["dec_mask"], dec_mask)
        # each mask entry scales the batch-first element it was drawn for
        seq = batch.transpose(1, 0, 2)
        seq = lstm_infer(model.encoder[0], seq)
        latent = lstm_infer(model.encoder[1], seq)[-1] * latent_mask
        seq = lstm_infer(model.decoder[0], np.broadcast_to(latent, (t_len, b, 4)))
        seq = lstm_infer(model.decoder[1], seq).transpose(1, 0, 2) * dec_mask
        expected = seq @ model.head_w.T + model.head_b
        assert np.max(np.abs(recon - expected)) <= 1e-12

    @pytest.mark.parametrize("tag", ["1x16", "2x64-16", "3x128-64-16"])
    def test_output_shape_equals_input_shape(self, tag):
        model = sa.build_model(tag, timesteps=7, seed=7)
        window = np.random.default_rng(8).normal(0, 1, (7, 1))
        assert sa.reconstruct_windows(model, window[None])[0].shape == (7, 1)

    def test_train_mode_dropout_changes_output(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=9)
        windows = np.random.default_rng(10).normal(0, 1, (1, 10, 1))
        plain = sa.reconstruct_windows(model, windows)
        dropped, _ = sa._forward_batch(model, windows, rng=np.random.default_rng(11))
        assert not np.array_equal(plain, dropped)

    def test_shape_mismatch_rejected(self):
        model = sa.build_model("1x16", timesteps=10, seed=12)
        with pytest.raises(ShapeError):
            sa.reconstruct_windows(model, np.zeros((1, 9, 1)))


def perturbed(model, seed):
    """The model with every parameter, biases included, moved off its init."""
    rng = np.random.default_rng(seed)
    for p in model.params():
        p += rng.normal(0, 0.2, p.shape)
    return model


class TestInferencePass:
    @pytest.mark.parametrize("tag", ["1x3", "2x8-4", "3x8-6-4"])
    @pytest.mark.parametrize("t_len", [1, 7])
    def test_matches_training_forward(self, tag, t_len):
        model = perturbed(sa.build_model(tag, timesteps=t_len, seed=30), 31)
        windows = np.random.default_rng(32).normal(0, 1, (5, t_len, 1))
        expected, _ = sa._forward_batch(model, windows)
        got = sa.reconstruct_windows(model, windows)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_chunk_boundary(self):
        model = perturbed(sa.build_model("2x8-4", timesteps=7, seed=33), 34)
        windows = np.random.default_rng(35).normal(0, 1, (4, 7, 1))
        expected, _ = sa._forward_batch(model, windows)
        got = sa.reconstruct_windows(model, windows, chunk=3)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_repeated_calls_bit_identical(self):
        model = perturbed(sa.build_model("3x8-6-4", timesteps=7, seed=36), 37)
        windows = np.random.default_rng(38).normal(0, 1, (9, 7, 1))
        first = sa.reconstruct_windows(model, windows, chunk=4)
        assert np.array_equal(first, sa.reconstruct_windows(model, windows, chunk=4))

    def test_forward_uses_the_inference_pass(self):
        # one window scored alone matches the same window scored inside a
        # batch: no window's reconstruction depends on its batch mates
        model = perturbed(sa.build_model("2x8-4", timesteps=7, seed=39), 40)
        windows = np.random.default_rng(41).normal(0, 1, (5, 7, 1))
        alone = sa.reconstruct_windows(model, windows[2:3])[0]
        assert np.max(np.abs(alone - sa.reconstruct_windows(model, windows)[2])) <= 1e-12

    def test_peak_memory_below_two_gate_buffers(self):
        # the widest layer's (T, B, 4H) gate buffer: 10 x 1024 x 256 float64, 20 MiB;
        # a pass that keeps the backward caches of every layer peaks near 100 MiB
        model = sa.build_model("2x64-16", timesteps=10, seed=42)
        windows = np.random.default_rng(43).normal(0, 1, (1024, 10, 1))
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
        windows = np.random.default_rng(43).normal(0, 1, (1024, 10, 1))
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


class TestParameterVector:
    def test_params_are_views_of_the_vector_in_order(self, tmp_path):
        built = with_threshold(sa.build_model("2x8-4", timesteps=5, seed=26))
        path = tmp_path / "model.json"
        sa.save_model(built, str(path))
        for model in (built, sa.load_model(str(path))):
            size = 0
            for p in model.params():
                p[...] = np.arange(size, size + p.size).reshape(p.shape)
                size += p.size
            assert np.array_equal(model.vector, np.arange(size))
            model.vector[:] = -1.0
            assert all((p == -1.0).all() for p in model.params())


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mae_gradients_match_finite_differences(self, seed):
        model = sa.build_model("1x3", timesteps=4, dropout_rate=0.0, seed=seed)
        batch = np.random.default_rng(500 + seed).normal(0, 1, (2, 4, 1))

        def loss():
            recon, _ = sa._forward_batch(model, batch)
            return sa.mae(recon, batch)

        recon, cache = sa._forward_batch(model, batch)
        d_recon = np.sign(recon - batch) / recon.size
        grad = np.empty_like(model.vector)
        sa._backward_batch(model, cache, d_recon, grad)
        assert worst_relative_error(loss, [model.vector], [grad]) < REL_TOL

    def test_stacked_gradients_match_finite_differences(self):
        model = sa.build_model("2x4-3", timesteps=3, dropout_rate=0.0, seed=13)
        batch = np.random.default_rng(600).normal(0, 1, (2, 3, 1))

        def loss():
            recon, _ = sa._forward_batch(model, batch)
            return sa.mae(recon, batch)

        recon, cache = sa._forward_batch(model, batch)
        d_recon = np.sign(recon - batch) / recon.size
        grad = np.empty_like(model.vector)
        sa._backward_batch(model, cache, d_recon, grad)
        assert worst_relative_error(loss, [model.vector], [grad]) < REL_TOL


class TestTrainingStepMemory:
    def test_step_peaks_at_or_below_9_3_mib(self):
        # 9.21 MiB holding every layer's cache to the end of the backward
        # pass; 10.67 MiB when the weight-gradient GEMM reads transposed
        # copies of the gate gradients and of [h, x]
        model = sa.build_model("2x64-16", timesteps=10, seed=42)
        batch = np.random.default_rng(43).normal(0, 1, (64, 10, 1))
        tracemalloc.start()
        try:
            recon, cache = sa._forward_batch(model, batch, rng=np.random.default_rng(44))
            grad = np.empty_like(model.vector)
            sa._backward_batch(model, cache, np.sign(recon - batch) / recon.size, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9.3 * 2**20

    def test_training_run_peaks_at_or_below_10_3_mib(self):
        # 9.82 MiB: one step's caches, the gradient vector, Adam's moments
        # and its two scratch blocks (9.57 MiB with a fresh gradient list
        # and full-size Adam temporaries every batch, which then churn the heap)
        windows = sinusoid_windows(n=309, t=10)
        assert len(windows) == 300
        model = sa.build_model("2x64-16", timesteps=10, seed=42)
        tracemalloc.start()
        try:
            sa.train(model, windows, sa.TrainConfig(epochs=2, seed=42))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10.3 * 2**20

    def test_backward_releases_the_caches(self):
        model = sa.build_model("2x8-4", timesteps=5, seed=45)
        batch = np.random.default_rng(46).normal(0, 1, (3, 5, 1))
        recon, cache = sa._forward_batch(model, batch, rng=np.random.default_rng(47))
        sa._backward_batch(model, cache, np.sign(recon - batch) / recon.size, np.empty_like(model.vector))
        assert cache["enc_caches"] == [] and cache["dec_caches"] == []
        assert "dec_dropped" not in cache


def sinusoid_windows(n=2000, t=10, seed=0):
    x = np.sin(np.linspace(0, 40 * np.pi, n)) + np.random.default_rng(seed).normal(0, 0.05, n)
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
        val_data = windows[len(windows) - n_val :]
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.9, seed=6)
        model, trace = sa.train(model, windows, sa.TrainConfig(epochs=1, dropout=0.9, seed=6))
        expected = sa.mae(sa.reconstruct_windows(model, val_data), val_data)
        assert trace.val_loss[-1] == expected

    def test_training_applies_the_models_dropout_rate(self):
        # cfg.dropout is the rate detector.fit builds a model with; a model
        # built without dropout trains alike under any cfg.dropout
        windows = sinusoid_windows(n=200)
        runs = []
        for rate in (0.5, 0.0):
            model = sa.build_model("1x16", timesteps=10, dropout_rate=0.0, seed=14)
            runs.append(sa.train(model, windows, sa.TrainConfig(epochs=2, dropout=rate, seed=14)))
        (model_a, trace_a), (model_b, trace_b) = runs
        assert models_equal(model_a, model_b)
        assert trace_a.train_loss == trace_b.train_loss

    def test_empty_window_set_rejected(self):
        windows = sinusoid_windows(n=50)[:0]
        with pytest.raises(DataError, match="training requires at least one window"):
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
        with pytest.raises(ConfigError, match=r"epoch 2.*MAE.*learning rate 1000000\.0"):
            sa.train(model, windows, sa.TrainConfig(epochs=2, learning_rate=1e6, seed=7))

    def test_non_finite_parameter_raises_at_its_epoch(self):
        windows = sinusoid_windows(n=300)
        model = sa.build_model("1x16", timesteps=10, seed=8)
        model.head_b[0] = np.inf
        with pytest.raises(ConfigError, match=r"epoch 1: .*non-finite"):
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

    @pytest.mark.parametrize(
        "tag,t_len,n,digest",
        [
            ("1x16", 10, 209, "22011875d982d538ca5946906cd6db9c6b741334bde7425c76cca7446f481616"),
            ("2x8-4", 6, 205, "a1b1c6d18882c5614fad54fb94b2fa5f5c12d9a5d0501c851a333b40a53666ac"),
        ],
    )
    def test_trained_bits_are_pinned(self, tag, t_len, n, digest):
        # 200 windows, 3 epochs with dropout; the digests were taken from a
        # training step with one gradient array and one Adam update per
        # parameter array, so any change to the step's arithmetic shows
        windows = sinusoid_windows(n=n, t=t_len, seed=9)
        assert len(windows) == 200
        model = sa.build_model(tag, timesteps=t_len, dropout_rate=0.2, seed=11)
        sa.train(model, windows, sa.TrainConfig(epochs=3, batch_size=32, seed=12))
        assert sa.model_digest(model) == digest


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = sa.build_model("2x64-16", timesteps=10, dropout_rate=0.2, seed=21)
        with_threshold(model, np.nextafter(0.1, 1.0))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        loaded = sa.load_model(str(path))
        assert models_equal(model, loaded)
        assert (loaded.arch, loaded.timesteps) == ("2x64-16", 10)
        assert loaded.dropout_rate == 0.2
        assert loaded.init_seed == 21
        assert loaded.threshold == sa.ThresholdRecord(np.nextafter(0.1, 1.0), 100, 10)
        assert sa.model_digest(loaded) == sa.model_digest(model)

    def test_file_is_the_header_line_then_the_vector(self, tmp_path):
        model = with_threshold(sa.build_model("2x5-3", timesteps=4, dropout_rate=0.1, seed=21))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        header = {
            "format_version": 4,
            "kind": "lstm-autoencoder",
            "arch": "2x5-3",
            "timesteps": 4,
            "features": 1,
            "dropout_rate": 0.1,
            "init_seed": 21,
            "threshold": {"value": 0.25, "train_points": 100, "window_len": 4},
        }
        expected = (json.dumps(header) + "\n").encode() + model.vector.astype("<f8").tobytes()
        assert path.read_bytes() == expected

    def test_loaded_vector_is_like_a_built_one(self, tmp_path):
        model = with_threshold(sa.build_model("2x5-3", timesteps=4, seed=21))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        for vector in (model.vector, sa.load_model(str(path)).vector):
            assert vector.dtype == np.float64
            assert vector.flags.c_contiguous and vector.flags.writeable

    def test_save_without_threshold_rejected(self, tmp_path):
        model = sa.build_model("1x3", timesteps=4, seed=21)
        with pytest.raises(ModelFileError, match="threshold"):
            sa.save_model(model, str(tmp_path / "model.json"))
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("where", ["missing-directory", "existing-directory"])
    def test_failed_save_names_path_and_leaves_no_temp_file(self, tmp_path, where):
        model = with_threshold(sa.build_model("1x3", timesteps=4, seed=21))
        path = tmp_path / "nodir" / "model.json"
        if where == "existing-directory":
            path = tmp_path / "adir"
            path.mkdir()
        with pytest.raises(ModelFileError, match="cannot write") as info:
            sa.save_model(model, str(path))
        assert str(path) in str(info.value)
        assert not os.path.exists(f"{path}.tmp")

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
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=23))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        rewrite_model_file(path, header=lambda doc: doc.update(format_version=99))
        with pytest.raises(ModelVersionError, match=r"99.*4"):
            sa.load_model(str(path))

    def test_version_2_file_is_version_error(self, tmp_path):
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=23))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))

        def to_version_2(doc):
            doc["format_version"] = 2
            del doc["threshold"]

        rewrite_model_file(path, header=to_version_2)
        with pytest.raises(ModelVersionError, match=r"version 2"):
            sa.load_model(str(path))

    def test_version_3_json_file_is_version_error_asking_to_retrain(self, tmp_path):
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=23))
        path = tmp_path / "model.json"
        write_v3_model_file(model, str(path))
        with pytest.raises(ModelVersionError, match=r"version 3, .* 4; retrain the model") as info:
            sa.load_model(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("content", [b"", b'{"format_version": 4}'], ids=["empty", "no-newline"])
    def test_file_without_a_header_line_rejected_naming_path(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ModelFileError, match="header line") as info:
            sa.load_model(str(path))
        assert str(path) in str(info.value)
        assert not isinstance(info.value, ModelVersionError)

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
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))

        def set_record(doc):
            if record is None:
                del doc["threshold"]
            else:
                doc["threshold"] = record

        rewrite_model_file(path, header=set_record)
        with pytest.raises(ModelFileError, match="threshold") as info:
            sa.load_model(str(path))
        assert not isinstance(info.value, ModelVersionError)

    @pytest.mark.parametrize(
        "header, vector",
        [
            (None, lambda v: v[:-1]),
            (None, lambda v: np.append(v, 0.0)),
            (lambda doc: doc.update(arch="2x16-16"), None),
        ],
        ids=["one-float-short", "one-float-extra", "tag-with-another-layer"],
    )
    def test_payload_of_other_length_rejected(self, tmp_path, header, vector):
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        rewrite_model_file(path, header=header, vector=vector)
        with pytest.raises(ModelFileError, match="payload is .* bytes") as info:
            sa.load_model(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "header, vector",
        [
            # a 1x16 model ends with the head's 16 weights and 1 bias,
            # after the decoder layer's 2,112 values
            (None, with_entry(-17, float("nan"))),
            (None, with_entry(-1, float("inf"))),
            (lambda doc: doc.update(arch="1x100000000"), None),
            (None, lambda v: np.concatenate([v, v[-2129:-17]])),
            (lambda doc: doc.update(timesteps=float("inf")), None),
            (lambda doc: doc["threshold"].update(train_points=float("inf")), None),
            # save_model always writes this kind and one feature: another
            # kind once loaded, and another feature count failed in detect
            (lambda doc: doc.update(kind="other"), None),
            (lambda doc: doc.pop("kind"), None),
            (lambda doc: doc.update(features=2), None),
        ],
        ids=[
            "nan-head-weight", "inf-head-bias", "huge-arch", "extra-decoder-layer",
            "inf-timesteps", "inf-train-points", "other-kind", "no-kind", "two-features",
        ],  # fmt: skip
    )
    def test_hostile_file_rejected_naming_path(self, tmp_path, header, vector):
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        rewrite_model_file(path, header=header, vector=vector)
        tracemalloc.start()
        try:
            with pytest.raises(ModelFileError) as info:
                sa.load_model(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert peak < 2**20  # nothing is sized from the header's tag

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "timesteps", 5.7),
            (None, "timesteps", 5.0),
            (None, "features", True),
            (None, "init_seed", "24"),
            (None, "dropout_rate", "0.2"),
            (None, "dropout_rate", False),
            ("threshold", "train_points", 100.5),
            ("threshold", "window_len", 5.0),
            ("threshold", "value", True),
            ("threshold", "value", "0.25"),
        ],
    )
    def test_number_of_wrong_json_type_rejected_naming_key(self, tmp_path, section, key, value):
        # each of these once loaded, truncated or converted
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        rewrite_model_file(
            path, header=lambda doc: (doc if section is None else doc[section]).update({key: value})
        )
        with pytest.raises(ModelFileError, match=key) as info:
            sa.load_model(str(path))
        assert str(path) in str(info.value)

    def test_float_format_version_is_version_error(self, tmp_path):
        model = with_threshold(sa.build_model("1x16", timesteps=5, seed=24))
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        rewrite_model_file(path, header=lambda doc: doc.update(format_version=4.0))
        with pytest.raises(ModelVersionError, match=r"4\.0"):
            sa.load_model(str(path))

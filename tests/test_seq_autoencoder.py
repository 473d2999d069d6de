import copy

import numpy as np
import pytest

from gradcheck import REL_TOL, worst_relative_error
from seqad.core_math import Rng
from seqad.errors import ConfigError, EmptyInputError, ModelFileError, ModelVersionError
from seqad import seq_autoencoder as sa
from seqad.windowing import make_windows


def zeroed(model):
    for p in model.params():
        p[...] = 0.0
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
        assert np.array_equal(sa.forward(model, window), np.zeros((10, 1)))

    def test_inference_is_deterministic(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=3)
        window = Rng(4).normal(0, 1, (10, 1))
        assert np.array_equal(sa.forward(model, window), sa.forward(model, window))

    def test_latent_shape_chain(self):
        # T=10, m=1, latent 16: encoder out 16, repeated 10x16, head out 10x1
        model = sa.build_model("1x16", timesteps=10, features=1, seed=5)
        window = Rng(6).normal(0, 1, (10, 1))
        recon, cache = sa._forward_batch(model, window[None])
        assert model.latent_size == 16
        assert cache["dec_caches"][-1][0].z.shape == (1, 16 + 16)
        assert len(cache["dec_caches"][-1]) == 10
        assert cache["dec_dropped"].shape == (1, 10, 16)
        assert recon.shape == (1, 10, 1)

    @pytest.mark.parametrize("tag", ["1x16", "2x64-16", "3x128-64-16"])
    def test_output_shape_equals_input_shape(self, tag):
        model = sa.build_model(tag, timesteps=7, features=2, seed=7)
        window = Rng(8).normal(0, 1, (7, 2))
        assert sa.forward(model, window).shape == (7, 2)

    def test_train_mode_dropout_changes_output(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=9)
        window = Rng(10).normal(0, 1, (10, 1))
        plain = sa.forward(model, window)
        dropped = sa.forward(model, window, train_mode=True, rng=Rng(11))
        assert not np.array_equal(plain, dropped)

    def test_train_mode_needs_rng(self):
        model = sa.build_model("1x16", timesteps=10, dropout_rate=0.5, seed=9)
        with pytest.raises(ConfigError):
            sa.forward(model, np.zeros((10, 1)), train_mode=True)

    def test_shape_mismatch_rejected(self):
        model = sa.build_model("1x16", timesteps=10, seed=12)
        with pytest.raises(Exception):
            sa.forward(model, np.zeros((9, 1)))


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
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        loaded = sa.load_model(str(path))
        assert models_equal(model, loaded)
        assert (loaded.arch, loaded.timesteps, loaded.features) == ("2x64-16", 10, 1)
        assert loaded.dropout_rate == 0.2
        assert loaded.init_seed == 21
        assert sa.model_digest(loaded) == sa.model_digest(model)

    def test_truncated_file_rejected_whole(self, tmp_path):
        model = sa.build_model("1x16", timesteps=5, seed=22)
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError):
            sa.load_model(str(path))

    def test_version_mismatch_names_both_versions(self, tmp_path):
        import json

        model = sa.build_model("1x16", timesteps=5, seed=23)
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match=r"99.*2"):
            sa.load_model(str(path))

    def test_non_matrix_weight_rejected(self, tmp_path):
        import json

        model = sa.build_model("1x16", timesteps=5, seed=24)
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["decoder"][0]["w"] = 5.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            sa.load_model(str(path))

    def test_shape_inconsistency_rejected(self, tmp_path):
        import json

        model = sa.build_model("1x16", timesteps=5, seed=24)
        path = tmp_path / "model.json"
        sa.save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["encoder"][0]["b"] = [0.0, 0.0]  # wrong length
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError):
            sa.load_model(str(path))

"""Network forward/backward passes, training loop, and checkpoint format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxymark as pm
from proxymark.errors import (
    CheckpointFormatError,
    InputError,
    SpecMismatchError,
)
from proxymark.nn import (
    checkpoint_bytes,
    fingerprint,
    fit,
    init_model,
    init_theta,
    unpack,
)

small_specs = st.builds(
    pm.ModelSpec,
    input_dim=st.integers(1, 4),
    hidden_layers=st.lists(st.integers(1, 6), min_size=0, max_size=2).map(tuple),
    num_classes=st.integers(3, 5),
    activation=st.sampled_from(["relu", "tanh"]),
)


class TestModelSpec:
    def test_param_count(self):
        spec = pm.ModelSpec(2, (3,), 4)
        # 2*3 + 3 + 3*4 + 4
        assert spec.num_params == 25

    def test_no_hidden_layers(self):
        spec = pm.ModelSpec(5, (), 3)
        assert spec.layer_dims == (5, 3)
        assert spec.num_params == 5 * 3 + 3

    def test_validation(self):
        with pytest.raises(InputError):
            pm.ModelSpec(0, (4,), 3)
        with pytest.raises(InputError):
            pm.ModelSpec(2, (4,), 2)
        with pytest.raises(InputError):
            pm.ModelSpec(2, (0,), 3)
        with pytest.raises(InputError):
            pm.ModelSpec(2, (4,), 3, "sigmoid")

    @given(spec=small_specs)
    def test_unpack_covers_theta_exactly(self, spec):
        theta = np.arange(spec.num_params, dtype=np.float64)
        layers = unpack(spec, theta)
        total = sum(w.size + b.size for w, b in layers)
        assert total == spec.num_params
        # views share memory with the flat vector
        layers[0][0].flat[0] = -1.0
        assert theta[0] == -1.0


class TestModel:
    def test_shape_check(self):
        spec = pm.ModelSpec(2, (3,), 4)
        with pytest.raises(InputError):
            pm.Model(spec, np.zeros(spec.num_params + 1))

    def test_finite_check(self):
        spec = pm.ModelSpec(2, (3,), 4)
        theta = np.zeros(spec.num_params)
        theta[0] = np.nan
        with pytest.raises(InputError):
            pm.Model(spec, theta)


class TestForward:
    @given(spec=small_specs, seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_normalized(self, spec, seed):
        model = init_model(spec, seed)
        x = np.random.default_rng(seed).normal(size=(8, spec.input_dim))
        probs = pm.forward(model, x)
        assert probs.shape == (8, spec.num_classes)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_sample_shape(self):
        model = init_model(pm.ModelSpec(3, (4,), 3), 0)
        p = pm.forward(model, np.zeros(3))
        assert p.shape == (3,)
        assert isinstance(pm.predict(model, np.zeros(3)), int)

    def test_argmax_tie_breaks_low(self):
        # zero weights give uniform probabilities, so class 0 must win
        spec = pm.ModelSpec(2, (), 4)
        model = pm.Model(spec, np.zeros(spec.num_params))
        assert pm.predict(model, np.ones(2)) == 0

    def test_dimension_mismatch(self):
        model = init_model(pm.ModelSpec(3, (4,), 3), 0)
        with pytest.raises(InputError):
            pm.forward(model, np.zeros(4))

    def test_softmax_stable_for_large_logits(self):
        spec = pm.ModelSpec(2, (), 3)
        theta = np.zeros(spec.num_params)
        theta[-3:] = [500.0, -500.0, 0.0]  # biases
        model = pm.Model(spec, theta)
        probs = pm.forward(model, np.zeros(2))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)


class TestLosses:
    def test_cross_entropy_matches_log(self):
        assert pm.cross_entropy([0.5, 0.25, 0.25], 1) == pytest.approx(np.log(4))

    def test_cross_entropy_clamped(self):
        val = pm.cross_entropy([1.0, 0.0, 0.0], 1)
        assert np.isfinite(val)
        assert val == pytest.approx(-np.log(1e-12))

    def test_kl_zero_when_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        assert pm.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_kl_zero_times_log_zero(self):
        assert np.isfinite(pm.kl_divergence([0.0, 1.0], [0.5, 0.5]))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_kl_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert pm.kl_divergence(p, q) >= -1e-12


def _numeric_gradient(model, x, targets, loss, eps=1e-6):
    from proxymark.nn import _batch_ce_loss_grad, _batch_kl_loss_grad, _forward_cached

    def loss_at(theta):
        probed = pm.Model(model.spec, theta)
        probs, _, _ = _forward_cached(probed, x)
        if loss == "ce":
            return _batch_ce_loss_grad(probs, targets)[0]
        return _batch_kl_loss_grad(probs, targets)[0]

    grad = np.zeros_like(model.theta)
    for i in range(model.theta.size):
        up = model.theta.copy()
        up[i] += eps
        down = model.theta.copy()
        down[i] -= eps
        grad[i] = (loss_at(up) - loss_at(down)) / (2 * eps)
    return grad


class TestGradients:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("loss", ["ce", "kl_to_targets"])
    def test_against_finite_differences(self, activation, loss):
        rng = np.random.default_rng(99)
        for trial in range(5):
            spec = pm.ModelSpec(
                int(rng.integers(1, 4)),
                tuple(rng.integers(1, 5, size=rng.integers(0, 3))),
                int(rng.integers(3, 5)),
                activation,
            )
            model = init_model(spec, int(rng.integers(0, 1 << 30)))
            x = rng.normal(size=(6, spec.input_dim))
            if loss == "ce":
                targets = rng.integers(0, spec.num_classes, size=6)
            else:
                targets = rng.dirichlet(np.ones(spec.num_classes), size=6)
            analytic = pm.gradients(model, x, targets, loss=loss)
            numeric = _numeric_gradient(model, x, targets, loss)
            denom = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    def test_input_validation(self):
        model = init_model(pm.ModelSpec(2, (3,), 4), 0)
        with pytest.raises(InputError):
            pm.gradients(model, np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(InputError):
            pm.gradients(model, np.zeros((2, 2)), np.array([0, 4]))
        with pytest.raises(InputError):
            pm.gradients(model, np.zeros((2, 2)), np.array([0, 1]), loss="mse")


class TestFit:
    def test_label_count_must_match_rows(self, blob_split, small_spec):
        train_data, _ = blob_split
        labels = np.concatenate([train_data.labels, train_data.labels[:5]])
        with pytest.raises(InputError, match="labels"):
            fit(small_spec, train_data.features, labels, pm.TrainConfig(epochs=1))

    def test_teacher_probs_shape_checked(self, blob_split, small_spec):
        train_data, _ = blob_split
        short = np.full((train_data.n - 5, 4), 0.25)
        with pytest.raises(InputError, match="teacher_probs"):
            fit(small_spec, train_data.features, None, pm.TrainConfig(epochs=1),
                teacher_probs=short, gamma=1.0)

    def test_training_reduces_loss(self, blob_split, small_spec):
        train_data, _ = blob_split
        _, history = fit(
            small_spec,
            train_data.features,
            train_data.labels,
            pm.TrainConfig(epochs=40, seed=5),
        )
        assert history[-1] < history[0]

    def test_deterministic(self, blob_split, small_spec):
        train_data, _ = blob_split
        cfg = pm.TrainConfig(epochs=10, seed=5)
        a = pm.train(small_spec, train_data, cfg)
        b = pm.train(small_spec, train_data, cfg)
        assert np.array_equal(a.theta, b.theta)

    def test_zero_lr_zero_wd_is_identity(self, blob_split, small_spec):
        train_data, _ = blob_split
        start = init_theta(small_spec, np.random.default_rng(3))
        cfg = pm.TrainConfig(epochs=3, learning_rate=0.0, weight_decay=0.0, seed=3)
        model, _ = fit(
            small_spec, train_data.features, train_data.labels, cfg, init=start
        )
        assert np.array_equal(model.theta, start)

    def test_zero_lr_is_pure_shrinkage(self, blob_split, small_spec):
        # decoupled weight decay: with lr=0 each step multiplies by (1 - wd)
        train_data, _ = blob_split
        start = init_theta(small_spec, np.random.default_rng(3))
        wd = 0.01
        cfg = pm.TrainConfig(
            epochs=2, learning_rate=0.0, weight_decay=wd, batch_size=10**9, seed=3
        )
        model, _ = fit(
            small_spec, train_data.features, train_data.labels, cfg, init=start
        )
        np.testing.assert_allclose(model.theta, start * (1 - wd) ** 2, rtol=1e-12)

    def test_teacher_without_labels_needs_gamma_one(self, blob_split, small_spec):
        train_data, _ = blob_split
        teacher = np.full((train_data.n, 4), 0.25)
        with pytest.raises(InputError):
            fit(
                small_spec,
                train_data.features,
                None,
                pm.TrainConfig(epochs=1),
                teacher_probs=teacher,
                gamma=0.5,
            )

    def test_accuracy_on_separable_blobs(self, blob_data, trained_source):
        assert pm.accuracy(blob_data, trained_source) > 0.9

    def test_train_config_validation(self):
        with pytest.raises(InputError):
            pm.TrainConfig(momentum=1.0)
        with pytest.raises(InputError):
            pm.TrainConfig(learning_rate=-0.1)
        with pytest.raises(InputError):
            pm.TrainConfig(batch_size=0)
        with pytest.raises(InputError):
            pm.TrainConfig(epochs=-1)


class TestCheckpoint:
    def test_round_trip_bitwise(self, trained_source, tmp_path):
        path = tmp_path / "model.ckpt"
        pm.save_checkpoint(trained_source, path)
        loaded = pm.load_checkpoint(path)
        assert loaded.spec == trained_source.spec
        assert np.array_equal(loaded.theta, trained_source.theta)

    @given(spec=small_specs, seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_spec(self, spec, seed, tmp_path_factory):
        model = init_model(spec, seed)
        path = tmp_path_factory.mktemp("ckpt") / f"m{seed}.ckpt"
        pm.save_checkpoint(model, path)
        loaded = pm.load_checkpoint(path)
        assert loaded.spec == model.spec
        assert np.array_equal(loaded.theta, model.theta)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(CheckpointFormatError):
            pm.load_checkpoint(path)

    def test_truncated_payload_rejected(self, trained_source, tmp_path):
        blob = checkpoint_bytes(trained_source)
        path = tmp_path / "short.ckpt"
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointFormatError):
            pm.load_checkpoint(path)

    def test_spec_mismatch(self, trained_source, tmp_path):
        path = tmp_path / "model.ckpt"
        pm.save_checkpoint(trained_source, path)
        other = pm.ModelSpec(2, (8,), 4)
        with pytest.raises(SpecMismatchError):
            pm.load_checkpoint(path, expected_spec=other)

    def test_fingerprint_tracks_weights(self, trained_source):
        fp = fingerprint(trained_source)
        assert len(fp) == 64
        bumped = trained_source.copy()
        bumped.theta[0] += 1e-9
        assert fingerprint(bumped) != fp

"""Network forward/backward passes, training loop, and checkpoint format."""

import itertools
import struct
from dataclasses import replace

import numpy as np
import pytest
from conftest import DIVERGED
from hypothesis import given, settings
from hypothesis import strategies as st

import proxymark as pm
from proxymark.errors import (
    CheckpointFormatError,
    InputError,
    TrainingDivergedError,
)
from proxymark.nn import (
    PROB_FLOOR,
    Model,
    _Batch,
    _check_features,
    _pairwise_row_sums,
    _relu,
    _zeros,
    checkpoint_bytes,
    fingerprint,
    fit,
    fit_many,
    init_model,
    init_theta,
    stacked_forward,
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

    @pytest.mark.parametrize(
        "call, features, message",
        [(pm.forward, np.zeros(4), "expected feature dimension 3"),
         (pm.forward, [[0.0, np.nan, 0.0]], "features contain non-finite entries"),
         (lambda model, x: fit_many(model.spec, x, np.zeros(len(x), dtype=int), pm.TrainConfig(), [0]),
          [[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf]], "features contain non-finite entries"),
         (lambda model, x: fit_many(model.spec, x, np.zeros(0, dtype=int), pm.TrainConfig(), [0]),
          np.zeros((0, 3)), "training data must be non-empty")],
        ids=["dimension", "nan-forward", "inf-fit_many", "no-rows-fit_many"],
    )
    def test_bad_features_rejected(self, call, features, message):
        model = init_model(pm.ModelSpec(3, (4,), 3), 0)
        with pytest.raises(InputError, match=message):
            call(model, features)

    @pytest.mark.parametrize("width", [16, 17, 128, 129, 257, 1000])
    def test_pairwise_row_sums_equal_numpy(self, width):
        # past 8 columns the sum runs 8 accumulators over blocks of 8, and past
        # 128 it splits in two, as numpy's pairwise sum does; magnitudes that
        # span orders make a sum in any other order round differently
        rows = np.random.default_rng(width).lognormal(sigma=4.0, size=(200, width))
        want = rows.sum(axis=1)
        assert _pairwise_row_sums(np.asfortranarray(rows), 0, width).tobytes() == want.tobytes()
        in_order = rows[:, 0].copy()
        for i in range(1, width):
            in_order += rows[:, i]
        assert in_order.tobytes() != want.tobytes()

    def test_softmax_stable_for_large_logits(self):
        spec = pm.ModelSpec(2, (), 3)
        theta = np.zeros(spec.num_params)
        theta[-3:] = [500.0, -500.0, 0.0]  # biases
        model = pm.Model(spec, theta)
        probs = pm.forward(model, np.zeros(2))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [(), (8,), (32, 32)])
    def test_stacked_slices_equal_the_reference_forward(self, activation, hidden):
        """Every model's slice of a stacked pass is its own forward, byte for
        byte, at stack sizes and row counts that take numpy's GEMM and
        matrix-vector paths."""
        rng = np.random.default_rng(8)
        for num_classes, k, rows in itertools.product((3, 4, 10), (1, 3, 64), (1, 2, 7, 512)):
            spec = pm.ModelSpec(5, hidden, num_classes, activation)
            thetas = rng.normal(size=(k, spec.num_params))  # non-zero biases
            x = rng.normal(size=(rows, 5))
            got = stacked_forward(spec, thetas, x)
            assert got.shape == (rows, k, num_classes)
            for j in range(k):
                want = _ref_forward_cached(Model(spec, thetas[j]), x)[0]
                assert got[:, j].tobytes() == want.tobytes()


class TestRelu:
    """Relu runs against a read-only block of +0.0s, not the scalar 0.0, and
    gives the scalar form's bits."""

    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1e-300, -1e-300, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0, np.nan]

    @pytest.mark.parametrize("shape", [(1, 1, 15), (3, 2, 15), (15, 7, 1)])
    def test_equals_scalar_maximum_bit_for_bit(self, shape):
        z = np.resize(np.array(self.SPECIAL), shape)
        want = np.maximum(z, 0.0)
        _relu(z, _zeros(z.size + 3))  # a block larger than z, as a stack's first layer takes it
        assert z.tobytes() == want.tobytes()

    def test_zeros_block_is_read_only(self):
        for zeros in (_zeros(8), _Batch((2, 5, 3), 4, 2).zeros):
            with pytest.raises(ValueError, match="read-only"):
                zeros[0] = 1.0

    def test_zeros_stay_positive_zero(self, monkeypatch, blob_split, small_spec):
        """Every block a forward pass ran against is all +0.0 after a fit_many
        stack, a predict, a trigger-set build and pruning's activities."""
        from proxymark import attacks, nn

        blocks = []
        forward = nn._forward

        def spy(layers, act, x, post, zeros):
            blocks.append(zeros)
            return forward(layers, act, x, post, zeros)

        monkeypatch.setattr(nn, "_forward", spy)
        monkeypatch.setattr(attacks, "_forward", spy)
        train_data, holdout = blob_split
        (model, _), _ = fit_many(small_spec, train_data.features, train_data.labels,
                                 pm.TrainConfig(epochs=3, batch_size=16), [0, 1])
        pm.predict(model, holdout.features)
        ball = pm.ProxyBall(model, 0.05 * np.linalg.norm(model.theta))
        pm.verify_trigger_set(holdout, model, ball, pm.VerifyConfig(m=4, n=2, max_candidates=10_000))
        attacks.neuron_activity(model, holdout)
        assert len({id(b) for b in blocks}) >= 4
        for zeros in blocks:
            assert not zeros.flags.writeable
            assert zeros.tobytes() == bytes(zeros.nbytes)  # +0.0 is all zero bits


def _numeric_gradient(model, x, targets, loss, eps=1e-6):
    from proxymark.nn import _loss_grad, _teacher_terms

    def loss_at(theta):
        probs = pm.forward(pm.Model(model.spec, theta), x)[:, None]  # a stack of one model
        if loss == "ce":
            return _loss_grad(probs, targets[:, None], None, 0.0)[0]
        return _loss_grad(probs, None, _teacher_terms(targets[:, None]), 1.0)[0]

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

    @pytest.mark.parametrize("epochs, kind", [(1, "inf"), (2, "nan")])
    def test_non_finite_parameters_raise(self, blob_split, small_spec, epochs, kind):
        # the first step's loss is finite and its update overflows the
        # parameters to inf; the second step's loss, and so the parameters, are nan
        train_data, _ = blob_split
        x, y = 1e6 * train_data.features, train_data.labels
        cfg = pm.TrainConfig(epochs=epochs, learning_rate=1e305, seed=0)
        with np.errstate(all="ignore"):
            if kind == "inf":
                theta = _ref_fit(small_spec, x, y, cfg)[0].theta
                assert np.isinf(theta).any() and not np.isnan(theta).any()
            else:
                with pytest.raises(TrainingDivergedError, match="loss became nan"):
                    _ref_fit(small_spec, x, y, cfg)
        with pytest.raises(TrainingDivergedError) as caught:
            fit(small_spec, x, y, cfg)
        assert str(caught.value) == DIVERGED
        assert 1.0 / PROB_FLOOR == 1e12

    @pytest.mark.parametrize("seed", range(12))
    def test_a_blow_up_with_a_finite_loss_raises(self, blob_data, small_spec, seed):
        # the reference's per-step loss test passes every step, while |theta|
        # reaches 1e117 or more; the clip keeps the loss at most -log(PROB_FLOOR)
        cfg = pm.TrainConfig(epochs=60, learning_rate=100, seed=seed)
        with np.errstate(all="ignore"):
            blown, history = _ref_fit(small_spec, blob_data.features, blob_data.labels, cfg)
        assert np.abs(blown.theta).max() > 1e117 and history[-1] <= -np.log(PROB_FLOOR)
        with pytest.raises(TrainingDivergedError) as caught:
            fit(small_spec, blob_data.features, blob_data.labels, cfg)
        assert str(caught.value) == DIVERGED

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

    def test_teacher_probs_may_be_nested_lists(self, blob_split, small_spec):
        train_data, _ = blob_split
        teacher = np.full((train_data.n, 4), 0.25)
        cfg = pm.TrainConfig(epochs=2)
        want, _ = fit(small_spec, train_data.features, None, cfg, teacher_probs=teacher, gamma=1.0)
        got, _ = fit(small_spec, train_data.features, None, cfg, teacher_probs=teacher.tolist(),
                     gamma=1.0)
        assert got.theta.tobytes() == want.theta.tobytes()

    @pytest.mark.parametrize("gamma", [float("nan"), 1.5, -0.5])
    def test_gamma_outside_unit_interval_rejected(self, blob_split, small_spec, gamma):
        train_data, _ = blob_split
        teacher = np.full((train_data.n, 4), 0.25)
        with pytest.raises(InputError, match="gamma"):
            fit(small_spec, train_data.features, train_data.labels, pm.TrainConfig(epochs=1),
                teacher_probs=teacher, gamma=gamma)

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_gamma_without_teacher_rejected(self, blob_split, small_spec, gamma):
        train_data, _ = blob_split
        with pytest.raises(InputError, match="teacher_probs"):
            fit(small_spec, train_data.features, train_data.labels, pm.TrainConfig(epochs=1),
                gamma=gamma)

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


# Reference: the fit loop as it stood before the in-place step kernel,
# copied verbatim with the helpers it called. TestFitEquivalence requires
# today's fit to reproduce it bit for bit.


def _ref_activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _ref_activate_grad(z, kind):
    if kind == "relu":
        return (z > 0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def _ref_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_forward_cached(model, x):
    layers = unpack(model.spec, model.theta)
    act = model.spec.activation
    a = x
    pre, post = [], [x]
    for w, b in layers[:-1]:
        z = a @ w + b
        a = _ref_activate(z, act)
        pre.append(z)
        post.append(a)
    w, b = layers[-1]
    logits = a @ w + b
    return _ref_softmax(logits), pre, post


def _ref_batch_ce_loss_grad(probs, labels):
    n = probs.shape[0]
    picked = np.clip(probs[np.arange(n), labels], PROB_FLOOR, 1.0)
    loss = float(-np.log(picked).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _ref_batch_kl_loss_grad(probs, targets):
    n = probs.shape[0]
    pc = np.clip(probs, PROB_FLOOR, 1.0)
    mask = targets > 0
    terms = np.where(mask, targets * (np.log(np.clip(targets, PROB_FLOOR, 1.0)) - np.log(pc)), 0.0)
    loss = float(terms.sum() / n)
    return loss, (probs - targets) / n


def _ref_fit(spec, features, labels, cfg, *, teacher_probs=None, gamma=0.0, init=None):
    x, _ = _check_features(spec, features)
    n = x.shape[0]
    if n == 0:
        raise InputError("training data must be non-empty")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise InputError(f"{labels.size} labels for {n} feature rows")
        if labels.min() < 0 or labels.max() >= spec.num_classes:
            raise InputError("label out of range")
    if teacher_probs is not None and np.shape(teacher_probs) != (n, spec.num_classes):
        raise InputError(
            f"teacher_probs must be ({n}, {spec.num_classes}), got {np.shape(teacher_probs)}"
        )
    if cfg.batch_size > n:
        batch_size = n
    else:
        batch_size = cfg.batch_size

    rng = np.random.default_rng(cfg.seed)
    theta = init_theta(spec, rng) if init is None else np.array(init, dtype=np.float64)
    velocity = np.zeros_like(theta)
    model = Model(spec, theta)
    history = []

    use_kl = teacher_probs is not None and gamma > 0.0
    use_ce = teacher_probs is None or gamma < 1.0
    if use_ce and labels is None:
        raise InputError("labels are required unless gamma=1 with teacher targets")

    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            xb = x[idx]
            probs, pre, post = _ref_forward_cached(model, xb)
            loss = 0.0
            dlogits = np.zeros_like(probs)
            if use_kl:
                kl_loss, kl_d = _ref_batch_kl_loss_grad(probs, teacher_probs[idx])
                if gamma == 1.0:
                    loss, dlogits = kl_loss, kl_d
                else:
                    loss += gamma * kl_loss
                    dlogits += gamma * kl_d
            if use_ce:
                ce_loss, ce_d = _ref_batch_ce_loss_grad(probs, labels[idx])
                if not use_kl:
                    loss, dlogits = ce_loss, ce_d
                else:
                    loss += (1.0 - gamma) * ce_loss
                    dlogits += (1.0 - gamma) * ce_d
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss}")
            grad = _ref_backprop_cached(model, pre, post, dlogits)
            if cfg.weight_decay:
                theta *= 1.0 - cfg.weight_decay
            velocity *= cfg.momentum
            velocity += grad
            theta -= cfg.learning_rate * velocity
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    return model, history


def _ref_backprop_cached(model, pre, post, dlogits):
    spec = model.spec
    layers = unpack(spec, model.theta)
    grad = np.zeros_like(model.theta)
    glayers = unpack(spec, grad)
    delta = dlogits
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = glayers[i]
        gw[...] = post[i].T @ delta
        gb[...] = delta.sum(axis=0)
        if i > 0:
            w, _ = layers[i]
            delta = (delta @ w.T) * _ref_activate_grad(pre[i - 1], spec.activation)
    return grad


class TestFitEquivalence:
    """fit trains the same models as the reference loop: same theta bytes and
    the same loss history bits, on every loss path."""

    N = 50  # with batch 16: three full batches and a ragged batch of 2

    @staticmethod
    def _data(num_classes, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(TestFitEquivalence.N, 3))
        labels = rng.integers(0, num_classes, size=TestFitEquivalence.N)
        teacher = rng.dirichlet(np.ones(num_classes), size=TestFitEquivalence.N)
        teacher[::3, 0] = 0.0  # exact zeros take the 0 * log 0 branch of the KL
        teacher[1::3, 1] = 1e-14  # below PROB_FLOOR, so the clip inside the log acts
        teacher /= teacher.sum(axis=1, keepdims=True)
        return x, labels, teacher

    @staticmethod
    def _same(spec, x, labels, cfg, **kwargs):
        want_model, want_hist = _ref_fit(spec, x, labels, cfg, **kwargs)
        got_model, got_hist = fit(spec, x, labels, cfg, **kwargs)
        assert got_model.theta.tobytes() == want_model.theta.tobytes()
        assert np.array(got_hist).tobytes() == np.array(want_hist).tobytes()

    @pytest.mark.parametrize("num_classes", [3, 4, 10])
    @pytest.mark.parametrize("hidden", [(), (8,), (32, 32), (64, 64)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_bitwise_equal_to_reference(self, activation, hidden, num_classes):
        spec = pm.ModelSpec(3, hidden, num_classes, activation)
        x, labels, teacher = self._data(num_classes, len(hidden) * 10 + num_classes)
        for batch_size in (2048, 16):
            cfg = pm.TrainConfig(epochs=4, learning_rate=0.1, batch_size=batch_size, seed=1)
            self._same(spec, x, labels, cfg)
            self._same(spec, x, None, cfg, teacher_probs=teacher, gamma=1.0)
            # 0.5 scales exactly; 0.3 also exposes the rounding order of the mix
            for gamma in (0.5, 0.3):
                self._same(spec, x, labels, cfg, teacher_probs=teacher, gamma=gamma)
            self._same(spec, x, labels, cfg, teacher_probs=teacher, gamma=0.0)
            # finetune: a given starting point, no momentum, no decay
            start = init_theta(spec, np.random.default_rng(2))
            plain = pm.TrainConfig(epochs=4, learning_rate=0.1, momentum=0.0,
                                   weight_decay=0.0, batch_size=batch_size, seed=3)
            self._same(spec, x, labels, plain, init=start)

    def test_saturated_model_reports_zero_loss(self):
        # logit gaps of 100 put probability exactly 1.0 on every label, so the
        # batch loss is -0.0; np.mean over the epoch's batches reads +0.0
        spec = pm.ModelSpec(3, (), 3)
        labels = np.arange(30) % 3
        x = 100.0 * np.eye(3)[labels]
        start = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        for batch_size in (2048, 8):
            cfg = pm.TrainConfig(epochs=2, batch_size=batch_size, seed=0)
            self._same(spec, x, labels, cfg, init=start)

    def test_fit_raises_wherever_the_reference_diverges(self):
        spec = pm.ModelSpec(3, (8, 8), 4)
        x, labels, _ = self._data(4, 0)
        diverged = []
        for epochs in range(1, 20):
            cfg = pm.TrainConfig(epochs=epochs, learning_rate=1e200, seed=1)
            try:
                with np.errstate(all="ignore"):
                    _ref_fit(spec, x, labels, cfg)
                continue
            except TrainingDivergedError:
                diverged.append(epochs)
            with pytest.raises(TrainingDivergedError) as caught:
                fit(spec, x, labels, cfg)
            assert str(caught.value) == DIVERGED
        assert diverged and diverged[0] > 1


class TestFitMany:
    """fit_many trains each model of a stack, on its own rows of shared data,
    as the reference loop trains it alone: the same theta bytes and loss
    history bits on every loss path. The data and the reference are
    TestFitEquivalence's."""

    @staticmethod
    def _same_as_alone(spec, x, y, cfg, seeds, rows=None, teacher=None, gamma=0.0, init=None):
        got = fit_many(spec, x, y, cfg, seeds, rows=rows, teacher_probs=teacher, gamma=gamma, init=init)
        assert len(got) == len(seeds)
        for j, (model, history) in enumerate(got):
            pick = lambda v: v if v is None or rows is None else v[rows[j]]  # noqa: E731
            want_model, want_hist = _ref_fit(spec, pick(x), pick(y), replace(cfg, seed=seeds[j]),
                                             teacher_probs=pick(teacher), gamma=gamma, init=init)
            assert model.theta.tobytes() == want_model.theta.tobytes()
            assert np.array(history).tobytes() == np.array(want_hist).tobytes()

    @staticmethod
    def _layouts(k):
        """(features, labels, teachers, rows) of k datasets laid end to end:
        member j on dataset j; every member on all rows (an attack block); and
        each member on its own sorted random subset, overlapping the others'
        (the independents)."""
        data = [TestFitEquivalence._data(4, 20 + j) for j in range(k)]
        x, y, teacher = (np.concatenate([d[i] for d in data]) for i in range(3))
        n = TestFitEquivalence.N
        subsets = [np.sort(np.random.default_rng([j, 99]).choice(len(x), n - 5, replace=False))
                   for j in range(k)]
        return [(x, y, teacher, [np.arange(j * n, (j + 1) * n) for j in range(k)]),
                (x, y, teacher, None), (x, y, teacher, subsets)]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch_size", [2048, 16])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_each_model_equals_its_solo_fit(self, activation, batch_size, k):
        spec = pm.ModelSpec(3, (32, 32), 4, activation)
        cfg = pm.TrainConfig(epochs=4, learning_rate=0.1, batch_size=batch_size)
        seeds = list(range(1, k + 1))
        for x, y, teacher, rows in self._layouts(k):
            self._same_as_alone(spec, x, y, cfg, seeds, rows)
            self._same_as_alone(spec, x, None, cfg, seeds, rows, teacher, 1.0)
            for gamma in (0.5, 0.3):
                self._same_as_alone(spec, x, y, cfg, seeds, rows, teacher, gamma)
            # finetune: one given starting point, no momentum, no decay
            plain = replace(cfg, momentum=0.0, weight_decay=0.0)
            start = init_theta(spec, np.random.default_rng(2))
            self._same_as_alone(spec, x, y, plain, seeds, rows, init=start)

    @staticmethod
    def _blocks(count, scale):
        """Features, labels and one row list per block of `count` datasets laid
        end to end, block 1's features multiplied by `scale`."""
        data = [TestFitEquivalence._data(4, j) for j in range(count)]
        x, y = np.concatenate([d[0] for d in data]), np.concatenate([d[1] for d in data])
        rows = [np.arange(j * len(d[0]), (j + 1) * len(d[0])) for j, d in enumerate(data)]
        x[rows[1]] *= scale
        return x, y, rows

    def test_a_diverging_member_fails_the_stack(self):
        # member 1's products overflow within a few steps: its loss, and so its
        # parameters, become nan; members 0 and 2 train as a stack of their own
        spec = pm.ModelSpec(3, (8, 8), 4)
        x, y, rows = self._blocks(3, 1e160)
        cfg = pm.TrainConfig(epochs=10, learning_rate=0.1, seed=2)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="loss became nan"):
            _ref_fit(spec, x[rows[1]], y[rows[1]], cfg)
        fit_many(spec, x, y, cfg, [1, 3], rows=rows[::2])
        with pytest.raises(TrainingDivergedError) as solo:
            fit(spec, x[rows[1]], y[rows[1]], cfg)
        with pytest.raises(TrainingDivergedError) as stacked:
            fit_many(spec, x, y, cfg, [1, 2, 3], rows=rows)
        assert str(stacked.value) == str(solo.value)

    def test_a_member_with_non_finite_parameters_fails_the_stack(self):
        # one full batch: member 1's loss is finite, but the step overflows its
        # weights to inf; member 0 trains alone
        spec = pm.ModelSpec(3, (), 4)
        x, y, rows = self._blocks(2, 1e307)
        cfg = pm.TrainConfig(epochs=1, learning_rate=100, batch_size=TestFitEquivalence.N)
        with np.errstate(all="ignore"):
            theta = _ref_fit(spec, x[rows[1]], y[rows[1]], replace(cfg, seed=2))[0].theta
        assert np.isinf(theta).any() and not np.isnan(theta).any()
        fit(spec, x[rows[0]], y[rows[0]], replace(cfg, seed=1))
        with pytest.raises(TrainingDivergedError) as solo:
            fit(spec, x[rows[1]], y[rows[1]], replace(cfg, seed=2))
        with pytest.raises(TrainingDivergedError) as stacked:
            fit_many(spec, x, y, cfg, [1, 2], rows=rows)
        assert str(stacked.value) == str(solo.value)

    @pytest.mark.parametrize("seed", range(12))
    def test_a_blown_up_member_fails_the_stack(self, blob_data, small_spec, seed):
        # member 0 learns a single class; member 1 is a blow-up of TestFit's sweep
        x, y = blob_data.features, blob_data.labels
        rows = [np.resize(np.flatnonzero(y == 0), len(y)), np.arange(len(y))]
        cfg = pm.TrainConfig(epochs=60, learning_rate=100, seed=seed)
        ((_, history),) = fit_many(small_spec, x, y, cfg, [1], rows=rows[:1])
        assert history[-1] < 1e-6
        with pytest.raises(TrainingDivergedError) as solo:
            fit(small_spec, x, y, cfg)
        with pytest.raises(TrainingDivergedError) as stacked:
            fit_many(small_spec, x, y, cfg, [1, seed], rows=rows)
        assert str(stacked.value) == str(solo.value)

    def test_rows_are_one_in_range_list_per_seed(self):
        spec = pm.ModelSpec(3, (8,), 4)
        x, labels, _ = TestFitEquivalence._data(4, 0)
        cfg = pm.TrainConfig(epochs=1)
        every = np.arange(len(x))
        for rows in ([every], [every] * 3, [every, every[:-1]]):
            with pytest.raises(InputError, match="one per seed"):
                fit_many(spec, x, labels, cfg, [1, 2], rows=rows)
        for bad in (len(x), -1):
            with pytest.raises(InputError, match="outside the 50 feature rows"):
                fit_many(spec, x, labels, cfg, [1, 2], rows=[every, np.append(every[:-1], bad)])
        assert fit_many(spec, x, labels, cfg, []) == []


class TestNeuronActivity:
    """The pruning attack's activities equal the reference forward's hidden
    post-activations, averaged in absolute value, bit for bit."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equal_to_reference_forward(self, activation):
        from proxymark.attacks import neuron_activity

        spec = pm.ModelSpec(3, (8, 5), 4, activation)
        model = Model(spec, np.random.default_rng(4).normal(size=spec.num_params))  # non-zero biases
        data = pm.Dataset(np.random.default_rng(5).normal(size=(40, 3)), np.arange(40) % 4, 4)
        _, _, post = _ref_forward_cached(model, data.features)
        got = neuron_activity(model, data)
        assert [a.shape for a in got] == [(8,), (5,)]
        for a, ref in zip(got, post[1:]):
            assert a.tobytes() == np.mean(np.abs(ref), axis=0).tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, trained_source, tmp_path):
        path = tmp_path / "model.ckpt"
        pm.save_checkpoint(trained_source, path)
        loaded = pm.load_checkpoint(path)
        assert loaded.spec == trained_source.spec
        assert np.array_equal(loaded.theta, trained_source.theta)

    def test_save_over_existing_file_writes_a_new_one(self, trained_source, tmp_path):
        path = tmp_path / "model.ckpt"
        pm.save_checkpoint(trained_source, path)
        first, inode = path.read_bytes(), path.stat().st_ino
        kept = tmp_path / "kept.ckpt"
        kept.hardlink_to(path)  # the old file lives on under a second name, so its inode stays taken
        pm.save_checkpoint(trained_source, path)
        assert path.stat().st_ino != inode
        assert path.read_bytes() == first == kept.read_bytes()

    def test_save_replaces_a_symlink(self, trained_source, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"untouched")
        path = tmp_path / "model.ckpt"
        path.symlink_to(target)
        pm.save_checkpoint(trained_source, path)
        assert not path.is_symlink()
        assert target.read_bytes() == b"untouched"
        assert pm.load_checkpoint(path).theta.tobytes() == trained_source.theta.tobytes()

    @given(spec=small_specs, seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_spec(self, spec, seed, tmp_path_factory):
        model = init_model(spec, seed)
        path = tmp_path_factory.mktemp("ckpt") / f"m{seed}.ckpt"
        pm.save_checkpoint(model, path)
        loaded = pm.load_checkpoint(path)
        assert loaded.spec == model.spec
        assert np.array_equal(loaded.theta, model.theta)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda blob: b"XXXX" + blob[4:], "bad magic"),
         (lambda blob: blob[:4] + struct.pack("<I", 99) + blob[8:], "unsupported version 99"),
         (lambda blob: blob[:14], "truncated header"),  # ends inside the hidden-layer count
         (lambda blob: blob[:24] + struct.pack("<I", 7) + blob[28:], "unknown activation code 7"),
         (lambda blob: blob[:-8], "expected 928 payload bytes, got 920"),
         (lambda blob: blob[:20] + struct.pack("<I", 2) + blob[24:], "need at least 3 classes, got 2"),
         (lambda blob: blob[:8] + struct.pack("<I", 0) + blob[12:], "input_dim must be >= 1, got 0"),
         (lambda blob: blob[:16] + struct.pack("<I", 0) + blob[20:], "all layer widths must be >= 1"),
         (lambda blob: blob[:28] + struct.pack("<d", np.nan) + blob[36:], "non-finite entries")],
        ids=["magic", "version", "truncated-header", "activation", "truncated-payload",
             "two-classes", "zero-input-dim", "zero-width", "nan-weight"],
    )
    def test_malformed_checkpoint_rejected(self, trained_source, tmp_path, edit, message):
        # trained_source is 2-(16)-4: a 28-byte header, the activation code last
        path = tmp_path / "bad.ckpt"
        path.write_bytes(edit(checkpoint_bytes(trained_source)))
        with pytest.raises(CheckpointFormatError, match=message) as err:
            pm.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_fingerprint_tracks_weights(self, trained_source):
        fp = fingerprint(trained_source)
        assert len(fp) == 64
        bumped = trained_source.copy()
        bumped.theta[0] += 1e-9
        assert fingerprint(bumped) != fp

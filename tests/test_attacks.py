"""Stealing attacks: distillation variants, pruning, and fine-tuning."""

import numpy as np
import pytest

import proxymark as pm
from proxymark import attacks as atk
from proxymark.errors import InputError
from proxymark.nn import fit, unpack


@pytest.fixture(scope="module")
def setting():
    data = pm.make_blobs(4, 2, 40, 0.6, seed=7)
    train_data, _ = pm.split(data, pm.SplitSpec(0.5, seed=3))
    spec = pm.ModelSpec(2, (16,), 4)
    source = pm.train(spec, train_data, pm.TrainConfig(epochs=60, seed=11))
    return train_data, spec, source


TRAIN = pm.TrainConfig(epochs=40, seed=50)


class TestDistillation:
    def test_soft_label_copies_source(self, setting):
        data, spec, source = setting
        result = atk.steal_soft(source, spec, data, [TRAIN])[0]
        agree = np.mean(pm.predict(result.surrogate, data.features) == pm.predict(source, data.features))
        assert agree > 0.9
        assert result.clean_accuracy > 0.8
        assert len(result.loss_history) == 40

    def test_hard_label_trains_on_source_predictions(self, setting):
        data, spec, source = setting
        result = atk.steal_hard(source, spec, data, [TRAIN])[0]
        want, history = fit(spec, data.features, pm.predict(source, data.features), TRAIN)
        assert result.surrogate.theta.tobytes() == want.theta.tobytes()
        assert result.loss_history == history

    def test_source_never_mutated(self, setting):
        data, spec, source = setting
        before = source.theta.copy()
        atk.steal_soft(source, spec, data, [TRAIN])
        atk.steal_hard(source, spec, data, [TRAIN])
        atk.steal_rgt(source, spec, data, [TRAIN], 0.5)
        atk.prune(source, data, 0.5)
        atk.finetune(source, data, [TRAIN])
        assert np.array_equal(source.theta, before)

    def test_cross_architecture_surrogate(self, setting):
        data, _, source = setting
        other = pm.ModelSpec(2, (8, 8), 4)
        result = atk.steal_soft(source, other, data, [TRAIN])[0]
        assert result.surrogate.spec == other

    def test_dimension_mismatch_rejected(self, setting):
        data, _, source = setting
        bad_spec = pm.ModelSpec(3, (8,), 4)
        with pytest.raises(InputError):
            atk.steal_soft(source, bad_spec, data, [TRAIN])


class TestDegenerateGamma:
    def test_gamma_zero_bitwise_equals_plain_training(self, setting):
        data, spec, source = setting
        result = atk.steal_rgt(source, spec, data, [TRAIN], 0.0)[0]
        plain, _ = fit(spec, data.features, data.labels, TRAIN)
        assert np.array_equal(result.surrogate.theta, plain.theta)

    def test_gamma_one_bitwise_equals_soft_label(self, setting):
        data, spec, source = setting
        rgt = atk.steal_rgt(source, spec, data, [TRAIN], 1.0)[0]
        soft = atk.steal_soft(source, spec, data, [TRAIN])[0]
        assert np.array_equal(rgt.surrogate.theta, soft.surrogate.theta)

    def test_interior_gamma_differs_from_both(self, setting):
        data, spec, source = setting
        mid = atk.steal_rgt(source, spec, data, [TRAIN], 0.5)[0]
        soft = atk.steal_soft(source, spec, data, [TRAIN])[0]
        plain, _ = fit(spec, data.features, data.labels, TRAIN)
        assert not np.array_equal(mid.surrogate.theta, soft.surrogate.theta)
        assert not np.array_equal(mid.surrogate.theta, plain.theta)


class TestPrune:
    def test_structural_zeroing(self, setting):
        data, spec, source = setting
        result = atk.prune(source, data, 0.5)[0]
        layers = unpack(spec, result.surrogate.theta)
        activities = atk.neuron_activity(source, data)
        cut = np.argsort(activities[0], kind="stable")[: int(0.5 * 16)]
        w_in, b_in = layers[0]
        w_out, _ = layers[1]
        assert np.all(w_in[:, cut] == 0.0)
        assert np.all(b_in[cut] == 0.0)
        assert np.all(w_out[cut, :] == 0.0)
        kept = np.setdiff1d(np.arange(16), cut)
        assert np.array_equal(w_in[:, kept], unpack(spec, source.theta)[0][0][:, kept])

    def test_ratio_zero_is_identity(self, setting):
        data, spec, source = setting
        result = atk.prune(source, data, 0.0)[0]
        assert np.array_equal(result.surrogate.theta, source.theta)

    def test_count_is_floor_of_ratio_times_width(self, setting):
        data, spec, source = setting
        # ratio 0.49 on width 16 cuts floor(7.84) = 7 neurons
        result = atk.prune(source, data, 0.49)[0]
        w_in = unpack(spec, result.surrogate.theta)[0][0]
        assert np.sum(np.all(w_in == 0.0, axis=0)) == 7

    def test_ratio_checked(self, setting):
        data, _, source = setting
        for ratio in (-0.1, 1.0):
            with pytest.raises(InputError, match=r"prune_ratio must be in \[0, 1\)"):
                atk.prune(source, data, ratio)

    def test_data_of_another_width_is_input_error(self, setting):
        _, _, source = setting
        wide = pm.make_blobs(4, 3, 10, 0.6, seed=7)
        with pytest.raises(InputError, match="expected feature dimension 2"):
            atk.prune(source, wide, 0.5)

    def test_activity_uses_calibration_data(self, setting):
        data, spec, source = setting
        acts = atk.neuron_activity(source, data)
        assert len(acts) == 1
        assert acts[0].shape == (16,)
        assert np.all(acts[0] >= 0)


class TestFinetune:
    def test_starts_from_source_weights(self, setting):
        data, spec, source = setting
        still = pm.TrainConfig(epochs=1, learning_rate=0.0, weight_decay=0.0, seed=50)
        result = atk.finetune(source, data, [still])[0]
        assert np.array_equal(result.surrogate.theta, source.theta)

    def test_moves_weights_with_positive_lr(self, setting):
        data, spec, source = setting
        result = atk.finetune(source, data, [TRAIN])[0]
        assert not np.array_equal(result.surrogate.theta, source.theta)
        assert result.clean_accuracy > 0.8


class TestRunAttack:
    def test_dispatch_matches_direct_calls(self, setting):
        data, spec, source = setting
        direct = atk.steal_soft(source, spec, data, [TRAIN])[0]
        routed = atk.run_attack(source, "soft_label", spec, data, [TRAIN])[0]
        assert np.array_equal(direct.surrogate.theta, routed.surrogate.theta)

    def test_all_kinds_covered(self, setting):
        data, spec, source = setting
        kw = {"rgt": {"gamma": 0.5}, "prune": {"prune_ratio": 0.25}}
        for kind in atk.ATTACK_KINDS:
            (result,) = atk.run_attack(source, kind, spec, data, [TRAIN], **kw.get(kind, {}))
            assert result.surrogate.spec == spec

    @pytest.mark.parametrize(
        "kind, kw, message",
        [("rgt", {}, "gamma is required for rgt"),
         ("soft_label", {"gamma": 0.5}, "gamma is required for rgt and forbidden otherwise"),
         ("prune", {"prune_ratio": 1.0}, r"prune_ratio must be in \[0, 1\)")],
    )
    def test_parameters_checked(self, setting, kind, kw, message):
        data, spec, source = setting
        with pytest.raises(InputError, match=message):
            atk.run_attack(source, kind, spec, data, [TRAIN], **kw)

    def test_unknown_kind(self, setting):
        data, spec, source = setting
        with pytest.raises(InputError, match="unknown attack kind 'steal_everything'"):
            atk.run_attack(source, "steal_everything", spec, data, [TRAIN])

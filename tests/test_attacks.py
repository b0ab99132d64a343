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
SEEDS = [TRAIN.seed]  # one run, at the seed fit() takes from TRAIN


class TestDistillation:
    def test_soft_label_copies_source(self, setting):
        data, spec, source = setting
        surrogate, history = atk.steal_soft(source, spec, data, TRAIN, SEEDS)[0]
        agree = np.mean(pm.predict(surrogate, data.features) == pm.predict(source, data.features))
        assert agree > 0.9
        assert pm.accuracy(data, surrogate) > 0.8
        assert len(history) == 40

    def test_hard_label_trains_on_source_predictions(self, setting):
        data, spec, source = setting
        got = atk.steal_hard(source, spec, data, TRAIN, SEEDS)
        want, history = fit(spec, data.features, pm.predict(source, data.features), TRAIN)
        assert len(got) == 1 and got[0][1] == history
        assert got[0][0].theta.tobytes() == want.theta.tobytes()

    def test_source_never_mutated(self, setting):
        data, spec, source = setting
        before = source.theta.copy()
        atk.steal_soft(source, spec, data, TRAIN, SEEDS)
        atk.steal_hard(source, spec, data, TRAIN, SEEDS)
        atk.steal_rgt(source, spec, data, TRAIN, SEEDS, 0.5)
        atk.prune(source, data, 0.5)
        atk.finetune(source, data, TRAIN, SEEDS)
        assert np.array_equal(source.theta, before)

    def test_cross_architecture_surrogate(self, setting):
        data, _, source = setting
        other = pm.ModelSpec(2, (8, 8), 4)
        surrogate, _ = atk.steal_soft(source, other, data, TRAIN, SEEDS)[0]
        assert surrogate.spec == other

    def test_dimension_mismatch_rejected(self, setting):
        data, _, source = setting
        bad_spec = pm.ModelSpec(3, (8,), 4)
        with pytest.raises(InputError):
            atk.steal_soft(source, bad_spec, data, TRAIN, SEEDS)


class TestDegenerateGamma:
    def test_gamma_zero_bitwise_equals_plain_training(self, setting):
        data, spec, source = setting
        surrogate, _ = atk.steal_rgt(source, spec, data, TRAIN, SEEDS, 0.0)[0]
        plain, _ = fit(spec, data.features, data.labels, TRAIN)
        assert np.array_equal(surrogate.theta, plain.theta)

    def test_gamma_one_bitwise_equals_soft_label(self, setting):
        data, spec, source = setting
        rgt, _ = atk.steal_rgt(source, spec, data, TRAIN, SEEDS, 1.0)[0]
        soft, _ = atk.steal_soft(source, spec, data, TRAIN, SEEDS)[0]
        assert np.array_equal(rgt.theta, soft.theta)

    def test_interior_gamma_differs_from_both(self, setting):
        data, spec, source = setting
        mid, _ = atk.steal_rgt(source, spec, data, TRAIN, SEEDS, 0.5)[0]
        soft, _ = atk.steal_soft(source, spec, data, TRAIN, SEEDS)[0]
        plain, _ = fit(spec, data.features, data.labels, TRAIN)
        assert not np.array_equal(mid.theta, soft.theta)
        assert not np.array_equal(mid.theta, plain.theta)


class TestPrune:
    def test_structural_zeroing(self, setting):
        data, spec, source = setting
        pruned, _ = atk.prune(source, data, 0.5)[0]
        layers = unpack(spec, pruned.theta)
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
        pruned, _ = atk.prune(source, data, 0.0)[0]
        assert np.array_equal(pruned.theta, source.theta)

    def test_count_is_floor_of_ratio_times_width(self, setting):
        data, spec, source = setting
        # ratio 0.49 on width 16 cuts floor(7.84) = 7 neurons
        pruned, _ = atk.prune(source, data, 0.49)[0]
        w_in = unpack(spec, pruned.theta)[0][0]
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

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.99])
    def test_a_model_without_hidden_layers_is_left_whole(self, setting, ratio):
        data, _, _ = setting
        spec = pm.ModelSpec(2, (), 4)
        source = pm.Model(spec, np.random.default_rng(6).normal(size=spec.num_params))
        assert atk.neuron_activity(source, data) == []
        pruned, _ = atk.prune(source, data, ratio)[0]
        assert pruned.theta.tobytes() == source.theta.tobytes()

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
        tuned, _ = atk.finetune(source, data, still, SEEDS)[0]
        assert np.array_equal(tuned.theta, source.theta)

    def test_moves_weights_with_positive_lr(self, setting):
        data, spec, source = setting
        tuned, _ = atk.finetune(source, data, TRAIN, SEEDS)[0]
        assert not np.array_equal(tuned.theta, source.theta)
        assert pm.accuracy(data, tuned) > 0.8


class TestRunAttack:
    def test_dispatch_matches_direct_calls(self, setting):
        data, spec, source = setting
        direct, _ = atk.steal_soft(source, spec, data, TRAIN, SEEDS)[0]
        routed, _ = atk.run_attack(source, "soft_label", spec, data, TRAIN, SEEDS)[0]
        assert np.array_equal(direct.theta, routed.theta)

    def test_all_kinds_covered(self, setting):
        data, spec, source = setting
        kw = {"rgt": {"gamma": 0.5}, "prune": {"prune_ratio": 0.25}}
        for kind in atk.ATTACK_KINDS:
            ((surrogate, _),) = atk.run_attack(source, kind, spec, data, TRAIN, SEEDS, **kw.get(kind, {}))
            assert surrogate.spec == spec

    @pytest.mark.parametrize(
        "kind, kw, message",
        [("rgt", {}, "gamma is required for rgt"),
         ("soft_label", {"gamma": 0.5}, "gamma is required for rgt and forbidden otherwise"),
         ("prune", {"prune_ratio": 1.0}, r"prune_ratio must be in \[0, 1\)")],
    )
    def test_parameters_checked(self, setting, kind, kw, message):
        data, spec, source = setting
        with pytest.raises(InputError, match=message):
            atk.run_attack(source, kind, spec, data, TRAIN, SEEDS, **kw)

    def test_unknown_kind(self, setting):
        data, spec, source = setting
        with pytest.raises(InputError, match="unknown attack kind 'steal_everything'"):
            atk.run_attack(source, "steal_everything", spec, data, TRAIN, SEEDS)

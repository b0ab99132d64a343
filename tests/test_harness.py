"""Config parsing, seed derivation, and the full experiment pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

import proxymark as pm
from proxymark.config import ExperimentConfig, load_config, parse_config
from proxymark.errors import ConfigError
from proxymark.harness import PLOTDATA_HEADER, REPORT_HEADER, derive_seed, run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL_YAML = """
seed: 5
output_dir: "{out}"
dataset:
  generator: {{classes: 4, dim: 2, per_class: 30, spread: 0.6}}
  split: {{holdout_fraction: 0.5}}
source:
  model: {{hidden_layers: [16], activation: relu}}
  train: {{epochs: 50, learning_rate: 0.05, momentum: 0.9, weight_decay: 0.0005, batch_size: 64}}
ball: {{delta_mode: relative, delta: 0.05, m: 8, n: 6, max_candidates: 4000}}
attacks:
  - {{kind: soft_label}}
  - {{kind: prune, prune_ratio: 0.25}}
independents: {{count: 2, subset_fraction: 0.5}}
repeats: 1
"""


class TestDeriveSeed:
    def test_stable_values(self):
        assert derive_seed(0, 1) == derive_seed(0, 1)
        assert derive_seed(0, 1) != derive_seed(0, 2)
        assert derive_seed(0, 2, 1) != derive_seed(0, 2, 0)
        assert derive_seed(1, 1) != derive_seed(0, 1)

    def test_fits_in_uint32(self):
        for base in range(20):
            assert 0 <= derive_seed(base, 3, 4) < 2**32


class TestConfigParsing:
    def test_round_trip_from_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.seed == 5
        assert cfg.dataset.generator.per_class == 30
        assert cfg.source.hidden_layers == (16,)
        assert cfg.ball.m == 8
        assert cfg.attacks[1].kind == "prune"
        assert cfg.attacks[1].prune_ratio == 0.25
        assert cfg.independents.count == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"sede": 3})
        with pytest.raises(ConfigError):
            parse_config({"ball": {"radius": 1.0}})
        with pytest.raises(ConfigError):
            parse_config({"attacks": [{"kind": "prune", "ratio": 0.5}]})

    def test_generator_and_csv_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config({"dataset": {"generator": {}, "csv": "x.csv"}})

    def test_missing_csv_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"dataset": {"csv": "/does/not/exist.csv"}})

    def test_bad_delta_mode(self):
        with pytest.raises(ConfigError):
            parse_config({"ball": {"delta_mode": "euclidean"}})

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_empty_config_uses_defaults(self):
        cfg = parse_config({})
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.ball.m == 16

    @pytest.mark.parametrize(
        "tree, message",
        [
            ({"seed": "abc"}, "seed: expected int"),
            ({"source": {"train": {"epochs": "many"}}}, "source.train.epochs: expected int"),
            ({"ball": {"delta": None}}, "ball.delta: expected float"),
            ({"ball": {"m": None}}, "ball.m: expected int"),
            ({"ball": {"n": None}}, "ball.n: expected int"),
            ({"source": {"model": {"hidden_layers": 16}}}, "hidden_layers: expected a list"),
            ({"source": {"model": {"hidden_layers": [16, "x"]}}}, r"hidden_layers\[1\]"),
            ({"repeats": "x"}, "repeats: expected int"),
            ({"seed": True}, "seed: expected int"),
            ({"attacks": [{"kind": "distill"}]}, "unknown 'distill'"),
            ({"attacks": [{"kind": "finetune", "activation": "gelu"}]}, "unknown 'gelu'"),
            ({"source": {"model": {"activation": "gelu"}}}, "unknown 'gelu'"),
            ({"attacks": [{"gamma": 0.5}]}, r"attacks\[0\]: missing kind"),
            ({"attacks": {"kind": "prune"}}, "attacks: expected a list"),
            ({"dataset": {"generator": None}}, "give a generator or a csv"),
            ({"dataset": {"split": [0.5]}}, "dataset.split: expected a mapping"),
            ({"repeats": -1}, "repeats must be >= 0"),
            ({"independents": {"count": -2}}, "independents.count must be >= 0"),
        ],
    )
    def test_bad_value_rejected(self, tree, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(tree)

    def test_null_only_for_optional_fields(self):
        cfg = parse_config({
            "ball": {"sigma": None, "max_candidates": None, "tau": 1},
            "attacks": [{"kind": "prune", "prune_ratio": 0.5, "epochs": None}],
        })
        assert cfg.ball.sigma is None and cfg.ball.max_candidates is None
        assert cfg.ball.tau == 1.0 and isinstance(cfg.ball.tau, float)
        assert cfg.attacks[0].epochs is None

    def test_no_dataset_block_uses_default_generator(self):
        from proxymark.config import GeneratorBlock
        from proxymark.harness import build_dataset

        implicit = build_dataset(parse_config({"seed": 1}))
        defaults = vars(GeneratorBlock())
        explicit = build_dataset(parse_config({"seed": 1, "dataset": {"generator": defaults}}))
        assert np.array_equal(implicit.features, explicit.features)
        assert np.array_equal(implicit.labels, explicit.labels)
        assert implicit.num_classes == GeneratorBlock().classes

    def test_csv_replaces_default_generator(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        pm.save_csv(pm.make_blobs(4, 2, 5, 0.5, seed=0), csv_path)
        assert parse_config({"dataset": {"csv": str(csv_path)}}).dataset.generator is None
        with pytest.raises(ConfigError, match="not both"):
            parse_config({"dataset": {"csv": str(csv_path), "generator": {"classes": 5}}})

    def test_csv_dataset_accepted(self, tmp_path):
        data = pm.make_blobs(4, 2, 5, 0.5, seed=0)
        csv_path = tmp_path / "data.csv"
        pm.save_csv(data, csv_path)
        cfg = parse_config({"dataset": {"csv": str(csv_path)}})
        assert cfg.dataset.csv == str(csv_path)


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    path = out / "exp.yaml"
    path.write_text(SMALL_YAML.format(out=out / "run"))
    cfg = load_config(path)
    report = run_experiment(cfg)
    return cfg, report, out / "run"


class TestRunExperiment:
    def test_report_rows_cover_all_roles(self, experiment):
        _, report, _ = experiment
        roles = {row.role for row in report.rows}
        assert roles == {"source", "surrogate", "independent"}
        assert len([r for r in report.rows if r.role == "surrogate"]) == 2
        assert len([r for r in report.rows if r.role == "independent"]) == 2

    def test_source_trigger_accuracy_is_one(self, experiment):
        _, report, _ = experiment
        source_row = next(r for r in report.rows if r.role == "source")
        assert source_row.trigger_acc == 1.0

    def test_bound_fields(self, experiment):
        _, report, _ = experiment
        assert report.bound.p_hat == pytest.approx(
            pm.clopper_pearson_lower(8, 8, 0.05)
        )
        assert report.bound.phi == pytest.approx(pm.lemma_bound(6, 0.05))

    def test_artifacts_on_disk(self, experiment):
        _, _, outdir = experiment
        assert (outdir / "report.csv").exists()
        assert (outdir / "summary.txt").exists()
        assert (outdir / "plotdata.csv").exists()
        assert (outdir / "trigger_set.json").exists()
        assert (outdir / "trigger_set.bin").exists()
        assert (outdir / "checkpoints" / "source.ckpt").exists()
        assert (outdir / "checkpoints" / "independent_0.ckpt").exists()

    def test_report_csv_layout(self, experiment):
        _, report, outdir = experiment
        lines = (outdir / "report.csv").read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 1 + len(report.rows)
        for line in lines[1:]:
            assert len(line.split(",")) == 6

    def test_attack_manifest_sidecar(self, experiment):
        _, _, outdir = experiment
        manifest = json.loads(
            (outdir / "checkpoints" / "surrogate_prune_1_0.json").read_text()
        )
        assert manifest["kind"] == "prune"
        assert manifest["hyperparameters"]["prune_ratio"] == 0.25

    def test_prune_curve_recorded(self, experiment):
        _, report, _ = experiment
        assert len(report.prune_curve) == 1
        ratio, clean, trig = report.prune_curve[0]
        assert ratio == 0.25
        assert 0.0 <= clean <= 1.0 and 0.0 <= trig <= 1.0

    def test_aggregates_group_by_role_and_attack(self, experiment):
        _, report, _ = experiment
        groups = report.aggregates()
        assert ("source", "-") in groups
        assert ("surrogate", "soft_label") in groups
        mean, std, count = groups[("surrogate", "soft_label")]
        assert count == 1 and std == 0.0

    def test_determinism_bitwise(self, experiment, tmp_path):
        cfg, _, outdir = experiment
        rerun_dir = tmp_path / "rerun"
        run_experiment(cfg, output_dir=rerun_dir)
        assert (rerun_dir / "report.csv").read_bytes() == (
            outdir / "report.csv"
        ).read_bytes()
        for ckpt in sorted((outdir / "checkpoints").glob("*.ckpt")):
            assert (rerun_dir / "checkpoints" / ckpt.name).read_bytes() == ckpt.read_bytes()


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_loads(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    def test_pruning_sweep_writes_its_curve(self, tmp_path):
        cfg = load_config(CONFIGS / "blob_pruning.yaml")
        assert cfg.seed == 0
        run_experiment(cfg, output_dir=tmp_path)
        lines = (tmp_path / "plotdata.csv").read_text().splitlines()
        assert lines[0] == PLOTDATA_HEADER
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [ratio for ratio, _, _ in rows] == [round(0.1 * i, 1) for i in range(9)]
        assert rows[0][2] == 1.0


class TestTrainIndependent:
    def test_full_fraction_matches_plain_training(self, blob_split, small_spec):
        from proxymark.harness import train_independent

        train_data, _ = blob_split
        cfg = pm.TrainConfig(epochs=20, seed=77)
        g = train_independent(small_spec, train_data, 1.0, 77, train_cfg=cfg)
        plain = pm.train(small_spec, train_data, cfg)
        assert np.array_equal(g.theta, plain.theta)

    def test_subset_is_deterministic(self, blob_split, small_spec):
        from proxymark.harness import train_independent

        train_data, _ = blob_split
        a = train_independent(small_spec, train_data, 0.5, 3)
        b = train_independent(small_spec, train_data, 0.5, 3)
        assert np.array_equal(a.theta, b.theta)

    def test_bad_fraction(self, blob_split, small_spec):
        from proxymark.errors import InputError
        from proxymark.harness import train_independent

        train_data, _ = blob_split
        with pytest.raises(InputError):
            train_independent(small_spec, train_data, 0.0, 3)
        with pytest.raises(InputError):
            train_independent(small_spec, train_data, 1.5, 3)

"""Config parsing, seed derivation, and the full experiment pipeline."""

import json
import os
import select
import signal
import threading
import time
from collections.abc import Callable
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import written_files

import proxymark as pm
from proxymark.config import ExperimentConfig, load_config, parse_config
from proxymark.errors import ConfigError, InsufficientTransferabilityError, TrainingDivergedError
from proxymark.harness import PLOTDATA_HEADER, REPORT_HEADER, _fan_out, _workers, derive_seed, run_experiment
from proxymark.watermark import ProxyBall, VerifyConfig, relative_delta
from test_cli import YAML as CLI_YAML

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

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

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml")
    @pytest.mark.parametrize(
        "text",
        [p.read_text(encoding="utf-8") for p in sorted(CONFIGS.glob("*.yaml"))]
        + [(ROOT / "perfbench" / "blob_default.yaml").read_text(encoding="utf-8"),
           SMALL_YAML.format(out="out"), CLI_YAML.format(out="out")],
        ids=[p.name for p in sorted(CONFIGS.glob("*.yaml"))] + ["perfbench", "small", "cli"],
    )
    def test_libyaml_tree_equals_pure_python(self, text):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.fixture(params=[True, False], ids=["libyaml", "pure-python"])
    def libyaml(self, request, monkeypatch):
        """load_config with libyaml's loader, or with the pure-Python one."""
        if not request.param:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML is built without libyaml")
        return request.param

    def test_either_loader(self, tmp_path, libyaml):
        path = tmp_path / "exp.yaml"
        path.write_text(SMALL_YAML.format(out=tmp_path / "out"))
        assert load_config(path) == parse_config(yaml.safe_load(path.read_text()))
        path.write_text("seed: [unclosed")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, key, line",
        [("seed: 1\nseed: 2\n", "seed", 2),
         ("source:\n  train: {epochs: 5}\n  train: {epochs: 6}\n", "train", 3),
         ("attacks:\n  - {kind: rgt, kind: prune}\n", "kind", 2)],
        ids=["top-level", "nested-block", "flow-mapping"],
    )
    def test_duplicate_key_rejected(self, tmp_path, libyaml, text, key, line):
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"invalid YAML in {path}: duplicate key '{key}'\n")
        assert f", line {line}, column " in str(err.value)

    def test_merged_key_may_be_overridden(self, tmp_path, libyaml):
        # a `<<` merge is not a repeated key: the mapping's own key wins
        path = tmp_path / "exp.yaml"
        path.write_text("source:\n  train: &t {epochs: 5, batch_size: 8}\n"
                        "attacks:\n  - {<<: *t, kind: soft_label, epochs: 6}\n")
        cfg = load_config(path)
        assert (cfg.source.epochs, cfg.attacks[0].epochs, cfg.attacks[0].batch_size) == (5, 6, 8)

    def test_empty_config_uses_defaults(self):
        cfg = parse_config({})
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.ball.m == 16
        # the stages' own dataclasses hold the defaults; the config blocks read them
        assert (cfg.source.activation, cfg.source.epochs, cfg.source.learning_rate, cfg.source.momentum,
                cfg.source.weight_decay, cfg.source.batch_size) == ("relu", 100, 0.05, 0.9, 5e-4, 2048)
        assert (cfg.ball.delta_mode, cfg.ball.delta, cfg.ball.tau, cfg.ball.sigma, cfg.ball.n,
                cfg.ball.max_candidates) == ("relative", 0.05, 1.0, None, 10, None)

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
            ({"attacks": [{"kind": "rgt"}]}, r"attacks \(rgt\): gamma is required for rgt"),
            ({"attacks": [{"kind": "rgt", "gamma": 1.5}]}, r"attacks \(rgt\): gamma must be in"),
            ({"attacks": [{"kind": "soft_label", "gamma": 0.5}]}, r"\(soft_label\): gamma .*forbidden"),
            ({"attacks": [{"kind": "prune"}]}, r"attacks \(prune\): prune_ratio is required"),
            ({"attacks": [{"kind": "prune", "prune_ratio": 1}]}, r"prune_ratio must be in \[0, 1\)"),
            ({"attacks": [{"kind": "finetune", "prune_ratio": 0.3}]}, r"\(finetune\): prune_ratio"),
            ({"source": {"model": {"activation": "gelu"}}}, "unknown 'gelu'"),
            ({"attacks": [{"gamma": 0.5}]}, r"attacks\[0\]: missing kind"),
            ({"attacks": {"kind": "prune"}}, "attacks: expected a list"),
            ({"dataset": {"generator": None}}, "give a generator or a csv"),
            ({"dataset": {"split": [0.5]}}, "dataset.split: expected a mapping"),
            ({"repeats": -1}, "repeats must be >= 0"),
            ({"independents": {"count": -2}}, "independents.count must be >= 0"),
            ({"source": {"train": {"epochs": -1}}}, "source: epochs must be >= 0"),
            ({"source": {"train": {"learning_rate": float("nan")}}}, "source: learning_rate must be finite"),
            ({"source": {"train": {"momentum": 1.0}}}, r"source: momentum must be in \[0, 1\)"),
            ({"source": {"train": {"batch_size": 0}}}, "source: batch_size must be >= 1"),
            ({"source": {"model": {"hidden_layers": [8, 0]}}}, "source: all layer widths must be >= 1"),
            ({"attacks": [{"kind": "finetune", "learning_rate": -1.0}]},
             r"attacks \(finetune\): learning_rate must be finite and >= 0"),
            ({"attacks": [{"kind": "soft_label", "weight_decay": -0.1}]},
             r"\(soft_label\): weight_decay must be"),
            ({"attacks": [{"kind": "hard_label", "epochs": -5}]}, r"\(hard_label\): epochs must be >= 0"),
            ({"attacks": [{"kind": "rgt", "gamma": 0.5, "hidden_layers": [0]}]},
             r"\(rgt\): all layer widths"),
            ({"attacks": [{"kind": "prune", "prune_ratio": 0.5, "hidden_layers": [8]}]},
             r"attacks \(prune\): prune keeps the source architecture"),
            ({"attacks": [{"kind": "finetune", "activation": "tanh"}]},
             r"attacks \(finetune\): finetune keeps the source architecture"),
            ({"ball": {"alpha": 1.5}}, r"ball: alpha must be in \(0, 1\)"),
            ({"ball": {"m": 0}}, "ball: m must be >= 1"),
            ({"ball": {"n": 0}}, "ball: n must be >= 1"),
            ({"ball": {"n": 10, "max_candidates": 9}}, "ball: max_candidates must be >= n"),
            ({"ball": {"tau": 0.0}}, r"ball: tau must be in \(0, 1\]"),
            ({"ball": {"delta": -1.0}}, "ball: delta must be finite and >= 0"),
            ({"ball": {"sigma": 0.0}}, "ball: sigma must be finite and positive"),
            ({"ball": {"sigma": float("nan")}}, "ball: sigma must be finite and positive"),
            ({"independents": {"subset_fraction": 0.0}},
             r"independents: subset_fraction must be in \(0, 1\]"),
            ({"dataset": {"split": {"holdout_fraction": 1.0}}},
             r"dataset: holdout_fraction must be in \(0, 1\)"),
            ({"dataset": {"generator": {"spread": -1.0}}},
             "dataset.generator: spread must be finite and >= 0"),
            ({"dataset": {"generator": {"classes": 2}}}, "dataset.generator: need at least 3 classes"),
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
        assert report.alpha == 0.05
        assert report.p_hat == pytest.approx(pm.clopper_pearson_lower(8, 8, 0.05))
        assert report.phi == pytest.approx(pm.lemma_bound(6, 0.05))

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

    def test_a_degenerate_rule_is_flagged_on_every_row(self, tmp_path):
        # at seed 1 the independents' mean trigger accuracy (0.925) is above p_hat (0.794)
        cfg = load_config(CONFIGS / "blob_default.yaml")
        cfg.seed = 1
        report = run_experiment(cfg, output_dir=tmp_path)
        assert report.baseline_accuracy > report.p_hat
        lines = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert len(lines) == len(report.rows) == 20
        assert {line.rsplit(",", 1)[1] for line in lines} == {"degenerate"}


class TestTrainIndependent:
    def test_full_fraction_matches_plain_training(self, blob_split, small_spec):
        from proxymark.harness import train_independent

        train_data, _ = blob_split
        for batch_size in (2048, 16):
            cfg = pm.TrainConfig(epochs=20, batch_size=batch_size, seed=77)
            (g,) = train_independent(small_spec, train_data, 1.0, [77], train_cfg=cfg)
            plain = pm.train(small_spec, train_data, cfg)
            assert g.theta.tobytes() == plain.theta.tobytes()

    def test_subset_is_deterministic(self, blob_split, small_spec):
        from proxymark.harness import train_independent

        train_data, _ = blob_split
        a = train_independent(small_spec, train_data, 0.5, [3, 4], pm.TrainConfig())
        b = train_independent(small_spec, train_data, 0.5, [3], pm.TrainConfig())
        assert np.array_equal(a[0].theta, b[0].theta)
        assert not np.array_equal(a[0].theta, a[1].theta)

    def test_bad_fraction(self, blob_split, small_spec):
        from proxymark.errors import InputError
        from proxymark.harness import train_independent

        train_data, _ = blob_split
        with pytest.raises(InputError):
            train_independent(small_spec, train_data, 0.0, [3], pm.TrainConfig())
        with pytest.raises(InputError):
            train_independent(small_spec, train_data, 1.5, [3], pm.TrainConfig())


def _raise(exc: Exception):
    def call():
        raise exc
    return call


@pytest.fixture
def pipes():
    """pipes() opens a pipe; every pipe it opened is closed after the test."""
    opened = []

    def pipe() -> tuple[int, int]:
        opened.append(os.pipe())
        return opened[-1]
    yield pipe
    for fds in opened:
        for fd in fds:
            os.close(fd)


def _ready(fd: int) -> None:
    assert select.select([fd], [], [], 30)[0], "nothing to read after 30 s"


def _in_the_child(body: Callable, pipe: tuple[int, int]) -> list[Callable]:
    """Two calls for a fan-out over 2 workers that run body() in the child:
    in this process a call waits until the child has taken the other call,
    and returns None."""
    me, (read, write) = os.getpid(), pipe

    def call():
        if os.getpid() == me:
            _ready(read)
            return None
        os.write(write, b"x")
        return body()
    return [call, call]


class TestFanOut:
    @pytest.mark.parametrize(
        "name, seed",
        [("blob_default.yaml", 0), ("blob_default.yaml", 1), ("blob_default.yaml", 2),
         ("blob_pruning.yaml", 0)],
    )
    def test_run_writes_the_same_files_at_any_worker_count(self, force_workers, tmp_path, name, seed):
        trees = {}
        for workers in (1, 2, 3):
            forks = force_workers(workers)
            cfg = load_config(CONFIGS / name)
            cfg.seed = seed
            run_experiment(cfg, output_dir=tmp_path / str(workers))
            assert len(forks) == workers - 1
            trees[workers] = written_files(tmp_path / str(workers))
        assert len(trees[1]) > 20
        assert trees[2] == trees[1] and trees[3] == trees[1]

    def test_failed_attack_raises_and_leaves_what_a_serial_run_does(self, force_workers, tmp_path):
        # the diverging finetune stack is call 4 of 5 (trigger set, the
        # independents, the soft-label stack, then the finetune and prune stacks)
        text = SMALL_YAML.replace(
            "  - {{kind: prune", "  - {{kind: finetune, learning_rate: 10000.0}}\n  - {{kind: prune"
        ).replace("repeats: 1", "repeats: 2")
        path = tmp_path / "exp.yaml"
        path.write_text(text.format(out=tmp_path / "unused"))
        outcomes = {}
        for workers in (1, 2, 3):
            forks = force_workers(workers)
            with pytest.raises(TrainingDivergedError) as err:
                run_experiment(load_config(path), output_dir=tmp_path / str(workers))
            assert len(forks) == workers - 1
            outcomes[workers] = (str(err.value), written_files(tmp_path / str(workers)))
        message, files = outcomes[1]
        assert "checkpoints/surrogate_soft_label_0_1.json" in files
        assert not any("finetune" in name or "prune" in name for name in files)
        assert "report.csv" not in files
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_index_failure_is_raised_in_order(self, force_workers, workers):
        forks = force_workers(workers)
        calls = [lambda: "r0", _raise(ValueError("first")), lambda: "r2", _raise(ValueError("second"))]
        results = _fan_out(calls)
        assert len(forks) == workers - 1
        assert next(results) == "r0"
        with pytest.raises(ValueError, match="first"):
            next(results)
        assert [r for r in _fan_out([lambda i=i: i * i for i in range(7)])] == [i * i for i in range(7)]

    def test_child_error_keeps_its_attributes(self, force_workers, pipes, blob_split, trained_source):
        _, holdout = blob_split
        ball = ProxyBall(trained_source, relative_delta(trained_source, 10.0))
        cfg = VerifyConfig(m=16, n=10, max_candidates=30, seed=5)
        with pytest.raises(InsufficientTransferabilityError) as serial:
            pm.verify_trigger_set(holdout, trained_source, ball, cfg)
        forks = force_workers(2)
        build = partial(pm.verify_trigger_set, holdout, trained_source, ball, cfg)
        results = _fan_out(_in_the_child(build, pipes()))
        assert len(forks) == 1
        with pytest.raises(InsufficientTransferabilityError) as forked:
            list(results)
        assert str(forked.value) == str(serial.value)
        got, want = forked.value.partial_set, serial.value.partial_set
        assert got.stats == want.stats
        assert got.n == want.n < 10
        for name in ("xs", "y_star", "parents", "lam"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_interrupt_kills_and_reaps_the_children(self, force_workers):
        # the timer interrupts this process only: a forked child does not inherit it
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        forks = force_workers(3)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(KeyboardInterrupt):
                _fan_out([lambda: time.sleep(60)] * 3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 2
        assert time.monotonic() - start < 30

    def test_a_worker_that_dies_is_reported(self, force_workers, pipes):
        forks = force_workers(2)
        assert _workers(2) == 2
        with pytest.raises(ChildProcessError, match="without its results"):
            _fan_out(_in_the_child(lambda: os._exit(7), pipes()))
        assert len(forks) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_slow_call_holds_up_no_other(self, force_workers, workers):
        # the worker that takes the slow call runs no other: the rest pull the quick ones
        def slow():
            time.sleep(0.5)
            return os.getpid()

        forks = force_workers(workers)
        pids = list(_fan_out([slow] + [os.getpid] * 20))
        assert len(forks) == workers - 1
        assert pids.count(pids[0]) == (21 if workers == 1 else 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_more_calls_than_a_pipe_holds_come_back_in_order(self, force_workers, workers):
        # 20 000 indices of 4 bytes are more than a 64 KiB pipe buffer holds
        forks = force_workers(workers)
        assert list(_fan_out([partial(int, i) for i in range(20_000)])) == list(range(20_000))
        assert len(forks) == workers - 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failure_a_child_pulls_comes_after_every_result_before_it(self, force_workers, pipes, workers):
        # a child's call waits until this process is inside a call, and that
        # call waits until call 5 has failed: so this process holds an index
        # below 5 and a child takes call 5 (with one worker, this process does)
        me = os.getpid()
        (inside, mark_inside), (failed, mark_failed) = pipes(), pipes()

        def call(i):
            if os.getpid() == me:
                os.write(mark_inside, b"x")
                if workers > 1:
                    _ready(failed)
            else:
                _ready(inside)
            if i == 5:
                os.write(mark_failed, b"x")
                raise ValueError(f"call 5 failed in {os.getpid()}")
            return i

        forks = force_workers(workers)
        results = _fan_out([partial(call, i) for i in range(12)])
        assert len(forks) == workers - 1
        assert [next(results) for _ in range(5)] == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError, match="call 5 failed") as err:
            next(results)
        assert (str(err.value) == f"call 5 failed in {me}") == (workers == 1)

    def test_no_fork_beside_a_running_thread(self, force_workers):
        force_workers(4)
        assert _workers(10) == 4 and _workers(3) == 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _workers(10) == 1
            forks = force_workers(4)
            assert list(_fan_out([lambda: 1, lambda: 2])) == [1, 2]
            assert forks == []
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

"""End-to-end CLI behavior and exit codes."""

import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import DIVERGED, written_files

import proxymark as pm
from proxymark import cli
from proxymark.cli import EXIT_CONFIG, EXIT_EXPERIMENT, EXIT_OK, build_parser, main
from proxymark.config import load_config
from proxymark.harness import build_dataset, derive_seed
from proxymark.nn import init_model

YAML = """
seed: 9
output_dir: "{out}"
dataset:
  generator: {{classes: 4, dim: 2, per_class: 30, spread: 0.6}}
  split: {{holdout_fraction: 0.5}}
source:
  model: {{hidden_layers: [16]}}
  train: {{epochs: 50}}
ball: {{delta: 0.05, m: 8, n: 6, max_candidates: 4000}}
attacks:
  - {{kind: soft_label}}
independents: {{count: 2, subset_fraction: 0.5}}
repeats: 1
"""


@pytest.fixture()
def config_file(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "exp.yaml"
    path.write_text(YAML.format(out=out))
    return path, out


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports proxymark from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _in_process(argv, out, capsys):
    """Exit code, stdout (with out as <out>), stderr and files of one in-process call."""
    code = main(argv + ["--out", str(out)])
    printed = capsys.readouterr()
    return code, printed.out.replace(str(out), "<out>"), printed.err, written_files(out)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sede: 1\n")
        assert main(["train", "--config", str(bad)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed: 9", "seed: abc"),
            ("seed: 9", "seed: -1"),
            ("seed: 9", "seed: 9\nseed: 10"),
            ("epochs: 50", "epochs: many"),
            ("delta: 0.05", "delta: null"),
            ("hidden_layers: [16]", "hidden_layers: 16"),
            ("repeats: 1", "repeats: x"),
            ("kind: soft_label", "kind: distill"),
            ("kind: soft_label", "kind: soft_label, activation: gelu"),
            ("kind: soft_label}", "kind: soft_label}\n  - {kind: rgt}"),  # before soft_label runs
            ("kind: soft_label", "kind: soft_label, gamma: 0.5"),
            ("kind: soft_label", "kind: prune, prune_ratio: 1.0"),
            ("epochs: 50", "epochs: -1"),
            ("hidden_layers: [16]", "hidden_layers: [16, 0]"),
            ("kind: soft_label}", "kind: soft_label}\n  - {kind: finetune, learning_rate: -1.0}"),
            ("kind: soft_label}",
             "kind: soft_label}\n  - {kind: prune, prune_ratio: 0.5, hidden_layers: [8]}"),
            ("kind: soft_label", "kind: soft_label, batch_size: 0"),
            ("max_candidates: 4000", "max_candidates: 4000, alpha: 1.5"),
            ("m: 8", "m: 0"),
            ("n: 6", "n: 0"),
            ("delta: 0.05", "delta: 0.05, tau: 0.0"),
            ("delta: 0.05", "delta: -1.0"),
            ("subset_fraction: 0.5", "subset_fraction: 0.0"),
            ("holdout_fraction: 0.5", "holdout_fraction: 1.0"),
            ("spread: 0.6", "spread: -1.0"),
            ("classes: 4", "classes: 2"),
            ("seed: 9", None),  # --config names a missing file
        ],
    )
    def test_bad_config_value_is_2(self, config_file, capsys, old, new):
        path, out = config_file
        if new is None:
            path.unlink()
        else:
            path.write_text(path.read_text().replace(old, new))
        assert main(["attack", "--config", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()  # rejected at load, before anything is written

    def test_negative_seed_flag_is_2(self, config_file, capsys):
        path, out = config_file
        assert main(["run", "--config", str(path), "--seed", "-1"]) == EXIT_CONFIG
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()  # rejected before the output directory is made

    def test_unreadable_suspect_is_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.ckpt"
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = ["verify", "--suspect", str(missing), "--trigger-set", str(tmp_path / "ts.json")]
        # --out is made only once the verdict is reached, so an unusable one goes unseen
        for out in ([], ["--out", str(tmp_path / "report")], ["--out", str(afile)]):
            assert main(argv + out) == EXIT_EXPERIMENT
            assert capsys.readouterr().err.startswith(f"experiment error (verify): {missing}: cannot read (")
        assert list(tmp_path.iterdir()) == [afile]

    @pytest.mark.parametrize(
        "old, new",
        [("repeats: 1", "repeats: 0"), ("attacks:\n  - {kind: soft_label}", "attacks: []")],
        ids=["no-repeats", "no-attacks"],
    )
    def test_attack_with_nothing_to_run_is_2(self, config_file, capsys, old, new):
        path, out = config_file
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert main(["attack", "--config", str(path)]) == EXIT_CONFIG
        assert "no attacks configured" in capsys.readouterr().err
        assert not out.exists()  # rejected before the output directory is made

    @pytest.mark.parametrize("command", ["train", "run", "verify"])
    def test_out_on_a_file_is_2(self, config_file, tmp_path, command):
        path, out = config_file
        argv = [command, "--config", str(path)]
        if command == "verify":
            assert main(["watermark", "--config", str(path)]) == EXIT_OK
            argv = [command, "--suspect", str(out / "source.ckpt"),
                    "--trigger-set", str(out / "trigger_set.json")]
        afile = tmp_path / "afile"
        afile.write_text("")
        before = sorted(tmp_path.rglob("*"))
        done = _python("-m", "proxymark", *argv, "--out", str(afile))
        assert done.returncode == EXIT_CONFIG
        assert done.stdout == ""  # verify reports nothing before it has somewhere to write
        assert done.stderr.startswith(f"config error: cannot create output directory {afile}: ")
        assert "Traceback" not in done.stderr
        assert sorted(tmp_path.rglob("*")) == before  # no checkpoint, report or directory written

    @pytest.mark.parametrize(
        "fault, code, message",
        [("directory", EXIT_CONFIG, "config error: dataset.csv: not a file: "),
         ("non-ascii", EXIT_EXPERIMENT, "experiment error (train): cannot read ")],
        ids=["directory", "non-ascii"],
    )
    def test_csv_fault_is_typed(self, config_file, tmp_path, capsys, fault, code, message):
        path, out = config_file
        csv = tmp_path / "data.csv"
        if fault == "directory":
            csv.mkdir()
        else:
            csv.write_bytes("y,x1,x2\n1,0.5,0.5\n2,0.5,\u00b50\n".encode("utf-8"))
        path.write_text(re.sub(r"  generator: .*", f'  csv: "{csv}"', path.read_text()))
        assert main(["train", "--config", str(path)]) == code
        assert capsys.readouterr().err.startswith(message + str(csv))
        assert not list(out.rglob("*.ckpt"))

    def test_experiment_error_is_3(self, config_file, capsys):
        path, _ = config_file
        # an enormous relative delta makes proxy agreement hopeless
        text = path.read_text().replace("delta: 0.05", "delta: 50.0")
        text = text.replace("max_candidates: 4000", "max_candidates: 10")
        path.write_text(text)
        assert main(["watermark", "--config", str(path)]) == EXIT_EXPERIMENT
        assert "experiment error" in capsys.readouterr().err

    def test_manifest_blob_mismatch_is_3(self, config_file, capsys):
        path, out = config_file
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        manifest_path = out / "trigger_set.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["n"] -= 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = ["verify", "--suspect", str(out / "source.ckpt"),
                "--trigger-set", str(manifest_path)]
        assert main(argv) == EXIT_EXPERIMENT
        assert "blob has" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda man: man.update(blob="missing.bin"), "cannot read blob"),
            (lambda man: man["samples"][0].update(y_star=5), "beyond the model's 4 classes"),
            (lambda man: man["samples"][0].update(parent_a=-7), "parent index below 0"),
            (lambda man: man["ball"].pop("m"), "ball.m must be a positive integer, not missing"),
            (lambda man: man["ball"].update(m=None), "ball.m must be a positive integer"),
            (lambda man: man["ball"].update(m=2.5), "ball.m must be a positive integer"),
            (lambda man: man["ball"].update(alpha=2.0), "ball.alpha must be a float in (0, 1), not 2.0"),
            (lambda man: man["ball"].update(alpha="0.05"), "ball.alpha must be a float in (0, 1), not 0.05"),
            (lambda man: man["ball"].update(alpha=True), "ball.alpha must be a float in (0, 1), not True"),
        ],
    )
    def test_malformed_trigger_set_is_3(self, config_file, tmp_path, capsys, edit, message):
        path, out = config_file
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        manifest_path = out / "trigger_set.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = ["verify", "--suspect", str(out / "source.ckpt"),
                "--trigger-set", str(manifest_path), "--out", str(tmp_path / "report")]
        assert main(argv) == EXIT_EXPERIMENT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


class TestSubcommands:
    def test_train_writes_checkpoint(self, config_file, capsys):
        path, out = config_file
        assert main(["train", "--config", str(path)]) == EXIT_OK
        assert (out / "source.ckpt").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_watermark_then_verify_source_is_stolen(self, config_file, capsys):
        path, out = config_file
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        assert (out / "trigger_set.json").exists()
        capsys.readouterr()
        code = main(
            [
                "verify",
                "--suspect", str(out / "source.ckpt"),
                "--trigger-set", str(out / "trigger_set.json"),
                "--out", str(out / "verdict"),
            ]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "verdict:           stolen" in text
        assert (out / "verdict" / "verification.csv").exists()
        header = (out / "verdict" / "verification.csv").read_text().splitlines()[0]
        assert header.startswith("trigger_accuracy,")

    @pytest.mark.parametrize("alpha, given", [(0.05, True), (0.01, True), (0.05, False)],
                             ids=["alpha-0.05", "alpha-0.01", "no-alpha"])
    def test_verify_report_byte_for_byte(self, config_file, tmp_path, capsys, alpha, given):
        # every figure recomputed here: the bound at m of m at the run's alpha,
        # phi = (1 - alpha)^n, the chance baseline 1/K and the midpoint between
        # it and p_hat; a manifest without alpha is verified at 0.05
        path, out = config_file
        path.write_text(path.read_text().replace("4000}", f"4000, alpha: {alpha}}}"))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        ts = pm.load_trigger_set(out / "trigger_set.json")
        assert ts.ball_params["alpha"] == alpha
        if not given:
            manifest = json.loads((out / "trigger_set.json").read_text())
            del manifest["ball"]["alpha"]
            (out / "trigger_set.json").write_text(json.dumps(manifest))
        p_hat, phi = (alpha / 2) ** (1 / ts.ball_params["m"]), (1 - alpha) ** ts.n
        assert f"p_hat (CP lower, alpha={alpha}): {p_hat:.6f}\n" in (out / "summary.txt").read_text()
        source = pm.load_checkpoint(out / "checkpoints" / "source.ckpt")
        for seed in range(4):  # untrained models, for verdicts other than stolen
            pm.save_checkpoint(init_model(source.spec, seed), tmp_path / f"untrained_{seed}.ckpt")
        verdicts = set()
        for ckpt in sorted((out / "checkpoints").glob("*.ckpt")) + sorted(tmp_path.glob("*.ckpt")):
            suspect = pm.load_checkpoint(ckpt)
            tacc = float(np.mean(pm.predict(suspect, ts.xs) == ts.y_star))
            baseline = 1 / suspect.spec.num_classes
            threshold = (baseline + p_hat) / 2
            verdict = ("stolen" if tacc >= threshold else "independent" if tacc <= baseline
                       else "inconclusive")
            verdicts.add(verdict)
            text = (
                "ownership verification report\n"
                f"  trigger_accuracy:  {tacc:.6f}\n"
                f"  p_hat (CP lower):  {p_hat:.6f} at alpha={alpha}\n"
                f"  phi (set-level):   {phi:.6f}\n"
                f"  baseline_accuracy: {baseline:.6f} (chance)\n"
                f"  threshold:         {threshold:.6f} (midpoint rule, re-thresholdable)\n"
                f"  verdict:           {verdict}\n"
            )
            csv = ("trigger_accuracy,p_hat,alpha,phi,baseline_accuracy,baseline_kind,threshold,verdict\n"
                   f"{tacc!r},{p_hat!r},{alpha!r},{phi!r},{baseline!r},chance,{threshold!r},{verdict}\n")
            capsys.readouterr()
            report = tmp_path / ckpt.stem
            argv = ["verify", "--suspect", str(ckpt), "--trigger-set", str(out / "trigger_set.json")]
            assert main(argv + ["--out", str(report)]) == EXIT_OK
            assert capsys.readouterr().out == text
            assert written_files(report) == {"verification.csv": csv.encode(), "verification.txt": text.encode()}
        assert verdicts == {"stolen", "independent", "inconclusive"}

    def test_attack_writes_surrogates(self, config_file, capsys):
        path, out = config_file
        assert main(["attack", "--config", str(path)]) == EXIT_OK
        assert (out / "surrogate_soft_label_0_0.ckpt").exists()

    def test_clean_accuracies_are_read_on_their_own_data(self, config_file, tmp_path, capsys):
        # a surrogate manifest's clean_accuracy, and `attack`'s printout, are on
        # the attack's training split; report.csv's clean_acc is on the whole
        # dataset. Blobs that overlap tell the two apart.
        path, out = config_file
        text = path.read_text().replace("repeats: 1", "repeats: 2").replace("spread: 0.6", "spread: 1.5")
        path.write_text(text.replace("  - {kind: soft_label}", "  - {kind: soft_label}\n"
                                     "  - {kind: prune, prune_ratio: 0.5}\n  - {kind: finetune}"))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        cfg = load_config(path)
        data = build_dataset(cfg)
        train_data, _ = pm.split(data, pm.SplitSpec(cfg.dataset.holdout_fraction, derive_seed(cfg.seed, 11)))
        report = {}  # (attack, seed) -> clean_acc
        for line in (out / "report.csv").read_text().splitlines()[1:]:
            _, attack, seed, clean_acc, *_ = line.split(",")
            report[attack, int(seed)] = float(clean_acc)
        manifests = sorted((out / "checkpoints").glob("surrogate_*.json"))
        assert len(manifests) == 6
        printed, differ = [], 0
        for manifest in manifests:
            surrogate = pm.load_checkpoint(manifest.with_suffix(".ckpt"))
            fields = json.loads(manifest.read_text())
            assert fields["clean_accuracy"] == pm.accuracy(train_data, surrogate)
            assert report[fields["kind"], fields["seed"]] == pm.accuracy(data, surrogate)
            differ += fields["clean_accuracy"] != report[fields["kind"], fields["seed"]]
            printed.append(f"{manifest.stem}: clean accuracy {fields['clean_accuracy']:.4f}")
        assert differ == len(manifests)
        capsys.readouterr()
        assert main(["attack", "--config", str(path), "--out", str(tmp_path / "attack")]) == EXIT_OK
        assert sorted(capsys.readouterr().out.splitlines()) == printed

    def test_integrity_reports_rates(self, config_file, capsys):
        path, out = config_file
        assert main(["integrity", "--config", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "integrity acceptance rate" in text
        assert "complement trigger accuracy on strict set: 0.0000" in text

    def test_run_full_pipeline(self, config_file, capsys):
        path, out = config_file
        assert main(["run", "--config", str(path)]) == EXIT_OK
        assert (out / "report.csv").exists()
        assert "baseline" in capsys.readouterr().out

    def test_train_without_config_uses_defaults(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "source.ckpt").exists()

    def test_commands_write_what_run_writes(self, config_file, tmp_path):
        # the step-by-step commands and `run` share one pipeline, so their
        # files are byte-equal
        path, _ = config_file
        outs = {c: tmp_path / c for c in ("run", "train", "watermark", "attack")}
        for command, out in outs.items():
            assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK
        run, ckpts = outs["run"], outs["run"] / "checkpoints"
        for out in (outs["train"], outs["watermark"]):
            assert (out / "source.ckpt").read_bytes() == (ckpts / "source.ckpt").read_bytes()
        for name in ("trigger_set.json", "trigger_set.bin"):
            assert (outs["watermark"] / name).read_bytes() == (run / name).read_bytes()
        surrogates = sorted(p.name for p in ckpts.glob("surrogate_*.ckpt"))
        assert surrogates == sorted(p.name for p in outs["attack"].glob("*.ckpt"))
        assert surrogates == ["surrogate_soft_label_0_0.ckpt"]
        for name in surrogates:
            assert (outs["attack"] / name).read_bytes() == (ckpts / name).read_bytes()

    @pytest.mark.parametrize("command", ["train", "watermark", "attack", "integrity", "run"])
    def test_fresh_process_writes_what_in_process_writes(self, config_file, tmp_path, capsys, command):
        # a fresh `python -m proxymark` binds the run-side names on first use
        path, _ = config_file
        argv = [command, "--config", str(path)]
        in_process = _in_process(argv, tmp_path / "in", capsys)
        out = tmp_path / "fresh"
        done = _python("-m", "proxymark", *argv, "--out", str(out))
        assert in_process[0] == EXIT_OK and in_process[3]
        fresh = done.returncode, done.stdout.replace(str(out), "<out>"), done.stderr, written_files(out)
        assert fresh == in_process

    def test_override_equal_to_the_source_still_runs(self, config_file, tmp_path, capsys):
        path, _ = config_file
        text = path.read_text().replace("{kind: soft_label}", "{kind: prune, prune_ratio: 0.5}")
        path.write_text(text)
        plain = _in_process(["attack", "--config", str(path)], tmp_path / "plain", capsys)
        path.write_text(text.replace("prune_ratio: 0.5",
                                     "prune_ratio: 0.5, hidden_layers: [16], activation: relu"))
        assert plain[0] == EXIT_OK and len(plain[3]) == 1
        assert _in_process(["attack", "--config", str(path)], tmp_path / "equal", capsys) == plain

    def test_seed_and_out_overrides(self, config_file, tmp_path):
        path, _ = config_file
        alt = tmp_path / "alt"
        assert main(["train", "--config", str(path), "--seed", "123", "--out", str(alt)]) == EXIT_OK
        assert (alt / "source.ckpt").exists()

    def test_successive_calls_share_one_parser(self, config_file, tmp_path, monkeypatch):
        # one process, several subcommands: the parser is built once, and no
        # option of an earlier call leaks into a later one
        path, out = config_file
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        seeded = tmp_path / "seeded"
        assert main(["train", "--config", str(path), "--seed", "123", "--out", str(seeded)]) == EXIT_OK
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        assert main(["verify", "--suspect", str(out / "source.ckpt"),
                     "--trigger-set", str(out / "trigger_set.json")]) == EXIT_OK
        assert main(["train", "--config", str(path)]) == EXIT_OK
        assert built == [1]
        ckpt = (out / "source.ckpt").read_bytes()
        assert ckpt != (seeded / "source.ckpt").read_bytes()
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "again")]) == EXIT_OK
        assert (tmp_path / "again" / "source.ckpt").read_bytes() == ckpt


class TestBallOverflow:
    @pytest.mark.parametrize("command", ["train", "attack", "run", "watermark", "integrity"])
    def test_overflowing_relative_delta_fails_before_any_checkpoint(self, config_file, command):
        # 1e308 times the source's weight norm overflows: the product is inf and
        # the ball check rejects it before a checkpoint is written or a model
        # trained for it, with no numpy warning (a fresh interpreter prints them)
        path, out = config_file
        path.write_text(path.read_text().replace("delta: 0.05", "delta_mode: relative, delta: 1.0e+308"))
        done = _python("-W", "default", "-m", "proxymark", command, "--config", str(path))
        assert done.returncode == EXIT_EXPERIMENT
        assert done.stderr == f"experiment error ({command}): delta must be finite and >= 0\n"
        assert not list(out.rglob("*.ckpt"))


class TestFanOut:
    def test_attack_writes_the_same_files_at_any_worker_count(self, config_file, tmp_path, capsys,
                                                              force_workers):
        # three attack blocks of three repeats: one stack, so one call, per block
        path, _ = config_file
        text = path.read_text().replace("repeats: 1", "repeats: 3")
        path.write_text(text.replace("  - {kind: soft_label}",
                                     "  - {kind: soft_label}\n  - {kind: hard_label}\n  - {kind: finetune}"))
        outcomes = {}
        for workers in (1, 2, 3):
            forks = force_workers(workers)
            outcomes[workers] = _in_process(["attack", "--config", str(path)], tmp_path / str(workers),
                                            capsys)
            assert len(forks) == workers - 1
        code, _, _, files = outcomes[1]
        assert code == EXIT_OK and len(files) == 9
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]

    @staticmethod
    def _diverging(path):
        """Make the config's second attack, a finetune run twice, diverge."""
        text = path.read_text().replace(
            "  - {kind: soft_label}", "  - {kind: soft_label}\n  - {kind: finetune, learning_rate: 10000.0}"
        )
        path.write_text(text.replace("repeats: 1", "repeats: 2"))

    @pytest.mark.parametrize("command", ["attack", "run"])
    def test_diverging_attack_exits_3_at_any_worker_count(self, config_file, tmp_path, capsys,
                                                          force_workers, command):
        path, _ = config_file
        self._diverging(path)
        outcomes = {}
        for workers in (1, 2, 3):
            force_workers(workers)
            outcomes[workers] = _in_process([command, "--config", str(path)], tmp_path / str(workers), capsys)
        code, _, err, files = outcomes[1]
        assert code == EXIT_EXPERIMENT
        assert f"experiment error ({command}): {DIVERGED}\n" in err
        assert any("soft_label" in name for name in files)
        assert not any("finetune" in name for name in files)
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]

    @pytest.mark.parametrize("command", ["attack", "run"])
    def test_diverging_attack_prints_the_same_in_fresh_interpreters(self, config_file, tmp_path,
                                                                    command):
        # outside pytest's warning capture, where a warning prints once in each
        # process that meets it, so a count that follows the workers would show
        path, _ = config_file
        self._diverging(path)
        outcomes = {}
        for workers in (1, 2, 3):
            argv = [command, "--config", str(path), "--out", str(tmp_path / str(workers))]
            code = (f"import sys, proxymark.harness as h; h._workers = lambda n: min(n, {workers}); "
                    f"from proxymark.cli import main; sys.exit(main({argv!r}))")
            done = _python("-W", "default", "-c", code)
            outcomes[workers] = done.returncode, done.stdout, done.stderr
        code, _, err = outcomes[1]
        assert code == EXIT_EXPERIMENT
        assert f"experiment error ({command}): {DIVERGED}\n" in err
        assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]


def _spans():
    """perfbench/spans.py, loaded read-only under a name of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _hooked(spans):
    return {
        (home, attr): getattr(importlib.import_module("proxymark" + (f".{home}" if home else "")), attr, None)
        for _, attr, homes, _ in spans.HOOKS
        for home in homes
    }


class TestBenchmarkHooks:
    def test_every_traced_name_resolves(self):
        # the benchmark's traced run wraps these names and exits 1 if one is gone
        missing = [
            f"proxymark{'.' + home if home else ''}.{attr}"
            for (home, attr), fn in _hooked(_spans()).items()
            if fn is None
        ]
        assert missing == []
        assert {"run", "verify"} <= set(cli.COMMANDS)

    def test_install_wraps_and_uninstall_restores(self):
        # install exits on a missing hook; uninstall puts every original back
        spans = _spans()
        before, commands = _hooked(spans), dict(cli.COMMANDS)
        tracer = spans.Tracer()
        try:
            tracer.install()
            during = _hooked(spans)
            assert all(during[key] is not fn for key, fn in before.items())
            assert all(cli.COMMANDS[c] is not commands[c] for c in ("run", "verify"))
        finally:
            tracer.uninstall()
        after = _hooked(spans)
        assert all(after[key] is fn for key, fn in before.items())
        assert cli.COMMANDS == commands

    def test_traced_fit_counts_its_steps(self):
        # _count_fit binds fit's spec, features and cfg by name, so renaming
        # one would break the traced run's step and flop counts
        from proxymark import nn

        tracer = _spans().Tracer()
        n, cfg = 50, nn.TrainConfig(epochs=2, batch_size=16)
        try:
            tracer.install()
            tracer.on = True
            nn.fit(nn.ModelSpec(3, (4,), 3), np.eye(3)[np.arange(n) % 3], np.arange(n) % 3, cfg)
        finally:
            tracer.uninstall()
        assert tracer.counts["nn.fit.steps"] == cfg.epochs * math.ceil(n / cfg.batch_size)

    def test_attack_wrappers_see_every_run(self, force_workers, tmp_path, capsys, monkeypatch):
        # the traced run wraps the five attack functions on proxymark.attacks;
        # run_attack must look them up there at each call
        from proxymark import attacks

        force_workers(1)  # every call in this process, in the wrappers' sight
        seen = []

        def wrap(fn):
            def wrapper(*args, **kwargs):
                results = fn(*args, **kwargs)
                seen.append((fn.__name__, len(results)))
                return results
            return wrapper

        names = ("steal_soft", "steal_hard", "steal_rgt", "prune", "finetune")
        for name in names:
            monkeypatch.setattr(attacks, name, wrap(getattr(attacks, name)))
        config = Path(__file__).resolve().parents[1] / "configs" / "blob_default.yaml"
        assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        # one call per attack block, which runs the block's 3 repeats as one stack
        assert seen == [(name, 3) for name in names]

    def test_verify_calls_every_hook_once(self, config_file):
        # the traced run wraps these names where cmd_verify looks them up; a
        # call moved elsewhere would read 0 there, not fail
        path, out = config_file
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        tracer = _spans().Tracer()
        try:
            tracer.install()
            tracer.on = True
            assert main(["verify", "--suspect", str(out / "source.ckpt"),
                         "--trigger-set", str(out / "trigger_set.json")]) == EXIT_OK
        finally:
            tracer.uninstall()
        spans = Counter(tracer.names[i] for i in tracer.name)
        hooked = ("stats.clopper_pearson", "stats.trigger_accuracy", "stats.verdict", "watermark.load",
                  "nn.checkpoint_load", "cli.cmd_verify")
        assert {name: spans[name] for name in hooked} == dict.fromkeys(hooked, 1)

    def test_cli_import_loads_no_process_pool(self):
        # a fresh-process `verify` (cli_verify_s) pays for every module that
        # `import proxymark.cli` loads
        code = ("import sys, proxymark.cli; "
                "print({'multiprocessing', 'concurrent.futures'} & set(sys.modules))")
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "set()"

    def test_fresh_verify_loads_only_what_verification_uses(self, config_file):
        path, out = config_file
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        argv = ["verify", "--suspect", str(out / "source.ckpt"),
                "--trigger-set", str(out / "trigger_set.json")]
        code = ("import sys; from proxymark import cli; "
                f"assert cli.main({argv!r}) == 0; "
                "print(sorted(m for m in sys.modules if m.startswith('proxymark'))); "
                "print(sorted({'proxymark.config', 'proxymark.harness', 'proxymark.attacks', 'yaml', "
                "'hashlib', 'signal'} & set(sys.modules)))")
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        *report, modules, run_side = done.stdout.splitlines()
        assert "verdict:           stolen" in "\n".join(report)
        assert modules == str(["proxymark", "proxymark.cli", "proxymark.data", "proxymark.errors",
                               "proxymark.nn", "proxymark.stats", "proxymark.watermark"])
        assert run_side == "[]"

    def test_wrappers_set_before_the_run_side_loads_stay(self, config_file):
        # the traced run wraps cli.run_experiment and cli.load_config; a
        # run-side command binds its names late, and must keep those wrappers
        path, out = config_file
        code = textwrap.dedent(f"""
            import sys
            from proxymark import cli
            assert "proxymark.harness" not in sys.modules
            calls = []

            def counting(fn):
                def wrapper(*args, **kwargs):
                    calls.append(fn.__name__)
                    return fn(*args, **kwargs)
                return wrapper

            import proxymark.harness
            cli.run_experiment = counting(proxymark.harness.run_experiment)  # before cli binds it
            cli.load_config = counting(cli.load_config)  # read through cli's __getattr__
            assert cli.main(["run", "--config", {str(path)!r}]) == 0
            print(calls)
        """)
        done = _python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "['load_config', 'run_experiment']"
        assert (out / "report.csv").exists()

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name
        assert not hasattr(cli, "no_such_name")

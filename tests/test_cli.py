"""End-to-end CLI behavior and exit codes."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from proxymark import cli
from proxymark.cli import EXIT_CONFIG, EXIT_EXPERIMENT, EXIT_OK, build_parser, main

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


def _written(out: Path) -> dict[str, bytes]:
    """Every file under out by relative path, summary.txt without its wall-clock line."""
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            if p.name == "summary.txt":
                data = re.sub(rb"wall clock: .*\n", b"", data)
            files[str(p.relative_to(out))] = data
    return files


def _in_process(argv, out, capsys):
    """Exit code, stdout (with out as <out>), stderr and files of one in-process call."""
    code = main(argv + ["--out", str(out)])
    printed = capsys.readouterr()
    return code, printed.out.replace(str(out), "<out>"), printed.err, _written(out)


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
        ],
    )
    def test_bad_config_value_is_2(self, config_file, capsys, old, new):
        path, out = config_file
        path.write_text(path.read_text().replace(old, new))
        assert main(["attack", "--config", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()  # rejected at load, before anything is written

    @pytest.mark.parametrize(
        "old, new",
        [("repeats: 1", "repeats: 0"), ("attacks:\n  - {kind: soft_label}", "attacks: []")],
        ids=["no-repeats", "no-attacks"],
    )
    def test_attack_with_nothing_to_run_is_2(self, config_file, capsys, old, new):
        path, _ = config_file
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert main(["attack", "--config", str(path)]) == EXIT_CONFIG
        assert "no attacks configured" in capsys.readouterr().err

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
        ],
    )
    def test_malformed_trigger_set_is_3(self, config_file, capsys, edit, message):
        path, out = config_file
        assert main(["watermark", "--config", str(path)]) == EXIT_OK
        manifest_path = out / "trigger_set.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = ["verify", "--suspect", str(out / "source.ckpt"),
                "--trigger-set", str(manifest_path)]
        assert main(argv) == EXIT_EXPERIMENT
        assert message in capsys.readouterr().err


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

    def test_attack_writes_surrogates(self, config_file, capsys):
        path, out = config_file
        assert main(["attack", "--config", str(path)]) == EXIT_OK
        assert (out / "surrogate_soft_label_0_0.ckpt").exists()

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
        fresh = done.returncode, done.stdout.replace(str(out), "<out>"), done.stderr, _written(out)
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
    @pytest.mark.parametrize("command", ["run", "watermark", "integrity"])
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
        assert f"experiment error ({command}): loss became nan" in err
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
        assert f"experiment error ({command}): loss became nan" in err
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

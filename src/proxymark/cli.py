"""Command-line entry point.

Subcommands: train, watermark, attack, verify, integrity, run. Exit codes:
0 success, 2 configuration error, 3 experiment error.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from pathlib import Path

from .errors import ConfigError, ProxymarkError
from .nn import accuracy, load_checkpoint, save_checkpoint
from .stats import (
    TransferabilityBound,
    VerificationReport,
    clopper_pearson_lower,
    lemma_bound,
    ownership_verdict,
    trigger_accuracy,
)
from .watermark import load_trigger_set, save_trigger_set

# perfbench/spans.py wraps these names in every module that once called them;
# they stay importable from here, although the harness stages now call them.
from .data import split  # noqa: F401
from .watermark import verify_trigger_set  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXPERIMENT = 3

# Names from config and harness (which loads attacks). `verify` uses none of
# them, so they load on first use: from _load, which every other command calls
# first, or from __getattr__ for a reader outside this module. setdefault keeps
# a wrapper already set on cli.<name>.
_RUN_SIDE = {
    "config": ("ExperimentConfig", "load_config"),
    "harness": ("build_trigger_set", "derive_seed", "make_ball", "run_attacks", "run_experiment",
                "setup", "train_independent"),
}


def _bind_run_side() -> None:
    for module, names in _RUN_SIDE.items():
        module = importlib.import_module(f"{__package__}.{module}")
        for name in names:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if any(name in names for names in _RUN_SIDE.values()):
        _bind_run_side()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(args) -> tuple[ExperimentConfig, Path]:
    """The command's config with its --seed/--out overrides, and its output
    directory (created)."""
    _bind_run_side()
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return cfg, outdir


def cmd_train(args) -> int:
    cfg, outdir = _load(args)
    s = setup(cfg)
    save_checkpoint(s.source, outdir / "source.ckpt")
    print(f"source trained: accuracy {accuracy(s.data, s.source):.4f}")
    print(f"checkpoint: {outdir / 'source.ckpt'}")
    return EXIT_OK


def cmd_watermark(args) -> int:
    cfg, outdir = _load(args)
    s = setup(cfg)
    make_ball(cfg, s.source, s.train_data)  # a ball that cannot be built fails before any file is written
    save_checkpoint(s.source, outdir / "source.ckpt")
    ts = build_trigger_set(cfg, s)
    save_trigger_set(ts, outdir / "trigger_set.json")
    print(f"verified trigger set: n={ts.n}, "
          f"acceptance rate {ts.stats.acceptance_rate:.3f} "
          f"({ts.stats.candidates_consumed} candidates)")
    print(f"files: {outdir / 'trigger_set.json'}, {outdir / 'trigger_set.bin'}")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg, outdir = _load(args)
    if not cfg.attacks or cfg.repeats == 0:
        raise ConfigError("no attacks configured (attacks is empty or repeats is 0)")
    for _, _, path, result in run_attacks(cfg, setup(cfg), outdir):
        print(f"{path.stem}: clean accuracy {result.clean_accuracy:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suspect = load_checkpoint(args.suspect)
    ts = load_trigger_set(args.trigger_set)
    tacc = trigger_accuracy(ts, suspect)
    m = ts.ball_params["m"]
    alpha = 0.05
    p_hat = clopper_pearson_lower(m, m, alpha)
    baseline = 1.0 / suspect.spec.num_classes
    verdict, threshold = ownership_verdict(tacc, baseline, p_hat)
    report = VerificationReport(
        trigger_accuracy=tacc,
        bound=TransferabilityBound(p_hat, alpha, lemma_bound(ts.n, alpha)),
        baseline_accuracy=baseline,
        baseline_kind="chance",
        verdict=verdict,
        threshold_used=threshold,
    )
    sys.stdout.write(report.to_text())
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "verification.txt").write_text(report.to_text(), encoding="ascii")
        (outdir / "verification.csv").write_text(
            report.CSV_HEADER + "\n" + report.csv_row() + "\n", encoding="ascii"
        )
    return EXIT_OK


def cmd_integrity(args) -> int:
    cfg, outdir = _load(args)
    s = setup(cfg)
    make_ball(cfg, s.source, s.train_data)  # before the complement is trained
    (complement,) = train_independent(
        s.spec, s.train_data, cfg.independents.subset_fraction, [derive_seed(cfg.seed, 4)],
        train_cfg=s.train_cfg,
    )
    plain = build_trigger_set(cfg, s)
    strict = build_trigger_set(cfg, s, [complement])
    save_trigger_set(strict, outdir / "trigger_set_integrity.json")
    print(f"plain acceptance rate:     {plain.stats.acceptance_rate:.4f}")
    print(f"integrity acceptance rate: {strict.stats.acceptance_rate:.4f}")
    print(f"complement trigger accuracy on strict set: "
          f"{trigger_accuracy(strict, complement):.4f}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg, _ = _load(args)
    report = run_experiment(cfg)
    print(f"report written to {cfg.output_dir}")
    print(f"baseline: {report.baseline_accuracy:.4f} ({report.baseline_kind}); "
          f"p_hat: {report.bound.p_hat:.4f}")
    for (role, kind), (mean, std, count) in sorted(report.aggregates().items()):
        print(f"  {role}/{kind}: trigger acc {mean:.4f} +/- {std:.4f} over {count}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxymark")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML experiment configuration")
        p.add_argument("--seed", type=int, default=None, help="override the experiment seed")
        p.add_argument("--out", default=None, help="override the output directory")

    common(sub.add_parser("train", help="train the source model"))
    common(sub.add_parser("watermark", help="train the source and build a verified trigger set"))
    common(sub.add_parser("attack", help="run the configured stealing attacks"))
    common(sub.add_parser("integrity", help="integrity-enhanced verification with a complement"))
    common(sub.add_parser("run", help="full experiment pipeline"))
    verify = sub.add_parser("verify", help="verify a suspect checkpoint against a trigger set")
    verify.add_argument("--suspect", required=True, help="checkpoint of the suspect model")
    verify.add_argument("--trigger-set", required=True, help="trigger-set manifest path")
    verify.add_argument("--out", default=None, help="where to write the verification report")
    return parser


COMMANDS = {
    "train": cmd_train,
    "watermark": cmd_watermark,
    "attack": cmd_attack,
    "verify": cmd_verify,
    "integrity": cmd_integrity,
    "run": cmd_run,
}


@functools.lru_cache(maxsize=1)
def _parser(factory) -> argparse.ArgumentParser:
    """One parser per process: an argparse parser is a web of reference cycles
    that only the full collector frees. Keyed by the factory, so a wrapped or
    patched build_parser takes effect."""
    return factory()


def main(argv=None) -> int:
    args = _parser(build_parser).parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProxymarkError as exc:
        print(f"experiment error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT


if __name__ == "__main__":
    sys.exit(main())

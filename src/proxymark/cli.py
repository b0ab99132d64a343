"""Command-line entry point.

Subcommands: train, watermark, attack, verify, integrity, run. Exit codes:
0 success, 2 configuration error, 3 experiment error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import attacks as atk
from .config import ExperimentConfig, load_config
from .data import SplitSpec, split
from .errors import ConfigError, ProxymarkError
from .harness import (
    attack_config,
    build_dataset,
    derive_seed,
    make_ball,
    run_experiment,
    source_spec,
    source_train_config,
    train_independent,
)
from .nn import accuracy, load_checkpoint, save_checkpoint, train
from .stats import (
    TransferabilityBound,
    VerificationReport,
    clopper_pearson_lower,
    lemma_bound,
    ownership_verdict,
    trigger_accuracy,
)
from .watermark import VerifyConfig, load_trigger_set, save_trigger_set, verify_trigger_set, verify_trigger_set_integrity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXPERIMENT = 3


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def _prepare(cfg: ExperimentConfig):
    data = build_dataset(cfg)
    train_data, holdout = split(
        data, SplitSpec(cfg.dataset.holdout_fraction, derive_seed(cfg.seed, 11))
    )
    spec = source_spec(cfg, data)
    train_cfg = source_train_config(cfg, derive_seed(cfg.seed, 0))
    source = train(spec, train_data, train_cfg)
    return data, train_data, holdout, spec, train_cfg, source


def cmd_train(args) -> int:
    cfg = _load(args)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    data, train_data, _, _, _, source = _prepare(cfg)
    save_checkpoint(source, outdir / "source.ckpt")
    print(f"source trained: accuracy {accuracy(data, source):.4f}")
    print(f"checkpoint: {outdir / 'source.ckpt'}")
    return EXIT_OK


def cmd_watermark(args) -> int:
    cfg = _load(args)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    data, train_data, holdout, _, _, source = _prepare(cfg)
    save_checkpoint(source, outdir / "source.ckpt")
    ball = make_ball(cfg, source, train_data)
    vcfg = VerifyConfig(cfg.ball.m, cfg.ball.n, cfg.ball.max_candidates, derive_seed(cfg.seed, 1))
    ts = verify_trigger_set(holdout, source, ball, vcfg)
    save_trigger_set(ts, outdir / "trigger_set.json")
    print(f"verified trigger set: n={ts.n}, "
          f"acceptance rate {ts.stats.acceptance_rate:.3f} "
          f"({ts.stats.candidates_consumed} candidates)")
    print(f"files: {outdir / 'trigger_set.json'}, {outdir / 'trigger_set.bin'}")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _load(args)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    data, train_data, _, spec, train_cfg, source = _prepare(cfg)
    if not cfg.attacks:
        raise ConfigError("no attacks configured")
    for ai, block in enumerate(cfg.attacks):
        for k in range(max(cfg.repeats, 1)):
            seed = derive_seed(cfg.seed, 2, ai, k)
            result = atk.run_attack(source, attack_config(block, spec, train_data, train_cfg, seed))
            name = f"surrogate_{block.kind}_{ai}_{k}"
            save_checkpoint(result.surrogate, outdir / f"{name}.ckpt")
            print(f"{name}: clean accuracy {result.clean_accuracy:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suspect = load_checkpoint(args.suspect)
    ts = load_trigger_set(args.trigger_set)
    tacc = trigger_accuracy(ts, suspect)
    m = int(ts.ball_params.get("m", 16))
    alpha = 0.05
    p_hat = clopper_pearson_lower(m, m, alpha)
    baseline = 1.0 / suspect.spec.num_classes
    verdict, threshold = ownership_verdict(tacc, baseline, p_hat)
    report = VerificationReport(
        trigger_accuracy=tacc,
        clean_accuracy=float("nan"),
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
    cfg = _load(args)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    data, train_data, holdout, spec, train_cfg, source = _prepare(cfg)
    complement = train_independent(
        spec, train_data, cfg.independents.subset_fraction, derive_seed(cfg.seed, 4),
        train_cfg=train_cfg,
    )
    ball = make_ball(cfg, source, train_data)
    vcfg = VerifyConfig(cfg.ball.m, cfg.ball.n, cfg.ball.max_candidates, derive_seed(cfg.seed, 1))
    plain = verify_trigger_set(holdout, source, ball, vcfg)
    strict = verify_trigger_set_integrity(holdout, source, ball, [complement], vcfg)
    save_trigger_set(strict, outdir / "trigger_set_integrity.json")
    print(f"plain acceptance rate:     {plain.stats.acceptance_rate:.4f}")
    print(f"integrity acceptance rate: {strict.stats.acceptance_rate:.4f}")
    print(f"complement trigger accuracy on strict set: "
          f"{trigger_accuracy(strict, complement):.4f}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args)
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

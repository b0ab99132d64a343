"""Command-line entry point.

Subcommands: train, watermark, attack, verify, integrity, run. Exit codes:
0 success, 2 configuration error, 3 experiment error.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from dataclasses import replace
from pathlib import Path

from .data import write_new
from .errors import ConfigError, ProxymarkError
from .nn import accuracy, load_checkpoint, save_checkpoint
from .stats import ALPHA, clopper_pearson_lower, lemma_bound, ownership_verdict, trigger_accuracy
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
    "harness": ("build_trigger_set", "derive_seed", "run_attacks", "run_experiment", "setup",
                "train_independent"),
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
    directory, created once the config is known to be usable."""
    _bind_run_side()
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.command == "attack" and (not cfg.attacks or cfg.repeats == 0):
        raise ConfigError("no attacks configured (attacks is empty or repeats is 0)")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)  # with the config's own checks
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg, _make_dir(cfg.output_dir)


def _make_dir(path) -> Path:
    """The output directory at `path`, created if missing; one that cannot be is a config error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


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
    for _, _, path, _, clean in run_attacks(cfg, setup(cfg), outdir):
        print(f"{path.stem}: clean accuracy {clean:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suspect = load_checkpoint(args.suspect)
    ts = load_trigger_set(args.trigger_set)
    tacc = trigger_accuracy(ts, suspect)
    m = ts.ball_params["m"]
    alpha = ts.ball_params.get("alpha", ALPHA)
    p_hat = clopper_pearson_lower(m, m, alpha)
    phi = lemma_bound(ts.n, alpha)
    baseline = 1.0 / suspect.spec.num_classes
    verdict, threshold = ownership_verdict(tacc, baseline, p_hat)
    outdir = _make_dir(args.out) if args.out else None  # only once the verdict is reached
    text = (
        "ownership verification report\n"
        f"  trigger_accuracy:  {tacc:.6f}\n"
        f"  p_hat (CP lower):  {p_hat:.6f} at alpha={alpha}\n"
        f"  phi (set-level):   {phi:.6f}\n"
        f"  baseline_accuracy: {baseline:.6f} (chance)\n"
        f"  threshold:         {threshold:.6f} (midpoint rule, re-thresholdable)\n"
        f"  verdict:           {verdict.value}\n"
    )
    sys.stdout.write(text)
    if outdir:
        write_new(outdir / "verification.txt", text)
        write_new(
            outdir / "verification.csv",
            "trigger_accuracy,p_hat,alpha,phi,baseline_accuracy,baseline_kind,threshold,verdict\n"
            f"{tacc!r},{p_hat!r},{alpha!r},{phi!r},{baseline!r},chance,{threshold!r},{verdict.value}\n",
        )
    return EXIT_OK


def cmd_integrity(args) -> int:
    cfg, outdir = _load(args)
    s = setup(cfg)
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
          f"p_hat: {report.p_hat:.4f}")
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

"""Experiment orchestration: training, attack batches, verification, reports.

Stage seeds are derived from the single experiment seed via
numpy.random.SeedSequence([base_seed, *tags]); the tag layout is fixed:
    (0,)            source training
    (1,)            trigger verification: with s its derived seed, proxy i
                    draws from [s, 1, i] and the candidate stream from [s, 2]
    (2, ai, k)      run k of attack ai
    (3, k)          independent model k
    (4,)            complement model for integrity runs
    (10,)           blob generation (build_dataset)
    (11,)           hold-out split (setup)
This derivation is documented here and must stay stable across versions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import attacks as atk
from .config import AttackBlock, ExperimentConfig
from .data import Dataset, SplitSpec, load_csv, make_blobs, split
from .errors import InputError
from .nn import Model, ModelSpec, TrainConfig, accuracy, save_checkpoint, train
from .stats import (
    TransferabilityBound,
    Verdict,
    clopper_pearson_lower,
    lemma_bound,
    ownership_verdict,
    trigger_accuracy,
)
from .watermark import (
    ProxyBall,
    TriggerSet,
    VerifyConfig,
    relative_delta,
    save_trigger_set,
    verify_trigger_set,
    verify_trigger_set_integrity,
)

REPORT_HEADER = "role,attack,seed,clean_acc,trigger_acc,verdict"
PLOTDATA_HEADER = "ratio,clean_acc,trigger_acc"


def derive_seed(base: int, *tags: int) -> int:
    """Stable stage seed from the experiment seed and a tag tuple."""
    return int(np.random.SeedSequence([int(base), *map(int, tags)]).generate_state(1)[0])


@dataclass
class ReportRow:
    role: str  # source | surrogate | independent
    attack: str  # attack kind or "-"
    seed: int
    clean_acc: float
    trigger_acc: float
    verdict: str

    def to_csv(self) -> str:
        return ",".join(
            [self.role, self.attack, str(self.seed), repr(self.clean_acc),
             repr(self.trigger_acc), self.verdict]
        )


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    bound: TransferabilityBound
    baseline_accuracy: float
    baseline_kind: str
    acceptance_stats: dict
    prune_curve: list[tuple[float, float, float]] = field(default_factory=list)
    wall_clock: float = 0.0

    def aggregates(self) -> dict[tuple[str, str], tuple[float, float, int]]:
        """(role, attack) -> (mean trigger acc, std, count)."""
        groups: dict[tuple[str, str], list[float]] = {}
        for row in self.rows:
            groups.setdefault((row.role, row.attack), []).append(row.trigger_acc)
        return {
            key: (float(np.mean(v)), float(np.std(v)), len(v)) for key, v in groups.items()
        }


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    block = cfg.dataset
    if block.csv is not None:
        return load_csv(block.csv)
    gen = block.generator
    return make_blobs(gen.classes, gen.dim, gen.per_class, gen.spread, derive_seed(cfg.seed, 10))


def _given(block: AttackBlock) -> dict:
    """The attack block's fields that are set, in field order."""
    return {f.name: getattr(block, f.name) for f in fields(block) if getattr(block, f.name) is not None}


def attack_config(
    block: AttackBlock, base_spec: ModelSpec, data: Dataset, base_train: TrainConfig, seed: int
) -> atk.AttackConfig:
    given = _given(block)

    def overriding(base):
        return replace(base, **{f.name: given[f.name] for f in fields(base) if f.name in given})

    return atk.AttackConfig(
        kind=block.kind,
        surrogate_spec=overriding(base_spec),
        surrogate_data=data,
        train=replace(overriding(base_train), seed=seed),
        gamma=block.gamma,
        prune_ratio=block.prune_ratio,
    )


def train_independent(
    spec: ModelSpec, data: Dataset, subset_fraction: float, seed: int,
    train_cfg: TrainConfig | None = None,
) -> Model:
    """Train on a seeded random subset; fraction 1.0 shares the plain path."""
    if not (0.0 < subset_fraction <= 1.0):
        raise InputError("subset_fraction must be in (0, 1]")
    cfg = replace(train_cfg, seed=seed) if train_cfg is not None else TrainConfig(seed=seed)
    if subset_fraction < 1.0:
        size = int(subset_fraction * data.n)
        if size == 0:
            raise InputError("subset_fraction produces an empty training set")
        picker = np.random.default_rng([seed, 99])
        idx = np.sort(picker.choice(data.n, size=size, replace=False))
        data = data.subset(idx)
    return train(spec, data, cfg)


def make_ball(cfg: ExperimentConfig, source: Model, reference: Dataset) -> ProxyBall:
    b = cfg.ball
    delta = relative_delta(source, b.delta) if b.delta_mode == "relative" else b.delta
    return ProxyBall(
        source,
        delta,
        tau=b.tau,
        sigma=b.sigma,
        reference_data=reference if b.tau < 1.0 else None,
    )


# Pipeline stages, shared by run_experiment and the CLI commands. Each calls the
# module-level names (train, split, verify_trigger_set, ...) so that a caller
# who wraps one of them here sees every stage's call.


@dataclass
class Setup:
    """What every stage starts from: the data, its split and the source model."""

    data: Dataset
    train_data: Dataset
    holdout: Dataset
    spec: ModelSpec
    train_cfg: TrainConfig
    source: Model


def setup(cfg: ExperimentConfig) -> Setup:
    """Build the dataset, split it, and train the source (seed tags 10, 11, 0)."""
    data = build_dataset(cfg)
    train_data, holdout = split(data, SplitSpec(cfg.dataset.holdout_fraction, derive_seed(cfg.seed, 11)))
    c = cfg.source
    spec = ModelSpec(data.dim, c.hidden_layers, data.num_classes, c.activation)
    train_cfg = TrainConfig(c.epochs, c.learning_rate, c.momentum, c.weight_decay, c.batch_size,
                            derive_seed(cfg.seed, 0))
    return Setup(data, train_data, holdout, spec, train_cfg, train(spec, train_data, train_cfg))


def build_trigger_set(cfg: ExperimentConfig, s: Setup, complements: list[Model] | None = None) -> TriggerSet:
    """The proxy-verified trigger set (seed tag 1); with complements, the
    integrity-enhanced one."""
    ball = make_ball(cfg, s.source, s.train_data)
    vcfg = VerifyConfig(cfg.ball.m, cfg.ball.n, cfg.ball.max_candidates, derive_seed(cfg.seed, 1))
    if complements is None:
        return verify_trigger_set(s.holdout, s.source, ball, vcfg)
    return verify_trigger_set_integrity(s.holdout, s.source, ball, complements, vcfg)


def run_attacks(cfg: ExperimentConfig, s: Setup, ckpt_dir: Path):
    """Run every configured attack `repeats` times (seed tags 2, ai, k), save
    each surrogate as `surrogate_<kind>_<ai>_<k>.ckpt` and yield
    (block, seed, checkpoint path, result)."""
    for ai, block in enumerate(cfg.attacks):
        for k in range(cfg.repeats):
            seed = derive_seed(cfg.seed, 2, ai, k)
            result = atk.run_attack(s.source, attack_config(block, s.spec, s.train_data, s.train_cfg, seed))
            path = ckpt_dir / f"surrogate_{block.kind}_{ai}_{k}.ckpt"
            save_checkpoint(result.surrogate, path)
            yield block, seed, path, result


def run_experiment(cfg: ExperimentConfig, output_dir: str | Path | None = None) -> ExperimentReport:
    """Full pipeline: source, trigger set, attacks, independents, verdicts."""
    start = time.monotonic()
    outdir = Path(output_dir if output_dir is not None else cfg.output_dir)
    ckpt_dir = outdir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    s = setup(cfg)
    save_checkpoint(s.source, ckpt_dir / "source.ckpt")

    trigger_set = build_trigger_set(cfg, s)
    save_trigger_set(trigger_set, outdir / "trigger_set.json")

    p_hat = clopper_pearson_lower(cfg.ball.m, cfg.ball.m, cfg.ball.alpha)
    bound = TransferabilityBound(p_hat, cfg.ball.alpha, lemma_bound(trigger_set.n, cfg.ball.alpha))

    independents: list[tuple[int, Model]] = []  # (seed, model)
    for k in range(cfg.independents.count):
        seed = derive_seed(cfg.seed, 3, k)
        g = train_independent(s.spec, s.train_data, cfg.independents.subset_fraction, seed,
                              train_cfg=s.train_cfg)
        independents.append((seed, g))
        save_checkpoint(g, ckpt_dir / f"independent_{k}.ckpt")

    if independents:
        baseline = float(np.mean([trigger_accuracy(trigger_set, g) for _, g in independents]))
        baseline_kind = "independent-models"
    else:
        baseline = 1.0 / s.spec.num_classes
        baseline_kind = "chance"

    def row(role: str, attack: str, seed: int, model: Model) -> ReportRow:
        tacc = trigger_accuracy(trigger_set, model)
        verdict = (Verdict.INCONCLUSIVE if baseline >= p_hat
                   else ownership_verdict(tacc, baseline, p_hat)[0])
        return ReportRow(role, attack, seed, accuracy(s.data, model), tacc, verdict.value)

    rows = [row("source", "-", s.train_cfg.seed, s.source)]
    prune_curve: list[tuple[float, float, float]] = []
    for block, seed, path, result in run_attacks(cfg, s, ckpt_dir):
        rows.append(row("surrogate", block.kind, seed, result.surrogate))
        _write_attack_manifest(path.with_suffix(".json"), block, result)
        if block.kind == "prune":
            prune_curve.append((block.prune_ratio, rows[-1].clean_acc, rows[-1].trigger_acc))
    rows += [row("independent", "-", seed, g) for seed, g in independents]

    report = ExperimentReport(
        rows=rows,
        bound=bound,
        baseline_accuracy=baseline,
        baseline_kind=baseline_kind,
        acceptance_stats={
            "candidates_consumed": trigger_set.stats.candidates_consumed,
            "accepted": trigger_set.stats.accepted,
            "acceptance_rate": trigger_set.stats.acceptance_rate,
        },
        prune_curve=prune_curve,
        wall_clock=time.monotonic() - start,
    )
    emit_report(report, outdir)
    return report


def _write_attack_manifest(path: Path, block: AttackBlock, result: atk.AttackResult) -> None:
    manifest = {
        "kind": block.kind,
        "hyperparameters": {k: v for k, v in _given(block).items() if k != "kind"},
        "seed": result.attack_seed,
        "clean_accuracy": result.clean_accuracy,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")


def emit_report(report: ExperimentReport, output_dir) -> None:
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    lines = [REPORT_HEADER] + [row.to_csv() for row in report.rows]
    (outdir / "report.csv").write_text("\n".join(lines) + "\n", encoding="ascii")

    plot_lines = [PLOTDATA_HEADER] + [
        f"{repr(r)},{repr(c)},{repr(t)}" for r, c, t in report.prune_curve
    ]
    (outdir / "plotdata.csv").write_text("\n".join(plot_lines) + "\n", encoding="ascii")

    summary = ["experiment summary", "=" * 40]
    summary.append(f"p_hat (CP lower, alpha={report.bound.alpha}): {report.bound.p_hat:.6f}")
    summary.append(f"phi (set-level): {report.bound.phi:.6f}")
    summary.append(
        f"baseline trigger accuracy: {report.baseline_accuracy:.6f} ({report.baseline_kind})"
    )
    summary.append(f"acceptance: {report.acceptance_stats}")
    summary.append("")
    summary.append(f"{'group':<28}{'trigger acc (mean +/- std)':<28}{'runs':<6}")
    for (role, kind), (mean, std, count) in sorted(report.aggregates().items()):
        summary.append(f"{role + '/' + kind:<28}{mean:.4f} +/- {std:.4f}{'':<10}{count:<6}")
    summary.append("")
    summary.append(f"wall clock: {report.wall_clock:.2f}s")
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n", encoding="ascii")

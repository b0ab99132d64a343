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

Models that train together form one stack (nn.fit_many): the independents,
and the `repeats` runs of each attack block. After the source, run_experiment
hands _fan_out one call per stack (the trigger set, the independents, then
each attack block), and run_attacks one call per attack block.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import attacks as atk
from .config import AttackBlock, ExperimentConfig
from .data import Dataset, SplitSpec, check_subset_fraction, load_csv, make_blobs, split
from .errors import InputError, TrainingDivergedError
from .nn import Model, ModelSpec, TrainConfig, accuracy, fit_many, save_checkpoint, train
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


def train_independent(
    spec: ModelSpec, data: Dataset, subset_fraction: float, seeds: list[int], train_cfg: TrainConfig
) -> list[Model]:
    """One model per seed, each on its own seeded random subset of the same
    size, trained as one stack; fraction 1.0 trains on all of the data."""
    check_subset_fraction(subset_fraction)
    size = int(subset_fraction * data.n)
    if size == 0:
        raise InputError("subset_fraction produces an empty training set")
    subsets = [data if subset_fraction == 1.0 else
               data.subset(np.sort(np.random.default_rng([seed, 99]).choice(data.n, size, replace=False)))
               for seed in seeds]
    outcomes = fit_many(spec, [d.features for d in subsets], [d.labels for d in subsets],
                        [replace(train_cfg, seed=seed) for seed in seeds])
    for outcome in outcomes:
        if isinstance(outcome, TrainingDivergedError):
            raise outcome
    return [model for model, _ in outcomes]


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


def _workers(count: int) -> int:
    """One worker per CPU this process may run on, at most one per call. A
    process that already runs a second thread does not fork: that thread may
    hold a lock at the fork, and the child would find it held for ever."""
    needs = ("fork", "sched_getaffinity", "memfd_create")
    if threading.active_count() > 1 or not all(hasattr(os, name) for name in needs):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count))


def _pull(calls: list[Callable], queue: io.RawIOBase | io.BytesIO) -> dict:
    """Run the call at each index read from the queue, up to one that raises."""
    outcomes = {}
    while len(word := queue.read(4)) == 4:
        i = int.from_bytes(word, "little")
        try:
            outcomes[i] = True, calls[i]()
        except Exception as exc:  # handed to the caller of _fan_out, at its index
            outcomes[i] = False, exc
            break
    return outcomes


def _fan_out(calls: list[Callable]) -> Iterator:
    """Run zero-argument calls over forked workers; return an iterator of
    their results in call order.

    Workers (this process and each forked child) take the next index from a
    memory file whose offset they share, 4 bytes a read, until it is read out
    or their own call raises. The iterator raises the lowest-index failure in
    place of its result, so a caller that writes as it goes leaves what a
    serial loop leaves. Every path reaps the children; an interrupt kills them.
    """
    workers = _workers(len(calls))
    queue = io.BytesIO() if workers == 1 else open(os.memfd_create("fan_out"), "w+b", buffering=0)
    pids: list[int] = []
    reads: list[int] = []
    payloads = None
    try:
        queue.write(b"".join(i.to_bytes(4, "little") for i in range(len(calls))))
        queue.seek(0)
        for _ in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(calls, queue, read, write)
            finally:
                os.close(write)
            pids.append(pid)
        outcomes = _pull(calls, queue)
        payloads = [open(read, "rb", closefd=False).read() for read in reads]
    finally:
        queue.close()
        for read in reads:
            os.close(read)
        for pid in pids if payloads is None else ():
            os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise ChildProcessError(f"a worker process ended without its results (exit codes {codes})")
    for payload in payloads:
        outcomes.update(pickle.loads(payload))

    def in_order():
        for i in range(len(calls)):
            ok, value = outcomes[i]
            if not ok:
                raise value
            yield value

    return in_order()


def _child(calls: list[Callable], queue: io.RawIOBase, read: int, write: int) -> None:
    """A forked worker: pull calls, pickle their outcomes into the pipe, and
    leave without returning into the parent's stack or flushing its buffers."""
    code = 1
    try:
        os.close(read)
        with open(write, "wb", closefd=False) as pipe:
            pickle.dump(_pull(calls, queue), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


# Pipeline stages, shared by run_experiment and the CLI commands. Each calls the
# module-level names (train, split, verify_trigger_set, ...) so that a caller
# who wraps one of them here sees every stage's call made in this process; the
# calls that _fan_out hands to a forked worker run there, out of its sight.


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


def build_trigger_set(cfg: ExperimentConfig, s: Setup, complements: list[Model] = ()) -> TriggerSet:
    """The proxy-verified trigger set (seed tag 1); with complements, the
    integrity-enhanced one."""
    ball = make_ball(cfg, s.source, s.train_data)
    vcfg = VerifyConfig(cfg.ball.m, cfg.ball.n, cfg.ball.max_candidates, derive_seed(cfg.seed, 1))
    return verify_trigger_set(s.holdout, s.source, ball, vcfg, complements)


def _attack_runs(cfg: ExperimentConfig, s: Setup) -> list[tuple[AttackBlock, list[int], list[str], Callable]]:
    """(block, seeds, checkpoint names, call) for each configured attack: its
    `repeats` runs (seed tags 2, ai, k), which the call trains as one stack."""
    runs = []
    for ai, block in enumerate(cfg.attacks if cfg.repeats else ()):
        seeds = [derive_seed(cfg.seed, 2, ai, k) for k in range(cfg.repeats)]
        names = [f"surrogate_{block.kind}_{ai}_{k}.ckpt" for k in range(cfg.repeats)]
        runs.append((block, seeds, names, partial(_run_attack, s, block, seeds)))
    return runs


def _run_attack(s: Setup, block: AttackBlock, seeds: list[int]) -> list[atk.AttackResult]:
    """The runs of `block`: the source's spec and training config with its overrides, one seed each."""
    given = _given(block)
    spec, train = (replace(base, **{f.name: given[f.name] for f in fields(base) if f.name in given})
                   for base in (s.spec, s.train_cfg))
    trains = [replace(train, seed=seed) for seed in seeds]
    return atk.run_attack(s.source, block.kind, spec, s.train_data, trains, block.gamma, block.prune_ratio)


def _save_surrogates(runs: list, results, ckpt_dir: Path):
    for (block, seeds, names, _), block_results in zip(runs, results):
        for seed, name, result in zip(seeds, names, block_results):
            path = ckpt_dir / name
            save_checkpoint(result.surrogate, path)
            yield block, seed, path, result


def run_attacks(cfg: ExperimentConfig, s: Setup, ckpt_dir: Path):
    """Run every configured attack `repeats` times (seed tags 2, ai, k), each
    block as one stack over the process's CPUs, save each surrogate as
    `surrogate_<kind>_<ai>_<k>.ckpt` and yield (block, seed, checkpoint path,
    result), in that order."""
    runs = _attack_runs(cfg, s)
    yield from _save_surrogates(runs, _fan_out([call for *_, call in runs]), ckpt_dir)


def run_experiment(cfg: ExperimentConfig, output_dir: str | Path | None = None) -> ExperimentReport:
    """Full pipeline: source, trigger set, attacks, independents, verdicts."""
    start = time.monotonic()
    outdir = Path(output_dir if output_dir is not None else cfg.output_dir)
    ckpt_dir = outdir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    s = setup(cfg)
    make_ball(cfg, s.source, s.train_data)  # a ball that cannot be built fails before any file is written
    save_checkpoint(s.source, ckpt_dir / "source.ckpt")

    # The trigger set, the independents and the attacks depend only on the
    # source and the config: compute them over the process's CPUs, one call
    # per stack, then write them here in the order a serial loop would.
    independent_seeds = [derive_seed(cfg.seed, 3, k) for k in range(cfg.independents.count)]
    attacks = _attack_runs(cfg, s)
    results = _fan_out(
        [lambda: build_trigger_set(cfg, s)]
        + [partial(train_independent, s.spec, s.train_data, cfg.independents.subset_fraction,
                   independent_seeds, train_cfg=s.train_cfg)] * bool(independent_seeds)
        + [call for *_, call in attacks]
    )
    trigger_set = next(results)
    save_trigger_set(trigger_set, outdir / "trigger_set.json")

    p_hat = clopper_pearson_lower(cfg.ball.m, cfg.ball.m, cfg.ball.alpha)
    bound = TransferabilityBound(p_hat, cfg.ball.alpha, lemma_bound(trigger_set.n, cfg.ball.alpha))

    independents: list[tuple[int, Model]] = []  # (seed, model)
    for k, (seed, g) in enumerate(zip(independent_seeds, next(results) if independent_seeds else ())):
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
    for block, seed, path, result in _save_surrogates(attacks, results, ckpt_dir):
        rows.append(row("surrogate", block.kind, seed, result.surrogate))
        _write_attack_manifest(path.with_suffix(".json"), block, seed, result)
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


def _write_attack_manifest(path: Path, block: AttackBlock, seed: int, result: atk.AttackResult) -> None:
    manifest = {
        "kind": block.kind,
        "hyperparameters": {k: v for k, v in _given(block).items() if k != "kind"},
        "seed": seed,
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

"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Statistical criteria run small 5-seed blob experiments with pinned
configurations; thresholds are fixed and asserted at the stated tolerances.
Each source and trigger set is built by the harness stages (`setup`,
`build_trigger_set`) from a config tree, as `proxymark run` builds them.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
import yaml

import proxymark as pm
from proxymark import attacks as atk
from proxymark.config import parse_config
from proxymark.errors import DegenerateRuleError
from proxymark.harness import (Setup, build_trigger_set, derive_seed, run_attacks, run_experiment, setup,
                               train_independent)
from proxymark.nn import fit_many, init_model
from proxymark.stats import Verdict
from proxymark.watermark import ProxyBall, VerifyConfig, build_proxies, relative_delta

SEEDS = (0, 1, 2, 3, 4)
ALPHA = 0.05
PRUNING_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "blob_pruning.yaml"


def _report(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {num:>2} [{name}]: {mark}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _built(tree, seed):
    """The config `tree` at `seed`, its setup (data, split, source) and its
    verified trigger set."""
    cfg = parse_config(tree | {"seed": seed})
    s = setup(cfg)
    return cfg, s, build_trigger_set(cfg, s)


def _ball(ts, source):
    """The proxy ball `ts` was verified against, from the parameters it carries."""
    p = ts.ball_params
    return ProxyBall(source, p["delta"], p["tau"], p["sigma"])


# ---------------------------------------------------------------------------
# shared desk-scale experiments

# heavy overlap, and a source that memorizes it (no weight decay, 600 epochs)
SEPARATION = {
    "dataset": {"generator": {"classes": 4, "dim": 2, "per_class": 30, "spread": 3.0}},
    "source": {"model": {"hidden_layers": [64, 64]},
               "train": {"epochs": 600, "weight_decay": 0.0}},
    "ball": {"delta_mode": "relative", "delta": 0.2, "m": 16, "n": 50, "max_candidates": 40_000},
}


@dataclass
class SeparationRun:
    s: Setup
    trigger_set: pm.TriggerSet
    surrogate_acc: float
    independent_accs: list


@pytest.fixture(scope="module")
def separation_runs():
    """Heavy-overlap blob pipeline where verified triggers are source quirks.

    The source memorizes a 4-class mixture with strongly overlapping blobs.
    The attacker distills from a wide query sample of the input space; the
    controls are four independent models fitted to fresh half-size draws
    from the same distribution.
    """
    gen = SEPARATION["dataset"]["generator"]
    K, dim, spread = gen["classes"], gen["dim"], gen["spread"]
    runs = []
    for seed in SEEDS:
        _, s, trigger_set = _built(SEPARATION, seed)
        query = pm.make_blobs(K, dim, 300, 3.5, seed=derive_seed(seed, 77))
        ((surrogate, _),) = atk.steal_soft(s.source, s.spec, query, s.train_cfg, [derive_seed(seed, 2, 0, 0)])

        # half-size fresh draws, laid end to end: one stack, each model on its own draw's rows
        ind_per_class = max(s.train_data.n // (2 * K), 1)
        draws = [pm.make_blobs(K, dim, ind_per_class, spread, seed=derive_seed(seed, 3, k)) for k in range(4)]
        n = draws[0].n
        independents = fit_many(s.spec, np.concatenate([d.features for d in draws]),
                                np.concatenate([d.labels for d in draws]), s.train_cfg,
                                [derive_seed(seed, 3, k, 1) for k in range(4)],
                                rows=[np.arange(k * n, (k + 1) * n) for k in range(4)])
        ind_accs = [pm.trigger_accuracy(trigger_set, g) for g, _ in independents]
        runs.append(SeparationRun(s, trigger_set, pm.trigger_accuracy(trigger_set, surrogate), ind_accs))
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_statistical_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for m in range(1, 31):
        for t in range(0, m + 1):
            ours = pm.clopper_pearson_lower(t, m, ALPHA)
            ref = 0.0 if t == 0 else float(scipy.stats.beta.ppf(ALPHA / 2, t, m - t + 1))
            worst = max(worst, abs(ours - ref))
    closed = abs(pm.clopper_pearson_lower(64, 64, ALPHA) - (ALPHA / 2) ** (1 / 64))
    ref_val = abs(pm.clopper_pearson_lower(64, 64, ALPHA) - 0.94399)
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and closed < 1e-9 and ref_val < 1e-5 and elapsed < 5
    _report(
        1, "statistical oracle equivalence", ok,
        f"max |ours - scipy| {worst:.2e}, closed-form gap {closed:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_cp_coverage_monte_carlo():
    start = time.monotonic()
    m, draws = 64, 10_000
    bounds_by_t = np.array([pm.clopper_pearson_lower(t, m, ALPHA) for t in range(m + 1)])
    rng = np.random.default_rng(2024)
    coverages = {}
    for p in (0.7, 0.9, 0.99):
        ts = rng.binomial(m, p, size=draws)
        coverages[p] = float(np.mean(bounds_by_t[ts] <= p))
    elapsed = time.monotonic() - start
    ok = all(c >= 1 - ALPHA - 0.01 for c in coverages.values()) and elapsed < 10
    _report(
        2, "CP coverage Monte Carlo", ok,
        "coverage " + ", ".join(f"p={p}: {c:.4f}" for p, c in coverages.items()),
    )


def _numeric_gradient(model, x, labels, eps=1e-6):
    from proxymark.nn import _loss_grad

    def loss_at(theta):
        probs = pm.forward(pm.Model(model.spec, theta), x)[:, None]  # a stack of one model
        return _loss_grad(probs, labels[:, None], None, 0.0)[0]

    grad = np.zeros_like(model.theta)
    for i in range(model.theta.size):
        up, down = model.theta.copy(), model.theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss_at(up) - loss_at(down)) / (2 * eps)
    return grad


def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        spec = pm.ModelSpec(
            int(rng.integers(1, 4)),
            tuple(rng.integers(1, 5, size=rng.integers(0, 3))),
            int(rng.integers(3, 5)),
            str(rng.choice(["relu", "tanh"])),
        )
        model = init_model(spec, int(rng.integers(0, 1 << 30)))
        # jitter all parameters so no ReLU pre-activation sits exactly on the
        # kink, where finite differences are not a valid oracle
        model.theta += rng.normal(0.0, 0.05, size=model.theta.size)
        x = rng.normal(size=(5, spec.input_dim))
        labels = rng.integers(0, spec.num_classes, size=5)
        analytic = pm.gradients(model, x, labels)
        numeric = _numeric_gradient(model, x, labels)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10
    _report(3, "gradient correctness", ok, f"worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_verified_set_soundness(separation_runs):
    checked = failures = 0
    for run in separation_runs:
        ts, holdout, source = run.trigger_set, run.s.holdout, run.s.source
        parent_labels = holdout.labels[ts.parents]
        ok = np.all(parent_labels != ts.y_star[:, None], axis=1)
        vcfg = VerifyConfig(m=ts.ball_params["m"], n=ts.n, seed=ts.seed)
        for theta in build_proxies(_ball(ts, source), vcfg):
            ok &= pm.predict(pm.Model(source.spec, theta), ts.xs) == ts.y_star
        if not pm.recompute_and_check(ts, holdout, source):
            ok[:] = False
        checked += ts.n
        failures += int(np.count_nonzero(~ok))
    ok = failures == 0
    _report(4, "verified-set soundness", ok, f"{checked} samples rechecked, {failures} failures")


def test_criterion_05_ball_membership():
    start = time.monotonic()
    data = pm.make_blobs(4, 2, 30, 0.6, seed=1)
    train_data, _ = pm.split(data, pm.SplitSpec(0.5, 2))
    source = pm.train(pm.ModelSpec(2, (32, 32), 4), train_data, pm.TrainConfig(epochs=50, seed=3))
    delta = relative_delta(source, 0.05)
    ball = ProxyBall(source, delta)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        proxy = pm.sample_proxy(ball, rng)
        worst = max(worst, float(np.linalg.norm(proxy.theta - source.theta)))
    elapsed = time.monotonic() - start
    ok = worst <= delta * (1 + 1e-9) and elapsed < 5
    _report(5, "ball membership", ok, f"max ||Delta|| {worst:.4f} vs delta {delta:.4f}")


# default architecture 2-32-32-4; heavy overlap so the verified/unverified
# gap on fresh proxies is visible at desk scale
TRANSFER = {
    "dataset": {"generator": {"per_class": 40, "spread": 2.0}},
    "source": {"train": {"epochs": 500, "weight_decay": 0.0}},
    "ball": {"delta_mode": "relative", "delta": 0.2, "m": 16, "n": 25, "max_candidates": 20_000},
}


def test_criterion_06_transferability_direction():
    start = time.monotonic()
    diffs = []
    for seed in SEEDS:
        _, s, verified = _built(TRANSFER, seed)
        cand_rng = np.random.default_rng([verified.seed, 5])
        unverified = [pm.trigger_candidate(s.holdout, s.source, cand_rng) for _ in range(25)]

        ball = _ball(verified, s.source)
        fresh = [pm.sample_proxy(ball, np.random.default_rng([verified.seed, 6, i])) for i in range(20)]
        acc_v = np.mean([pm.predict(p, verified.xs) == verified.y_star for p in fresh])
        acc_u = np.mean([[pm.trigger_accuracy(u, p) for u in unverified] for p in fresh])
        diffs.append(acc_v - acc_u)
    mean_diff = float(np.mean(diffs))
    elapsed = time.monotonic() - start
    ok = mean_diff >= 0.05 and elapsed < 180
    _report(
        6, "transferability direction", ok,
        f"verified - unverified proxy accuracy {mean_diff:+.3f} over 5 seeds, {elapsed:.0f}s",
    )


def test_criterion_07_stolen_vs_independent_separation(separation_runs):
    p_hat = pm.clopper_pearson_lower(16, 16, ALPHA)
    gaps, seeds_ok = [], 0
    for seed, run in zip(SEEDS, separation_runs):
        baseline = float(np.mean(run.independent_accs))
        gaps.append(run.surrogate_acc - baseline)
        try:  # the rule degenerates on (baseline, p_hat) alone, whatever the accuracy
            verdict = pm.ownership_verdict(run.surrogate_acc, baseline, p_hat)[0].value
            ind_ok = all(
                pm.ownership_verdict(t, baseline, p_hat)[0] is not Verdict.STOLEN
                for t in run.independent_accs
            )
        except DegenerateRuleError:
            verdict, ind_ok = "degenerate", False
        seeds_ok += verdict == Verdict.STOLEN.value and ind_ok
        print(
            f"seed {seed}: surrogate {run.surrogate_acc:.2f} ({verdict}), "
            f"independents {' '.join(f'{t:.2f}' for t in run.independent_accs)} "
            f"(baseline {baseline:.2f})"
        )
    mean_gap = float(np.mean(gaps))
    print(f"mean surrogate - independent gap: {mean_gap:+.3f}")
    ok = mean_gap >= 0.20 and seeds_ok >= 4
    _report(
        7, "stolen vs independent separation", ok,
        f"mean gap {mean_gap:+.3f} (need >= +0.20), verdicts correct {seeds_ok}/5 (need >= 4)",
    )


def test_criterion_08_degenerate_gamma_equivalence():
    start = time.monotonic()
    data = pm.make_blobs(4, 2, 30, 0.6, seed=8)
    train_data, _ = pm.split(data, pm.SplitSpec(0.5, 2))
    spec = pm.ModelSpec(2, (16,), 4)
    source = pm.train(spec, train_data, pm.TrainConfig(epochs=40, seed=9))
    shared = pm.TrainConfig(epochs=40, seed=10)

    ((rgt0, _),) = atk.steal_rgt(source, spec, train_data, shared, [shared.seed], 0.0)
    plain = pm.train(spec, train_data, shared)
    ((rgt1, _),) = atk.steal_rgt(source, spec, train_data, shared, [shared.seed], 1.0)
    ((soft, _),) = atk.steal_soft(source, spec, train_data, shared, [shared.seed])
    elapsed = time.monotonic() - start
    eq0 = np.array_equal(rgt0.theta, plain.theta)
    eq1 = np.array_equal(rgt1.theta, soft.theta)
    ok = eq0 and eq1 and elapsed < 60
    _report(
        8, "degenerate-gamma equivalence", ok,
        f"gamma=0 bitwise={eq0}, gamma=1 bitwise={eq1}, {elapsed:.1f}s",
    )


def test_criterion_09_pruning_trend(separation_runs, tmp_path):
    # the sweep of configs/blob_pruning.yaml: monotone clean-accuracy decay
    # needs its well-separated regime, read here on a fresh draw; the
    # trigger-accuracy floor is the worst independent baseline from criterion 7
    start = time.monotonic()
    baseline = max(float(np.mean(r.independent_accs)) for r in separation_runs)
    tree = yaml.safe_load(PRUNING_CONFIG.read_text(encoding="utf-8"))
    all_ok, details = True, []
    for seed in SEEDS:
        cfg, s, trigger_set = _built(tree, seed)
        gen = cfg.dataset.generator
        eval_data = pm.make_blobs(gen.classes, gen.dim, 250, gen.spread, seed=derive_seed(seed, 88))
        ratios, curve = [], []
        for block, _, _, pruned, _ in run_attacks(cfg, s, tmp_path):
            ratios.append(block.prune_ratio)
            curve.append((pm.accuracy(eval_data, pruned), pm.trigger_accuracy(trigger_set, pruned)))
        clean = [c for c, _ in curve]
        non_increasing = all(clean[i + 1] <= clean[i] + 0.01 for i in range(len(clean) - 1))
        largest = max(i for i, c in enumerate(clean) if c >= clean[0] - 0.05)
        retained = curve[largest][1]
        seed_ok = non_increasing and retained > baseline
        all_ok &= seed_ok
        details.append(f"s{seed}: r={ratios[largest]} trig {retained:.2f} mono={non_increasing}")
    elapsed = time.monotonic() - start
    ok = all_ok and elapsed < 180
    _report(9, "pruning trend", ok, f"baseline {baseline:.2f}; " + "; ".join(details))


def test_criterion_10_finetune_retention(separation_runs):
    seeds_ok, details = 0, []
    for seed, run in zip(SEEDS, separation_runs):
        baseline = float(np.mean(run.independent_accs))
        ft_train = replace(run.s.train_cfg, epochs=100, learning_rate=0.01)
        ((tuned, _),) = atk.finetune(run.s.source, run.s.train_data, ft_train, [derive_seed(seed, 2, 4, 0)])
        retained = pm.trigger_accuracy(run.trigger_set, tuned)
        seeds_ok += retained > baseline
        details.append(f"s{seed}: {retained:.2f} vs {baseline:.2f}")
    ok = seeds_ok >= 4
    _report(10, "fine-tuning retention", ok, f"{seeds_ok}/5 above baseline; " + "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    cfg_tree = {
        "seed": 3,
        "dataset": {
            "generator": {"classes": 4, "dim": 2, "per_class": 30, "spread": 0.6},
            "split": {"holdout_fraction": 0.5},
        },
        "source": {"model": {"hidden_layers": [16]}, "train": {"epochs": 50}},
        "ball": {"delta": 0.05, "m": 8, "n": 6, "max_candidates": 4000},
        "attacks": [{"kind": "soft_label"}, {"kind": "finetune", "epochs": 20}],
        "independents": {"count": 2, "subset_fraction": 0.5},
        "repeats": 1,
    }
    cfg = parse_config(cfg_tree)
    run_experiment(cfg, output_dir=tmp_path / "a")
    run_experiment(cfg, output_dir=tmp_path / "b")
    report_same = (tmp_path / "a" / "report.csv").read_bytes() == (
        tmp_path / "b" / "report.csv"
    ).read_bytes()
    ckpts_a = sorted((tmp_path / "a" / "checkpoints").glob("*.ckpt"))
    ckpt_same = all(
        p.read_bytes() == (tmp_path / "b" / "checkpoints" / p.name).read_bytes()
        for p in ckpts_a
    )
    ok = report_same and ckpt_same and len(ckpts_a) >= 4
    _report(
        11, "determinism", ok,
        f"report.csv identical={report_same}, {len(ckpts_a)} checkpoints identical={ckpt_same}",
    )


def test_criterion_12_integrity_enhanced_verification():
    start = time.monotonic()
    tree = {
        "dataset": {"generator": {"per_class": 40}},
        "ball": {"delta_mode": "relative", "delta": 0.05, "m": 16, "n": 10, "max_candidates": 10_000},
    }
    cfg, s, plain = _built(tree, 0)
    # the complement that `proxymark integrity` trains (seed tag 4)
    (complement,) = train_independent(s.spec, s.train_data, cfg.independents.subset_fraction,
                                      [derive_seed(0, 4)], s.train_cfg)
    strict = build_trigger_set(cfg, s, [complement])
    comp_acc = pm.trigger_accuracy(strict, complement)
    elapsed = time.monotonic() - start
    rate_ok = strict.stats.acceptance_rate <= plain.stats.acceptance_rate
    ok = rate_ok and comp_acc == 0.0 and elapsed < 120
    _report(
        12, "integrity-enhanced verification", ok,
        f"rate {strict.stats.acceptance_rate:.3f} <= {plain.stats.acceptance_rate:.3f}, "
        f"complement trigger accuracy {comp_acc:.2f}, {elapsed:.0f}s",
    )

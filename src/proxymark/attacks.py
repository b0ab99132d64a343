"""Model stealing and watermark-removal procedures.

All attacks operate on a frozen source model and return a new surrogate;
the source parameters are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import AttackFailedError, InputError, TrainingDivergedError
from .nn import (Model, ModelSpec, TrainConfig, _activate, _check_features, accuracy, fit_many,
                 forward, predict, unpack)

# perfbench/spans.py wraps attacks.fit; it stays importable from here, although
# the attacks now train through fit_many.
from .nn import fit  # noqa: F401

ATTACK_KINDS = ("soft_label", "hard_label", "rgt", "prune", "finetune")


def check_params(kind: str, gamma: float | None, prune_ratio: float | None) -> None:
    """gamma only for rgt and prune_ratio only for prune, each within its range."""
    if (gamma is not None) != (kind == "rgt"):
        raise InputError("gamma is required for rgt and forbidden otherwise")
    if gamma is not None and not (0.0 <= gamma <= 1.0):
        raise InputError("gamma must be in [0, 1]")
    if (prune_ratio is not None) != (kind == "prune"):
        raise InputError("prune_ratio is required for prune and forbidden otherwise")
    if prune_ratio is not None and not (0.0 <= prune_ratio < 1.0):
        raise InputError("prune_ratio must be in [0, 1)")


@dataclass
class AttackResult:
    surrogate: Model
    clean_accuracy: float
    loss_history: list[float]


def _run_fit(spec, data: Dataset, trains: list[TrainConfig], labels, teacher=None, gamma=0.0,
             init=None) -> list[AttackResult]:
    """One surrogate per training config, trained as one stack on the same data;
    the first that diverges fails the attack."""
    k = len(trains)
    outcomes = fit_many(spec, [data.features] * k, None if labels is None else [labels] * k, trains,
                        teacher_probs=None if teacher is None else [teacher] * k, gamma=gamma,
                        inits=None if init is None else [init] * k)
    for outcome in outcomes:
        if isinstance(outcome, TrainingDivergedError):
            raise AttackFailedError(str(outcome)) from outcome
    return [AttackResult(surrogate, accuracy(data, surrogate), history) for surrogate, history in outcomes]


def steal_soft(f: Model, spec: ModelSpec, data: Dataset, trains: list[TrainConfig]) -> list[AttackResult]:
    """Distill against the source's probability vectors (teacher frozen)."""
    return _run_fit(spec, data, trains, None, forward(f, data.features), 1.0)


def steal_hard(f: Model, spec: ModelSpec, data: Dataset, trains: list[TrainConfig]) -> list[AttackResult]:
    """Train on the dataset relabeled with the source's argmax predictions."""
    return _run_fit(spec, data, trains, predict(f, data.features))


def steal_rgt(f: Model, spec: ModelSpec, data: Dataset, trains: list[TrainConfig],
              gamma: float) -> list[AttackResult]:
    """Distillation mixed with ground-truth cross-entropy, weighted by gamma.

    gamma=0 reduces bitwise to plain training and gamma=1 to the soft-label
    attack, because all three share the same fit_many() code path.
    """
    return _run_fit(spec, data, trains, data.labels, forward(f, data.features), gamma)


def neuron_activity(f: Model, calibration: Dataset) -> list[np.ndarray]:
    """Mean absolute post-activation per hidden neuron over the calibration set."""
    a, activities = _check_features(f.spec, calibration.features)[0], []
    for w, b in unpack(f.spec, f.theta)[:-1]:
        a = _activate(a @ w + b, f.spec.activation)
        activities.append(np.mean(np.abs(a), axis=0))
    return activities


def prune(f: Model, data: Dataset, ratio: float, repeats: int = 1) -> list[AttackResult]:
    """Zero out the least active floor(ratio * width) neurons per hidden layer.

    Structural zeroing only, no retraining: a cut neuron loses its incoming
    column, bias, and outgoing row. Ties break by neuron index. Pruning draws
    nothing, so its `repeats` runs share one result.
    """
    check_params("prune", None, ratio)
    theta = f.theta.copy()
    layers = unpack(f.spec, theta)
    activities = neuron_activity(f, data)
    for li, width in enumerate(f.spec.hidden_layers):
        cut = np.argsort(activities[li], kind="stable")[: int(ratio * width)]
        w_in, b_in = layers[li]
        w_in[:, cut] = 0.0
        b_in[cut] = 0.0
        w_out, _ = layers[li + 1]
        w_out[cut, :] = 0.0
    surrogate = Model(f.spec, theta)
    return [AttackResult(surrogate, accuracy(data, surrogate), [])] * repeats


def finetune(f: Model, data: Dataset, trains: list[TrainConfig]) -> list[AttackResult]:
    """Continue cross-entropy training of copies of the source."""
    return _run_fit(f.spec, data, trains, data.labels, init=f.theta)


def run_attack(f: Model, kind: str, spec: ModelSpec, data: Dataset, trains: list[TrainConfig],
               gamma: float | None = None, prune_ratio: float | None = None) -> list[AttackResult]:
    """Run attack `kind` once per training config, as one stack, and return
    one result per run. The names resolve at each call, so a wrapper set on
    this module sees it."""
    check_params(kind, gamma, prune_ratio)
    match kind:
        case "soft_label":
            return steal_soft(f, spec, data, trains)
        case "hard_label":
            return steal_hard(f, spec, data, trains)
        case "rgt":
            return steal_rgt(f, spec, data, trains, gamma)
        case "prune":
            return prune(f, data, prune_ratio, len(trains))
        case "finetune":
            return finetune(f, data, trains)
    raise InputError(f"unknown attack kind {kind!r}")

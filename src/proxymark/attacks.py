"""Model stealing and watermark-removal procedures.

All attacks operate on a frozen source model and return a new surrogate;
the source parameters are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import AttackFailedError, InputError, TrainingDivergedError
from .nn import (Model, ModelSpec, TrainConfig, _activate, _check_features, accuracy, fit, forward,
                 predict, unpack)

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


def _run_fit(spec, data: Dataset, train, labels, teacher=None, gamma=0.0, init=None) -> AttackResult:
    try:
        surrogate, history = fit(spec, data.features, labels, train, teacher_probs=teacher, gamma=gamma,
                                 init=init)
    except TrainingDivergedError as exc:
        raise AttackFailedError(str(exc)) from exc
    return AttackResult(surrogate, accuracy(data, surrogate), history)


def steal_soft(f: Model, spec: ModelSpec, data: Dataset, train: TrainConfig) -> AttackResult:
    """Distill against the source's probability vectors (teacher frozen)."""
    return _run_fit(spec, data, train, None, forward(f, data.features), 1.0)


def steal_hard(f: Model, spec: ModelSpec, data: Dataset, train: TrainConfig) -> AttackResult:
    """Train on the dataset relabeled with the source's argmax predictions."""
    return _run_fit(spec, data, train, predict(f, data.features))


def steal_rgt(f: Model, spec: ModelSpec, data: Dataset, train: TrainConfig, gamma: float) -> AttackResult:
    """Distillation mixed with ground-truth cross-entropy, weighted by gamma.

    gamma=0 reduces bitwise to plain training and gamma=1 to the soft-label
    attack, because all three share the same fit() code path.
    """
    return _run_fit(spec, data, train, data.labels, forward(f, data.features), gamma)


def neuron_activity(f: Model, calibration: Dataset) -> list[np.ndarray]:
    """Mean absolute post-activation per hidden neuron over the calibration set."""
    a, activities = _check_features(f.spec, calibration.features)[0], []
    for w, b in unpack(f.spec, f.theta)[:-1]:
        a = _activate(a @ w + b, f.spec.activation)
        activities.append(np.mean(np.abs(a), axis=0))
    return activities


def prune(f: Model, data: Dataset, ratio: float) -> AttackResult:
    """Zero out the least active floor(ratio * width) neurons per hidden layer.

    Structural zeroing only, no retraining: a cut neuron loses its incoming
    column, bias, and outgoing row. Ties break by neuron index.
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
    return AttackResult(surrogate, accuracy(data, surrogate), [])


def finetune(f: Model, data: Dataset, train: TrainConfig) -> AttackResult:
    """Continue cross-entropy training of a copy of the source."""
    return _run_fit(f.spec, data, train, data.labels, init=f.theta.copy())


def run_attack(f: Model, kind: str, spec: ModelSpec, data: Dataset, train: TrainConfig,
               gamma: float | None = None, prune_ratio: float | None = None) -> AttackResult:
    """Run attack `kind`; the names resolve at each call, so a wrapper set on this module sees it."""
    check_params(kind, gamma, prune_ratio)
    match kind:
        case "soft_label":
            return steal_soft(f, spec, data, train)
        case "hard_label":
            return steal_hard(f, spec, data, train)
        case "rgt":
            return steal_rgt(f, spec, data, train, gamma)
        case "prune":
            return prune(f, data, prune_ratio)
        case "finetune":
            return finetune(f, data, train)
    raise InputError(f"unknown attack kind {kind!r}")

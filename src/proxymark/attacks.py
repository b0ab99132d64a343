"""Model stealing and watermark-removal procedures.

All attacks operate on a frozen source model and return a new surrogate;
the source parameters are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import AttackFailedError, InputError, TrainingDivergedError
from .nn import Model, ModelSpec, TrainConfig, _activate, accuracy, fit, forward, predict, unpack

ATTACK_KINDS = ("soft_label", "hard_label", "rgt", "prune", "finetune")


@dataclass
class AttackConfig:
    kind: str
    surrogate_spec: ModelSpec
    surrogate_data: Dataset
    train: TrainConfig
    gamma: float | None = None
    prune_ratio: float | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InputError(f"unknown attack kind {self.kind!r}")
        check_params(self.kind, self.gamma, self.prune_ratio)


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


def _check_dims(f: Model, cfg: AttackConfig) -> None:
    if cfg.surrogate_spec.input_dim != f.spec.input_dim:
        raise InputError("surrogate input dimension must match the source")
    if cfg.surrogate_data.dim != f.spec.input_dim:
        raise InputError("surrogate data dimension must match the source")


def _run_fit(cfg: AttackConfig, labels, teacher=None, gamma=0.0, init=None) -> AttackResult:
    try:
        surrogate, history = fit(
            cfg.surrogate_spec,
            cfg.surrogate_data.features,
            labels,
            cfg.train,
            teacher_probs=teacher,
            gamma=gamma,
            init=init,
        )
    except TrainingDivergedError as exc:
        raise AttackFailedError(str(exc)) from exc
    return AttackResult(surrogate, accuracy(cfg.surrogate_data, surrogate), history)


def steal_soft(f: Model, cfg: AttackConfig) -> AttackResult:
    """Distill against the source's probability vectors (teacher frozen)."""
    if cfg.kind != "soft_label":
        raise InputError("config kind must be soft_label")
    _check_dims(f, cfg)
    return _run_fit(cfg, None, forward(f, cfg.surrogate_data.features), 1.0)


def steal_hard(f: Model, cfg: AttackConfig) -> AttackResult:
    """Train on the dataset relabeled with the source's argmax predictions."""
    if cfg.kind != "hard_label":
        raise InputError("config kind must be hard_label")
    _check_dims(f, cfg)
    return _run_fit(cfg, predict(f, cfg.surrogate_data.features))


def steal_rgt(f: Model, cfg: AttackConfig) -> AttackResult:
    """Distillation mixed with ground-truth cross-entropy, weighted by gamma.

    gamma=0 reduces bitwise to plain training and gamma=1 to the soft-label
    attack, because all three share the same fit() code path.
    """
    if cfg.kind != "rgt":
        raise InputError("config kind must be rgt")
    _check_dims(f, cfg)
    teacher = forward(f, cfg.surrogate_data.features)
    return _run_fit(cfg, cfg.surrogate_data.labels, teacher, cfg.gamma)


def neuron_activity(f: Model, calibration: Dataset) -> list[np.ndarray]:
    """Mean absolute post-activation per hidden neuron over the calibration set."""
    a, activities = calibration.features, []
    for w, b in unpack(f.spec, f.theta)[:-1]:
        a = _activate(a @ w + b, f.spec.activation)
        activities.append(np.mean(np.abs(a), axis=0))
    return activities


def prune(f: Model, cfg: AttackConfig) -> AttackResult:
    """Zero out the least active floor(ratio * width) neurons per hidden layer.

    Structural zeroing only, no retraining: a cut neuron loses its incoming
    column, bias, and outgoing row. Ties break by neuron index.
    """
    if cfg.kind != "prune":
        raise InputError("config kind must be prune")
    if cfg.surrogate_spec != f.spec:
        raise InputError("pruning keeps the source architecture")
    ratio = cfg.prune_ratio
    theta = f.theta.copy()
    layers = unpack(f.spec, theta)
    activities = neuron_activity(f, cfg.surrogate_data)
    for li, width in enumerate(f.spec.hidden_layers):
        k = int(ratio * width)
        if k == 0:
            continue
        order = np.argsort(activities[li], kind="stable")
        cut = order[:k]
        w_in, b_in = layers[li]
        w_in[:, cut] = 0.0
        b_in[cut] = 0.0
        w_out, _ = layers[li + 1]
        w_out[cut, :] = 0.0
    surrogate = Model(f.spec, theta)
    return AttackResult(surrogate, accuracy(cfg.surrogate_data, surrogate), [])


def finetune(f: Model, cfg: AttackConfig) -> AttackResult:
    """Continue cross-entropy training of a copy of the source."""
    if cfg.kind != "finetune":
        raise InputError("config kind must be finetune")
    if cfg.surrogate_spec != f.spec:
        raise InputError("finetune keeps the source architecture")
    return _run_fit(cfg, cfg.surrogate_data.labels, init=f.theta.copy())


def run_attack(f: Model, cfg: AttackConfig) -> AttackResult:
    """Dispatch on the attack kind."""
    return {
        "soft_label": steal_soft,
        "hard_label": steal_hard,
        "rgt": steal_rgt,
        "prune": prune,
        "finetune": finetune,
    }[cfg.kind](f, cfg)

"""Model stealing and watermark-removal procedures.

All attacks operate on a frozen source model and return one (surrogate,
loss history) pair per run; the source parameters are never mutated.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import InputError
from .nn import (Model, ModelSpec, TrainConfig, _check_features, _forward, _stack_layers, fit_many, forward,
                 predict, unpack)

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


def steal_soft(f: Model, spec: ModelSpec, data: Dataset, train: TrainConfig, seeds: list[int]) -> list:
    """Distill against the source's probability vectors (teacher frozen)."""
    return fit_many(spec, data.features, None, train, seeds, teacher_probs=forward(f, data.features),
                    gamma=1.0)


def steal_hard(f: Model, spec: ModelSpec, data: Dataset, train: TrainConfig, seeds: list[int]) -> list:
    """Train on the dataset relabeled with the source's argmax predictions."""
    return fit_many(spec, data.features, predict(f, data.features), train, seeds)


def steal_rgt(f: Model, spec: ModelSpec, data: Dataset, train: TrainConfig, seeds: list[int],
              gamma: float) -> list:
    """Distillation mixed with ground-truth cross-entropy, weighted by gamma.

    gamma=0 reduces bitwise to plain training and gamma=1 to the soft-label
    attack, because all three share the same fit_many() code path.
    """
    return fit_many(spec, data.features, data.labels, train, seeds, teacher_probs=forward(f, data.features),
                    gamma=gamma)


def neuron_activity(f: Model, calibration: Dataset) -> list[np.ndarray]:
    """Mean absolute post-activation per hidden neuron over the calibration
    set, read from the hidden layers of one forward pass."""
    x = _check_features(f.spec, calibration.features)[0]
    post = [np.empty((len(x), 1, d)) for d in f.spec.layer_dims[1:]]
    _forward(_stack_layers(f.spec, f.theta, 1), f.spec.activation, x, post)
    return [np.mean(np.abs(a[:, 0]), axis=0) for a in post[:-1]]


def prune(f: Model, data: Dataset, ratio: float, repeats: int = 1) -> list:
    """Zero out the least active floor(ratio * width) neurons per hidden layer.

    Structural zeroing only, no retraining: a cut neuron loses its incoming
    column, bias, and outgoing row. Ties break by neuron index. Pruning draws
    nothing, so its `repeats` runs share one surrogate and an empty history.
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
    return [(Model(f.spec, theta), [])] * repeats


def finetune(f: Model, data: Dataset, train: TrainConfig, seeds: list[int]) -> list:
    """Continue cross-entropy training of copies of the source."""
    return fit_many(f.spec, data.features, data.labels, train, seeds, init=f.theta)


def run_attack(f: Model, kind: str, spec: ModelSpec, data: Dataset, train: TrainConfig, seeds: list[int],
               gamma: float | None = None, prune_ratio: float | None = None) -> list:
    """Run attack `kind` under `train` once per seed, as one stack, and return
    one (surrogate, loss history) pair per run. The names resolve at each
    call, so a wrapper set on this module sees it."""
    check_params(kind, gamma, prune_ratio)
    match kind:
        case "soft_label":
            return steal_soft(f, spec, data, train, seeds)
        case "hard_label":
            return steal_hard(f, spec, data, train, seeds)
        case "rgt":
            return steal_rgt(f, spec, data, train, seeds, gamma)
        case "prune":
            return prune(f, data, prune_ratio, len(seeds))
        case "finetune":
            return finetune(f, data, train, seeds)
    raise InputError(f"unknown attack kind {kind!r}")

"""Trigger-set watermarking with proxy-model verification."""

from .data import Dataset, SplitSpec, load_csv, make_blobs, save_csv, split
from .nn import (
    Model,
    ModelSpec,
    TrainConfig,
    accuracy,
    forward,
    gradients,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .stats import (
    clopper_pearson_lower,
    lemma_bound,
    ownership_verdict,
    trigger_accuracy,
)
from .watermark import (
    ProxyBall,
    TriggerSet,
    VerifyConfig,
    load_trigger_set,
    recompute_and_check,
    sample_proxy,
    save_trigger_set,
    trigger_candidate,
    verify_trigger_set,
)

__all__ = [
    "Dataset",
    "SplitSpec",
    "Model",
    "ModelSpec",
    "TrainConfig",
    "ProxyBall",
    "TriggerSet",
    "VerifyConfig",
    "accuracy",
    "clopper_pearson_lower",
    "forward",
    "gradients",
    "lemma_bound",
    "load_checkpoint",
    "load_csv",
    "load_trigger_set",
    "make_blobs",
    "ownership_verdict",
    "predict",
    "recompute_and_check",
    "sample_proxy",
    "save_checkpoint",
    "save_csv",
    "save_trigger_set",
    "split",
    "train",
    "trigger_accuracy",
    "trigger_candidate",
    "verify_trigger_set",
]

__version__ = "0.1.0"

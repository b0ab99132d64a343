"""Strict YAML experiment configuration.

The dataclasses below are the schema: one loader walks their fields, so each
key, type and default is stated once. Unknown and repeated keys are rejected
so typos fail fast, every value is checked against its field's annotation
(an int is taken where a float is expected), and `null` is accepted only for
fields typed `X | None`. A field whose YAML key sits in a sub-mapping names it in its
metadata, e.g. `dataset.split.holdout_fraction` is `DatasetBlock.holdout_fraction`.
Seeds for sub-stages are derived from the single top-level seed (see
harness.derive_seed).
"""

from __future__ import annotations

import contextlib
import functools
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .attacks import ATTACK_KINDS, check_params
from .data import SplitSpec, check_blobs, check_subset_fraction
from .errors import ConfigError, InputError
from .nn import ACTIVATIONS, ModelSpec, TrainConfig
from .stats import ALPHA, check_alpha
from .watermark import ProxyBall, VerifyConfig, check_ball

DELTA_MODES = ("relative", "absolute")


def _in(section: str, default):
    """A field read from the YAML sub-mapping `section` of its block."""
    return field(default=default, metadata={"section": section})


def _check_choice(value, choices, ctx: str) -> None:
    if value not in choices:
        raise ConfigError(f"{ctx}: unknown {value!r}, expected one of {tuple(choices)}")


@contextlib.contextmanager
def _checked(block: str):
    """A stage's own check, run at load: its InputError becomes a ConfigError naming the block."""
    try:
        yield
    except InputError as exc:
        raise ConfigError(f"{block}: {exc}") from exc


def _check_training(block) -> None:
    """TrainConfig's and ModelSpec's own checks, on the values `block` gives."""
    TrainConfig(**{f.name: getattr(block, f.name) for f in fields(TrainConfig)
                   if getattr(block, f.name, None) is not None})
    ModelSpec(1, block.hidden_layers or (), 3)  # any valid input_dim and num_classes


@dataclass
class GeneratorBlock:
    classes: int = 4
    dim: int = 2
    per_class: int = 150
    spread: float = 0.6

    def __post_init__(self):
        with _checked("dataset.generator"):
            check_blobs(self.classes, self.dim, self.per_class, self.spread)


@dataclass
class DatasetBlock:
    generator: GeneratorBlock | None = field(default_factory=GeneratorBlock)
    csv: str | None = None  # a given csv replaces the generator
    holdout_fraction: float = _in("split", 0.5)

    def __post_init__(self):
        with _checked("dataset"):
            SplitSpec(self.holdout_fraction)
        if self.csv is None:
            if self.generator is None:
                raise ConfigError("dataset: give a generator or a csv")
            return
        if self.generator not in (None, GeneratorBlock()):
            raise ConfigError("dataset: give either generator or csv, not both")
        if not Path(self.csv).is_file():
            raise ConfigError(f"dataset.csv: not a file: {self.csv}")
        self.generator = None


@dataclass
class SourceBlock:
    hidden_layers: tuple[int, ...] = _in("model", (32, 32))
    activation: str = _in("model", ModelSpec.activation)
    epochs: int = _in("train", TrainConfig.epochs)
    learning_rate: float = _in("train", TrainConfig.learning_rate)
    momentum: float = _in("train", TrainConfig.momentum)
    weight_decay: float = _in("train", TrainConfig.weight_decay)
    batch_size: int = _in("train", TrainConfig.batch_size)

    def __post_init__(self):
        _check_choice(self.activation, ACTIVATIONS, "source.model.activation")
        with _checked("source"):
            _check_training(self)


@dataclass
class BallBlock:
    delta_mode: str = "relative"
    delta: float = 0.05  # a fraction of the source's weight norm, when relative
    tau: float = ProxyBall.tau
    sigma: float | None = ProxyBall.sigma
    m: int = VerifyConfig.m
    n: int = VerifyConfig.n
    max_candidates: int | None = VerifyConfig.max_candidates
    alpha: float = ALPHA

    def __post_init__(self):
        _check_choice(self.delta_mode, DELTA_MODES, "ball.delta_mode")
        with _checked("ball"):
            check_ball(self.delta, self.tau, self.sigma)  # a relative delta is a fraction >= 0 too
            VerifyConfig(self.m, self.n, self.max_candidates)
            check_alpha(self.alpha)


@dataclass
class AttackBlock:
    kind: str
    gamma: float | None = None
    prune_ratio: float | None = None
    hidden_layers: tuple[int, ...] | None = None  # defaults to source architecture
    activation: str | None = None
    epochs: int | None = None
    learning_rate: float | None = None
    momentum: float | None = None
    weight_decay: float | None = None
    batch_size: int | None = None

    def __post_init__(self):
        _check_choice(self.kind, ATTACK_KINDS, "attacks.kind")
        with _checked(f"attacks ({self.kind})"):
            check_params(self.kind, self.gamma, self.prune_ratio)
            _check_training(self)
        if self.activation is not None:
            _check_choice(self.activation, ACTIVATIONS, f"attacks ({self.kind}).activation")


@dataclass
class IndependentsBlock:
    count: int = 4
    subset_fraction: float = 0.5

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("independents.count must be >= 0")
        with _checked("independents"):
            check_subset_fraction(self.subset_fraction)


@dataclass
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "proxymark-out"
    dataset: DatasetBlock = field(default_factory=DatasetBlock)
    source: SourceBlock = field(default_factory=SourceBlock)
    ball: BallBlock = field(default_factory=BallBlock)
    attacks: list[AttackBlock] = field(default_factory=list)
    independents: IndependentsBlock = field(default_factory=IndependentsBlock)
    repeats: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.repeats < 0:
            raise ConfigError("repeats must be >= 0")
        keep = {None, self.source.hidden_layers, self.source.activation}  # no override, or an equal one
        for b in self.attacks:
            if b.kind in ("prune", "finetune") and {b.hidden_layers, b.activation} - keep:
                raise ConfigError(f"attacks ({b.kind}): {b.kind} keeps the source architecture")


def _require_mapping(node, ctx):
    if not isinstance(node, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {type(node).__name__}")
    return node


def _join(ctx: str | None, key: str) -> str:
    return f"{ctx}.{key}" if ctx else key


@functools.cache
def _schema(cls) -> dict:
    """YAML key ("section.name" for a field in a sub-mapping) -> (field, annotation)."""
    hints = get_type_hints(cls)
    return {_join(f.metadata.get("section"), f.name): (f, hints[f.name]) for f in fields(cls)}


def _build(cls, node, ctx: str):
    """An instance of dataclass `cls` from the YAML mapping `node`."""
    where, schema = ctx or "config", _schema(cls)
    node = dict(_require_mapping(node, where))
    for section in dict.fromkeys(key.split(".")[0] for key in schema if "." in key):
        if section in node:
            sub = _require_mapping(node.pop(section), _join(ctx, section))
            node.update({_join(section, key): value for key, value in sub.items()})
    unknown = node.keys() - schema.keys()
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key, (f, _) in schema.items() if key not in node
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}: missing {', '.join(missing)}")
    return cls(**{schema[key][0].name: _value(schema[key][1], value, _join(ctx, key))
                  for key, value in node.items()})


def _value(hint, value, ctx: str):
    """`value` checked against the annotation `hint` (and built, for a dataclass)."""
    if get_origin(hint) is types.UnionType:  # X | None
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return _build(hint, value, ctx)
    origin = get_origin(hint)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{ctx}: expected a list, got {value!r}")
        return origin(_value(get_args(hint)[0], v, f"{ctx}[{i}]") for i, v in enumerate(value))
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{ctx}: expected {hint.__name__}, got {value!r}")
    return value


def parse_config(tree: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, tree, "")


def load_config(path) -> ExperimentConfig:
    import yaml  # here, not at the top: `proxymark verify` never reads YAML

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    # libyaml's parser when PyYAML was built with it: about 7x faster than
    # the pure-Python one, and the same safe constructors
    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def construct_mapping(self, node, deep=False):
            """The mapping, unless it repeats a key (a merged `<<` key may be overridden)."""
            keys = set()
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"duplicate key {key!r}", key_node.start_mark)
                    keys.add(key)
            return super().construct_mapping(node, deep)

    try:
        tree = yaml.load(text, Loader=Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config({} if tree is None else tree)

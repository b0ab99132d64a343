"""Dense feed-forward classifier with exact backprop and SGD training.

Parameters live in a single flat float64 vector: for each layer, the weight
matrix (row-major, shape fan_in x fan_out) followed by the bias vector.
Class labels are 0-based throughout the in-memory API; 1-based labels only
appear at file-format boundaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointFormatError, InputError, TrainingDivergedError

ACTIVATIONS = ("relu", "tanh")

PROB_FLOOR = 1e-12  # clamp for probabilities inside logs

CHECKPOINT_MAGIC = b"NWMK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    hidden_layers: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim < 1:
            raise InputError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes < 3:
            raise InputError(f"need at least 3 classes, got {self.num_classes}")
        if any(w < 1 for w in self.hidden_layers):
            raise InputError(f"all layer widths must be >= 1, got {self.hidden_layers}")
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.num_classes)

    @property
    def num_params(self) -> int:
        dims = self.layer_dims
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class Model:
    spec: ModelSpec
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.spec.num_params,):
            raise InputError(
                f"theta has {self.theta.size} entries, spec implies {self.spec.num_params}"
            )
        if not np.all(np.isfinite(self.theta)):
            raise InputError("theta contains non-finite entries")

    def copy(self) -> "Model":
        return Model(self.spec, self.theta.copy())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 2048
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise InputError("epochs must be >= 0")
        if not (self.learning_rate >= 0 and np.isfinite(self.learning_rate)):
            raise InputError("learning_rate must be finite and >= 0")
        if not (0 <= self.momentum < 1):
            raise InputError("momentum must be in [0, 1)")
        if not (self.weight_decay >= 0 and np.isfinite(self.weight_decay)):
            raise InputError("weight_decay must be finite and >= 0")
        if self.batch_size < 1:
            raise InputError("batch_size must be >= 1")


def unpack(spec: ModelSpec, theta: np.ndarray):
    """Split a flat parameter vector into per-layer (W, b) views."""
    dims = spec.layer_dims
    layers = []
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = theta[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = theta[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def init_theta(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights, zero biases, drawn from the given generator."""
    theta = np.zeros(spec.num_params)
    dims = spec.layer_dims
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        theta[offset : offset + fan_in * fan_out] = rng.uniform(
            -limit, limit, size=fan_in * fan_out
        )
        offset += fan_in * fan_out + fan_out
    return theta


def init_model(spec: ModelSpec, seed: int) -> Model:
    return Model(spec, init_theta(spec, np.random.default_rng(seed)))


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The hidden-layer activation, applied in place."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place. The row max, exact in any order, is
    read from a column-major copy, which numpy reduces several times faster."""
    logits -= np.asfortranarray(logits).max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _check_features(spec: ModelSpec, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise InputError(f"expected feature dimension {spec.input_dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("features contain non-finite entries")
    return x, single


def stacked_forward(spec: ModelSpec, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities of k same-spec models on shared rows in one pass.

    thetas is (k, num_params) and x is (rows, input_dim); the result is
    (k, rows, num_classes). np.matmul runs each model's product as its own
    GEMM, so every slice equals that model's batched forward bit for bit.
    """
    dims = spec.layer_dims
    a, offset, last = x, 0, len(dims) - 2
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = thetas[:, offset : offset + fan_in * fan_out].reshape(-1, fan_in, fan_out)
        offset += fan_in * fan_out
        z = a @ w + thetas[:, None, offset : offset + fan_out]
        offset += fan_out
        a = z if i == last else _activate(z, spec.activation)
    return _softmax(a)


def forward(model: Model, x) -> np.ndarray:
    """Class-probability vector(s) for one sample or a batch."""
    xb, single = _check_features(model.spec, x)
    probs = stacked_forward(model.spec, model.theta[None], xb)[0]
    return probs[0] if single else probs


def predict(model: Model, x):
    """Argmax class label(s); ties resolve to the lowest index."""
    probs = forward(model, x)
    return int(np.argmax(probs)) if probs.ndim == 1 else np.argmax(probs, axis=1)


def _teacher_terms(targets: np.ndarray):
    """The parts of KL(targets || output) that do not depend on the model."""
    return targets, np.log(np.clip(targets, PROB_FLOOR, 1.0)), targets > 0


def _loss_grad(probs: np.ndarray, labels, teacher, gamma: float) -> float:
    """Mean batch loss gamma * KL(teacher || probs) + (1 - gamma) * CE(labels),
    its gradient wrt the logits written over probs. teacher is None (CE alone) or
    the batch rows of _teacher_terms(); labels is None for KL alone."""
    n = len(probs)
    if teacher is not None:
        t, log_t, t_pos = teacher
        terms = np.log(np.clip(probs, PROB_FLOOR, 1.0))
        np.subtract(log_t, terms, out=terms)
        terms *= t
        kl_loss = float(np.where(t_pos, terms, 0.0).sum() / n)
        if labels is None:
            probs -= t
            probs /= n
            return kl_loss
        kl_grad = gamma * ((probs - t) / n)
    rows = np.arange(n)
    # sum / n is how np.mean computes, without its per-call overhead
    loss = float(-(np.log(np.clip(probs[rows, labels], PROB_FLOOR, 1.0)).sum() / n))
    probs[rows, labels] -= 1.0
    probs /= n
    if teacher is None:
        return loss
    probs *= 1.0 - gamma
    probs += kl_grad
    return gamma * kl_loss + (1.0 - gamma) * loss


def _step(layers, glayers, act: str, x: np.ndarray, labels, teacher, gamma: float) -> float:
    """One forward and backward pass: returns the _loss_grad() loss and writes its
    gradient into the glayers views. Bias, activation, softmax and loss gradient act in place."""
    post, last = [x], len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = post[-1] @ w
        z += b
        post.append(z if i == last else _activate(z, act))
    delta = _softmax(post.pop())
    loss = _loss_grad(delta, labels, teacher, gamma)
    for i in range(last, -1, -1):
        gw, gb = glayers[i]
        np.matmul(post[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i:
            delta = delta @ layers[i][0].T
            delta *= (post[i] > 0) if act == "relu" else 1.0 - post[i] * post[i]
    return loss


def gradients(model: Model, features, targets, loss: str = "ce") -> np.ndarray:
    """Analytic gradient of the mean batch loss wrt the flat parameters.

    For loss="ce", targets are integer labels; for loss="kl_to_targets",
    targets are probability rows and the loss is mean KL(target || output).
    """
    spec = model.spec
    x, _ = _check_features(spec, features)
    if x.shape[0] == 0:
        raise InputError("batch must be non-empty")
    labels = teacher = None
    if loss == "ce":
        labels = np.asarray(targets, dtype=np.int64)
        if labels.shape != (x.shape[0],):
            raise InputError("labels must be one integer per batch row")
        if labels.min() < 0 or labels.max() >= spec.num_classes:
            raise InputError("label out of range")
    elif loss == "kl_to_targets":
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != (x.shape[0], spec.num_classes):
            raise InputError("targets must match the batch probability shape")
        teacher = _teacher_terms(t)
    else:
        raise InputError(f"unknown loss {loss!r}")
    grad = np.empty_like(model.theta)
    _step(unpack(spec, model.theta), unpack(spec, grad), spec.activation, x, labels, teacher, 1.0)
    return grad


# Divergence raises TrainingDivergedError; numpy's warnings would print once per worker.
@np.errstate(over="ignore", invalid="ignore")
def fit(
    spec: ModelSpec,
    features: np.ndarray,
    labels: np.ndarray | None,
    cfg: TrainConfig,
    *,
    teacher_probs: np.ndarray | None = None,
    gamma: float = 0.0,
    init: np.ndarray | None = None,
) -> tuple[Model, list[float]]:
    """Shared SGD loop behind train() and the stealing attacks.

    With teacher_probs=None the loss is plain cross-entropy on labels.
    Otherwise the per-batch loss is
        gamma * KL(teacher || output) + (1 - gamma) * CE(labels),
    with gamma=0 and gamma=1 taking the exact single-loss code path so the
    degenerate cases are bitwise identical to plain training / distillation.
    Weight decay is decoupled (theta *= 1 - wd before the step).
    """
    x, _ = _check_features(spec, features)
    n = x.shape[0]
    if n == 0:
        raise InputError("training data must be non-empty")
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise InputError(f"{labels.size} labels for {n} feature rows")
        if labels.min() < 0 or labels.max() >= spec.num_classes:
            raise InputError("label out of range")
    if teacher_probs is not None and np.shape(teacher_probs) != (n, spec.num_classes):
        raise InputError(
            f"teacher_probs must be ({n}, {spec.num_classes}), got {np.shape(teacher_probs)}"
        )
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    if gamma and teacher_probs is None:
        raise InputError("gamma > 0 needs teacher_probs")
    batch_size = min(cfg.batch_size, n)

    rng = np.random.default_rng(cfg.seed)
    theta = init_theta(spec, rng) if init is None else np.array(init, dtype=np.float64)
    model = Model(spec, theta)
    layers = unpack(spec, theta)
    grad, step = np.empty_like(theta), np.empty_like(theta)
    glayers = unpack(spec, grad)
    velocity = np.zeros_like(theta)
    history: list[float] = []

    use_ce = gamma < 1.0
    if use_ce and labels is None:
        raise InputError("labels are required unless gamma=1 with teacher targets")
    teacher = _teacher_terms(np.asarray(teacher_probs)) if gamma > 0.0 else None

    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            # take() gathers rows several times faster than fancy indexing
            yb = labels.take(idx) if use_ce else None
            tb = None if teacher is None else tuple(a.take(idx, axis=0) for a in teacher)
            loss = _step(layers, glayers, spec.activation, x.take(idx, axis=0), yb, tb, gamma)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"loss became {loss}")
            if cfg.weight_decay:
                theta *= 1.0 - cfg.weight_decay
            velocity *= cfg.momentum
            velocity += grad
            theta -= np.multiply(velocity, cfg.learning_rate, out=step)
            losses.append(loss)
        # np.mean of one value is 0.0 + value, which turns -0.0 into 0.0
        history.append(losses[0] + 0.0 if len(losses) == 1 else float(np.mean(losses)))
    if not np.all(np.isfinite(theta)):
        raise TrainingDivergedError("parameters became non-finite")
    return model, history


def train(spec: ModelSpec, data, cfg: TrainConfig) -> Model:
    """Train a fresh model with seeded SGD; deterministic given the config."""
    model, _ = fit(spec, data.features, data.labels, cfg)
    return model


def accuracy(data, model: Model) -> float:
    if data.n == 0:
        raise InputError("dataset must be non-empty")
    preds = predict(model, data.features)
    return float(np.mean(preds == data.labels))


def checkpoint_bytes(model: Model) -> bytes:
    spec = model.spec
    act_code = ACTIVATIONS.index(spec.activation)
    header = struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, spec.input_dim)
    header += struct.pack("<I", len(spec.hidden_layers))
    header += struct.pack(f"<{len(spec.hidden_layers)}I", *spec.hidden_layers) if spec.hidden_layers else b""
    header += struct.pack("<II", spec.num_classes, act_code)
    return header + model.theta.astype("<f8").tobytes()


def save_checkpoint(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model))


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    try:
        (input_dim,) = struct.unpack_from("<I", blob, 8)
        (n_hidden,) = struct.unpack_from("<I", blob, 12)
        widths = struct.unpack_from(f"<{n_hidden}I", blob, 16)
        off = 16 + 4 * n_hidden
        num_classes, act_code = struct.unpack_from("<II", blob, off)
        off += 8
    except struct.error as exc:
        raise CheckpointFormatError(f"{path}: truncated header") from exc
    if act_code >= len(ACTIVATIONS):
        raise CheckpointFormatError(f"{path}: unknown activation code {act_code}")
    spec = ModelSpec(input_dim, widths, num_classes, ACTIVATIONS[act_code])
    payload = blob[off:]
    if len(payload) != 8 * spec.num_params:
        raise CheckpointFormatError(
            f"{path}: expected {8 * spec.num_params} payload bytes, got {len(payload)}"
        )
    theta = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Model(spec, theta)


def fingerprint(model: Model) -> str:
    """SHA-256 of the checkpoint serialization."""
    import hashlib  # here, not at the top: `proxymark verify` never hashes a model

    return hashlib.sha256(checkpoint_bytes(model)).hexdigest()

"""Dense feed-forward classifier with exact backprop and SGD training.

Parameters live in a single flat float64 vector: for each layer, the weight
matrix (row-major, shape fan_in x fan_out) followed by the bias vector.
Class labels are 0-based throughout the in-memory API; 1-based labels only
appear at file-format boundaries.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

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


def _stack_layers(spec: ModelSpec, theta: np.ndarray, k: int):
    """Per-layer (W, b) views of a layer-major stack of k models: a layer's k
    weight matrices, (k, fan_in, fan_out), then its k bias rows, (k, fan_out).
    At k=1 this is one model's own parameter layout."""
    dims = spec.layer_dims
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = theta[offset : offset + k * fan_in * fan_out].reshape(k, fan_in, fan_out)
        offset += k * fan_in * fan_out
        layers.append((w, theta[offset : offset + k * fan_out].reshape(k, fan_out)))
        offset += k * fan_out
    return layers


def unpack(spec: ModelSpec, theta: np.ndarray):
    """Split a flat parameter vector into per-layer (W, b) views."""
    return [(w[0], b[0]) for w, b in _stack_layers(spec, theta, 1)]


def init_theta(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform weights, zero biases, drawn from the given generator."""
    theta = np.zeros(spec.num_params)
    for w, _ in unpack(spec, theta):
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return theta


def init_model(spec: ModelSpec, seed: int) -> Model:
    return Model(spec, init_theta(spec, np.random.default_rng(seed)))


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The hidden-layer activation, applied in place."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _pairwise_row_sums(cols: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Each row's sum of the n columns from lo of a column-major array, taken
    down the columns in numpy's pairwise order, so that it equals bit for bit
    rows.sum(axis=1) on the row-major array, without its loop per row."""
    if n < 8:
        res = cols[:, lo].copy()
        for i in range(lo + 1, lo + n):
            res += cols[:, i]
        return res
    if n <= 128:
        r = [cols[:, lo + j].copy() for j in range(8)]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += cols[:, i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += cols[:, i]
        return res
    half = n // 2 - n // 2 % 8
    return _pairwise_row_sums(cols, lo, half) + _pairwise_row_sums(cols, lo + half, n - half)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a contiguous array, in place. It runs on a
    column-major copy of its rows, where each step is one loop over all rows
    rather than a loop per row; the max is exact in any order."""
    rows = logits.reshape(-1, logits.shape[-1])
    cols = np.asfortranarray(rows)
    cols -= np.maximum.reduce(cols, axis=1, keepdims=True)
    np.exp(cols, out=cols)
    cols /= _pairwise_row_sums(cols, 0, cols.shape[1])[:, None]
    rows[...] = cols
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


def _clip_probs(p: np.ndarray) -> np.ndarray:
    """np.clip(p, PROB_FLOOR, 1.0) as its two ufuncs, without np.clip's wrappers."""
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0)


def _model_sums(terms: np.ndarray) -> np.ndarray:
    """Each model's sum over a rows-major (rows, k, ...) array. Each sums a
    contiguous copy of its own terms, in the pairwise order of a model alone."""
    return np.add.reduce(np.ascontiguousarray(terms.swapaxes(0, 1)).reshape(terms.shape[1], -1), axis=1)


def _loss_grad(probs: np.ndarray, labels, teacher, gamma: float) -> np.ndarray:
    """Each model's mean batch loss gamma * KL(teacher || probs) + (1 - gamma) *
    CE(labels), its gradient wrt the logits written over probs. probs is
    rows-major, (rows, k, classes); labels (rows, k) is None for KL alone;
    teacher is None (CE alone) or the batch rows of _teacher_terms()."""
    n = len(probs)
    if teacher is not None:
        t, log_t, t_pos = teacher
        terms = np.log(_clip_probs(probs))
        np.subtract(log_t, terms, out=terms)
        terms *= t
        kl_loss = _model_sums(np.where(t_pos, terms, 0.0)) / n
        if labels is None:
            probs -= t
            probs /= n
            return kl_loss
        kl_grad = gamma * ((probs - t) / n)
    flat = probs.reshape(-1)
    picked = np.arange(0, flat.size, probs.shape[-1]) + labels.ravel()
    # sum / n is how np.mean computes, without its per-call overhead
    loss = -(_model_sums(np.log(_clip_probs(flat[picked])).reshape(labels.shape)) / n)
    flat[picked] -= 1.0
    probs /= n
    if teacher is None:
        return loss
    probs *= 1.0 - gamma
    probs += kl_grad
    return gamma * kl_loss + (1.0 - gamma) * loss


class _Batch:
    """Rows-major buffers for one batch shape of a stack: per layer, its input
    or output (rows, k, width), and per hidden layer its delta, each with the
    (k, rows, width) view through which np.matmul runs one GEMM per model on
    strided rows. post_kt holds the (k, width, rows) views of the weight
    gradients' GEMMs. Kept across steps, so a step allocates none of them."""

    def __init__(self, dims: tuple[int, ...], rows: int, k: int):
        self.post = [np.empty((rows, k, d)) for d in dims]
        self.delta = [np.empty((rows, k, d)) for d in dims[:-1]]  # [0] is never written
        self.post_k = [a.transpose(1, 0, 2) for a in self.post]
        self.post_kt = [a.transpose(1, 2, 0) for a in self.post]
        self.delta_k = [a.transpose(1, 0, 2) for a in self.delta]


def _step(layers, glayers, act: str, buf: _Batch, labels, teacher, gamma: float) -> np.ndarray:
    """One forward and backward pass of a stack on the rows in buf.post[0]:
    returns the k _loss_grad() losses and writes their gradients into the
    glayers views (_stack_layers). Bias, activation, softmax and loss gradient
    act on the whole stack in place."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        np.matmul(buf.post_k[i], w, out=buf.post_k[i + 1])
        z = buf.post[i + 1]
        z += b
        if i < last:
            _activate(z, act)
    delta, delta_k = _softmax(buf.post[-1]), buf.post_k[-1]
    loss = _loss_grad(delta, labels, teacher, gamma)
    for i in range(last, -1, -1):
        gw, gb = glayers[i]
        np.matmul(buf.post_kt[i], delta_k, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i:
            np.matmul(delta_k, layers[i][0].transpose(0, 2, 1), out=buf.delta_k[i])
            delta, delta_k, post = buf.delta[i], buf.delta_k[i], buf.post[i]
            delta *= (post > 0) if act == "relu" else 1.0 - post * post
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
        labels = labels[:, None]
    elif loss == "kl_to_targets":
        t = np.asarray(targets, dtype=np.float64)
        if t.shape != (x.shape[0], spec.num_classes):
            raise InputError("targets must match the batch probability shape")
        teacher = _teacher_terms(t[:, None])
    else:
        raise InputError(f"unknown loss {loss!r}")
    grad = np.empty_like(model.theta)
    buf = _Batch(spec.layer_dims, len(x), 1)
    buf.post[0][:, 0] = x
    _step(_stack_layers(spec, model.theta, 1), _stack_layers(spec, grad, 1), spec.activation, buf,
          labels, teacher, 1.0)
    return grad


# Divergence is returned per model; numpy's warnings would print once per worker.
@np.errstate(over="ignore", invalid="ignore")
def fit_many(spec: ModelSpec, xs: list, ys: list | None, cfgs: list[TrainConfig], *,
             teacher_probs: list | None = None, gamma: float = 0.0, inits: list | None = None) -> list:
    """Train k same-spec models in lock step, one per entry of xs, ys (None for
    KL alone), cfgs and, when given, teacher_probs and inits. Every model has the
    same number of rows, and the configs differ at most in their seeds. The loss
    is fit's.

    Activations and deltas are rows-major, (rows, k, width); parameters, their
    gradient and velocity form one layer-major vector (_stack_layers). So each
    bias add, column sum, activation, softmax and update is one numpy call over
    the stack, while each model's products stay its own GEMMs. Each model draws
    its initial weights and batch order from its own generator, so it comes out
    bit for bit as fit trains it alone.

    Returns, per model, (Model, loss history) or the TrainingDivergedError that
    fit raises for it; a model that diverges leaves the others unchanged.
    """
    k = len(xs)
    if any(v is not None and len(v) != k for v in (ys, cfgs, teacher_probs, inits)):
        raise InputError(f"{k} feature arrays, but not one label array, config, teacher and start each")
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    if gamma and teacher_probs is None:
        raise InputError("gamma > 0 needs teacher_probs")
    if gamma < 1.0 and ys is None:
        raise InputError("labels are required unless gamma=1 with teacher targets")
    if k == 0:
        return []
    xs = [_check_features(spec, x)[0] for x in xs]
    n = len(xs[0])
    if n == 0:
        raise InputError("training data must be non-empty")
    labels = None if ys is None else [np.asarray(y, dtype=np.int64) for y in ys]
    for j, x in enumerate(xs):
        if len(x) != n:
            raise InputError(f"a stack trains on one row count, got {sorted({len(x) for x in xs})}")
        if labels is not None and labels[j].shape != (n,):
            raise InputError(f"{labels[j].size} labels for {n} feature rows")
        if labels is not None and (labels[j].min() < 0 or labels[j].max() >= spec.num_classes):
            raise InputError("label out of range")
        if teacher_probs is not None and np.shape(teacher_probs[j]) != (n, spec.num_classes):
            raise InputError(
                f"teacher_probs must be ({n}, {spec.num_classes}), got {np.shape(teacher_probs[j])}"
            )
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs[1:]):
        raise InputError("the training configs of a stack may differ only in their seeds")
    batch_size = min(cfg.batch_size, n)
    steps = -(-n // batch_size)

    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    theta, grad, step, velocity = (np.zeros(k * spec.num_params) for _ in range(4))
    layers, glayers = _stack_layers(spec, theta, k), _stack_layers(spec, grad, k)
    for j, rng in enumerate(rngs):
        start = init_theta(spec, rng) if inits is None else Model(spec, inits[j]).theta
        for (w, b), (wj, bj) in zip(layers, unpack(spec, start)):
            w[j], b[j] = wj, bj
    # row r of model j at r * k + j, so one take() gathers a batch for all k
    x = np.stack(xs, axis=1).reshape(n * k, -1)
    y = np.stack(labels, axis=1).ravel() if gamma < 1.0 else None
    teacher = None
    if gamma > 0.0:
        t = np.stack([np.asarray(p, dtype=np.float64) for p in teacher_probs], axis=1)
        teacher = tuple(a.reshape(n * k, -1) for a in _teacher_terms(t))
    perms, cols = np.empty((n, k), dtype=np.intp), np.arange(k)
    bufs = {rows: _Batch(spec.layer_dims, rows, k) for rows in {batch_size, n % batch_size} if rows}
    losses, failed = [], {}  # each step's k losses; model index -> its TrainingDivergedError

    for _ in range(cfg.epochs):
        for j, rng in enumerate(rngs):
            perms[:, j] = rng.permutation(n)
        rows = perms * k + cols if k > 1 else perms
        for start in range(0, n, batch_size):
            idx = rows[start : start + batch_size]
            # take() gathers rows several times faster than fancy indexing; every
            # index is in range, and a clipping take() writes its out= unbuffered
            buf = bufs[len(idx)]
            x.take(idx, axis=0, out=buf.post[0], mode="clip")
            yb = None if y is None else y.take(idx)
            tb = None if teacher is None else tuple(a.take(idx, axis=0) for a in teacher)
            loss = _step(layers, glayers, spec.activation, buf, yb, tb, gamma)
            if not all(map(math.isfinite, loss.tolist())):
                for j, value in enumerate(loss.tolist()):
                    if not math.isfinite(value):
                        failed.setdefault(j, TrainingDivergedError(f"loss became {value}"))
                if len(failed) == k:
                    return [failed[j] for j in range(k)]
            if cfg.weight_decay:
                theta *= 1.0 - cfg.weight_decay
            velocity *= cfg.momentum
            velocity += grad
            theta -= np.multiply(velocity, cfg.learning_rate, out=step)
            losses.append(loss)
    # each model's epoch means as np.mean takes them over its own batch losses
    history = np.ascontiguousarray(np.reshape(losses, (cfg.epochs, steps, k)).transpose(2, 0, 1)).mean(axis=2)
    outcomes = []
    for j in range(k):
        theta_j = np.concatenate([a[j].ravel() for layer in layers for a in layer])
        if j not in failed and not np.isfinite(theta_j).all():
            failed[j] = TrainingDivergedError("parameters became non-finite")
        outcomes.append(failed[j] if j in failed else (Model(spec, theta_j), history[j].tolist()))
    return outcomes


def fit(spec: ModelSpec, features: np.ndarray, labels: np.ndarray | None, cfg: TrainConfig, *,
        teacher_probs: np.ndarray | None = None, gamma: float = 0.0,
        init: np.ndarray | None = None) -> tuple[Model, list[float]]:
    """Shared SGD loop behind train() and the stealing attacks: fit_many's
    one-model stack, raising its TrainingDivergedError.

    With teacher_probs=None the loss is plain cross-entropy on labels.
    Otherwise the per-batch loss is
        gamma * KL(teacher || output) + (1 - gamma) * CE(labels),
    with gamma=0 and gamma=1 taking the exact single-loss code path so the
    degenerate cases are bitwise identical to plain training / distillation.
    Weight decay is decoupled (theta *= 1 - wd before the step).
    """
    one = lambda v: None if v is None else [v]  # noqa: E731
    (outcome,) = fit_many(spec, [features], one(labels), [cfg], teacher_probs=one(teacher_probs),
                          gamma=gamma, inits=one(init))
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


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

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


def _stack_layers(spec: ModelSpec, theta: np.ndarray, k: int):
    """Per-layer (W, b) views of a layer-major stack of k models: a layer's k
    weight matrices, (k, fan_in, fan_out), then its k bias rows, (k, fan_out).
    At k=1 this is one model's own parameter layout, and on a model-major
    (m, num_params) block, m such models' views, (m, fan_in, fan_out) and
    (m, fan_out)."""
    dims = spec.layer_dims
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = theta[..., offset : offset + k * fan_in * fan_out].reshape(-1, fan_in, fan_out)
        offset += k * fan_in * fan_out
        layers.append((w, theta[..., offset : offset + k * fan_out].reshape(-1, fan_out)))
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


def _forward(layers, act: str, x: np.ndarray, post: list) -> np.ndarray:
    """The one forward pass, of a stack of k same-spec models with per-layer
    (W, b) views (k, fan_in, fan_out) and (k, fan_out): on shared rows x
    (rows, input_dim), or on each model's own rows as a (k, rows, input_dim)
    view. Each model's product is its own GEMM, written through the (k, rows,
    width) view of its layer's rows-major (rows, k, width) buffer in post;
    the bias add, activation and softmax act on the whole stack in place.
    Returns the last buffer, the class probabilities."""
    a, last = x, len(layers) - 1
    for i, ((w, b), z) in enumerate(zip(layers, post)):
        np.matmul(a, w, out=z.transpose(1, 0, 2))
        z += b
        if i < last and act == "relu":
            np.maximum(z, 0.0, out=z)
        elif i < last:
            np.tanh(z, out=z)
        a = z.transpose(1, 0, 2)
    return _softmax(post[-1])


def stacked_forward(spec: ModelSpec, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities of k same-spec models on shared rows, in one
    _forward pass over buffers allocated for this call: thetas is the
    model-major (k, num_params) block, x is (rows, input_dim), and the result
    is rows-major, (rows, k, num_classes). Each model's slice [:, j] equals
    its own batched forward bit for bit."""
    post = [np.empty((len(x), len(thetas), d)) for d in spec.layer_dims[1:]]
    return _forward(_stack_layers(spec, thetas, 1), spec.activation, x, post)


def forward(model: Model, x) -> np.ndarray:
    """Class-probability vector(s) for one sample or a batch, from a one-model stacked_forward."""
    xb, single = _check_features(model.spec, x)
    probs = stacked_forward(model.spec, model.theta[None], xb)[:, 0]
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
    """Rows-major (rows, k, width) buffers for one batch shape of a stack: per
    layer, its input or output, and per hidden layer its delta. Kept across
    steps, so a step allocates none of them."""

    def __init__(self, dims: tuple[int, ...], rows: int, k: int):
        self.post = [np.empty((rows, k, d)) for d in dims]
        self.delta = [np.empty((rows, k, d)) for d in dims[:-1]]  # [0] is never written


def _step(layers, glayers, act: str, buf: _Batch, labels, teacher, gamma: float) -> np.ndarray:
    """_forward, then backprop, for a stack on each model's rows in buf.post[0]:
    returns the k _loss_grad() losses and writes their gradients into the
    glayers views (_stack_layers). As in _forward, each model's products are
    its own GEMMs, and the rest acts on the whole rows-major stack at once."""
    delta = _forward(layers, act, buf.post[0].transpose(1, 0, 2), buf.post[1:])
    loss = _loss_grad(delta, labels, teacher, gamma)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = glayers[i]
        delta_k = delta.transpose(1, 0, 2)
        np.matmul(buf.post[i].transpose(1, 2, 0), delta_k, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i:
            delta, post = buf.delta[i], buf.post[i]
            np.matmul(delta_k, layers[i][0].transpose(0, 2, 1), out=delta.transpose(1, 0, 2))
            delta *= (post > 0) if act == "relu" else 1.0 - post * post
    return loss


def _check_targets(spec: ModelSpec, n: int, labels, teacher_probs):
    """labels (n class indices) and teacher_probs (n probability rows), each checked when given."""
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise InputError(f"{labels.size} labels for {n} feature rows")
        if labels.min() < 0 or labels.max() >= spec.num_classes:
            raise InputError("label out of range")
    if teacher_probs is not None:
        teacher_probs = np.asarray(teacher_probs, dtype=np.float64)
        if teacher_probs.shape != (n, spec.num_classes):
            raise InputError(f"teacher_probs must be ({n}, {spec.num_classes}), got {teacher_probs.shape}")
    return labels, teacher_probs


def gradients(model: Model, features, targets, loss: str = "ce") -> np.ndarray:
    """Analytic gradient of the mean batch loss wrt the flat parameters.

    For loss="ce", targets are integer labels; for loss="kl_to_targets",
    targets are probability rows and the loss is mean KL(target || output).
    """
    spec = model.spec
    x, _ = _check_features(spec, features)
    if x.shape[0] == 0:
        raise InputError("batch must be non-empty")
    if loss not in ("ce", "kl_to_targets"):
        raise InputError(f"unknown loss {loss!r}")
    ce = loss == "ce"
    labels, t = _check_targets(spec, len(x), targets if ce else None, None if ce else targets)
    teacher = None if ce else _teacher_terms(t[:, None])
    grad = np.empty_like(model.theta)
    buf = _Batch(spec.layer_dims, len(x), 1)
    buf.post[0][:, 0] = x
    _step(_stack_layers(spec, model.theta, 1), _stack_layers(spec, grad, 1), spec.activation, buf,
          labels[:, None] if ce else None, teacher, 1.0)
    return grad


# Divergence raises TrainingDivergedError; numpy's warnings would print once per worker.
@np.errstate(over="ignore", invalid="ignore")
def fit_many(spec: ModelSpec, features, labels, cfg: TrainConfig, seeds: list[int], *,
             rows=None, teacher_probs=None, gamma: float = 0.0, init=None) -> list:
    """Train one model per seed in lock step, each under cfg with its own seed
    in place of cfg.seed: model j on rows[j] of the shared features, labels
    (None for KL alone) and teacher_probs, or on all rows when rows is None,
    from init when it is given. The loss is fit's.

    Each step is inference's _forward pass, then backprop. Activations and
    deltas are rows-major, (rows, k, width); parameters, their gradient and
    velocity form one layer-major vector (_stack_layers). So each bias add,
    column sum, activation, softmax and update is one numpy call over the
    stack, while each model's products stay its own GEMMs. Each model draws
    its initial weights and batch order from its own generator, so it comes out
    bit for bit as fit trains it alone.

    Returns, per model, (Model, loss history). After the last step it raises
    TrainingDivergedError if any model's largest |parameter| is not at most
    1 / PROB_FLOOR, which a NaN or inf never is. A blow-up lands far above
    that bound even when the clip keeps its loss finite.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InputError(f"gamma must be in [0, 1], got {gamma}")
    if gamma and teacher_probs is None:
        raise InputError("gamma > 0 needs teacher_probs")
    if gamma < 1.0 and labels is None:
        raise InputError("labels are required unless gamma=1 with teacher targets")
    k = len(seeds)
    if k == 0:
        return []
    x = _check_features(spec, features)[0]
    if rows is not None:
        if len(rows) != k or len({len(r) for r in rows}) != 1:
            raise InputError(f"rows must be {k} row lists of one length, one per seed")
        rows = np.array(rows, dtype=np.intp)
    n = len(x) if rows is None else rows.shape[1]
    if n == 0:
        raise InputError("training data must be non-empty")
    if rows is not None and (rows.min() < 0 or rows.max() >= len(x)):
        raise InputError(f"a row index is outside the {len(x)} feature rows")
    labels, teacher_probs = _check_targets(spec, len(x), labels, teacher_probs)
    batch_size = min(cfg.batch_size, n)
    steps = -(-n // batch_size)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    theta, grad, step, velocity = (np.zeros(k * spec.num_params) for _ in range(4))
    layers, glayers = _stack_layers(spec, theta, k), _stack_layers(spec, grad, k)
    start = None if init is None else unpack(spec, Model(spec, init).theta)
    for j, rng in enumerate(rngs):
        for (w, b), (wj, bj) in zip(layers, start or unpack(spec, init_theta(spec, rng))):
            w[j], b[j] = wj, bj
    teacher = _teacher_terms(teacher_probs) if gamma > 0.0 else None
    perms = np.empty((n, k), dtype=np.intp)
    bufs = {size: _Batch(spec.layer_dims, size, k) for size in {batch_size, n % batch_size} if size}
    losses = []  # each step's k losses

    for _ in range(cfg.epochs):
        for j, rng in enumerate(rngs):
            perms[:, j] = rng.permutation(n)
        order = perms if rows is None else np.take_along_axis(rows.T, perms, axis=0)
        for begin in range(0, n, batch_size):
            idx = order[begin : begin + batch_size]
            # take() gathers rows several times faster than fancy indexing; every index
            # is in range (rows is checked), and a clipping take() writes its out= unbuffered
            buf = bufs[len(idx)]
            x.take(idx, axis=0, out=buf.post[0], mode="clip")
            yb = labels.take(idx) if gamma < 1.0 else None
            tb = None if teacher is None else tuple(a.take(idx, axis=0) for a in teacher)
            loss = _step(layers, glayers, spec.activation, buf, yb, tb, gamma)
            if cfg.weight_decay:
                theta *= 1.0 - cfg.weight_decay
            velocity *= cfg.momentum
            velocity += grad
            theta -= np.multiply(velocity, cfg.learning_rate, out=step)
            losses.append(loss)
    # each model's epoch means as np.mean takes them over its own batch losses
    history = np.ascontiguousarray(np.reshape(losses, (cfg.epochs, steps, k)).transpose(2, 0, 1)).mean(axis=2)
    if not np.abs(theta).max() <= 1.0 / PROB_FLOOR:
        raise TrainingDivergedError("training diverged: the largest |theta| is not <= 1 / PROB_FLOOR = 1e12")
    return [(Model(spec, np.concatenate([a[j].ravel() for layer in layers for a in layer])),
             history[j].tolist()) for j in range(k)]


def fit(spec: ModelSpec, features: np.ndarray, labels: np.ndarray | None, cfg: TrainConfig, *,
        teacher_probs: np.ndarray | None = None, gamma: float = 0.0,
        init: np.ndarray | None = None) -> tuple[Model, list[float]]:
    """One model's SGD loop, behind train(): fit_many's one-model stack.

    With teacher_probs=None the loss is plain cross-entropy on labels.
    Otherwise the per-batch loss is
        gamma * KL(teacher || output) + (1 - gamma) * CE(labels),
    with gamma=0 and gamma=1 taking the exact single-loss code path so the
    degenerate cases are bitwise identical to plain training / distillation.
    Weight decay is decoupled (theta *= 1 - wd before the step).
    """
    return fit_many(spec, features, labels, cfg, [cfg.seed], teacher_probs=teacher_probs, gamma=gamma,
                    init=init)[0]


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
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointFormatError(f"{path}: cannot read ({exc})") from exc
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

"""Reference computations made apart from proxymark, used to check its outputs.

Everything here is plain numpy and the standard library. It regenerates the
blob data proxymark trains on, reads the checkpoint and trigger-set files
proxymark writes from their documented byte layouts, and runs its own forward
pass, so a check does not trust the code it checks.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# A label counts as the argmax when its probability is within this of the
# top one: a batched and a single-row matmul differ by about 1e-14, which can
# flip an exact near-tie but no decided one.
TIE = 1e-9
MIX_TOL = 1e-12
CENTER_RADIUS = 3.0


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def derive_seed(base: int, *tags: int) -> int:
    """The documented stage-seed layout: SeedSequence([base, *tags])."""
    return int(np.random.SeedSequence([int(base), *map(int, tags)]).generate_state(1)[0])


def blobs(classes: int, dim: int, per_class: int, spread: float, seed: int):
    """Gaussian blobs around a radius-3 K-gon in the first two coordinates."""
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = np.zeros((classes, dim))
    centers[:, 0] = CENTER_RADIUS * np.cos(angles)
    centers[:, 1] = CENTER_RADIUS * np.sin(angles)
    labels = np.repeat(np.arange(classes), per_class)
    noise = np.random.default_rng(seed).normal(0.0, spread, size=(labels.size, dim))
    return centers[labels] + noise, labels


def holdout(features, labels, classes: int, fraction: float, seed: int):
    """The stratified hold-out part, in original row order."""
    rng = np.random.default_rng(seed)
    picked = []
    for c in range(classes):
        idx = np.flatnonzero(labels == c)
        picked.append(idx[rng.permutation(idx.size)[: int(fraction * idx.size)]])
    rows = np.sort(np.concatenate(picked))
    return features[rows], labels[rows]


def read_checkpoint(blob: bytes):
    """(layers, activation) from checkpoint bytes: magic NWMK, version 1."""
    if len(blob) < 16 or blob[:4] != b"NWMK":
        raise CheckFailed("checkpoint: bad magic")
    version, input_dim, n_hidden = struct.unpack_from("<III", blob, 4)
    if version != 1:
        raise CheckFailed(f"checkpoint: version {version}")
    widths = struct.unpack_from(f"<{n_hidden}I", blob, 16)
    off = 16 + 4 * n_hidden
    classes, act = struct.unpack_from("<II", blob, off)
    theta = np.frombuffer(blob, dtype="<f8", offset=off + 8)
    dims = (input_dim, *widths, classes)
    layers, o = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = theta[o : o + fan_in * fan_out].reshape(fan_in, fan_out)
        o += fan_in * fan_out
        layers.append((w, theta[o : o + fan_out]))
        o += fan_out
    if o != theta.size or act > 1:
        raise CheckFailed("checkpoint: payload does not match its header")
    return layers, ("relu", "tanh")[act]


def probabilities(checkpoint: bytes, x) -> np.ndarray:
    layers, activation = read_checkpoint(checkpoint)
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for w, b in layers[:-1]:
        z = a @ w + b
        a = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
    w, b = layers[-1]
    logits = a @ w + b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def read_trigger_set(manifest_path):
    """(xs, y_star, parents, lam, manifest) from a version-1 manifest and its blob."""
    path = Path(manifest_path)
    man = json.loads(path.read_text(encoding="ascii"))
    if man.get("version") != 1:
        raise CheckFailed(f"trigger set: version {man.get('version')}")
    xs = np.frombuffer((path.parent / man["blob"]).read_bytes(), dtype="<f8")
    xs = xs.reshape(man["n"], man["dim"])
    recs = man["samples"]
    if len(recs) != man["n"]:
        raise CheckFailed("trigger set: sample records do not match n")
    y = np.array([r["y_star"] - 1 for r in recs], dtype=np.int64)
    parents = np.array([[r["parent_a"], r["parent_b"]] for r in recs], dtype=np.int64)
    lam = np.array([float(r["lambda"]) for r in recs])
    return xs, y, parents, lam, man


def check_triggers(manifest_path, hold_x, hold_y, source_checkpoint: bytes) -> int:
    """Each trigger is a mixture of two hold-out rows of different classes, and
    the source labels it with a third class. Returns the trigger count."""
    xs, y, parents, lam, _ = read_trigger_set(manifest_path)
    if xs.shape[0] == 0:
        raise CheckFailed("trigger set is empty")
    a, b = parents[:, 0], parents[:, 1]
    if parents.min() < 0 or parents.max() >= hold_y.size:
        raise CheckFailed("trigger parent index outside the hold-out")
    if not np.all((lam > 0.0) & (lam < 1.0)):
        raise CheckFailed("trigger mixing weight outside (0, 1)")
    mixed = lam[:, None] * hold_x[a] + (1.0 - lam[:, None]) * hold_x[b]
    err = float(np.max(np.abs(mixed - xs)))
    if err > MIX_TOL:
        raise CheckFailed(f"trigger is not lam*x_a + (1-lam)*x_b (max error {err:.3g})")
    if np.any(hold_y[a] == hold_y[b]) or np.any(y == hold_y[a]) or np.any(y == hold_y[b]):
        raise CheckFailed("trigger label is not a third class")
    if not np.all(labels_agree(probabilities(source_checkpoint, xs), y)):
        raise CheckFailed("source does not assign the stored trigger label")
    return int(xs.shape[0])


def labels_agree(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return probs[np.arange(labels.size), labels] >= probs.max(axis=1) - TIE


def check_trigger_accuracy(reported: float, xs, y, checkpoint: bytes) -> None:
    """The reported accuracy lies between the exact-argmax and near-tie counts."""
    probs = probabilities(checkpoint, xs)
    strict = float(np.mean(np.argmax(probs, axis=1) == y))
    loose = float(np.mean(labels_agree(probs, y)))
    if not (strict - 1e-12 <= reported <= loose + 1e-12):
        raise CheckFailed(f"trigger accuracy {reported!r}, reference {strict!r}")


def p_hat(m: int, alpha: float) -> float:
    """Clopper-Pearson lower bound at t = m in closed form."""
    return (alpha / 2.0) ** (1.0 / m)

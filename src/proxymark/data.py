"""Dataset construction, CSV ingestion, and stratified train/hold-out split.

Labels are 0-based in memory; the CSV format uses 1-based labels with a
"y,x1,...,xd" header. Floats are exported with 17 significant digits so
export -> load is an exact round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DatasetParseError, InputError

CENTER_RADIUS = 3.0


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise InputError("features must be a non-empty N x d matrix")
        if labels.shape != (features.shape[0],):
            raise InputError("labels must be one per row")
        if not np.all(np.isfinite(features)):
            raise InputError("features contain non-finite entries")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise InputError(f"labels must lie in [0, {self.num_classes - 1}]")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class SplitSpec:
    holdout_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.holdout_fraction < 1.0):
            raise InputError("holdout_fraction must be in (0, 1)")


def class_centers(num_classes: int, dim: int) -> np.ndarray:
    """Class centroids on a radius-3 regular K-gon in the first two coords."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = CENTER_RADIUS * np.cos(angles)
    centers[:, 1] = CENTER_RADIUS * np.sin(angles)
    return centers


def check_blobs(num_classes: int, dim: int, n_per_class: int, spread: float) -> None:
    if num_classes < 3:
        raise InputError("need at least 3 classes")
    if dim < 2:
        raise InputError("need dimension >= 2")
    if n_per_class < 1:
        raise InputError("n_per_class must be >= 1")
    if not (spread >= 0 and np.isfinite(spread)):
        raise InputError("spread must be finite and >= 0")


def check_subset_fraction(fraction: float) -> None:
    if not (0.0 < fraction <= 1.0):
        raise InputError("subset_fraction must be in (0, 1]")


def make_blobs(num_classes: int, dim: int, n_per_class: int, spread: float, seed: int) -> Dataset:
    """Isotropic Gaussian blobs around K-gon centroids; pure in its arguments."""
    check_blobs(num_classes, dim, n_per_class, spread)
    rng = np.random.default_rng(seed)
    centers = class_centers(num_classes, dim)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    noise = rng.normal(0.0, spread, size=(num_classes * n_per_class, dim)) if spread > 0 else 0.0
    return Dataset(centers[labels] + noise, labels, num_classes)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Stratified disjoint split; both parts keep original row order."""
    rng = np.random.default_rng(spec.seed)
    holdout_idx = []
    for c in range(data.num_classes):
        class_idx = np.flatnonzero(data.labels == c)
        n_hold = int(spec.holdout_fraction * class_idx.size)
        if class_idx.size and (n_hold == 0 or n_hold == class_idx.size):
            raise InputError(
                f"holdout_fraction {spec.holdout_fraction} empties one side of class {c}"
            )
        holdout_idx.append(class_idx[rng.permutation(class_idx.size)[:n_hold]])
    holdout_idx = np.sort(np.concatenate(holdout_idx))
    mask = np.ones(data.n, dtype=bool)
    mask[holdout_idx] = False
    train_idx = np.flatnonzero(mask)
    if train_idx.size == 0 or holdout_idx.size == 0:
        raise InputError("split produced an empty part")
    return data.subset(train_idx), data.subset(holdout_idx)


def save_csv(data: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("y," + ",".join(f"x{i + 1}" for i in range(data.dim)) + "\n")
        for y, row in zip(data.labels, data.features):
            fh.write(f"{y + 1}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(path) -> Dataset:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DatasetParseError("empty file", line=1)
    header = lines[0].split(",")
    if header[0] != "y" or len(header) < 2:
        raise DatasetParseError(f"bad header {lines[0]!r}", line=1)
    dim = len(header) - 1
    labels, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise DatasetParseError(f"expected {dim + 1} cells, got {len(cells)}", line=lineno)
        try:
            y = int(cells[0])
            row = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise DatasetParseError(f"non-numeric cell: {exc}", line=lineno) from exc
        if y < 1:
            raise DatasetParseError(f"label {y} must be >= 1", line=lineno)
        labels.append(y - 1)
        rows.append(row)
    if not rows:
        raise DatasetParseError("no rows", line=1)
    return Dataset(np.asarray(rows, dtype=np.float64), labels, max(labels) + 1)

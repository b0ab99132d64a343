"""Trigger-set generation and proxy-ball verification.

Candidates are convex combinations of hold-out pairs from different classes,
kept only when the source model assigns them a third class. Verification
freezes m proxy models drawn from a weight-space ball around the source and
accepts a candidate only when every proxy agrees with the surprise label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import (
    BallTooTightError,
    InputError,
    InsufficientTransferabilityError,
    NoCandidateFoundError,
    TriggerSetFormatError,
)
from .nn import Model, accuracy, fingerprint, predict, stacked_forward

LAMBDA_MARGIN = 1e-6  # keep the mixing weight strictly interior
_REJECTION_CAP = 1000  # consecutive proxy rejections under tau < 1
# Block sizes trade speed for peak memory: a stacked pass holds a few
# (m, rows, width) float64 arrays. At m=64, n=200, blocks of 256 draws and
# 1024 proxy-rows built a set 10-15% faster but raised peak RSS by 0.5-1 MB.
_DRAW_BLOCK = 64  # pair draws the source labels in one batched forward pass
_STACK_ROWS = 128  # proxy-rows (m x candidates) per stacked pass

TRIGGER_FILE_VERSION = 1


@dataclass
class VerifyStats:
    candidates_consumed: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        if self.candidates_consumed == 0:
            return 0.0
        return self.accepted / self.candidates_consumed


@dataclass
class TriggerSet:
    """n samples as arrays: x* rows (n, d), 0-based surprise labels (n,),
    hold-out parent indices (n, 2) and mixing weights (n,), with
    xs[k] = lam[k] * x[parents[k, 0]] + (1 - lam[k]) * x[parents[k, 1]]."""

    xs: np.ndarray
    y_star: np.ndarray
    parents: np.ndarray
    lam: np.ndarray
    source_fingerprint: str
    ball_params: dict = field(default_factory=dict)
    seed: int | None = None
    stats: VerifyStats | None = None

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.y_star = np.asarray(self.y_star, dtype=np.int64)
        self.parents = np.asarray(self.parents, dtype=np.int64).reshape(-1, 2)
        self.lam = np.asarray(self.lam, dtype=np.float64)
        n = len(self.xs)
        if self.xs.ndim != 2 or self.parents.shape != (n, 2) or not (
            self.y_star.shape == self.lam.shape == (n,)
        ):
            raise InputError("trigger-set arrays disagree on the number of samples")
        if not np.all((self.lam > 0.0) & (self.lam < 1.0)):
            raise InputError("lambda must be in (0, 1)")

    @property
    def n(self) -> int:
        return len(self.y_star)


@dataclass
class ProxyBall:
    source: Model
    delta: float
    tau: float = 1.0
    sigma: float | None = None
    reference_data: Dataset | None = None

    def __post_init__(self):
        if self.delta < 0 or not np.isfinite(self.delta):
            raise InputError("delta must be finite and >= 0")
        if not (0.0 < self.tau <= 1.0):
            raise InputError("tau must be in (0, 1]")
        if self.sigma is None:
            # expected noise norm ~ sigma * sqrt(dim); this makes delta the scale knob
            dim = self.source.theta.size
            self.sigma = self.delta / np.sqrt(dim) if self.delta > 0 else 1.0
        if self.sigma <= 0:
            raise InputError("sigma must be positive")
        if self.tau < 1.0 and self.reference_data is None:
            raise InputError("tau < 1 requires reference_data for the accuracy gap check")

    def params(self) -> dict:
        return {"delta": self.delta, "tau": self.tau, "sigma": self.sigma}


def relative_delta(source: Model, fraction: float = 0.05) -> float:
    """Delta as a fraction of the source weight norm (desk-scale default)."""
    return float(fraction * np.linalg.norm(source.theta))


@dataclass(frozen=True)
class VerifyConfig:
    m: int = 16
    n: int = 10
    max_candidates: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise InputError("m must be >= 1")
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.max_candidates is None:
            object.__setattr__(self, "max_candidates", 200 * self.n)
        if self.max_candidates < self.n:
            raise InputError("max_candidates must be >= n")


def _check_holdout(holdout: Dataset) -> None:
    if holdout.num_classes < 3:
        raise InputError("need at least 3 classes for a third-class surprise label")
    if np.unique(holdout.labels).size < 2:
        raise NoCandidateFoundError("hold-out set contains fewer than 2 distinct classes")


def _pair_draws(labels, rng: np.random.Generator, k: int) -> list[tuple[int, int, float] | None]:
    """k pair draws: (a, b, lam) when the parents' classes differ, else None.

    A draw takes from the generator exactly what ``rng.integers(0, n, size=2)``
    and then, when the classes differ, ``rng.uniform(LAMBDA_MARGIN,
    1 - LAMBDA_MARGIN)`` would take (n = len(labels)), and gives the same
    values, rebuilt from raw PCG64 words in one Python loop:

    - a bounded integer is Lemire's method on a 32-bit value u, the low half
      of a fresh word or else the high half buffered from the last one: it is
      (u * n) >> 32, redrawn while (u * n) mod 2^32 < (2^32 - n) mod n;
    - lam is lo + (hi - lo) * (top 53 bits of a fresh word) * 2^-53, and the
      buffered half is left alone.

    Words are read ahead; afterwards the state is restored, advanced by the
    words used, and given the buffered half, as numpy leaves it.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise InputError(f"pair draws need a PCG64 generator, not {type(bits).__name__}")
    n = len(labels)  # numpy takes this 32-bit path for n <= 2^32
    saved = bits.state
    has_half, half = saved["has_uint32"], saved["uinteger"]  # numpy's 32-bit buffer

    def fresh():
        while True:
            yield from bits.random_raw(2 * k).tolist()

    words = fresh()
    used = 0
    threshold = (2**32 - n) % n
    lo, span = LAMBDA_MARGIN, (1.0 - LAMBDA_MARGIN) - LAMBDA_MARGIN
    draws = []
    pair = [0, 0]
    for _ in range(k):
        for i in (0, 1):
            while True:
                if has_half:
                    u, has_half = half, 0
                else:
                    w = next(words)
                    used += 1
                    u, half, has_half = w & 0xFFFFFFFF, w >> 32, 1
                m = u * n
                if m & 0xFFFFFFFF >= threshold:
                    break
            pair[i] = m >> 32
        a, b = pair
        if labels[a] == labels[b]:
            draws.append(None)
        else:
            used += 1
            draws.append((a, b, lo + span * ((next(words) >> 11) * 2.0**-53)))
    bits.state = saved
    bits.advance(used)
    state = bits.state
    state["has_uint32"], state["uinteger"] = has_half, half
    bits.state = state
    return draws


def _mix(holdout: Dataset, parents: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Row-wise lam * x_a + (1 - lam) * x_b; equal bit for bit to the scalar form."""
    lam = lam[:, None]
    return lam * holdout.features[parents[:, 0]] + (1.0 - lam) * holdout.features[parents[:, 1]]


def trigger_candidate(
    holdout: Dataset, model: Model, rng: np.random.Generator, max_attempts: int = 100_000
) -> TriggerSet:
    """One accepted mixture sample as a one-sample set, or
    NoCandidateFoundError after the cap."""
    _check_holdout(holdout)
    labels = holdout.labels.tolist()
    for _ in range(max_attempts):
        [draw] = _pair_draws(labels, rng, 1)
        if draw is None:
            continue
        a, b, lam = draw
        x_star = _mix(holdout, np.array([[a, b]]), np.array([lam]))
        y_star = predict(model, x_star)
        if y_star[0] != holdout.labels[a] and y_star[0] != holdout.labels[b]:
            return TriggerSet(x_star, y_star, [(a, b)], [lam], fingerprint(model))
    raise NoCandidateFoundError(
        f"no third-class mixture found in {max_attempts} pair draws"
    )


def sample_proxy(ball: ProxyBall, rng: np.random.Generator) -> Model:
    """Gaussian weight perturbation clipped to the ball radius.

    The noise direction is preserved: draws with norm above delta are rescaled
    to exactly delta. Under tau < 1, rejection-sample on the accuracy gap.
    """
    source = ball.source
    base_acc = accuracy(ball.reference_data, source) if ball.tau < 1.0 else None
    for _ in range(_REJECTION_CAP):
        delta_vec = rng.normal(0.0, ball.sigma, size=source.theta.size)
        norm = np.linalg.norm(delta_vec)
        if norm > ball.delta:
            delta_vec *= ball.delta / norm if norm > 0 else 0.0
        proxy = Model(source.spec, source.theta + delta_vec)
        if ball.tau >= 1.0:
            return proxy
        if abs(accuracy(ball.reference_data, proxy) - base_acc) <= ball.tau:
            return proxy
    raise BallTooTightError(
        f"{_REJECTION_CAP} consecutive proxies violated the tau={ball.tau} accuracy gap"
    )


def _proxies(ball: ProxyBall, cfg: VerifyConfig):
    for i in range(cfg.m):
        yield sample_proxy(ball, np.random.default_rng([cfg.seed, 1, i]))


def build_proxies(ball: ProxyBall, cfg: VerifyConfig) -> list[Model]:
    """The frozen proxy list for a verification run; reconstructible from seeds."""
    return list(_proxies(ball, cfg))


def _stack(ball: ProxyBall, cfg: VerifyConfig) -> np.ndarray:
    """build_proxies' parameters as one (m, P) block, filled a model at a time
    so that the models never all exist at once."""
    thetas = np.empty((cfg.m, ball.source.theta.size))
    for i, proxy in enumerate(_proxies(ball, cfg)):
        thetas[i] = proxy.theta
    return thetas


def _pairs(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Parent pairs (k, 2) and mixing weights (k,) of (a, b, lam, ...) tuples."""
    parents = np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2)
    return parents, np.array([r[2] for r in rows], dtype=np.float64)


def _collect(
    holdout: Dataset,
    model: Model,
    thetas: np.ndarray,
    cfg: VerifyConfig,
    complements: list[Model] = (),
) -> TriggerSet:
    """Draw, label and judge candidates a block of pair draws at a time.

    Pairs are drawn in trigger_candidate's generator order. The source labels
    a block in one forward pass; the proxies, stacked into one (m, P) block
    of parameters, judge its third-class candidates in stacked passes of at
    most _STACK_ROWS proxy-rows, then each complement judges those the
    proxies kept. Outcomes are consumed in draw order, so the set,
    candidates_consumed and both caps match a one-candidate-at-a-time loop.
    """
    _check_holdout(holdout)
    rng = np.random.default_rng([cfg.seed, 2])
    step = max(1, _STACK_ROWS // len(thetas))  # candidates per stacked pass
    stats = VerifyStats()
    kept: list[tuple[int, int, float, int]] = []  # accepted (a, b, lam, y*) in draw order
    misses = 0  # pair draws since the last third-class mixture
    labels = holdout.labels.tolist()
    while len(kept) < cfg.n and stats.candidates_consumed < cfg.max_candidates:
        draws = _pair_draws(labels, rng, _DRAW_BLOCK)
        parents, lam = _pairs([d for d in draws if d is not None])
        xs = _mix(holdout, parents, lam)
        ys = predict(model, xs)
        third = (ys != holdout.labels[parents[:, 0]]) & (ys != holdout.labels[parents[:, 1]])
        ok = third.copy()
        candidates = np.flatnonzero(third)
        for start in range(0, candidates.size, step):
            rows = candidates[start : start + step]
            preds = np.argmax(stacked_forward(model.spec, thetas, xs[rows]), axis=-1)
            ok[rows] = np.all(preds == ys[rows], axis=0)
        for comp in complements:
            ok[ok] = predict(comp, xs[ok]) != ys[ok]
        verdicts = zip(third.tolist(), ok.tolist(), ys.tolist())  # one per mixture
        for draw in draws:
            is_third, accept, y = next(verdicts) if draw is not None else (False, False, -1)
            if not is_third:
                misses += 1
                if misses >= 10 * cfg.max_candidates:
                    raise NoCandidateFoundError(
                        f"no third-class mixture found in {misses} pair draws"
                    )
                continue
            misses = 0
            stats.candidates_consumed += 1
            if accept:
                kept.append((*draw, y))
            if len(kept) == cfg.n or stats.candidates_consumed >= cfg.max_candidates:
                break
    stats.accepted = len(kept)
    parents, lam = _pairs(kept)
    ts = TriggerSet(_mix(holdout, parents, lam), [k[3] for k in kept], parents, lam,
                    fingerprint(model), seed=cfg.seed, stats=stats)
    if ts.n < cfg.n:
        raise InsufficientTransferabilityError(
            f"consumed {cfg.max_candidates} candidates, accepted only {ts.n} "
            f"of {cfg.n}; the ball is likely mis-sized",
            partial_set=ts,
            stats=stats,
        )
    return ts


def verify_trigger_set(
    holdout: Dataset, model: Model, ball: ProxyBall, cfg: VerifyConfig
) -> TriggerSet:
    """Collect n candidates on which all m frozen proxies agree with y*."""
    ts = _collect(holdout, model, _stack(ball, cfg), cfg)
    ts.ball_params = ball.params() | {"m": cfg.m}
    return ts


def verify_trigger_set_integrity(
    holdout: Dataset,
    model: Model,
    ball: ProxyBall,
    complements: list[Model],
    cfg: VerifyConfig,
) -> TriggerSet:
    """Verification that also demands every complement model disagrees with y*.

    Complements must lie outside the ball; weight distance is undefined across
    architectures, so differently-shaped models count as outside.
    """
    if not complements:
        raise InputError("need at least one complement model")
    for k, comp in enumerate(complements):
        if comp.spec == model.spec:
            dist = np.linalg.norm(comp.theta - model.theta)
            if dist <= ball.delta:
                raise InputError(
                    f"complement {k} lies inside the ball (distance {dist:.4g} <= {ball.delta:.4g})"
                )
    ts = _collect(holdout, model, _stack(ball, cfg), cfg, complements)
    ts.ball_params = ball.params() | {"m": cfg.m, "complements": len(complements)}
    return ts


def recompute_and_check(ts: TriggerSet, holdout: Dataset, model: Model) -> bool:
    """Audit a (possibly deserialized) set: every x* is its parents' mixture
    and the model still assigns every y*."""
    if ts.n == 0:
        return True
    if ts.parents.min() < 0 or ts.parents.max() >= holdout.n:
        raise InputError("parent index out of range")
    if np.max(np.abs(_mix(holdout, ts.parents, ts.lam) - ts.xs)) > 1e-12:
        return False
    return bool(np.array_equal(predict(model, ts.xs), ts.y_star))


def save_trigger_set(ts: TriggerSet, path) -> None:
    """Manifest (JSON) next to a little-endian float64 blob of the x* vectors."""
    path = Path(path)
    blob_path = path.with_suffix(".bin")
    blob_path.write_bytes(ts.xs.astype("<f8").tobytes())
    manifest = {
        "version": TRIGGER_FILE_VERSION,
        "n": ts.n,
        "dim": int(ts.xs.shape[1]) if ts.n else 0,
        "source_fingerprint": ts.source_fingerprint,
        "seeds": {"verify_seed": ts.seed},
        "ball": ts.ball_params,
        "blob": blob_path.name,
        "samples": [
            # y* is 1-based on disk
            {"parent_a": a, "parent_b": b, "lambda": f"{lam:.17g}", "y_star": y + 1}
            for (a, b), lam, y in zip(ts.parents.tolist(), ts.lam.tolist(), ts.y_star.tolist())
        ],
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")


def load_trigger_set(path) -> TriggerSet:
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:  # unreadable, undecodable or malformed JSON
        raise TriggerSetFormatError(f"{path}: not a JSON manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise TriggerSetFormatError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != TRIGGER_FILE_VERSION:
        raise InputError(f"unsupported trigger-set file version {manifest.get('version')}")
    try:
        n, dim, name, records, source_fp = (
            manifest[key] for key in ("n", "dim", "blob", "samples", "source_fingerprint")
        )
        y_star = np.asarray([rec["y_star"] for rec in records])  # 1-based on disk
        parents = np.asarray([(rec["parent_a"], rec["parent_b"]) for rec in records])
        lam = [float(rec["lambda"]) for rec in records]
    except (KeyError, TypeError, ValueError) as exc:
        raise TriggerSetFormatError(
            f"{path}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc
    # a float, string, bool or integer beyond int64 in the records gives another dtype kind
    if {type(n), type(dim)} != {int} or (records and {y_star.dtype.kind, parents.dtype.kind} != {"i"}):
        raise TriggerSetFormatError(f"{path}: n, dim, parent_a, parent_b and y_star must be integers")
    ball, seeds = manifest.get("ball", {}), manifest.get("seeds", {})
    if not (isinstance(ball, dict) and isinstance(seeds, dict)):
        raise TriggerSetFormatError(f"{path}: ball and seeds must be JSON objects")
    if np.any(y_star < 1):
        raise TriggerSetFormatError(f"{path}: y_star below 1 (labels are 1-based on disk)")
    if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
        raise TriggerSetFormatError(f"{path}: blob {name!r} is not a bare file name")
    try:
        blob = (path.parent / name).read_bytes()
    except OSError as exc:
        raise TriggerSetFormatError(f"{path}: cannot read blob {name!r} ({exc})") from exc
    if len(blob) != 8 * n * dim:
        raise TriggerSetFormatError(
            f"{path}: blob has {len(blob)} bytes, n={n} and dim={dim} need {8 * n * dim}"
        )
    if len(records) != n:
        raise TriggerSetFormatError(f"{path}: {len(records)} sample records for n={n}")
    return TriggerSet(
        np.frombuffer(blob, dtype="<f8").reshape(n, dim).astype(np.float64),
        y_star - 1,
        parents,
        lam,
        source_fp,
        ball_params=ball,
        seed=seeds.get("verify_seed"),
    )

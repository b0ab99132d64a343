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

from .data import Dataset, write_new
from .errors import (
    BallTooTightError,
    InputError,
    InsufficientTransferabilityError,
    NoCandidateFoundError,
    TriggerSetFormatError,
)
from .nn import Model, accuracy, fingerprint, predict, stacked_forward
from .stats import ALPHA

LAMBDA_MARGIN = 1e-6  # keep the mixing weight strictly interior
_REJECTION_CAP = 1000  # consecutive proxy rejections under tau < 1
# One pass-row budget bounds every forward pass: the source labels the
# different-class draws of _PASS_ROWS // _DRAW_BLOCK blocks at once, and the
# proxies judge _PASS_ROWS // m candidates at once. A pass's cost grows
# slowly with its rows (at m=64, about 135 us for 8 candidates and 215 us
# for 16), so the number of passes is what counts. At m=64, n=200 a 1024-row
# budget makes about 7 source and 17 proxy passes, where 512 rows made 14 and
# 34, which cut a build plus save by about 17 %; it now takes 4.8 ms (median
# of 120 builds, 2-core x86, one CPU, one BLAS thread, files on tmpfs).
# At the default 32-wide hidden layers a 1024-row pass holds arrays
# of 1024 x 32 float64, 256 KiB. The budget sets how far a build draws and
# judges ahead, not what it consumes, so it does not change a set. A block's
# pairs and weights come from one numpy call each, so a trigger set depends
# on the seed and on _DRAW_BLOCK: changing it changes every set.
_DRAW_BLOCK = 64  # pair draws per rng.integers / rng.uniform call
_PASS_ROWS = 1024  # rows per source pass, or proxy-rows (m x candidates) per proxy pass

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
        if self.sigma is None:
            # expected noise norm ~ sigma * sqrt(dim); this makes delta the scale knob
            self.sigma = self.delta / np.sqrt(self.source.theta.size) if self.delta > 0 else 1.0
        check_ball(self.delta, self.tau, self.sigma)
        if self.tau < 1.0 and self.reference_data is None:
            raise InputError("tau < 1 requires reference_data for the accuracy gap check")

    def params(self) -> dict:
        return {"delta": self.delta, "tau": self.tau, "sigma": self.sigma}


def check_ball(delta: float, tau: float, sigma: float | None) -> None:
    if delta < 0 or not np.isfinite(delta):
        raise InputError("delta must be finite and >= 0")
    if not (0.0 < tau <= 1.0):
        raise InputError("tau must be in (0, 1]")
    if sigma is not None and not 0.0 < sigma < np.inf:
        raise InputError("sigma must be finite and positive")


def relative_delta(source: Model, fraction: float) -> float:
    """Delta as a fraction of the source weight norm. The product is taken in
    Python floats, where an overflow is inf, not a warning."""
    return float(fraction) * float(np.linalg.norm(source.theta))


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
    for _ in range(max_attempts):
        pair = rng.integers(0, holdout.n, size=2)
        ya, yb = holdout.labels[pair]
        if ya == yb:
            continue
        lam = rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN)
        x_star = _mix(holdout, pair[None], np.array([lam]))
        y_star = predict(model, x_star)
        if y_star[0] != ya and y_star[0] != yb:
            return TriggerSet(x_star, y_star, pair[None], [lam], fingerprint(model))
    raise NoCandidateFoundError(
        f"no third-class mixture found in {max_attempts} pair draws"
    )


def _draw_proxy(ball: ProxyBall, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Write one proxy's parameters into out: a Gaussian weight perturbation
    clipped to the ball radius, added to the source's.

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
        np.add(source.theta, delta_vec, out=out)
        if ball.tau >= 1.0:
            return out
        if abs(accuracy(ball.reference_data, Model(source.spec, out)) - base_acc) <= ball.tau:
            return out
    raise BallTooTightError(
        f"{_REJECTION_CAP} consecutive proxies violated the tau={ball.tau} accuracy gap"
    )


def sample_proxy(ball: ProxyBall, rng: np.random.Generator) -> Model:
    """One proxy model drawn from the ball (see _draw_proxy)."""
    return Model(ball.source.spec, _draw_proxy(ball, rng, np.empty(ball.source.theta.size)))


def build_proxies(ball: ProxyBall, cfg: VerifyConfig) -> np.ndarray:
    """The frozen proxies of a verification run as one model-major (m, P)
    block, proxy i drawn into row i from seed [cfg.seed, 1, i]; row i equals
    sample_proxy's draw on that seed bit for bit."""
    thetas = np.empty((cfg.m, ball.source.theta.size))
    for i, row in enumerate(thetas):
        _draw_proxy(ball, np.random.default_rng([cfg.seed, 1, i]), row)
    if not np.all(np.isfinite(thetas)):
        raise InputError("proxy parameters contain non-finite entries")
    return thetas


def _collect(
    holdout: Dataset,
    model: Model,
    thetas: np.ndarray,
    cfg: VerifyConfig,
    complements: list[Model] = (),
) -> TriggerSet:
    """Draw, label and judge candidates a window of _PASS_ROWS draws at a time.

    A window is _PASS_ROWS // _DRAW_BLOCK blocks, each one rng.integers call
    for the parent pairs, then one rng.uniform call for the mixing weights.
    The source labels the window's different-class mixtures in one forward
    pass, and such a draw is a candidate when the label is a third class. The
    proxies, as one (m, P) block of parameters, judge the candidates in draw
    order, in stacked_forward passes of at most _PASS_ROWS proxy-rows, whose
    labels are rows-major, (candidates, m); each complement then judges those
    the proxies kept. Each pass's outcomes are consumed in draw order with
    array operations: the build stops at n accepted or max_candidates
    consumed, and fails on reaching a candidate after 10 * max_candidates
    draws in a row that are not candidates. Draws past the stop are never
    consumed, so the window size does not change the set.

    Labels are argmaxes of forward passes over many rows at once. numpy runs
    a pass of two rows or more as a GEMM whose rows equal a 1-row pass's in
    practice, but a 1-row pass takes the matrix-vector path, which can round
    the last bits differently: of 15,000 slices checked, 2,200 of the 1-row
    ones differed and none of the others did. A label on such a near-tie
    could then differ from a per-draw predict's, so equality with the
    per-candidate loop is a tested property, not a guarantee.
    """
    _check_holdout(holdout)
    rng = np.random.default_rng([cfg.seed, 2])
    window = max(1, _PASS_ROWS // _DRAW_BLOCK) * _DRAW_BLOCK  # draws per source pass
    step = max(1, _PASS_ROWS // len(thetas))  # candidates per proxy pass
    cap = 10 * cfg.max_candidates
    no_candidate = f"no third-class mixture found in {cap} pair draws"
    stats = VerifyStats()
    kept = []  # (x*, y*, parents, lam) of each proxy pass's accepted draws
    drawn, last = 0, -1  # draws made, and the draw index of the last candidate consumed
    proxy_vetoes = complement_vetoes = 0
    while stats.accepted < cfg.n and stats.candidates_consumed < cfg.max_candidates:
        pairs, lam = np.empty((window, 2), dtype=np.int64), np.empty(window)
        for b in range(0, window, _DRAW_BLOCK):
            pairs[b : b + _DRAW_BLOCK] = rng.integers(0, holdout.n, size=(_DRAW_BLOCK, 2))
            lam[b : b + _DRAW_BLOCK] = rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN, _DRAW_BLOCK)
        la, lb = holdout.labels[pairs.T]
        diff = np.flatnonzero(la != lb)  # window indices of the different-class draws
        pairs, lam, la, lb = pairs[diff], lam[diff], la[diff], lb[diff]
        xs = _mix(holdout, pairs, lam)
        ys = predict(model, xs)
        third = np.flatnonzero((ys != la) & (ys != lb))
        at = drawn + diff[third]  # the candidates' draw indices
        # the first candidate after a run of cap misses: the build runs dry on reaching it
        runs = np.flatnonzero(np.diff(at, prepend=last) > cap)
        dry = runs[0] if runs.size else third.size
        done = False
        for start in range(0, third.size, step):
            rows = third[start : start + step]
            preds = np.argmax(stacked_forward(model.spec, thetas, xs[rows]), axis=-1)
            agreed = np.all(preds == ys[rows, None], axis=1)
            ok = agreed.copy()
            for comp in complements:
                ok[ok] = predict(comp, xs[rows[ok]]) != ys[rows[ok]]
            hits = np.cumsum(ok)  # this pass's acceptances through each candidate
            take = min(rows.size, cfg.max_candidates - stats.candidates_consumed,
                       int(np.searchsorted(hits, cfg.n - stats.accepted)) + 1)
            if start + take > dry:
                raise NoCandidateFoundError(no_candidate)
            last = int(at[start + take - 1])
            stats.candidates_consumed += take
            stats.accepted += int(hits[take - 1])
            done = stats.accepted == cfg.n or stats.candidates_consumed == cfg.max_candidates
            passed, kept_rows = np.count_nonzero(agreed[:take]), rows[:take][ok[:take]]
            proxy_vetoes += take - passed
            complement_vetoes += passed - kept_rows.size
            kept.append((xs[kept_rows], ys[kept_rows], pairs[kept_rows], lam[kept_rows]))
            if done:
                break
        drawn += window
        if not done and drawn - 1 - last >= cap:
            raise NoCandidateFoundError(no_candidate)
    ts = TriggerSet(*(np.concatenate(col) for col in zip(*kept)), fingerprint(model),
                    seed=cfg.seed, stats=stats)
    if ts.n < cfg.n:
        raise InsufficientTransferabilityError(
            f"accepted only {ts.n} of {cfg.n}: {last + 1} pair draws gave "
            f"{stats.candidates_consumed} candidates, of which proxies vetoed "
            f"{proxy_vetoes} and complements {complement_vetoes}; "
            + ("the complements are likely too close to the source" if complement_vetoes > proxy_vetoes
               else "the ball is likely mis-sized"),
            partial_set=ts,
        )
    return ts


def verify_trigger_set(
    holdout: Dataset, model: Model, ball: ProxyBall, cfg: VerifyConfig, complements: list[Model] = ()
) -> TriggerSet:
    """Collect n candidates on which all m frozen proxies agree with y*; with
    complements, the integrity-enhanced set, on which every complement also
    disagrees with y*.

    Complements must lie outside the ball; weight distance is undefined across
    architectures, so differently-shaped models count as outside.
    """
    for k, comp in enumerate(complements):
        if comp.spec == model.spec:
            dist = np.linalg.norm(comp.theta - model.theta)
            if dist <= ball.delta:
                raise InputError(
                    f"complement {k} lies inside the ball (distance {dist:.4g} <= {ball.delta:.4g})"
                )
    ts = _collect(holdout, model, build_proxies(ball, cfg), cfg, complements)
    ts.ball_params = ball.params() | {"m": cfg.m}
    if complements:
        ts.ball_params["complements"] = len(complements)
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


# One sample record as json.dumps(..., indent=2) lays it out in the manifest
_SAMPLE_RECORD = (
    '    {\n      "parent_a": %d,\n      "parent_b": %d,\n      "lambda": "%.17g",\n      "y_star": %d\n    }'
)


def save_trigger_set(ts: TriggerSet, path) -> None:
    """Manifest (JSON) next to a little-endian float64 blob of the x* vectors.

    The manifest is json.dumps(manifest, indent=2) byte for byte, but only
    its header goes through json.dumps, whose indent forces the pure-Python
    encoder; the sample records are filled into _SAMPLE_RECORD, several times
    faster."""
    path = Path(path)
    blob_path = path.with_suffix(".bin")
    write_new(blob_path, ts.xs.astype("<f8").tobytes())
    text = json.dumps({
        "version": TRIGGER_FILE_VERSION,
        "n": ts.n,
        "dim": int(ts.xs.shape[1]) if ts.n else 0,
        "source_fingerprint": ts.source_fingerprint,
        "seeds": {"verify_seed": ts.seed},
        "ball": ts.ball_params,
        "blob": blob_path.name,
        "samples": [],
    }, indent=2)
    if ts.n:  # y* is 1-based on disk
        records = ",\n".join(_SAMPLE_RECORD % (a, b, lam, y) for (a, b), lam, y in
                             zip(ts.parents.tolist(), ts.lam.tolist(), (ts.y_star + 1).tolist()))
        text = f"{text[:-4]}[\n{records}\n  ]\n}}"  # in place of the closing '[]\n}'
    write_new(path, text + "\n")


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
    if n < 0 or dim < 0:
        raise TriggerSetFormatError(f"{path}: n={n} and dim={dim} must be >= 0")
    ball, seeds = manifest.get("ball", {}), manifest.get("seeds", {})
    if not (isinstance(ball, dict) and isinstance(seeds, dict)):
        raise TriggerSetFormatError(f"{path}: ball and seeds must be JSON objects")
    m = ball.get("m", "missing")
    if not (type(m) is int and m >= 1):
        raise TriggerSetFormatError(f"{path}: ball.m must be a positive integer, not {m}")
    alpha = ball.get("alpha", ALPHA)  # a set without one is verified at ALPHA
    if not (type(alpha) is float and 0.0 < alpha < 1.0):
        raise TriggerSetFormatError(f"{path}: ball.alpha must be a float in (0, 1), not {alpha}")
    if np.any(y_star < 1):
        raise TriggerSetFormatError(f"{path}: y_star below 1 (labels are 1-based on disk)")
    if np.any(parents < 0):
        raise TriggerSetFormatError(f"{path}: parent index below 0")
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
    try:
        return TriggerSet(
            np.frombuffer(blob, dtype="<f8").reshape(n, dim).astype(np.float64),
            y_star - 1,
            parents,
            lam,
            source_fp,
            ball_params=ball,
            seed=seeds.get("verify_seed"),
        )
    except InputError as exc:  # a lambda outside (0, 1)
        raise TriggerSetFormatError(f"{path}: {exc}") from exc

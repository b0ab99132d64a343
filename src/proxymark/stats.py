"""Exact binomial lower bounds, trigger accuracy, and the ownership verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateRuleError, InputError
from .nn import Model, predict

_BISECT_TOL = 1e-10
_CF_MAX_ITER = 300
_CF_EPS = 3e-16


@dataclass(frozen=True)
class TransferabilityBound:
    p_hat: float
    alpha: float
    phi: float


class Verdict(str, Enum):
    STOLEN = "stolen"
    INDEPENDENT = "independent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class VerificationReport:
    trigger_accuracy: float
    bound: TransferabilityBound
    baseline_accuracy: float
    baseline_kind: str  # "independent-models" or "chance"
    verdict: Verdict
    threshold_used: float

    def to_text(self) -> str:
        lines = [
            "ownership verification report",
            f"  trigger_accuracy:  {self.trigger_accuracy:.6f}",
            f"  p_hat (CP lower):  {self.bound.p_hat:.6f} at alpha={self.bound.alpha}",
            f"  phi (set-level):   {self.bound.phi:.6f}",
            f"  baseline_accuracy: {self.baseline_accuracy:.6f} ({self.baseline_kind})",
            f"  threshold:         {self.threshold_used:.6f} (midpoint rule, re-thresholdable)",
            f"  verdict:           {self.verdict.value}",
        ]
        return "\n".join(lines) + "\n"

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(self.trigger_accuracy),
                repr(self.bound.p_hat),
                repr(self.bound.alpha),
                repr(self.bound.phi),
                repr(self.baseline_accuracy),
                self.baseline_kind,
                repr(self.threshold_used),
                self.verdict.value,
            ]
        )

    CSV_HEADER = (
        "trigger_accuracy,p_hat,alpha,phi,"
        "baseline_accuracy,baseline_kind,threshold,verdict"
    )


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise InputError("beta parameters must be positive")
    if not (0.0 <= x <= 1.0):
        raise InputError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def beta_quantile(q: float, a: float, b: float) -> float:
    """q-quantile of Beta(a, b) by bisection on I_x(a, b); abs tol 1e-10."""
    if not (0.0 <= q <= 1.0):
        raise InputError("quantile level must be in [0, 1]")
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise InputError("alpha must be in (0, 1)")


def clopper_pearson_lower(t: int, m: int, alpha: float) -> float:
    """One-sided lower confidence bound: the alpha/2 quantile of Beta(t, m-t+1).
    At t = 0 and t = m it has a closed form: 0 and (alpha/2)^(1/m)."""
    if m < 1:
        raise InputError("m must be >= 1")
    if not (0 <= t <= m):
        raise InputError(f"t={t} out of range for m={m}")
    check_alpha(alpha)
    if t == 0:
        return 0.0
    if t == m:
        return (alpha / 2.0) ** (1.0 / m)
    return beta_quantile(alpha / 2.0, float(t), float(m - t + 1))


def lemma_bound(n: int, alpha: float) -> float:
    """Probability (1 - alpha)^n that all n per-sample intervals hold at once."""
    if n < 0:
        raise InputError("n must be >= 0")
    check_alpha(alpha)
    return (1.0 - alpha) ** n


def trigger_accuracy(trigger_set, model: Model) -> float:
    """Indicator mean of the model matching the stored surprise labels."""
    if trigger_set.n == 0:
        raise InputError("trigger set is empty")
    if trigger_set.y_star.max() >= model.spec.num_classes:
        raise InputError(
            f"trigger set has surprise labels up to {trigger_set.y_star.max() + 1} "
            f"(1-based), beyond the model's {model.spec.num_classes} classes"
        )
    return float(np.mean(predict(model, trigger_set.xs) == trigger_set.y_star))


def ownership_verdict(
    trigger_acc: float, baseline_acc: float, p_hat: float
) -> tuple[Verdict, float]:
    """Midpoint decision rule between the independent baseline and p_hat."""
    for name, v in (("trigger_acc", trigger_acc), ("baseline_acc", baseline_acc), ("p_hat", p_hat)):
        if not (0.0 <= v <= 1.0):
            raise InputError(f"{name}={v} must be in [0, 1]")
    threshold = 0.5 * (baseline_acc + p_hat)
    # adjacent floats have no float between them, and their midpoint rounds onto one
    if not baseline_acc < threshold < p_hat:
        raise DegenerateRuleError(
            f"no threshold lies strictly between baseline {baseline_acc} and lower "
            f"bound {p_hat}: ball too loose or baseline too strong"
        )
    if trigger_acc >= threshold:
        return Verdict.STOLEN, threshold
    if trigger_acc <= baseline_acc:
        return Verdict.INDEPENDENT, threshold
    return Verdict.INCONCLUSIVE, threshold

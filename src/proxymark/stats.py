"""Exact binomial lower bounds, trigger accuracy, and the ownership verdict."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DegenerateRuleError, InputError
from .nn import Model, predict

_BISECT_TOL = 1e-10
ALPHA = 0.05  # the decision rule's default significance level


class Verdict(str, Enum):
    STOLEN = "stolen"
    INDEPENDENT = "independent"
    INCONCLUSIVE = "inconclusive"


def _binomial_tail(t: int, m: int, p: float) -> float:
    """P(Bin(m, p) >= t) for 0 < p < 1, which equals I_p(t, m - t + 1). Each
    term is taken in logs, so no binomial coefficient overflows at large m."""
    log_p, log_q, log_m = math.log(p), math.log1p(-p), math.lgamma(m + 1)
    return math.fsum(
        math.exp(log_m - math.lgamma(i + 1) - math.lgamma(m - i + 1) + i * log_p + (m - i) * log_q)
        for i in range(t, m + 1)
    )


def check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise InputError("alpha must be in (0, 1)")


def clopper_pearson_lower(t: int, m: int, alpha: float) -> float:
    """One-sided lower confidence bound: the alpha/2 quantile of Beta(t, m-t+1),
    the p at which P(Bin(m, p) >= t) = alpha/2, by bisection to abs tol 1e-10.
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
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _binomial_tail(t, m, mid) < alpha / 2.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < _BISECT_TOL:
            break
    return 0.5 * (lo + hi)


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

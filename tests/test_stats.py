"""Statistics: Clopper-Pearson bounds, the lemma bound, verdict rule, trigger accuracy."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import proxymark as pm
from proxymark.errors import DegenerateRuleError, InputError
from proxymark.stats import Verdict
from proxymark.watermark import TriggerSet


class TestClopperPearson:
    def test_matches_scipy_beta_ppf(self):
        for m in range(1, 31):
            for t in range(0, m + 1):
                ours = pm.clopper_pearson_lower(t, m, 0.05)
                ref = 0.0 if t == 0 else scipy.stats.beta.ppf(0.025, t, m - t + 1)
                assert ours == pytest.approx(ref, abs=1e-8), (t, m)

    @pytest.mark.parametrize("m", [64, 200, 1000, 2000])
    def test_matches_scipy_beta_ppf_at_large_m(self, m):
        # the binomial tail's terms are taken in logs: C(2000, 1000) is about 2e600,
        # past the float range, so a plain float sum of its terms fails at m = 2000
        for t in (1, m // 2, m - 1):
            ref = scipy.stats.beta.ppf(0.025, t, m - t + 1)
            assert pm.clopper_pearson_lower(t, m, 0.05) == pytest.approx(ref, abs=1e-8), (t, m)

    def test_closed_form_at_t_equals_m(self):
        # at t = m the bound reduces to (alpha/2) ** (1/m)
        for m in (1, 4, 16, 64):
            assert pm.clopper_pearson_lower(m, m, 0.05) == pytest.approx(
                (0.025) ** (1.0 / m), abs=1e-9
            )

    def test_reference_value_64_of_64(self):
        assert pm.clopper_pearson_lower(64, 64, 0.05) == pytest.approx(0.94399, abs=1e-5)

    def test_zero_successes(self):
        assert pm.clopper_pearson_lower(0, 20, 0.05) == 0.0

    @given(t=st.integers(0, 16), alpha=st.floats(0.01, 0.2))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t(self, t, alpha):
        m = 16
        if t < m:
            assert pm.clopper_pearson_lower(t, m, alpha) <= pm.clopper_pearson_lower(
                t + 1, m, alpha
            )

    def test_coverage_monte_carlo(self):
        # lower bound should sit below the true p at least 1 - alpha of the time
        m, alpha, draws = 64, 0.05, 10_000
        rng = np.random.default_rng(0)
        for p in (0.7, 0.9, 0.99):
            ts = rng.binomial(m, p, size=draws)
            bounds_by_t = np.array([pm.clopper_pearson_lower(t, m, alpha) for t in range(m + 1)])
            coverage = np.mean(bounds_by_t[ts] <= p)
            assert coverage >= 1 - alpha - 0.01, (p, coverage)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            pm.clopper_pearson_lower(-1, 10, 0.05)
        with pytest.raises(InputError):
            pm.clopper_pearson_lower(11, 10, 0.05)
        with pytest.raises(InputError):
            pm.clopper_pearson_lower(5, 10, 0.0)
        with pytest.raises(InputError):
            pm.clopper_pearson_lower(5, 0, 0.05)


class TestLemmaBound:
    def test_values(self):
        assert pm.lemma_bound(0, 0.05) == 1.0
        assert pm.lemma_bound(1, 0.05) == pytest.approx(0.95)
        assert pm.lemma_bound(100, 0.05) == pytest.approx(0.95**100)

    @given(n=st.integers(0, 200), alpha=st.floats(0.001, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_n(self, n, alpha):
        assert pm.lemma_bound(n + 1, alpha) <= pm.lemma_bound(n, alpha)

    def test_empirical_set_level_rate(self):
        # with per-sample success probability 1 - alpha, the all-n-hold rate
        # concentrates near (1 - alpha)^n
        n, alpha, runs = 10, 0.05, 2000
        rng = np.random.default_rng(42)
        hits = rng.random((runs, n)) < (1 - alpha)
        empirical = np.mean(hits.all(axis=1))
        expected = pm.lemma_bound(n, alpha)
        se = math.sqrt(expected * (1 - expected) / runs)
        assert abs(empirical - expected) < 5 * se


class TestOwnershipVerdict:
    def test_three_regions(self):
        verdict, thr = pm.ownership_verdict(0.9, 0.3, 0.8)
        assert verdict is Verdict.STOLEN
        assert thr == pytest.approx(0.55)
        assert pm.ownership_verdict(0.2, 0.3, 0.8)[0] is Verdict.INDEPENDENT
        assert pm.ownership_verdict(0.45, 0.3, 0.8)[0] is Verdict.INCONCLUSIVE

    def test_boundary_inclusive(self):
        assert pm.ownership_verdict(0.55, 0.3, 0.8)[0] is Verdict.STOLEN
        assert pm.ownership_verdict(0.3, 0.3, 0.8)[0] is Verdict.INDEPENDENT

    def test_degenerate_rule(self):
        with pytest.raises(DegenerateRuleError):
            pm.ownership_verdict(0.5, 0.9, 0.8)

    @pytest.mark.parametrize("b", [0.25, math.nextafter(0.25, 1.0)])
    def test_adjacent_floats_degenerate(self, b):
        # the midpoint of adjacent floats rounds onto the even one of the two,
        # which for b = 0.25 would call a model at the baseline stolen
        with pytest.raises(DegenerateRuleError):
            pm.ownership_verdict(b, b, math.nextafter(b, 1.0))

    @given(
        t=st.floats(0, 1),
        b=st.floats(0, 1),
        p=st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_on_valid_inputs(self, t, b, p):
        if b >= p or math.nextafter(b, p) == p:
            with pytest.raises(DegenerateRuleError):
                pm.ownership_verdict(t, b, p)
        else:
            verdict, thr = pm.ownership_verdict(t, b, p)
            assert verdict in (Verdict.STOLEN, Verdict.INDEPENDENT, Verdict.INCONCLUSIVE)
            assert b < thr < p


class TestTriggerAccuracy:
    def test_indicator_mean(self, trained_source):
        preds_match = pm.predict(trained_source, np.zeros(2))
        ys = [preds_match, (preds_match + 1) % 4]
        ts = TriggerSet(np.zeros((2, 2)), ys, [(0, 1), (0, 1)], [0.5, 0.5], "deadbeef")
        assert pm.trigger_accuracy(ts, trained_source) == pytest.approx(0.5)

    def test_empty_set_rejected(self, trained_source):
        empty = TriggerSet(np.zeros((0, 2)), [], [], [], "deadbeef")
        with pytest.raises(InputError):
            pm.trigger_accuracy(empty, trained_source)

    def test_label_beyond_model_classes_rejected(self, trained_source):
        ts = TriggerSet(np.zeros((1, 2)), [4], [(0, 1)], [0.5], "deadbeef")
        with pytest.raises(InputError, match="beyond the model's 4 classes"):
            pm.trigger_accuracy(ts, trained_source)

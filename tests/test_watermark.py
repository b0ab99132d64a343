"""Trigger candidates, proxy-ball sampling, verification, and serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

import proxymark as pm
from proxymark.errors import (
    BallTooTightError,
    InputError,
    InsufficientTransferabilityError,
    NoCandidateFoundError,
    TriggerSetFormatError,
)
from proxymark.nn import fingerprint
from proxymark.watermark import (
    LAMBDA_MARGIN,
    ProxyBall,
    TriggerSet,
    VerifyConfig,
    VerifyStats,
    _pair_draws,
    build_proxies,
    relative_delta,
)


@pytest.fixture(scope="module")
def pipeline():
    data = pm.make_blobs(4, 2, 40, 0.6, seed=7)
    train_data, holdout = pm.split(data, pm.SplitSpec(0.5, seed=3))
    spec = pm.ModelSpec(2, (16,), 4)
    source = pm.train(spec, train_data, pm.TrainConfig(epochs=60, seed=11))
    return data, train_data, holdout, source


class TestTriggerCandidate:
    def test_predicate_holds(self, pipeline):
        _, _, holdout, source = pipeline
        rng = np.random.default_rng(0)
        for _ in range(20):
            cand = pm.trigger_candidate(holdout, source, rng)
            assert cand.n == 1
            (a, b), lam, y_star, x_star = cand.parents[0], cand.lam[0], cand.y_star[0], cand.xs[0]
            ya, yb = int(holdout.labels[a]), int(holdout.labels[b])
            assert ya != yb
            assert y_star not in (ya, yb)
            assert pm.predict(source, x_star) == y_star
            assert LAMBDA_MARGIN < lam < 1 - LAMBDA_MARGIN
            mixed = lam * holdout.features[a] + (1 - lam) * holdout.features[b]
            np.testing.assert_array_equal(mixed, x_star)

    def test_exhaustion_raises(self, pipeline):
        # with only classes 0 and 1 present, a constant-0 model always predicts
        # a parent class, so the third-class predicate can never hold
        _, _, holdout, source = pipeline
        spec = source.spec
        constant = pm.Model(spec, np.zeros(spec.num_params))
        two_class = holdout.subset(np.flatnonzero(holdout.labels < 2))
        with pytest.raises(NoCandidateFoundError):
            pm.trigger_candidate(two_class, constant, np.random.default_rng(0), max_attempts=200)

    def test_single_class_holdout_rejected(self, pipeline):
        _, _, holdout, source = pipeline
        only = holdout.subset(np.flatnonzero(holdout.labels == 0))
        with pytest.raises(NoCandidateFoundError):
            pm.trigger_candidate(only, source, np.random.default_rng(0))

    def test_lambda_validation(self):
        for lam in (0.0, 1.0):
            with pytest.raises(InputError):
                TriggerSet(np.zeros((1, 2)), [0], [(0, 1)], [lam], "deadbeef")

    def test_non_pcg64_generator_rejected(self, pipeline):
        # the pair draws reproduce numpy's stream from raw PCG64 words only
        _, _, holdout, source = pipeline
        rng = np.random.Generator(np.random.Philox(0))
        with pytest.raises(InputError, match="PCG64"):
            pm.trigger_candidate(holdout, source, rng)


class IndexLabels:
    """Hold-out labels of a stand-in too large to store: computed from the index."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return int(i) % 3


def numpy_draws(labels, rng, k):
    """k pair draws made with numpy's own calls, one at a time."""
    draws = []
    for _ in range(k):
        a, b = rng.integers(0, len(labels), size=2)
        if labels[a] == labels[b]:
            draws.append(None)
        else:
            draws.append((int(a), int(b), float(rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN))))
    return draws


class TestPairDraws:
    """_pair_draws rebuilds numpy's integers/uniform stream from raw words."""

    @pytest.mark.parametrize("n", [2, 3, 300, 12345, 3 * 2**30])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("k", [1, 64])
    def test_matches_numpy_calls(self, n, buffered, k):
        if n < 2**20:
            labels = [i % 3 for i in range(n)]
        else:
            labels = IndexLabels(n)  # (2^32 - n) mod n = 2^30: a quarter of draws rejected
        for seed in range(4):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered:  # a 32-bit draw leaves the word's high half buffered
                for rng in (ours, theirs):
                    rng.integers(0, 2**32, dtype=np.uint32)
            assert ours.bit_generator.state["has_uint32"] == int(buffered)
            for _ in range(3):
                assert _pair_draws(labels, ours, k) == numpy_draws(labels, theirs, k)
                assert ours.bit_generator.state == theirs.bit_generator.state
            # what each generator draws next, through the 32-bit buffer and whole words
            assert np.array_equal(ours.integers(0, 2**32, size=3, dtype=np.uint32),
                                  theirs.integers(0, 2**32, size=3, dtype=np.uint32))
            assert ours.random(3).tolist() == theirs.random(3).tolist()


class TestProxyBall:
    def test_default_sigma_scales_with_delta(self, pipeline):
        _, _, _, source = pipeline
        ball = ProxyBall(source, delta=0.5)
        assert ball.sigma == pytest.approx(0.5 / np.sqrt(source.theta.size))

    def test_relative_delta(self, pipeline):
        _, _, _, source = pipeline
        assert relative_delta(source, 0.1) == pytest.approx(
            0.1 * np.linalg.norm(source.theta)
        )

    def test_membership_thousand_samples(self, pipeline):
        _, _, _, source = pipeline
        delta = relative_delta(source, 0.05)
        ball = ProxyBall(source, delta)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            proxy = pm.sample_proxy(ball, rng)
            dist = np.linalg.norm(proxy.theta - source.theta)
            assert dist <= delta * (1 + 1e-9)

    def test_tau_requires_reference(self, pipeline):
        _, _, _, source = pipeline
        with pytest.raises(InputError):
            ProxyBall(source, 0.5, tau=0.1)

    def test_tau_rejection_sampling(self, pipeline):
        data, _, _, source = pipeline
        # a generous gap always accepts on the first draw
        ball = ProxyBall(source, relative_delta(source, 0.01), tau=0.99, reference_data=data)
        proxy = pm.sample_proxy(ball, np.random.default_rng(0))
        assert abs(pm.accuracy(data, proxy) - pm.accuracy(data, source)) <= 0.99

    def test_tau_too_tight_raises(self, pipeline):
        data, _, _, source = pipeline
        # huge ball plus an (almost) zero tolerance forces rejection exhaustion
        ball = ProxyBall(
            source, relative_delta(source, 50.0), tau=1e-12, reference_data=data
        )
        with pytest.raises(BallTooTightError):
            pm.sample_proxy(ball, np.random.default_rng(0))

    def test_param_validation(self, pipeline):
        _, _, _, source = pipeline
        with pytest.raises(InputError):
            ProxyBall(source, -1.0)
        with pytest.raises(InputError):
            ProxyBall(source, 1.0, tau=0.0)
        with pytest.raises(InputError):
            ProxyBall(source, 1.0, sigma=-1.0)


class TestVerifyConfig:
    def test_default_max_candidates(self):
        cfg = VerifyConfig(m=8, n=10)
        assert cfg.max_candidates == 2000

    def test_validation(self):
        with pytest.raises(InputError):
            VerifyConfig(m=0)
        with pytest.raises(InputError):
            VerifyConfig(n=0)
        with pytest.raises(InputError):
            VerifyConfig(n=10, max_candidates=5)


class TestVerifyTriggerSet:
    def test_soundness_on_recheck(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=16, n=10, seed=21)
        ts = pm.verify_trigger_set(holdout, source, ball, cfg)
        assert ts.n == 10
        assert pm.recompute_and_check(ts, holdout, source)
        for p in build_proxies(ball, cfg):
            assert np.array_equal(pm.predict(p, ts.xs), ts.y_star)

    def test_acceptance_stats(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=16, n=10, seed=21))
        assert ts.stats.accepted == 10
        assert ts.stats.candidates_consumed >= 10
        assert 0.0 < ts.stats.acceptance_rate <= 1.0
        assert ts.source_fingerprint == fingerprint(source)

    def test_deterministic(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=8, n=6, seed=33)
        a = pm.verify_trigger_set(holdout, source, ball, cfg)
        b = pm.verify_trigger_set(holdout, source, ball, cfg)
        for field in ("xs", "y_star", "parents", "lam"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_acceptance_rate_non_increasing_in_m(self, pipeline):
        # the same candidate stream must pass a superset of proxies
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.3))
        rates = []
        for m in (1, 4, 16, 64):
            cfg = VerifyConfig(m=m, n=30, max_candidates=3000, seed=77)
            try:
                ts = pm.verify_trigger_set(holdout, source, ball, cfg)
                rates.append(ts.stats.acceptance_rate)
            except InsufficientTransferabilityError as err:
                rates.append(err.stats.acceptance_rate)
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 0.02

    def test_exhaustion_carries_partial_set(self, pipeline):
        _, _, holdout, source = pipeline
        # delta so large that proxies rarely agree
        ball = ProxyBall(source, relative_delta(source, 10.0))
        cfg = VerifyConfig(m=16, n=10, max_candidates=30, seed=5)
        with pytest.raises(InsufficientTransferabilityError) as err:
            pm.verify_trigger_set(holdout, source, ball, cfg)
        assert err.value.stats.candidates_consumed == 30
        assert err.value.partial_set.n < 10


class TestIntegrityVerification:
    def test_complement_always_disagrees(self, pipeline):
        _, train_data, holdout, source = pipeline
        complement = pm.train(
            source.spec, train_data.subset(range(0, train_data.n, 2)),
            pm.TrainConfig(epochs=60, seed=99),
        )
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=8, n=8, max_candidates=5000, seed=4)
        ts = pm.verify_trigger_set_integrity(holdout, source, ball, [complement], cfg)
        assert np.all(pm.predict(complement, ts.xs) != ts.y_star)
        assert pm.trigger_accuracy(ts, complement) == 0.0

    def test_rate_not_above_plain(self, pipeline):
        _, train_data, holdout, source = pipeline
        complement = pm.train(
            source.spec, train_data.subset(range(0, train_data.n, 2)),
            pm.TrainConfig(epochs=60, seed=99),
        )
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=8, n=8, max_candidates=5000, seed=4)
        plain = pm.verify_trigger_set(holdout, source, ball, cfg)
        strict = pm.verify_trigger_set_integrity(holdout, source, ball, [complement], cfg)
        assert strict.stats.acceptance_rate <= plain.stats.acceptance_rate

    def test_inside_ball_complement_rejected(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        near_copy = source.copy()
        with pytest.raises(InputError):
            pm.verify_trigger_set_integrity(
                holdout, source, ball, [near_copy], VerifyConfig(m=4, n=4, seed=0)
            )

    def test_different_architecture_counts_as_outside(self, pipeline):
        _, train_data, holdout, source = pipeline
        other = pm.train(
            pm.ModelSpec(2, (8,), 4), train_data, pm.TrainConfig(epochs=40, seed=1)
        )
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set_integrity(
            holdout, source, ball, [other], VerifyConfig(m=4, n=4, max_candidates=5000, seed=0)
        )
        assert ts.n == 4

    def test_empty_complements_rejected(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        with pytest.raises(InputError):
            pm.verify_trigger_set_integrity(holdout, source, ball, [], VerifyConfig())


class TestSerialization:
    def test_round_trip_bitwise(self, pipeline, tmp_path):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=8, n=6, seed=2))
        path = tmp_path / "trigger_set.json"
        pm.save_trigger_set(ts, path)
        loaded = pm.load_trigger_set(path)
        assert loaded.n == ts.n
        assert loaded.source_fingerprint == ts.source_fingerprint
        assert loaded.seed == ts.seed
        assert loaded.ball_params["m"] == 8
        for field in ("xs", "y_star", "parents", "lam"):
            assert np.array_equal(getattr(ts, field), getattr(loaded, field))

    def test_reloaded_samples_pass_audit(self, pipeline, tmp_path):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=8, n=6, seed=2))
        path = tmp_path / "trigger_set.json"
        pm.save_trigger_set(ts, path)
        assert pm.recompute_and_check(pm.load_trigger_set(path), holdout, source)

    def test_y_star_one_based_on_disk(self, pipeline, tmp_path):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=4, n=4, seed=2))
        path = tmp_path / "trigger_set.json"
        pm.save_trigger_set(ts, path)
        manifest = json.loads(path.read_text())
        for rec, y in zip(manifest["samples"], ts.y_star):
            assert rec["y_star"] == y + 1
            assert 1 <= rec["y_star"] <= 4

    def test_version_check(self, pipeline, tmp_path):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=4, n=4, seed=2))
        path = tmp_path / "trigger_set.json"
        pm.save_trigger_set(ts, path)
        manifest = json.loads(path.read_text())
        manifest["version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(InputError):
            pm.load_trigger_set(path)


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda man: man.update(n=man["n"] - 1), "bytes"),
            (lambda man: man["samples"].pop(), "sample records"),
            (lambda man: man.update(blob="../trigger_set.bin"), "bare file name"),
            (lambda man: man.update(blob="/tmp/trigger_set.bin"), "bare file name"),
            (lambda man: man.update(blob="missing.bin"), "cannot read blob"),
            (lambda man: [man], "not a JSON object"),
            (lambda man: man["samples"][1].update(y_star=0), "below 1"),
            (lambda man: man.update(seeds=[]), "must be JSON objects"),
            (lambda man: man.update(ball=[]), "must be JSON objects"),
            (lambda man: man["samples"][1].update(y_star=2.5), "must be integers"),
            (lambda man: man["samples"][1].update(parent_a="7"), "must be integers"),
            (lambda man: man.update(n=str(man["n"])), "must be integers"),
            (lambda man: man["samples"][1].update(parent_b=2**70), "must be integers"),
        ]
        + [
            (lambda man, key=key: man["samples"][1].pop(key), f"KeyError: '{key}'")
            for key in ("parent_a", "parent_b", "lambda", "y_star")
        ],
    )
    def test_malformed_manifest_rejected(self, pipeline, tmp_path, edit, message):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=4, n=4, seed=2))
        path = tmp_path / "trigger_set.json"
        pm.save_trigger_set(ts, path)
        manifest = json.loads(path.read_text())
        replaced = edit(manifest)  # a list edit replaces the manifest
        path.write_text(json.dumps(replaced if isinstance(replaced, list) else manifest))
        with pytest.raises(TriggerSetFormatError, match=message):
            pm.load_trigger_set(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "trigger_set.json"
        path.write_text('{"version": 1, "n": ')
        with pytest.raises(TriggerSetFormatError, match="not a JSON manifest"):
            pm.load_trigger_set(path)


class TestRecomputeAndCheck:
    def test_detects_tampered_sample(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=4, n=4, seed=8))
        xs = ts.xs.copy()
        xs[2] += 1e-6
        assert pm.recompute_and_check(ts, holdout, source)
        assert not pm.recompute_and_check(replace(ts, xs=xs), holdout, source)

    def test_parent_bounds(self, pipeline):
        _, _, holdout, source = pipeline
        bad = TriggerSet(np.zeros((1, 2)), [0], [(holdout.n, 0)], [0.5], "deadbeef")
        with pytest.raises(InputError):
            pm.recompute_and_check(bad, holdout, source)


def reference_collect(holdout, source, proxies, cfg, complements=()):
    """The per-candidate loop the block engine replaces: one pair draw at a
    time and single-row predict for the source, every proxy and every
    complement. Returns (x*, y*, parents, lam) rows and the VerifyStats."""
    rng = np.random.default_rng([cfg.seed, 2])
    feats, labels = holdout.features, holdout.labels
    rows, stats = [], VerifyStats()
    cap = 10 * cfg.max_candidates
    while len(rows) < cfg.n and stats.candidates_consumed < cfg.max_candidates:
        for _ in range(cap):
            i, j = rng.integers(0, holdout.n, size=2)
            if labels[i] == labels[j]:
                continue
            lam = float(rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN))
            x = lam * feats[i] + (1.0 - lam) * feats[j]
            y = pm.predict(source, x)
            if y not in (labels[i], labels[j]):
                break
        else:
            raise NoCandidateFoundError(f"no third-class mixture found in {cap} pair draws")
        stats.candidates_consumed += 1
        if all(pm.predict(p, x) == y for p in proxies) and not any(
            pm.predict(c, x) == y for c in complements
        ):
            rows.append((x, y, (int(i), int(j)), lam))
            stats.accepted += 1
    return rows, stats


def assert_same_set(ts, rows, stats):
    assert ts.stats == stats
    assert ts.n == len(rows)
    if rows:
        xs, ys, parents, lams = (np.array(col) for col in zip(*rows))
        assert np.array_equal(ts.xs, xs)
        assert np.array_equal(ts.y_star, ys)
        assert np.array_equal(ts.parents, parents)
        assert np.array_equal(ts.lam, lams)


def assert_scores_one(ts, source, proxies):
    for model in (source, *proxies):
        assert pm.trigger_accuracy(ts, model) == 1.0


class TestEngineEquivalence:
    """The block engine gives the per-candidate loop's sets bit for bit."""

    @pytest.mark.parametrize(
        "frac, m, n, seed",
        [(0.05, 1, 5, 0), (0.05, 8, 6, 33), (0.05, 16, 10, 21), (0.3, 64, 30, 77),
         (0.3, 16, 40, 5)],
    )
    def test_plain_build(self, pipeline, frac, m, n, seed):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, frac))
        cfg = VerifyConfig(m=m, n=n, max_candidates=5000, seed=seed)
        proxies = build_proxies(ball, cfg)
        ts = pm.verify_trigger_set(holdout, source, ball, cfg)
        assert_same_set(ts, *reference_collect(holdout, source, proxies, cfg))
        assert_scores_one(ts, source, proxies)

    def test_integrity_build(self, pipeline):
        _, train_data, holdout, source = pipeline
        complement = pm.train(
            source.spec, train_data.subset(range(0, train_data.n, 2)),
            pm.TrainConfig(epochs=60, seed=99),
        )
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=8, n=8, max_candidates=5000, seed=4)
        proxies = build_proxies(ball, cfg)
        ts = pm.verify_trigger_set_integrity(holdout, source, ball, [complement], cfg)
        assert_same_set(ts, *reference_collect(holdout, source, proxies, cfg, [complement]))
        assert_scores_one(ts, source, proxies)

    def test_exhausted_build(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.5))
        cfg = VerifyConfig(m=16, n=10, max_candidates=30, seed=2)
        proxies = build_proxies(ball, cfg)
        with pytest.raises(InsufficientTransferabilityError) as err:
            pm.verify_trigger_set(holdout, source, ball, cfg)
        partial = err.value.partial_set
        assert 0 < partial.n < cfg.n
        assert partial.stats.candidates_consumed == cfg.max_candidates
        assert_same_set(partial, *reference_collect(holdout, source, proxies, cfg))
        assert_scores_one(partial, source, proxies)

    def test_draw_cap(self, pipeline):
        # max_candidates=2 caps each search at 20 pair draws, so some seeds run
        # dry mid-build; both loops must stop on the same seeds
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        capped = []
        for seed in range(40):
            cfg = VerifyConfig(m=4, n=2, max_candidates=2, seed=seed)
            try:
                expected = reference_collect(holdout, source, build_proxies(ball, cfg), cfg)
            except NoCandidateFoundError as err:
                expected = str(err)
            try:
                ts = pm.verify_trigger_set(holdout, source, ball, cfg)
            except NoCandidateFoundError as err:
                ts = str(err)
            except InsufficientTransferabilityError as err:
                ts = err.partial_set
            if isinstance(expected, str):
                assert ts == expected
                capped.append(seed)
            else:
                assert_same_set(ts, *expected)
        assert 0 < len(capped) < 40

"""Trigger candidates, proxy-ball sampling, verification, and serialization."""

import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

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
from proxymark import watermark
from proxymark.nn import fingerprint, stacked_forward
from proxymark.watermark import (
    LAMBDA_MARGIN,
    ProxyBall,
    TriggerSet,
    VerifyConfig,
    VerifyStats,
    _DRAW_BLOCK,
    build_proxies,
    relative_delta,
)


def proxy_models(ball, cfg):
    """The rows of build_proxies' block, each wrapped as a Model."""
    return [pm.Model(ball.source.spec, theta) for theta in build_proxies(ball, cfg)]


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

    def test_any_generator(self, pipeline):
        # the draws are plain numpy calls, so any bit generator will do
        _, _, holdout, source = pipeline
        cand = pm.trigger_candidate(holdout, source, np.random.Generator(np.random.Philox(0)))
        (a, b), y_star = cand.parents[0], cand.y_star[0]
        assert holdout.labels[a] != holdout.labels[b]
        assert y_star not in (holdout.labels[a], holdout.labels[b])
        assert pm.predict(source, cand.xs[0]) == y_star


class IndexLabels:
    """Labels i % 3 of a hold-out of n rows, computed when indexed, so that a
    hold-out too large to hold in memory can still be drawn from."""

    def __init__(self, n):
        self.n = n

    def __getitem__(self, index):
        return np.asarray(index) % 3

    def __array_function__(self, func, types, args, kwargs):
        if func is np.unique:  # the classes present
            return np.arange(min(self.n, 3))
        return NotImplemented


def index_holdout(n):
    """A 2-d hold-out of n rows with labels i % 3 and four classes."""
    if n < 2**20:
        return pm.Dataset(np.zeros((n, 2)), np.arange(n) % 3, 4)
    return SimpleNamespace(n=n, num_classes=4, labels=IndexLabels(n),
                           features=np.broadcast_to(np.zeros(2), (n, 2)))


def numpy_draws(holdout, rng, k):
    """k candidates drawn with numpy's own calls: a pair from integers(0, n,
    size=2) until its classes differ, then a weight from uniform."""
    draws = []
    for _ in range(k):
        pair = rng.integers(0, holdout.n, size=2)
        while holdout.labels[pair[0]] == holdout.labels[pair[1]]:
            pair = rng.integers(0, holdout.n, size=2)
        draws.append((pair.tolist(), rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN)))
    return draws


class TestPairDraws:
    """trigger_candidate draws from a caller's generator exactly as numpy's
    integers/uniform calls do, whatever the hold-out size and the generator's
    buffered 32-bit half, and leaves it where those calls leave it."""

    @pytest.mark.parametrize("n", [2, 3, 300, 12345, 3 * 2**30])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("k", [1, 64])
    def test_matches_numpy_calls(self, n, buffered, k):
        holdout = index_holdout(n)
        spec = pm.ModelSpec(2, (4,), 4)
        theta = np.zeros(spec.num_params)
        theta[-1] = 1.0  # output bias of class 3: every pair of two classes is a candidate
        always_3 = pm.Model(spec, theta)
        for seed in range(4):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered:  # a 32-bit draw leaves the word's high half buffered
                for rng in (ours, theirs):
                    rng.integers(0, 2**32, dtype=np.uint32)
            assert ours.bit_generator.state["has_uint32"] == int(buffered)
            for _ in range(3):  # k successive candidates from one generator
                cands = [pm.trigger_candidate(holdout, always_3, ours) for _ in range(k)]
                assert [(c.parents[0].tolist(), c.lam[0]) for c in cands] == numpy_draws(
                    holdout, theirs, k
                )
                assert all(c.y_star[0] == 3 for c in cands)
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

    @pytest.mark.parametrize("tau", [1.0, 0.99])
    def test_build_proxies_rows_are_sample_proxy_draws(self, pipeline, tau):
        # row i of the block is sample_proxy's draw on seed [seed, 1, i], also
        # through the accuracy-gap rejection path
        data, _, _, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05), tau=tau, reference_data=data)
        cfg = VerifyConfig(m=5, n=1, seed=13)
        thetas = build_proxies(ball, cfg)
        assert thetas.shape == (cfg.m, source.spec.num_params)
        for i, row in enumerate(thetas):
            proxy = pm.sample_proxy(ball, np.random.default_rng([cfg.seed, 1, i]))
            assert row.tobytes() == proxy.theta.tobytes()

    def test_non_finite_proxy_block_rejected(self, pipeline):
        # noise drawn at sigma=1e308 overflows to inf, and clipping it to the
        # ball scales inf by 0
        _, _, _, source = pipeline
        ball = ProxyBall(source, 1.0, sigma=1e308)
        with np.errstate(all="ignore"), pytest.raises(InputError, match="non-finite"):
            build_proxies(ball, VerifyConfig(m=2, n=1))

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
        for p in proxy_models(ball, cfg):
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
                rates.append(err.partial_set.stats.acceptance_rate)
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 0.02

    def test_exhaustion_carries_partial_set(self, pipeline):
        _, _, holdout, source = pipeline
        # delta so large that proxies rarely agree
        ball = ProxyBall(source, relative_delta(source, 10.0))
        cfg = VerifyConfig(m=16, n=10, max_candidates=30, seed=5)
        with pytest.raises(InsufficientTransferabilityError) as err:
            pm.verify_trigger_set(holdout, source, ball, cfg)
        assert err.value.partial_set.stats.candidates_consumed == 30
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
        ts = pm.verify_trigger_set(holdout, source, ball, cfg, [complement])
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
        strict = pm.verify_trigger_set(holdout, source, ball, cfg, [complement])
        assert strict.stats.acceptance_rate <= plain.stats.acceptance_rate

    @staticmethod
    def _shortfall(pipeline, delta):
        # count the funnel of the per-candidate loop: pair draws through the
        # last candidate consumed, candidates, and who vetoed each rejection;
        # return it with the message of the integrity build that falls short
        _, train_data, holdout, source = pipeline
        complement = pm.train(
            source.spec, train_data.subset(range(0, train_data.n, 2)),
            pm.TrainConfig(epochs=60, seed=99),
        )
        ball = ProxyBall(source, relative_delta(source, delta))
        cfg = VerifyConfig(m=8, n=20, max_candidates=40, seed=4)
        proxies = proxy_models(ball, cfg)
        feats, labels = holdout.features, holdout.labels
        funnel = {"draws": 0, "candidates": 0, "accepted": 0, "proxy": 0, "complement": 0}
        for (i, j), lam in block_draws(np.random.default_rng([cfg.seed, 2]), holdout.n):
            funnel["draws"] += 1
            x = lam * feats[i] + (1.0 - lam) * feats[j]
            y = pm.predict(source, x)
            if labels[i] == labels[j] or y in (labels[i], labels[j]):
                continue
            funnel["candidates"] += 1
            if not all(pm.predict(p, x) == y for p in proxies):
                funnel["proxy"] += 1
            elif pm.predict(complement, x) == y:
                funnel["complement"] += 1
            else:
                funnel["accepted"] += 1
            if funnel["candidates"] == cfg.max_candidates:
                break
        assert funnel["accepted"] < cfg.n and funnel["proxy"] and funnel["complement"]
        with pytest.raises(InsufficientTransferabilityError) as err:
            pm.verify_trigger_set(holdout, source, ball, cfg, [complement])
        assert str(err.value).startswith(
            f"accepted only {funnel['accepted']} of {cfg.n}: {funnel['draws']} pair draws "
            f"gave {funnel['candidates']} candidates, of which proxies vetoed "
            f"{funnel['proxy']} and complements {funnel['complement']};"
        )
        return funnel, str(err.value)

    def test_shortfall_message_states_funnel(self, pipeline):
        # a wide ball: the proxies veto more than the complement
        funnel, message = self._shortfall(pipeline, 0.3)
        assert funnel["proxy"] > funnel["complement"]
        assert message.endswith("; the ball is likely mis-sized")

    def test_shortfall_hint_names_complements(self, pipeline):
        # a tight ball: the complement, trained on half the source's data,
        # vetoes more than the proxies, and the hint names it
        funnel, message = self._shortfall(pipeline, 0.05)
        assert funnel["complement"] > funnel["proxy"]
        assert message.endswith("; the complements are likely too close to the source")

    def test_inside_ball_complement_rejected(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        near_copy = source.copy()
        with pytest.raises(InputError):
            pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=4, n=4, seed=0), [near_copy])

    def test_different_architecture_counts_as_outside(self, pipeline):
        _, train_data, holdout, source = pipeline
        other = pm.train(
            pm.ModelSpec(2, (8,), 4), train_data, pm.TrainConfig(epochs=40, seed=1)
        )
        ball = ProxyBall(source, relative_delta(source, 0.05))
        ts = pm.verify_trigger_set(
            holdout, source, ball, VerifyConfig(m=4, n=4, max_candidates=5000, seed=0), [other]
        )
        assert ts.n == 4
        assert ts.ball_params == ball.params() | {"m": 4, "complements": 1}

    def test_empty_complements_equal_plain(self, pipeline):
        # no complements is the plain build: the same arrays, the same manifest
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=8, n=8, max_candidates=5000, seed=4)
        plain = pm.verify_trigger_set(holdout, source, ball, cfg)
        empty = pm.verify_trigger_set(holdout, source, ball, cfg, complements=[])
        for a, b in ((plain.xs, empty.xs), (plain.y_star, empty.y_star),
                     (plain.parents, empty.parents), (plain.lam, empty.lam)):
            assert np.array_equal(a, b)
        assert empty.ball_params == plain.ball_params == ball.params() | {"m": 8}
        assert empty.stats == plain.stats


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
            (lambda man: man["samples"][1].update(parent_a=-7), "parent index below 0"),
            (lambda man: man.update(seeds=[]), "must be JSON objects"),
            (lambda man: man.update(ball=[]), "must be JSON objects"),
            (lambda man: man["samples"][1].update(y_star=2.5), "must be integers"),
            (lambda man: man["samples"][1].update(parent_a="7"), "must be integers"),
            (lambda man: man.update(n=str(man["n"])), "must be integers"),
            (lambda man: man["samples"][1].update(parent_b=2**70), "must be integers"),
            (lambda man: man.update(n=0, dim=-5, samples=[]), "must be >= 0"),
            (lambda man: man.update(n=-1), "must be >= 0"),
            (lambda man: man["ball"].update(m=None), "ball.m must be a positive integer"),
            (lambda man: man["ball"].update(m=[16]), "ball.m must be a positive integer"),
            (lambda man: man["ball"].update(m=2.5), "ball.m must be a positive integer"),
            (lambda man: man["ball"].update(m=True), "ball.m must be a positive integer"),
            (lambda man: man["ball"].update(m=0), "ball.m must be a positive integer"),
            (lambda man: man["ball"].pop("m"), "ball.m must be a positive integer, not missing"),
            (lambda man: man["samples"][1].update({"lambda": "0"}), "lambda must be in \\(0, 1\\)"),
            (lambda man: man["samples"][1].update({"lambda": "1.5"}), "lambda must be in \\(0, 1\\)"),
            (lambda man: man["samples"][1].update({"lambda": "nan"}), "lambda must be in \\(0, 1\\)"),
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
        with pytest.raises(TriggerSetFormatError, match=message) as err:
            pm.load_trigger_set(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "trigger_set.json"
        path.write_text('{"version": 1, "n": ')
        with pytest.raises(TriggerSetFormatError, match="not a JSON manifest"):
            pm.load_trigger_set(path)


def reference_manifest(ts, blob_name):
    """The manifest as a dict of sample-record dicts, which save_trigger_set's
    text must equal as json.dumps(..., indent=2) lays it out."""
    return {
        "version": watermark.TRIGGER_FILE_VERSION,
        "n": ts.n,
        "dim": int(ts.xs.shape[1]) if ts.n else 0,
        "source_fingerprint": ts.source_fingerprint,
        "seeds": {"verify_seed": ts.seed},
        "ball": ts.ball_params,
        "blob": blob_name,
        "samples": [
            {"parent_a": a, "parent_b": b, "lambda": f"{lam:.17g}", "y_star": y + 1}
            for (a, b), lam, y in zip(ts.parents.tolist(), ts.lam.tolist(), ts.y_star.tolist())
        ],
    }


class TestManifestWriter:
    # the margins, and lambdas whose .17g form has an exponent
    LAMBDAS = [LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN, 3.0000000000000001e-05, 9.9999999999999995e-08, 1e-300]
    BALLS = {
        "plain": {"delta": 0.25, "tau": 1.0, "sigma": 0.0125, "m": 8},
        "alpha": {"delta": 0.25, "tau": 1.0, "sigma": 0.0125, "m": 8, "alpha": 0.05},
        "complements": {"delta": 1e-17, "tau": 0.5, "sigma": 3.5e-20, "m": 64, "complements": 2, "alpha": 0.01},
    }

    @pytest.mark.parametrize("ball", list(BALLS))
    @pytest.mark.parametrize("n", [0, 1, 10, 200])
    def test_text_equals_json_dumps(self, tmp_path, n, ball):
        rng = np.random.default_rng(n)
        lam = np.concatenate([self.LAMBDAS, rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN, n)])[:n]
        ts = TriggerSet(rng.normal(size=(n, 3)), rng.integers(0, 12, n), rng.integers(0, 10**6, (n, 2)), lam,
                        "ab" * 32, ball_params=dict(self.BALLS[ball]), seed=None if n == 1 else 7 * n)
        path = tmp_path / "set.json"
        pm.save_trigger_set(ts, path)
        assert path.read_text() == json.dumps(reference_manifest(ts, "set.bin"), indent=2) + "\n"
        loaded = pm.load_trigger_set(path)
        assert (loaded.source_fingerprint, loaded.seed, loaded.ball_params) == (
            ts.source_fingerprint, ts.seed, ts.ball_params)
        for field in ("xs", "y_star", "parents", "lam"):
            assert getattr(loaded, field).tobytes() == getattr(ts, field).tobytes()

    def test_save_over_existing_files_writes_new_ones(self, pipeline, tmp_path):
        _, _, holdout, source = pipeline
        ts = pm.verify_trigger_set(holdout, source, ProxyBall(source, relative_delta(source, 0.05)),
                                   VerifyConfig(m=4, n=4, seed=2))
        path = tmp_path / "trigger_set.json"
        pm.save_trigger_set(ts, path)
        files = (path, path.with_suffix(".bin"))
        first = [(f.read_bytes(), f.stat().st_ino) for f in files]
        for f in files:  # the old files live on under second names, so their inodes stay taken
            f.with_name("kept_" + f.name).hardlink_to(f)
        pm.save_trigger_set(ts, path)
        for f, (data, inode) in zip(files, first):
            assert f.stat().st_ino != inode
            assert f.read_bytes() == data == f.with_name("kept_" + f.name).read_bytes()


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


def block_draws(rng, n):
    """The engine's draw stream, one (parents, lam) draw at a time: blocks of
    _DRAW_BLOCK pairs from one integers call, then as many weights from one
    uniform call."""
    while True:
        pairs = rng.integers(0, n, size=(_DRAW_BLOCK, 2))
        lams = rng.uniform(LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN, size=_DRAW_BLOCK)
        yield from zip(pairs.tolist(), lams.tolist())


def reference_collect(holdout, source, proxies, cfg, complements=()):
    """The per-candidate loop the block engine replaces: one pair draw at a
    time and single-row predict for the source, every proxy and every
    complement. Returns (x*, y*, parents, lam) rows and the VerifyStats."""
    draws = block_draws(np.random.default_rng([cfg.seed, 2]), holdout.n)
    feats, labels = holdout.features, holdout.labels
    rows, stats = [], VerifyStats()
    cap = 10 * cfg.max_candidates
    while len(rows) < cfg.n and stats.candidates_consumed < cfg.max_candidates:
        for _ in range(cap):
            (i, j), lam = next(draws)
            if labels[i] == labels[j]:
                continue
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


def build_outcome(holdout, source, ball, cfg):
    """A build's set, or its partial set and message when it falls short, or
    the message of a build that runs dry."""
    try:
        return pm.verify_trigger_set(holdout, source, ball, cfg), None
    except InsufficientTransferabilityError as err:
        return err.partial_set, str(err)
    except NoCandidateFoundError as err:
        return None, str(err)


def spy_proxy_passes(monkeypatch):
    """The candidate count of every stacked proxy pass the engine makes."""
    rows = []

    def spy(spec, thetas, x):
        rows.append(len(x))
        return stacked_forward(spec, thetas, x)

    monkeypatch.setattr(watermark, "stacked_forward", spy)
    return rows


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
        proxies = proxy_models(ball, cfg)
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
        proxies = proxy_models(ball, cfg)
        ts = pm.verify_trigger_set(holdout, source, ball, cfg, [complement])
        assert_same_set(ts, *reference_collect(holdout, source, proxies, cfg, [complement]))
        assert_scores_one(ts, source, proxies)

    def test_no_third_class_raises(self, pipeline):
        # a constant-0 model on classes 0 and 1 always names a parent class
        _, _, holdout, source = pipeline
        constant = pm.Model(source.spec, np.zeros(source.spec.num_params))
        two_class = holdout.subset(np.flatnonzero(holdout.labels < 2))
        cfg = VerifyConfig(m=2, n=2, max_candidates=10)
        with pytest.raises(NoCandidateFoundError, match="found in 100 pair draws"):
            pm.verify_trigger_set(two_class, constant, ProxyBall(constant, 0.0), cfg)

    def test_exhausted_build(self, pipeline):
        _, _, holdout, source = pipeline
        ball = ProxyBall(source, relative_delta(source, 0.5))
        cfg = VerifyConfig(m=16, n=10, max_candidates=30, seed=2)
        proxies = proxy_models(ball, cfg)
        with pytest.raises(InsufficientTransferabilityError) as err:
            pm.verify_trigger_set(holdout, source, ball, cfg)
        partial = err.value.partial_set
        assert 0 < partial.n < cfg.n
        assert partial.stats.candidates_consumed == cfg.max_candidates
        assert_same_set(partial, *reference_collect(holdout, source, proxies, cfg))
        assert_scores_one(partial, source, proxies)

    def test_source_labels_only_different_class_draws(self, pipeline, monkeypatch):
        # the source is asked about a window's different-class mixtures, in
        # draw order, and about nothing else
        _, _, holdout, source = pipeline
        monkeypatch.setattr(watermark, "_PASS_ROWS", 128)
        labelled = []

        def spy(model, x):
            labelled.append(np.array(x))
            return pm.predict(model, x)

        monkeypatch.setattr(watermark, "predict", spy)
        ball = ProxyBall(source, relative_delta(source, 0.05))
        pm.verify_trigger_set(holdout, source, ball, VerifyConfig(m=4, n=20, seed=21))
        assert len(labelled) > 1
        feats, labels = holdout.features, holdout.labels
        draws = itertools.islice(block_draws(np.random.default_rng([21, 2]), holdout.n),
                                 128 * len(labelled))
        expected = [lam * feats[i] + (1.0 - lam) * feats[j]
                    for (i, j), lam in draws if labels[i] != labels[j]]
        assert np.array_equal(np.concatenate(labelled), expected)

    def test_same_class_pairs_never_candidates(self, pipeline):
        # a model that always says class 3 gives every mixture of classes 0-2 a
        # third class, same-class pairs included; only the engine's class mask
        # keeps those out
        _, _, holdout, source = pipeline
        theta = np.zeros(source.spec.num_params)
        theta[-1] = 1.0  # output bias of class 3
        constant = pm.Model(source.spec, theta)
        three_class = holdout.subset(np.flatnonzero(holdout.labels < 3))
        ball = ProxyBall(constant, relative_delta(constant, 0.05))
        cfg = VerifyConfig(m=4, n=30, seed=6)
        proxies = proxy_models(ball, cfg)
        ts = pm.verify_trigger_set(three_class, constant, ball, cfg)
        assert_same_set(ts, *reference_collect(three_class, constant, proxies, cfg))
        assert ts.stats.candidates_consumed == 30

    @pytest.mark.parametrize("seed, misses", [(518, 99), (1, 100)])
    def test_draw_cap_boundary(self, pipeline, seed, misses):
        # max_candidates=10 caps a search at 100 pair draws. These seeds draw
        # their first candidate after exactly 99 and 100 misses, a run that
        # crosses a block boundary: the first seed builds, the second runs dry
        _, _, holdout, source = pipeline
        feats, labels = holdout.features, holdout.labels
        for k, ((i, j), lam) in enumerate(block_draws(np.random.default_rng([seed, 2]), holdout.n)):
            y = pm.predict(source, lam * feats[i] + (1.0 - lam) * feats[j])
            if labels[i] != labels[j] and y not in (labels[i], labels[j]):
                break
        assert k == misses
        ball = ProxyBall(source, relative_delta(source, 0.05))
        cfg = VerifyConfig(m=1, n=1, max_candidates=10, seed=seed)
        if misses < 100:
            ts = pm.verify_trigger_set(holdout, source, ball, cfg)
            assert_same_set(ts, *reference_collect(holdout, source, proxy_models(ball, cfg), cfg))
        else:
            with pytest.raises(NoCandidateFoundError, match="found in 100 pair draws"):
                pm.verify_trigger_set(holdout, source, ball, cfg)

    def test_draw_cap(self, pipeline):
        # about 1 draw in 37 is a candidate here. max_candidates=2 caps each
        # search at 20 pair draws and max_candidates=10 at 100, more than a
        # block, so a run of misses carries over from block to block. Under the
        # wider ball some builds spend their budget before n are accepted. Some
        # seeds run dry mid-build, and both loops must stop on the same seeds
        _, _, holdout, source = pipeline
        for frac, max_candidates in ((0.05, 2), (0.05, 10), (0.5, 2)):
            ball = ProxyBall(source, relative_delta(source, frac))
            capped = []
            for seed in range(40):
                cfg = VerifyConfig(m=4, n=2, max_candidates=max_candidates, seed=seed)
                try:
                    expected = reference_collect(holdout, source, proxy_models(ball, cfg), cfg)
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
            assert 0 < len(capped) < 40, max_candidates

    @pytest.mark.parametrize("budget", [64, 128, 4096])
    def test_pass_budget_invariance(self, pipeline, monkeypatch, budget):
        # the pass-row budget sets how far a build draws and judges ahead, not
        # what it consumes: sets, stats and messages stay the same
        _, _, holdout, source = pipeline
        builds = [(ProxyBall(source, relative_delta(source, frac)), cfg) for frac, cfg in (
            (0.3, VerifyConfig(m=64, n=30, max_candidates=5000, seed=77)),
            (0.05, VerifyConfig(m=16, n=40, max_candidates=5000, seed=5)),
            (0.5, VerifyConfig(m=16, n=10, max_candidates=30, seed=2)),
        )]
        expected = [build_outcome(holdout, source, ball, cfg) for ball, cfg in builds]
        monkeypatch.setattr(watermark, "_PASS_ROWS", budget)
        for (ball, cfg), (want, message) in zip(builds, expected):
            got, got_message = build_outcome(holdout, source, ball, cfg)
            assert got_message == message
            assert_same_set(got, [*zip(want.xs, want.y_star, want.parents, want.lam)], want.stats)
        assert expected[2][1] is not None  # the last build falls short

    def test_m_above_budget(self, pipeline, monkeypatch):
        # more proxies than the budget has rows: each proxy pass holds one candidate
        _, _, holdout, source = pipeline
        monkeypatch.setattr(watermark, "_PASS_ROWS", 8)
        rows = spy_proxy_passes(monkeypatch)
        ball = ProxyBall(source, relative_delta(source, 0.3))
        cfg = VerifyConfig(m=16, n=10, max_candidates=5000, seed=21)
        ts = pm.verify_trigger_set(holdout, source, ball, cfg)
        assert set(rows) == {1}
        assert_same_set(ts, *reference_collect(holdout, source, proxy_models(ball, cfg), cfg))

    @pytest.mark.parametrize("frac, n, max_candidates", [(0.05, 5, 5000), (0.5, 10, 30)])
    def test_stop_inside_proxy_pass(self, pipeline, monkeypatch, frac, n, max_candidates):
        # two proxies give passes of 256 candidates, so a window's candidates
        # share one pass, and the build reaches n (or spends max_candidates)
        # with candidates of that pass still unconsumed
        _, _, holdout, source = pipeline
        rows = spy_proxy_passes(monkeypatch)
        ball = ProxyBall(source, relative_delta(source, frac))
        cfg = VerifyConfig(m=2, n=n, max_candidates=max_candidates, seed=3)
        ts, message = build_outcome(holdout, source, ball, cfg)
        assert sum(rows) > ts.stats.candidates_consumed
        assert (ts.n == n) == (message is None)
        if message is not None:
            assert ts.stats.candidates_consumed == max_candidates
        assert_same_set(ts, *reference_collect(holdout, source, proxy_models(ball, cfg), cfg))

    def test_draw_cap_beyond_window(self, pipeline):
        # a class-3 model on 40 class-3 rows and one row each of classes 0 and
        # 1: only the (0, 1) pairs are candidates, 1 draw in 882. max_candidates
        # is the smallest whose cap of 10 * max_candidates pair draws is longer
        # than a window (1030 draws at 1024 pass rows), so runs of misses cross
        # windows and some searches run dry
        _, _, holdout, source = pipeline
        theta = np.zeros(source.spec.num_params)
        theta[-1] = 1.0  # output bias of class 3
        constant = pm.Model(source.spec, theta)
        rare = pm.Dataset(holdout.features[:42], [0, 1] + [3] * 40, 4)
        ball = ProxyBall(constant, relative_delta(constant, 0.05))
        capped = []
        for seed in range(20):
            cfg = VerifyConfig(m=4, n=2, max_candidates=watermark._PASS_ROWS // 10 + 1, seed=seed)
            assert 10 * cfg.max_candidates > watermark._PASS_ROWS
            ts, message = build_outcome(rare, constant, ball, cfg)
            try:
                expected = reference_collect(rare, constant, proxy_models(ball, cfg), cfg)
            except NoCandidateFoundError as err:
                assert (ts, message) == (None, str(err))
                capped.append(seed)
            else:
                assert_same_set(ts, *expected)
        assert 0 < len(capped) < 20

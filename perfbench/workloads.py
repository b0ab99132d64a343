"""The two workloads. Each one is built so that a different module does most
of the work, and each pass ends the way a user ends it: by verifying the
suspects it produced, in process and once through a fresh ``proxymark``
process.

- experiment: in-process ``proxymark run`` on the pinned default config, one
  seed per pass. 17 small ``fit`` calls dominate (per-step overhead).
- verification: set-up trains the default-config models once; each pass
  builds a verified m=64, n=200 trigger set and sweeps ``proxymark verify``
  over all 20 checkpoints. ``watermark`` and single-row ``predict`` dominate.

Every operation is checked against ``reference``, which recomputes from
the files alone what the program should have produced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import yaml

import proxymark as pm
from proxymark import cli, harness
from proxymark.config import load_config
from proxymark.watermark import VerifyConfig

import reference as ref

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "blob_default.yaml"


class Pinned:
    """What the benchmark reads from the pinned config by itself: the blob
    generator, the hold-out fraction and the names of the checkpoints ``run``
    writes, in ``report.csv`` row order."""

    def __init__(self):
        raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
        self.gen = raw["dataset"]["generator"]
        self.holdout_fraction = raw["dataset"]["split"]["holdout_fraction"]
        surrogates = [f"surrogate_{a['kind']}_{ai}_{k}"
                      for ai, a in enumerate(raw["attacks"]) for k in range(raw["repeats"])]
        independents = [f"independent_{k}" for k in range(raw["independents"]["count"])]
        self.names = ["source", *surrogates, *independents]

    def holdout(self, seed: int):
        """The hold-out ``run`` draws for config seed ``seed``, regenerated."""
        g = self.gen
        x, y = ref.blobs(g["classes"], g["dim"], g["per_class"], g["spread"],
                         ref.derive_seed(seed, 10))
        return ref.holdout(x, y, g["classes"], self.holdout_fraction, ref.derive_seed(seed, 11))


class OpFailed(Exception):
    """An operation ended with a non-zero exit code."""


FAILED = object()


class Bench:
    """One run's operations, timings, output checks and counted faults."""

    def __init__(self, root: Path, out: Path, env: dict, tracer=None):
        self.root, self.out, self.env = root, out, env
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        self.faults: Counter = Counter()

    def op(self, metric: str, fn, *args, traced: bool = True):
        """One timed operation. One that raises is counted failed and returns FAILED."""
        self.attempted += 1
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.on = True
            sid = tracer.open(f"bench.{metric}")
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the run goes on; the failure is counted and shown
            self.failed += 1
            print(f"perfbench: {metric} failed\n{traceback.format_exc()}", file=sys.stderr)
            return FAILED
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close(sid)
                tracer.on = False
        self.samples[metric].append(elapsed)
        return result

    def check(self, fn, *args):
        """An output check; any exception, even from a file it cannot read,
        fails it. Returns what ``fn`` returns, or None when it fails."""
        try:
            return fn(*args)
        except Exception as exc:  # recorded, and the run reports correct: false
            self.problems.append(f"{fn.__name__}: {exc!r}")
            return None

    def fault(self, what: str) -> None:
        """The named fault kept in a workload: counted failed, not a failed check."""
        self.failed += 1
        self.faults[what] += 1

    def import_sample(self) -> None:
        """Seconds a fresh interpreter takes to import ``proxymark.cli``."""
        code = ("import time; t = time.perf_counter(); import proxymark.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            self.samples["cli.import_s"].append(float(proc.stdout))
        else:
            self.problems.append(f"import proxymark.cli: {proc.stderr.strip()}")


def cli_main(argv: list[str]) -> str:
    """In-process ``proxymark <argv>``; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"proxymark {argv[0]} exited {code}")
    return buf.getvalue()


def read_verification(out: Path) -> dict:
    """The one row ``proxymark verify --out`` writes to verification.csv."""
    with open(out / "verification.csv", newline="", encoding="ascii") as fh:
        return next(csv.DictReader(fh))


def roundtrip_checkpoint(path: Path, scratch: Path) -> None:
    copy = scratch / path.name
    pm.save_checkpoint(pm.load_checkpoint(path), copy)
    if copy.read_bytes() != path.read_bytes():
        raise ref.CheckFailed(f"{path.name} does not round-trip byte for byte")


def roundtrip_trigger_set(path: Path, scratch: Path) -> None:
    copy = scratch / path.name
    pm.save_trigger_set(pm.load_trigger_set(path), copy)
    for a, b in ((path, copy), (path.with_suffix(".bin"), copy.with_suffix(".bin"))):
        if a.read_bytes() != b.read_bytes():
            raise ref.CheckFailed(f"{a.name} does not round-trip byte for byte")


class Workload:
    """Set-up, whole rounds of the same operations, and the checks on them."""

    def __init__(self, bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.pinned = Pinned()
        self.out = bench.out
        self.scratch = bench.out / "roundtrip"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def round_seed(self, r: int) -> int:
        return ref.derive_seed(self.seed, r)

    def fresh(self, name: str) -> Path:
        d = self.out / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def after_setup(self) -> None:
        """Checks on what the first set-up made."""

    def finish(self) -> None:
        """Checks over the whole run."""

    def verify_sweep(self, trigger_set: Path, checkpoints: dict[str, Path],
                     expected: dict[str, float], counted_fault: frozenset[str] = frozenset()) -> None:
        """In-process ``proxymark verify`` of every checkpoint, then one fresh
        ``python -m proxymark verify`` of the source."""
        bench = self.bench
        xs, y, _, _, man = ref.read_trigger_set(trigger_set)
        m = int(man["ball"]["m"])
        out = self.out / "verify"
        out.mkdir(exist_ok=True)
        for name, path in checkpoints.items():
            argv = ["verify", "--suspect", str(path), "--trigger-set", str(trigger_set),
                    "--out", str(out)]
            (out / "verification.csv").unlink(missing_ok=True)
            if bench.op("verify_ms", cli_main, argv) is FAILED:
                continue
            report = bench.check(read_verification, out)
            if report is None:
                continue
            bench.check(self._check_report, report, name, m, xs, y, path, expected.get(name))
            if name in counted_fault and report["verdict"] == "stolen":
                bench.fault(f"verify judged {name} stolen")
        printed = bench.op("cli_verify_s", self._cli_verify, checkpoints["source"], trigger_set,
                           traced=False)
        if printed is not FAILED:
            bench.check(self._check_cli_verdict, printed)

    @staticmethod
    def _check_report(report, name, m, xs, y, path, expected) -> None:
        alpha = float(report["alpha"])
        if abs(float(report["p_hat"]) - ref.p_hat(m, alpha)) > 1e-9:
            raise ref.CheckFailed(f"p_hat {report['p_hat']} != ({alpha}/2)^(1/{m})")
        tacc = float(report["trigger_accuracy"])
        ref.check_trigger_accuracy(tacc, xs, y, path.read_bytes())
        if expected is not None and tacc != expected:
            raise ref.CheckFailed(f"verify gives {name} {tacc!r}, the pipeline {expected!r}")
        if name == "source" and report["verdict"] != "stolen":
            raise ref.CheckFailed(f"source judged {report['verdict']}")

    def _cli_verify(self, suspect: Path, trigger_set: Path) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "proxymark", "verify", "--suspect", str(suspect),
             "--trigger-set", str(trigger_set)],
            env=self.bench.env, cwd=self.bench.root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise OpFailed(f"python -m proxymark verify exited {proc.returncode}: {proc.stderr}")
        return proc.stdout

    @staticmethod
    def _check_cli_verdict(printed: str) -> None:
        if "verdict:           stolen" not in printed:
            raise ref.CheckFailed("fresh-process verify does not judge the source stolen")


class Experiment(Workload):
    """Repeated in-process ``proxymark run`` on the pinned default config."""

    def __init__(self, bench, seed):
        super().__init__(bench, seed)
        self.reports: list[bytes] = []  # set-ups' and the first pass's

    def _run(self, seed: int, out: Path) -> None:
        cli_main(["run", "--config", str(CONFIG), "--seed", str(seed), "--out", str(out)])

    def setup(self, i: int) -> None:
        """A warm-up ``run`` of the first pass's seed; its report is the
        reference for the determinism check."""
        out = self.fresh(f"setup_{i}")
        self._run(self.round_seed(0), out)
        self.reports.append((out / "report.csv").read_bytes())
        shutil.rmtree(out)

    def round(self, r: int) -> None:
        bench, seed = self.bench, self.round_seed(r)
        out = self.fresh("pass")
        if bench.op("pass_s", self._run, seed, out) is FAILED:
            return
        report = (out / "report.csv").read_bytes()
        if r == 0:
            self.reports.append(report)
        rows = list(csv.DictReader(io.StringIO(report.decode("ascii"))))
        bench.check(self._check_rows, rows)
        ckpts = {n: out / "checkpoints" / f"{n}.ckpt" for n in self.pinned.names}
        ts = out / "trigger_set.json"
        hold_x, hold_y = self.pinned.holdout(seed)
        bench.check(ref.check_triggers, ts, hold_x, hold_y, ckpts["source"].read_bytes())
        bench.check(roundtrip_trigger_set, ts, self.scratch)
        for path in ckpts.values():
            bench.check(roundtrip_checkpoint, path, self.scratch)
        expected = {n: float(row["trigger_acc"]) for n, row in zip(self.pinned.names, rows)}
        self.verify_sweep(ts, ckpts, expected)

    def finish(self) -> None:
        self.bench.check(self._check_determinism)

    def _check_determinism(self) -> None:
        if any(r != self.reports[0] for r in self.reports):
            raise ref.CheckFailed("two runs on one seed gave different report.csv")

    def _check_rows(self, rows) -> None:
        roles = [r["role"] for r in rows]
        if roles != [n.split("_")[0] for n in self.pinned.names]:
            raise ref.CheckFailed(f"report.csv roles {roles}")


class Verification(Workload):
    """Verified m=64, n=200 trigger sets and a ``verify`` sweep on fixed models.

    The models come from the pinned config's own seed, so they are the same
    for every benchmark seed; the benchmark seed picks each pass's trigger set.
    """

    M, N = 64, 200
    INDEPENDENTS = frozenset(f"independent_{k}" for k in range(4))

    def __init__(self, bench, seed):
        super().__init__(bench, seed)
        self.digests: list[list[str]] = []

    def setup(self, i: int) -> None:
        """Train the default-config models with ``proxymark run`` and load the
        source and its data."""
        out = self.fresh(f"setup_{i}")
        cli_main(["run", "--config", str(CONFIG), "--out", str(out)])
        self.cfg = load_config(CONFIG)
        data = harness.build_dataset(self.cfg)
        self.train_data, self.holdout = pm.split(
            data, pm.SplitSpec(self.cfg.dataset.holdout_fraction, harness.derive_seed(self.cfg.seed, 11))
        )
        self.ckpts = {n: out / "checkpoints" / f"{n}.ckpt" for n in self.pinned.names}
        self.source = pm.load_checkpoint(self.ckpts["source"])
        self.digests.append([hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in self.ckpts.values()])

    def after_setup(self) -> None:
        for path in self.ckpts.values():
            self.bench.check(roundtrip_checkpoint, path, self.scratch)
        self.hold_x, self.hold_y = self.pinned.holdout(self.cfg.seed)

    def finish(self) -> None:
        self.bench.check(self._check_same_models)

    def _check_same_models(self) -> None:
        if any(d != self.digests[0] for d in self.digests):
            raise ref.CheckFailed("two set-up runs on one seed trained different models")

    def _build(self, seed: int, path: Path) -> None:
        ball = harness.make_ball(self.cfg, self.source, self.train_data)
        ts = pm.verify_trigger_set(self.holdout, self.source, ball, VerifyConfig(self.M, self.N, seed=seed))
        pm.save_trigger_set(ts, path)

    def round(self, r: int) -> None:
        bench = self.bench
        ts = self.fresh("pass") / "trigger_set.json"
        if bench.op("pass_s", self._build, self.round_seed(r), ts) is FAILED:
            return
        bench.check(ref.check_triggers, ts, self.hold_x, self.hold_y,
                    self.ckpts["source"].read_bytes())
        bench.check(roundtrip_trigger_set, ts, self.scratch)
        self.verify_sweep(ts, self.ckpts, {}, counted_fault=self.INDEPENDENTS)


WORKLOADS = {"experiment": Experiment, "verification": Verification}

"""Span tracing for the traced run, installed from outside the program.

Public functions are wrapped where their callers look them up (a module
attribute such as ``proxymark.harness.train`` or ``proxymark.attacks.fit``),
so the program is traced without a change to it. Each span has a name, a
start, an end and a parent. Spans sit in flat arrays in memory and are written
when the run ends. Counts of work are derived from call arguments and return
values, never from code inside the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("nn", "watermark", "stats", "attacks", "harness", "data", "config", "cli", "bench")


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []

    def open(self, name: str) -> int:
        sid = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count is not None:
                count(tracer, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook in HOOKS. A hook the program no longer has ends the
        run: its metrics would otherwise read 0, like a real drop."""
        cli = importlib.import_module("proxymark.cli")
        found, missing = [], []
        for span, attr, homes, count in HOOKS:
            for home in homes:
                module = importlib.import_module("proxymark" + (f".{home}" if home else ""))
                if hasattr(module, attr):
                    found.append((module, attr, span, count))
                else:
                    missing.append(f"{module.__name__}.{attr}")
        missing += [f"proxymark.cli.COMMANDS[{c!r}]" for c in ("run", "verify")
                    if c not in cli.COMMANDS]
        if missing:
            raise SystemExit(f"perfbench: hooks no longer in the program: {', '.join(missing)}")
        for module, attr, span, count in found:
            fn = getattr(module, attr)
            if attr == "trigger_candidate":
                wrapped = _counting_draws(self, self.wrap(fn, span), fn)
            else:
                wrapped = self.wrap(fn, span, count)
            setattr(module, attr, wrapped)
            self._undo.append((module, attr, fn))
        for command in ("run", "verify"):
            fn = cli.COMMANDS[command]
            cli.COMMANDS[command] = self.wrap(fn, f"cli.cmd_{command}")
            self._undo.append((cli.COMMANDS, command, fn))

    def uninstall(self) -> None:
        for home, attr, fn in reversed(self._undo):
            if isinstance(home, dict):
                home[attr] = fn
            else:
                setattr(home, attr, fn)
        self._undo.clear()

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32),
            np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32),
            np.array(self.start),
            np.array(self.end),
        )

    def write(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start - t0, end=end - t0,
        )


class _CountingRng:
    """Delegates to a numpy Generator and counts the pair draws made on it."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def _counting_draws(tracer: Tracer, traced, fn):
    @functools.wraps(fn)
    def wrapper(holdout, model, rng, *args, **kwargs):
        if not tracer.on:
            return fn(holdout, model, rng, *args, **kwargs)
        counting = _CountingRng(rng)
        try:
            return traced(holdout, model, counting, *args, **kwargs)
        finally:
            tracer.counts["watermark.pair_draws"] += counting.draws

    return wrapper


def _count_fit(tracer, fn, args, kwargs, result) -> None:
    """SGD steps and dense-matmul flops of one fit, from its arguments.

    Per row and layer of shape (i, o): 2io for the forward matmul, 2io for the
    weight gradient and, above the first layer, 2io to carry the error back.
    """
    bound = inspect.signature(fn).bind(*args, **kwargs)
    spec, features, cfg = bound.arguments["spec"], bound.arguments["features"], bound.arguments["cfg"]
    n = len(features)
    batch = min(cfg.batch_size, n)
    dims = spec.layer_dims
    per_row = sum((4 if li == 0 else 6) * i * o for li, (i, o) in enumerate(zip(dims[:-1], dims[1:])))
    tracer.counts["nn.fit.steps"] += cfg.epochs * math.ceil(n / batch)
    tracer.counts["nn.fit.flop"] += cfg.epochs * n * per_row


def _count_checkpoint_bytes(tracer, fn, args, kwargs, result) -> None:
    path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
    tracer.counts["nn.checkpoint_save.bytes"] += os.path.getsize(path)


def _count_trigger_bytes(tracer, fn, args, kwargs, result) -> None:
    path = Path(inspect.signature(fn).bind(*args, **kwargs).arguments["path"])
    tracer.counts["watermark.save.bytes"] += path.stat().st_size + path.with_suffix(".bin").stat().st_size


def _count_trigger_set(tracer, fn, args, kwargs, result) -> None:
    tracer.counts["watermark.accepted"] += result.n
    tracer.counts["watermark.candidates"] += result.stats.candidates_consumed


def _wrap_parse_args(tracer, fn, args, kwargs, parser) -> None:
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")


# (span name, attribute, modules whose attribute callers look up ("" is the
# package itself, as the benchmark's workloads call it), count from args/result)
HOOKS = [
    ("nn.fit", "fit", ("nn", "attacks"), _count_fit),
    ("nn.train", "train", ("harness",), None),
    ("nn.predict", "predict", ("nn", "watermark", "stats", "attacks"), None),
    ("nn.forward", "forward", ("nn", "attacks"), None),
    ("nn.checkpoint_save", "save_checkpoint", ("harness", "cli"), _count_checkpoint_bytes),
    ("nn.checkpoint_load", "load_checkpoint", ("cli",), None),
    ("watermark.verify", "verify_trigger_set", ("harness", "cli", ""), _count_trigger_set),
    ("watermark.build_proxies", "build_proxies", ("watermark",), None),
    ("watermark.trigger_candidate", "trigger_candidate", ("watermark",), None),
    ("watermark.save", "save_trigger_set", ("harness", "cli", ""), _count_trigger_bytes),
    ("watermark.load", "load_trigger_set", ("cli",), None),
    ("stats.clopper_pearson", "clopper_pearson_lower", ("harness", "cli"), None),
    ("stats.trigger_accuracy", "trigger_accuracy", ("harness", "cli"), None),
    ("stats.verdict", "ownership_verdict", ("harness", "cli"), None),
    ("attacks.soft_label", "steal_soft", ("attacks",), None),
    ("attacks.hard_label", "steal_hard", ("attacks",), None),
    ("attacks.rgt", "steal_rgt", ("attacks",), None),
    ("attacks.prune", "prune", ("attacks",), None),
    ("attacks.finetune", "finetune", ("attacks",), None),
    ("harness.run_experiment", "run_experiment", ("cli",), None),
    ("harness.train_independent", "train_independent", ("harness",), None),
    ("harness.emit_report", "emit_report", ("harness",), None),
    ("data.make_blobs", "make_blobs", ("harness",), None),
    ("data.split", "split", ("harness", "cli"), None),
    ("config.load", "load_config", ("cli",), None),
    ("cli.build_parser", "build_parser", ("cli",), _wrap_parse_args),
]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per workload pass, from the recorded spans and counts."""
    name, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    parent_name = np.full(name.size, -1, dtype=np.int64)
    parent_name[has_parent] = name[parent[has_parent]]
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(span, under=None):
        mask = name == ids.get(span, -2)
        if under is not None:
            mask &= parent_name == ids.get(under, -2)
        return mask

    def calls(span, under=None):
        return int(np.count_nonzero(sel(span, under)))

    def secs(span, under=None):
        return float(dur[sel(span, under)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    per = 1.0 / max(passes, 1)
    fit_s = secs("nn.fit")
    source_predicts = calls("nn.predict", "watermark.trigger_candidate")
    m = {
        "nn.fit.calls": (calls("nn.fit") * per, "count"),
        "nn.fit.steps": (c["nn.fit.steps"] * per, "count"),
        "nn.fit.s": (fit_s * per, "s"),
        "nn.fit.steps_per_s": (ratio(c["nn.fit.steps"], fit_s), "1/s"),
        "nn.fit.gflop": (c["nn.fit.flop"] * 1e-9 * per, "GFLOP"),
        "nn.fit.gflop_per_s": (ratio(c["nn.fit.flop"] * 1e-9, fit_s), "GFLOP/s"),
        "nn.predict.calls": (calls("nn.predict") * per, "count"),
        "nn.predict.s": (secs("nn.predict") * per, "s"),
        "nn.forward.calls": (calls("nn.forward") * per, "count"),
        "nn.forward.s": (secs("nn.forward") * per, "s"),
        "nn.checkpoint_save.calls": (calls("nn.checkpoint_save") * per, "count"),
        "nn.checkpoint_save.s": (secs("nn.checkpoint_save") * per, "s"),
        "nn.checkpoint_save.bytes": (c["nn.checkpoint_save.bytes"] * per, "bytes"),
        "nn.checkpoint_load.calls": (calls("nn.checkpoint_load") * per, "count"),
        "nn.checkpoint_load.s": (secs("nn.checkpoint_load") * per, "s"),
        "watermark.verify.s": (secs("watermark.verify") * per, "s"),
        "watermark.build_proxies.s": (secs("watermark.build_proxies") * per, "s"),
        "watermark.candidates": (c["watermark.candidates"] * per, "count"),
        "watermark.accepted": (c["watermark.accepted"] * per, "count"),
        "watermark.acceptance_ratio": (
            ratio(c["watermark.accepted"], c["watermark.candidates"]), "ratio"),
        "watermark.pair_draws": (c["watermark.pair_draws"] * per, "count"),
        "watermark.third_class_ratio": (
            ratio(calls("watermark.trigger_candidate"), source_predicts), "ratio"),
        "watermark.proxy_predicts": (calls("nn.predict", "watermark.verify") * per, "count"),
        "watermark.save.s": (secs("watermark.save") * per, "s"),
        "watermark.save.bytes": (c["watermark.save.bytes"] * per, "bytes"),
        "watermark.load.s": (secs("watermark.load") * per, "s"),
        "stats.clopper_pearson.calls": (calls("stats.clopper_pearson") * per, "count"),
        "stats.clopper_pearson.s": (secs("stats.clopper_pearson") * per, "s"),
        "stats.trigger_accuracy.calls": (calls("stats.trigger_accuracy") * per, "count"),
        "stats.trigger_accuracy.s": (secs("stats.trigger_accuracy") * per, "s"),
        "stats.verdict.calls": (calls("stats.verdict") * per, "count"),
        "attacks.soft_label.s": (secs("attacks.soft_label") * per, "s"),
        "attacks.hard_label.s": (secs("attacks.hard_label") * per, "s"),
        "attacks.rgt.s": (secs("attacks.rgt") * per, "s"),
        "attacks.prune.s": (secs("attacks.prune") * per, "s"),
        "attacks.finetune.s": (secs("attacks.finetune") * per, "s"),
        "harness.source.s": (secs("nn.train", "harness.run_experiment") * per, "s"),
        "harness.independents.s": (secs("harness.train_independent") * per, "s"),
        "harness.emit_report.s": (secs("harness.emit_report") * per, "s"),
        "data.make_blobs.s": (secs("data.make_blobs") * per, "s"),
        "data.split.s": (secs("data.split") * per, "s"),
        "config.load.s": (secs("config.load") * per, "s"),
        "cli.parse.s": ((secs("cli.build_parser") + secs("cli.parse_args")) * per, "s"),
        "cli.verify.self_s": (float(own[sel("cli.cmd_verify")].sum()) * per, "s"),
    }
    module_of = np.array([n.split(".")[0] for n in tracer.names] or [""])
    span_module = module_of[name] if name.size else np.zeros(0, dtype=module_of.dtype)
    for module in MODULES:
        m[f"{module}.self_s"] = (float(own[span_module == module].sum()) * per, "s")
    m["trace.spans"] = (name.size * per, "count")
    return m


def print_table(metrics: dict) -> None:
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key:<32} {value:>14.6g} {unit}")

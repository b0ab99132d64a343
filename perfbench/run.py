#!/usr/bin/env python3
"""Benchmark for proxymark: one run of one workload.

    python3 perfbench/run.py --workload {experiment,verification} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a proxymark checkout: it imports the package from
./src and writes only under ./.perfbench/. Load comes from this one process
in a closed loop, one operation at a time, with BLAS pinned to one thread in
its own environment.

The run sets up once, then repeats whole passes of the workload until
--seconds have gone by, checking every output against ``reference``. It sets
up SETUP_REPEATS - 1 more times at even intervals of that window, so that
setup_s, their median, sees the same host as the passes do. It
prints a readable summary and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones,
from spans recorded around the program's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SETUP_REPEATS = 5
# One BLAS thread, so that a pass's time does not depend on whether the
# second core of a shared 2-core machine happens to be free.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("experiment", "verification")


def pin_environment() -> dict:
    """Pin BLAS threads for this process (before numpy loads) and its children."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} median {q2:.6g} q3 {q3:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "proxymark"
    if not (package / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a proxymark checkout "
              "(src/proxymark and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import proxymark

    if Path(proxymark.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported {proxymark.__file__}, not the checkout's", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics, print_table
    from workloads import WORKLOADS, Bench

    out = ROOT / ".perfbench" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    bench = Bench(ROOT, out, env, tracer)
    workload = WORKLOADS[args.workload](bench, args.seed)

    setup = []

    def set_up() -> None:
        t0 = perf_counter()
        workload.setup(len(setup))
        setup.append(perf_counter() - t0)

    set_up()
    workload.after_setup()

    if tracer is not None:
        tracer.install()
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() < start + args.seconds:
        if (len(setup) < SETUP_REPEATS
                and perf_counter() - start >= args.seconds * len(setup) / SETUP_REPEATS):
            set_up()
        workload.round(passes)
        passes += 1
        if tracer is not None:
            bench.import_sample()
    while len(setup) < SETUP_REPEATS:
        set_up()
    if tracer is not None:
        tracer.uninstall()
    workload.finish()

    s = bench.samples
    median = statistics.median
    if tracer is None:
        metrics = {
            "setup_s": (median(setup), "s"),
            "pass_s": (median(s["pass_s"]), "s"),
            "verify_ms": (median(s["verify_ms"]) * 1e3, "ms"),
            "cli_verify_s": (median(s["cli_verify_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        kind = "end_to_end"
    else:
        metrics = layer_metrics(tracer, passes)
        metrics["trace.pass_s"] = (median(s["pass_s"]), "s")
        metrics["trace.verify_ms"] = (median(s["verify_ms"]) * 1e3, "ms")
        metrics["cli.import_s"] = (median(s["cli.import_s"]), "s")
        tracer.write(out / "spans.npz")
        kind = "per_layer"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        print(f"perfbench: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json "
              f"{kind}", file=sys.stderr)
        return 3

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {passes} passes, "
          f"{bench.attempted} operations, {bench.failed} failed")
    print(f"  setup: {quartiles(setup)} s over {len(setup)}")
    for name, values in sorted(s.items()):
        print(f"  {name}: {quartiles(values)} over {len(values)}")
    if len(s["verify_ms"]) >= 100:
        p90 = statistics.quantiles(s["verify_ms"], n=10)[-1] * 1e3
        print(f"  verify p90: {p90:.6g} ms over {len(s['verify_ms'])}")
    for what, n in sorted(bench.faults.items()):
        print(f"  counted fault: {what} ({n} times)")
    for problem in bench.problems:
        print(f"  FAILED CHECK: {problem}")
    if tracer is None:
        print("end-to-end metrics:")
    else:
        print("per-layer metrics, per pass:")
    print_table(metrics)

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (out / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
